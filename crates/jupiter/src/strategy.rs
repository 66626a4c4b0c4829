//! The strategy interface and market snapshots.

use spot_market::{InstanceType, Price, Zone};
use spot_model::{FailureModel, Forecast};

use crate::service::ServiceSpec;

/// Everything a strategy may know about one (zone, instance-type) pool at
/// bidding time.
pub struct ZoneState<'a> {
    /// The zone.
    pub zone: Zone,
    /// The instance-type pool within the zone.
    pub instance_type: InstanceType,
    /// Current spot price.
    pub spot_price: Price,
    /// Minutes the spot price has held its current value (the semi-Markov
    /// sojourn age).
    pub sojourn_age: u32,
    /// The on-demand price (the framework's bid cap, §4.2).
    pub on_demand: Price,
    /// The pool's trained failure model.
    pub model: &'a FailureModel,
}

impl ZoneState<'_> {
    /// Serving strength of one replica in this pool.
    pub fn capacity_weight(&self) -> u32 {
        self.instance_type.capacity_weight()
    }

    /// Forecast this zone over `horizon` minutes (None if untrained).
    pub fn forecast(&self, horizon: u32) -> Option<Forecast> {
        self.model
            .forecast(self.spot_price, self.sojourn_age, horizon)
    }

    /// The minimal bid meeting `target_fp` from a precomputed forecast,
    /// capped strictly below on-demand; `None` when infeasible.
    pub fn min_bid(&self, forecast: &Forecast, target_fp: f64) -> Option<Price> {
        self.model
            .min_bid_from_forecast(forecast, target_fp, self.spot_price, self.on_demand)
    }
}

/// One placed bid: an instance to run in a (zone, type) pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolBid {
    /// The zone.
    pub zone: Zone,
    /// The instance-type pool.
    pub instance_type: InstanceType,
    /// The bid price.
    pub bid: Price,
}

/// A bidding decision: which (zone, type) pools to hold instances in and
/// at what bids, for the coming interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BidDecision {
    /// Pool and bid for every instance to run.
    pub bids: Vec<PoolBid>,
}

impl BidDecision {
    /// An empty decision (run nothing — the strategy found no feasible
    /// deployment; the framework falls back to on-demand).
    pub fn empty() -> Self {
        BidDecision { bids: Vec::new() }
    }

    /// The number of instances.
    pub fn n(&self) -> usize {
        self.bids.len()
    }

    /// Total capacity-weighted serving strength of the decision.
    pub fn strength(&self) -> u32 {
        self.bids
            .iter()
            .map(|b| b.instance_type.capacity_weight())
            .sum()
    }

    /// The objective value: the cost upper bound Σ bids (one interval at
    /// worst-case prices).
    pub fn cost_upper_bound(&self) -> Price {
        self.bids.iter().map(|b| b.bid).sum()
    }

    /// The bid in the `(zone, ty)` pool, if one was placed.
    pub fn bid_for(&self, zone: Zone, ty: InstanceType) -> Option<Price> {
        self.bids
            .iter()
            .find(|b| b.zone == zone && b.instance_type == ty)
            .map(|b| b.bid)
    }
}

/// A bidding strategy: market snapshot in, bid decision out.
pub trait BiddingStrategy: Send + Sync {
    /// Short display name ("Jupiter", "Extra(0,0.2)", …).
    fn name(&self) -> String;

    /// Decide bids for the next interval of `horizon_minutes`.
    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        horizon_minutes: u32,
    ) -> BidDecision;
}

impl BiddingStrategy for Box<dyn BiddingStrategy> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        horizon_minutes: u32,
    ) -> BidDecision {
        self.as_ref().decide(zones, spec, horizon_minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_market::topology::all_zones;

    #[test]
    fn decision_accessors() {
        let zones = all_zones();
        let d = BidDecision {
            bids: vec![
                PoolBid {
                    zone: zones[0],
                    instance_type: InstanceType::M1Small,
                    bid: Price::from_dollars(0.01),
                },
                PoolBid {
                    zone: zones[1],
                    instance_type: InstanceType::M3Large,
                    bid: Price::from_dollars(0.02),
                },
            ],
        };
        assert_eq!(d.n(), 2);
        assert_eq!(d.strength(), 5);
        assert_eq!(d.cost_upper_bound(), Price::from_dollars(0.03));
        assert_eq!(
            d.bid_for(zones[0], InstanceType::M1Small),
            Some(Price::from_dollars(0.01))
        );
        assert_eq!(d.bid_for(zones[0], InstanceType::M3Large), None);
        assert_eq!(d.bid_for(zones[5], InstanceType::M1Small), None);
        let e = BidDecision::empty();
        assert_eq!(e.n(), 0);
        assert_eq!(e.cost_upper_bound(), Price::ZERO);
    }
}
