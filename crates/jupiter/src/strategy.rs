//! The strategy interface and market snapshots.

use std::ops::Range;

use spot_market::{InstanceType, Price, Zone};
use spot_model::FailureModel;

use crate::framework::MarketSnapshot;
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

impl<'a> ZoneState<'a> {
    /// The pool of snapshot `s` priced by `model`, its bids capped at the
    /// pool's on-demand price.
    pub(crate) fn new(s: &MarketSnapshot, model: &'a FailureModel) -> Self {
        ZoneState {
            zone: s.zone,
            instance_type: s.instance_type,
            spot_price: s.spot_price,
            sojourn_age: s.sojourn_age,
            on_demand: s.instance_type.on_demand_price(s.zone.region),
            model,
        }
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
    pub(crate) fn empty() -> Self {
        BidDecision { bids: Vec::new() }
    }

    /// The number of instances.
    pub fn n(&self) -> usize {
        self.bids.len()
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

    /// Every decision of a schedule in one pass, before a replay books any
    /// of them — or `None`, the default, to be asked one boundary at a
    /// time inside the loop. Only a strategy whose boundary decisions read
    /// nothing but the market and its models, never what became of
    /// earlier bids, may answer (the feedback bidder learns from its books
    /// and does not). Before each decision every pool's model observes
    /// that boundary's revealed minutes (`PoolWalk::walk`).
    fn decide_schedule(
        &self,
        _pools: &[PoolWalk<'_>],
        _boundaries: &[Boundary],
        _spec: &ServiceSpec,
    ) -> Option<Vec<Decided>> {
        None
    }

    /// Record a pass decision as the books take it up, on the books'
    /// clock, as [`Self::decide`] records its own when the loop asks. The
    /// default records nothing.
    fn record_decided(&self, _decided: &Decided) {}
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

    fn decide_schedule(
        &self,
        pools: &[PoolWalk<'_>],
        boundaries: &[Boundary],
        spec: &ServiceSpec,
    ) -> Option<Vec<Decided>> {
        self.as_ref().decide_schedule(pools, boundaries, spec)
    }

    fn record_decided(&self, decided: &Decided) {
        self.as_ref().record_decided(decided)
    }
}

/// One boundary of a schedule, as a decision pass sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct Boundary {
    /// The market minute the decision takes effect (the interval start).
    pub minute: u64,
    /// Minutes revealed since the previous boundary, observed by every
    /// pool's model before this decision; empty when nothing is new.
    pub revealed: Range<u64>,
    /// The market at decision time: one snapshot per pool, in the order
    /// the pass's [`PoolWalk`]s index.
    pub snapshots: Vec<MarketSnapshot>,
    /// The decision horizon.
    pub horizon_minutes: u32,
}

/// A chosen bid as its pool's model prices it: what the decision's audit
/// record carries ([`crate::BiddingFramework::views`] builds it, however
/// the decision was made).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BidView {
    /// The model's expected failure probability of the bid over the
    /// horizon ([`FailureModel::estimate_fp`]).
    pub predicted_fp: f64,
    /// [`spot_model::FrozenKernel::fingerprint`] of the kernel behind it.
    pub kernel_id: u64,
}

/// One boundary's decision out of a decision pass.
#[derive(Clone, Debug)]
pub struct Decided {
    /// The decision.
    pub decision: BidDecision,
    /// Failure-probability memo hits while making it (a strategy without
    /// a memo reports none).
    pub fp_cache_hits: u64,
    /// Host time spent on it, where the strategy measures it (else 0).
    pub micros: u64,
}

/// One pool a decision pass walks: its model as the run installed it,
/// following the minutes the boundaries reveal.
pub struct PoolWalk<'a> {
    /// The zone.
    pub zone: Zone,
    /// The instance-type pool within the zone.
    pub instance_type: InstanceType,
    /// The model before the first boundary ([`FailureModel::follow`]);
    /// walks fold copies of it.
    pub model: &'a FailureModel,
    /// This pool's index into every [`Boundary::snapshots`].
    pub slot: usize,
}

impl PoolWalk<'_> {
    /// Walk `boundaries` in order on a copy of the model: show it each
    /// boundary's revealed minutes, then hand `f` the pool's state there.
    /// One kernel at a time: each fold replaces the last.
    pub(crate) fn walk<R>(
        &self,
        boundaries: &[Boundary],
        mut f: impl FnMut(&Boundary, &ZoneState<'_>) -> R,
    ) -> Vec<R> {
        let mut model = self.model.clone();
        (boundaries.iter().enumerate())
            .map(|(k, b)| {
                model.show(k + 1);
                f(b, &ZoneState::new(&b.snapshots[self.slot], &model))
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spot_market::topology::all_zones;

    /// Total capacity-weighted serving strength of a decision.
    pub(crate) fn strength(d: &BidDecision) -> u32 {
        d.bids
            .iter()
            .map(|b| b.instance_type.capacity_weight())
            .sum()
    }

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
        assert_eq!(strength(&d), 5);
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
