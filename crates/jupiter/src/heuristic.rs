//! The `Extra(m, p)` comparison heuristics (§5.2) and the on-demand
//! baseline marker.
//!
//! `Extra(m, p)` ignores the failure model entirely: it picks the
//! `baseline_nodes + m` zones with the lowest current spot prices and bids
//! the spot price plus an extra portion `p` (10 % or 20 % in the paper).
//! It is cheap and simple — and, as the evaluation shows, cannot hold the
//! availability level, which is the paper's core point.

use crate::service::ServiceSpec;
use crate::strategy::{BidDecision, BiddingStrategy, PoolBid, ZoneState};

/// The `Extra(m, p)` heuristic.
#[derive(Clone, Copy, Debug)]
pub struct ExtraStrategy {
    /// Additional nodes beyond the baseline count.
    pub extra_nodes: usize,
    /// Extra portion of the spot price to bid (0.1 ⇒ bid = spot × 1.1).
    pub extra_portion: f64,
}

impl ExtraStrategy {
    /// `Extra(m, p)`.
    pub fn new(extra_nodes: usize, extra_portion: f64) -> Self {
        assert!(extra_portion >= 0.0, "negative portion");
        ExtraStrategy {
            extra_nodes,
            extra_portion,
        }
    }
}

impl BiddingStrategy for ExtraStrategy {
    fn name(&self) -> String {
        format!("Extra({},{})", self.extra_nodes, self.extra_portion)
    }

    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        _horizon_minutes: u32,
    ) -> BidDecision {
        let want = spec.baseline_nodes + self.extra_nodes;
        let mut by_price: Vec<&ZoneState> = zones.iter().collect();
        by_price.sort_by_key(|z| (z.spot_price, z.zone.ordinal(), z.instance_type.ordinal()));
        let bids = by_price
            .into_iter()
            .take(want)
            .map(|z| PoolBid {
                zone: z.zone,
                instance_type: z.instance_type,
                bid: z.spot_price.scale(1.0 + self.extra_portion),
            })
            .collect();
        BidDecision { bids }
    }
}

/// A one-shot bidding wrapper modelling Andrzejak et al.'s decision model
/// (the paper's related work, \[3\]): compute an SLA-respecting bid
/// assignment **once**, then hold it unchanged for the whole deployment —
/// no re-bidding at interval boundaries. The paper argues this "simple
/// approach is not suitable for the case of frequent fluctuation of spot
/// prices"; the ablation quantifies that claim against online Jupiter.
pub struct FixedOnce<S> {
    inner: S,
    decision: std::sync::Mutex<Option<crate::strategy::BidDecision>>,
}

impl<S> FixedOnce<S> {
    /// Wrap `inner`, freezing its first decision.
    pub fn new(inner: S) -> Self {
        FixedOnce {
            inner,
            decision: std::sync::Mutex::new(None),
        }
    }
}

impl<S: BiddingStrategy> BiddingStrategy for FixedOnce<S> {
    fn name(&self) -> String {
        format!("{} [fixed-once]", self.inner.name())
    }

    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        horizon_minutes: u32,
    ) -> BidDecision {
        let mut cached = self.decision.lock().expect("poisoned");
        if let Some(d) = cached.as_ref() {
            return d.clone();
        }
        let d = self.inner.decide(zones, spec, horizon_minutes);
        *cached = Some(d.clone());
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_market::{InstanceType, Price, PricePoint, PriceTrace, Zone};
    use spot_model::{FailureModel, FailureModelConfig};

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    fn dummy_model() -> FailureModel {
        FailureModel::from_trace(
            &PriceTrace::new(
                vec![
                    PricePoint {
                        minute: 0,
                        price: p(0.01),
                    },
                    PricePoint {
                        minute: 10,
                        price: p(0.02),
                    },
                ],
                20,
            ),
            FailureModelConfig::default(),
        )
    }

    #[test]
    fn picks_cheapest_n_plus_m_and_scales_bids() {
        let model = dummy_model();
        let zones = spot_market::topology::all_zones();
        let states: Vec<ZoneState> = (0..8)
            .map(|i| ZoneState {
                zone: zones[i],
                instance_type: InstanceType::M1Small,
                spot_price: p(0.004 + 0.001 * i as f64),
                sojourn_age: 0,
                on_demand: p(0.044),
                model: &model,
            })
            .collect();
        let spec = ServiceSpec::lock_service();

        let d0 = ExtraStrategy::new(0, 0.1).decide(&states, &spec, 60);
        assert_eq!(d0.n(), 5);
        // Cheapest five are zones 0..5; bids are spot × 1.1.
        assert_eq!(d0.bid_for(zones[0], InstanceType::M1Small), Some(p(0.0044)));
        assert_eq!(d0.bid_for(zones[4], InstanceType::M1Small), Some(p(0.0088)));
        assert_eq!(d0.bid_for(zones[5], InstanceType::M1Small), None);

        let d2 = ExtraStrategy::new(2, 0.2).decide(&states, &spec, 60);
        assert_eq!(d2.n(), 7);
        assert_eq!(d2.bid_for(zones[6], InstanceType::M1Small), Some(p(0.012)));
    }

    #[test]
    fn fewer_zones_than_wanted_takes_all() {
        let model = dummy_model();
        let zones = spot_market::topology::all_zones();
        let states: Vec<ZoneState> = (0..3)
            .map(|i| ZoneState {
                zone: zones[i],
                instance_type: InstanceType::M1Small,
                spot_price: p(0.01),
                sojourn_age: 0,
                on_demand: p(0.044),
                model: &model,
            })
            .collect();
        let spec = ServiceSpec::lock_service();
        let d = ExtraStrategy::new(0, 0.2).decide(&states, &spec, 60);
        assert_eq!(d.n(), 3);
    }

    #[test]
    fn names() {
        assert_eq!(ExtraStrategy::new(0, 0.1).name(), "Extra(0,0.1)");
        assert_eq!(ExtraStrategy::new(2, 0.2).name(), "Extra(2,0.2)");
        assert_eq!(
            FixedOnce::new(ExtraStrategy::new(0, 0.1)).name(),
            "Extra(0,0.1) [fixed-once]"
        );
    }

    #[test]
    fn fixed_once_freezes_the_first_decision() {
        let model = dummy_model();
        let zones = spot_market::topology::all_zones();
        let mk_states = |spot0: f64| -> Vec<(Zone, Price)> {
            (0..6).map(|i| (zones[i], p(spot0 + 0.001 * i as f64))).collect()
        };
        let spec = ServiceSpec::lock_service();
        let frozen = FixedOnce::new(ExtraStrategy::new(0, 0.1));

        let build = |prices: &[(Zone, Price)]| -> Vec<ZoneState<'_>> {
            prices
                .iter()
                .map(|&(zone, spot_price)| ZoneState {
                    zone,
                    instance_type: InstanceType::M1Small,
                    spot_price,
                    sojourn_age: 0,
                    on_demand: p(0.044),
                    model: &model,
                })
                .collect()
        };
        let a = mk_states(0.004);
        let first = frozen.decide(&build(&a), &spec, 60);
        // Prices move; the frozen strategy must not.
        let b = mk_states(0.020);
        let second = frozen.decide(&build(&b), &spec, 60);
        assert_eq!(first, second);
        // The unwrapped strategy would have re-bid.
        let live = ExtraStrategy::new(0, 0.1).decide(&build(&b), &spec, 60);
        assert_ne!(live, second);
    }
}
