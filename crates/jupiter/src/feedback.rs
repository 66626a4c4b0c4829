//! A feedback-control bidding strategy (Li et al., "On a Feedback
//! Control-based Mechanism of Bidding for Cloud Spot Service").
//!
//! Where Jupiter *models* the price process and derives bids from
//! predicted failure probabilities, the feedback controller is model-free:
//! it closes a PID loop on the only signal it can observe per pool — did
//! our standing bid survive the spot price since the last decision? The
//! per-pool error is the difference between the per-node availability
//! target and that observed survival indicator; the controller integrates
//! it and adjusts the bid multiplicatively around the current spot price.
//!
//! The controller is deliberately ignorant of the semi-Markov model: the
//! scenario engine races it against Jupiter to quantify what the model
//! buys (and what a well-tuned loop recovers without it).

use std::sync::Mutex;

use quorum::QuorumRule;
use spot_market::{PoolTable, Price};

use crate::algorithm::zone_ranks;
use crate::service::ServiceSpec;
use crate::strategy::{BidDecision, BiddingStrategy, PoolBid, ZoneState};

// PID gains and actuation limits of the feedback bidder.
/// Proportional gain on the availability error.
const KP: f64 = 0.6;
/// Integral gain (error accumulates across decisions).
const KI: f64 = 0.25;
/// Derivative gain (on the error delta).
const KD: f64 = 0.1;
/// Initial bid headroom over the spot price (0.15 ⇒ spot × 1.15).
const INITIAL_HEADROOM: f64 = 0.15;
/// Headroom floor: the bid never drops below spot × (1 + floor).
const MIN_HEADROOM: f64 = 0.02;
/// Headroom ceiling: the bid never exceeds spot × (1 + ceiling), and
/// is always capped strictly below the on-demand price.
const MAX_HEADROOM: f64 = 3.0;
/// Anti-windup clamp on the integrated error.
const INTEGRAL_CLAMP: f64 = 4.0;

/// Per-pool controller state.
#[derive(Clone, Copy, Debug, Default)]
struct PoolLoop {
    /// Headroom over spot the last decision bid (the actuator value).
    headroom: f64,
    /// The bid actually placed last time (to judge survival).
    last_bid: Price,
    /// Accumulated availability error.
    integral: f64,
    /// Previous error (for the derivative term).
    last_error: f64,
    /// Whether the pool has been bid at least once.
    engaged: bool,
}

/// The controller's memory across decisions.
#[derive(Default)]
struct Loops {
    /// One PID loop per pool.
    pools: PoolTable<PoolLoop>,
    /// Set points solved so far, keyed by the spec fields the target
    /// depends on (baseline nodes, quorum rule, ε bits), so each is solved
    /// once and a hit solves nothing.
    set_points: Vec<((usize, QuorumRule, u64), f64)>,
}

impl Loops {
    /// The per-node availability the deployment needs (the loop's set
    /// point): at the baseline node count, a node may fail with at most
    /// the per-node FP target probability.
    fn set_point(&mut self, spec: &ServiceSpec) -> f64 {
        let key = (spec.baseline_nodes, spec.quorum, spec.epsilon.to_bits());
        if let Some(&(_, target)) = self.set_points.iter().find(|(k, _)| *k == key) {
            return target;
        }
        let n = spec.baseline_nodes.max(spec.quorum.min_nodes());
        let target = 1.0 - spec.node_fp_target(n).unwrap_or(0.01);
        self.set_points.push((key, target));
        target
    }
}

/// The feedback-control bidder: one PID loop per (zone, type) pool.
///
/// Stateful across decisions (interior mutability, like
/// [`crate::FixedOnce`]): each call observes which standing bids the
/// current spot prices would have killed and moves every pool's headroom
/// by the PID law before re-selecting the cheapest pools.
#[derive(Default)]
pub struct FeedbackStrategy {
    loops: Mutex<Loops>,
}

impl FeedbackStrategy {
    /// A controller with no pool engaged yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BiddingStrategy for FeedbackStrategy {
    fn name(&self) -> String {
        "Feedback".into()
    }

    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        _horizon_minutes: u32,
    ) -> BidDecision {
        if zones.is_empty() {
            return BidDecision::empty();
        }
        let mut guard = self.loops.lock().expect("poisoned");
        let target = guard.set_point(spec);
        let loops = &mut guard.pools;

        // 1. Control step: update every visible pool's loop from the
        // survival observation.
        for z in zones {
            let state = loops.get_or_insert_with(z.zone, z.instance_type, PoolLoop::default);
            if !state.engaged {
                state.headroom = INITIAL_HEADROOM;
                state.last_error = 0.0;
            } else {
                // Observed availability proxy: 1 when the standing bid
                // would still hold the instance at today's spot price.
                let survived = if state.last_bid >= z.spot_price { 1.0 } else { 0.0 };
                let error = target - survived; // > 0 ⇒ we were outbid
                state.integral = (state.integral + error).clamp(-INTEGRAL_CLAMP, INTEGRAL_CLAMP);
                let derivative = error - state.last_error;
                let u = KP * error + KI * state.integral + KD * derivative;
                state.headroom = (state.headroom * (1.0 + u)).clamp(MIN_HEADROOM, MAX_HEADROOM);
                state.last_error = error;
            }
        }

        // 2. Actuation: bid in the cheapest pools (by the would-be bid),
        // taking nodes until both the baseline count and any strength
        // floor are met. Bids stay strictly below on-demand.
        let mut bids: Vec<PoolBid> = (zones.iter())
            .map(|z| {
                let state = loops[(z.zone, z.instance_type)];
                let bid = z
                    .spot_price
                    .scale(1.0 + state.headroom)
                    .min(z.on_demand - Price::TICK);
                PoolBid {
                    zone: z.zone,
                    instance_type: z.instance_type,
                    bid: bid.max(z.spot_price),
                }
            })
            .collect();
        bids.sort_by_key(|b| (b.bid, b.zone.ordinal(), b.instance_type.ordinal()));

        // Under `spec.diversify` (the capacity-reclaim era) each zone's
        // cheapest pool comes first: same-zone pools share capacity
        // crunches, so covering zones first buys independence. The rest
        // follow in price order, as every pool does without `diversify`.
        if spec.diversify {
            let (mut rank, mut firsts) = (zone_ranks(), 0);
            for i in 0..bids.len() {
                if rank(bids[i].zone) == 0 {
                    bids[firsts..=i].rotate_right(1);
                    firsts += 1;
                }
            }
        }
        let (mut taken, mut strength) = (0, 0u32);
        let keep = (bids.iter())
            .take_while(|b| {
                let needs_more = taken < spec.baseline_nodes || strength < spec.min_strength;
                taken += 1;
                strength += b.instance_type.capacity_weight();
                needs_more
            })
            .count();
        bids.truncate(keep);

        // 3. Remember what we actually bid (pools we skipped keep their
        // loop state but observe nothing next round — mark them
        // unengaged so a stale last_bid does not feed a bogus error).
        for state in loops.values_mut() {
            state.engaged = false;
        }
        // Every bid pool was visible, so its loop exists; the first bid
        // for a pool is the one remembered.
        for pb in bids.iter().rev() {
            let state = loops
                .get_mut(pb.zone, pb.instance_type)
                .expect("visible pool");
            state.last_bid = pb.bid;
            state.engaged = true;
        }
        BidDecision { bids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::tests::strength;
    use spot_market::{InstanceType, PricePoint, PriceTrace};
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

    fn states<'a>(model: &'a FailureModel, spots: &[f64]) -> Vec<ZoneState<'a>> {
        let zones = spot_market::topology::all_zones();
        spots
            .iter()
            .enumerate()
            .map(|(i, s)| ZoneState {
                zone: zones[i],
                instance_type: InstanceType::M1Small,
                spot_price: p(*s),
                sojourn_age: 0,
                on_demand: p(0.044),
                model,
            })
            .collect()
    }

    #[test]
    fn bids_baseline_nodes_above_spot() {
        let m = dummy_model();
        let st = states(&m, &[0.008; 6]);
        let spec = ServiceSpec::lock_service();
        let d = FeedbackStrategy::new().decide(&st, &spec, 60);
        assert_eq!(d.n(), 5);
        for b in &d.bids {
            assert!(b.bid > p(0.008), "headroom over spot");
            assert!(b.bid < p(0.044), "capped below on-demand");
        }
    }

    #[test]
    fn raises_bids_after_being_outbid() {
        let m = dummy_model();
        let spec = ServiceSpec::lock_service();
        let strat = FeedbackStrategy::new();
        let first = strat.decide(&states(&m, &[0.008; 6]), &spec, 60);
        let b0 = first.bids[0];
        // Spot spikes above every standing bid: the loop must push
        // headroom up, so at the *same* spot price the new bid is higher.
        let _spiked = strat.decide(&states(&m, &[0.020; 6]), &spec, 60);
        let recovered = strat.decide(&states(&m, &[0.008; 6]), &spec, 60);
        let b2 = recovered
            .bid_for(b0.zone, b0.instance_type)
            .expect("still bids the cheap pool");
        assert!(
            b2 > b0.bid,
            "outbid loop must raise headroom: {:?} vs {:?}",
            b2,
            b0.bid
        );
    }

    #[test]
    fn decays_bids_while_surviving() {
        let m = dummy_model();
        let spec = ServiceSpec::lock_service();
        let strat = FeedbackStrategy::new();
        let first = strat.decide(&states(&m, &[0.008; 6]), &spec, 60);
        let b0 = first.bids[0];
        // Ten calm decisions: surviving means error < 0 (target < 1), so
        // the integral pulls headroom toward the floor.
        let mut last = b0.bid;
        for _ in 0..10 {
            let d = strat.decide(&states(&m, &[0.008; 6]), &spec, 60);
            last = d.bid_for(b0.zone, b0.instance_type).expect("still bidding");
        }
        assert!(last < b0.bid, "calm loop decays headroom: {last:?} vs {:?}", b0.bid);
        assert!(last > p(0.008), "but never below the spot price");
        // Calm for long enough, the headroom settles on its 2 % floor (no
        // golden keeps a pool calm that long).
        for _ in 0..100 {
            let d = strat.decide(&states(&m, &[0.008; 6]), &spec, 60);
            last = d.bid_for(b0.zone, b0.instance_type).expect("still bidding");
        }
        assert_eq!(last, p(0.008).scale(1.02));
    }

    #[test]
    fn meets_strength_floor_with_pools() {
        let m = dummy_model();
        let zones = spot_market::topology::all_zones();
        // Two pools per zone: small and large, large spot price higher.
        let mut st = Vec::new();
        for &zone in zones.iter().take(4) {
            st.push(ZoneState {
                zone,
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 0,
                on_demand: p(0.044),
                model: &m,
            });
            st.push(ZoneState {
                zone,
                instance_type: InstanceType::M3Large,
                spot_price: p(0.018),
                sojourn_age: 0,
                on_demand: p(0.140),
                model: &m,
            });
        }
        let spec = ServiceSpec::lock_service()
            .with_pools(&[InstanceType::M1Small, InstanceType::M3Large])
            .with_min_strength(10);
        let d = FeedbackStrategy::new().decide(&st, &spec, 60);
        assert!(d.n() >= spec.baseline_nodes);
        assert!(strength(&d) >= 10, "strength {} < 10", strength(&d));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(FeedbackStrategy::new().name(), "Feedback");
    }

    #[test]
    fn diversify_spreads_the_take_across_zones() {
        let m = dummy_model();
        let zones = spot_market::topology::all_zones();
        // Zone 0 offers three dirt-cheap pools; zones 1..4 one pricier
        // pool each. The legacy take concentrates in zone 0; the
        // diversified take covers zones first.
        let mut st = Vec::new();
        for ty in [
            InstanceType::M1Small,
            InstanceType::M1Medium,
            InstanceType::C3Large,
        ] {
            st.push(ZoneState {
                zone: zones[0],
                instance_type: ty,
                spot_price: p(0.004),
                sojourn_age: 0,
                on_demand: p(0.140),
                model: &m,
            });
        }
        for &zone in zones.iter().take(5).skip(1) {
            st.push(ZoneState {
                zone,
                instance_type: InstanceType::M1Small,
                spot_price: p(0.010),
                sojourn_age: 0,
                on_demand: p(0.044),
                model: &m,
            });
        }
        let pools = &[
            InstanceType::M1Small,
            InstanceType::M1Medium,
            InstanceType::C3Large,
        ];
        let spec = ServiceSpec::lock_service().with_pools(pools);
        let distinct = |d: &BidDecision| {
            let mut zs: Vec<_> = d.bids.iter().map(|b| b.zone).collect();
            zs.sort_by_key(|z| z.ordinal());
            zs.dedup();
            zs.len()
        };
        let legacy = FeedbackStrategy::new().decide(&st, &spec, 60);
        assert_eq!(legacy.n(), 5);
        assert!(distinct(&legacy) < 5, "cheap zone dominates: {:?}", legacy.bids);
        let spec_div = spec.clone().with_diversify(true);
        let spread = FeedbackStrategy::new().decide(&st, &spec_div, 60);
        assert_eq!(spread.n(), 5);
        assert_eq!(distinct(&spread), 5, "one pool per zone: {:?}", spread.bids);

        // Equal bids in two zones, five nodes: each zone's cheapest pool,
        // then the rest in price order (ties by zone, then type ordinal),
        // not each zone's second before any zone's third.
        let tied: Vec<ZoneState> = (zones.iter().take(2))
            .flat_map(|&zone| pools.iter().map(move |&ty| (zone, ty)))
            .map(|(zone, instance_type)| ZoneState {
                zone,
                instance_type,
                spot_price: p(0.010),
                sojourn_age: 0,
                on_demand: p(0.140),
                model: &m,
            })
            .collect();
        let take = FeedbackStrategy::new().decide(&tied, &spec_div, 60);
        let order: Vec<_> = (take.bids.iter())
            .map(|b| (b.zone, b.instance_type))
            .collect();
        let (z0, z1) = (zones[0], zones[1]);
        assert_eq!(
            order,
            [
                (z0, InstanceType::M1Small),
                (z1, InstanceType::M1Small),
                (z0, InstanceType::M1Medium),
                (z0, InstanceType::C3Large),
                (z1, InstanceType::M1Medium),
            ]
        );
    }
}
