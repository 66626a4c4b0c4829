//! Exact branch-and-bound solver of the cost-minimization NLP (Eq. 8–10)
//! for small instances.
//!
//! Solving the NLP exactly is NP-hard; the traverse space is `m^n` over
//! price candidates × zones (§4). At toy scale (≤ 8 zones, per-zone
//! candidate bids restricted to the failure model's price levels) exact
//! search is feasible and provides the yardstick for Jupiter's
//! near-optimality ablation.
//!
//! The availability constraint is evaluated exactly for heterogeneous
//! failure probabilities with the Poisson-binomial threshold DP, instead of
//! assuming equal per-node probabilities as the greedy algorithm does —
//! so the exhaustive optimum can be strictly cheaper than Jupiter's
//! solution.

use quorum::threshold_availability;
use spot_market::Price;
use spot_model::Estimator;

use crate::service::ServiceSpec;
use crate::strategy::{BidDecision, BiddingStrategy, PoolBid, ZoneState};

/// The solver refuses instances with more zones than this (guards against
/// accidental exponential blow-ups).
const MAX_ZONES: usize = 8;

/// Exact solver (small instances only — cost grows exponentially with the
/// zone count).
#[derive(Clone, Copy, Debug)]
pub struct ExhaustiveSolver {
    /// Per-zone candidate bids are thinned to this many levels, plus the
    /// zone's top level when the thinning skipped it: up to one more
    /// than this.
    pub max_levels_per_zone: usize,
}

impl Default for ExhaustiveSolver {
    fn default() -> Self {
        ExhaustiveSolver {
            max_levels_per_zone: 12,
        }
    }
}

struct ZoneCandidates {
    zone_idx: usize,
    /// (bid, fp) pairs sorted by ascending bid; fp strictly decreasing.
    options: Vec<(Price, f64)>,
}

struct Search<'a> {
    zones: &'a [ZoneCandidates],
    quorum: quorum::QuorumRule,
    target: f64,
    best_cost: Price,
    best: Option<Vec<(usize, Price)>>,
}

impl Search<'_> {
    /// Depth-first over zones; at each zone choose "skip" or one of the
    /// candidate bids. Prunes on cost ≥ incumbent.
    fn go(&mut self, depth: usize, cost: Price, picked: &mut Vec<(usize, Price, f64)>) {
        if cost >= self.best_cost {
            return;
        }
        if depth == self.zones.len() {
            let n = picked.len();
            if n < self.quorum.min_nodes() {
                return;
            }
            let k = self.quorum.quorum_size(n);
            if k > n {
                return;
            }
            let fps: Vec<f64> = picked.iter().map(|(_, _, fp)| *fp).collect();
            if threshold_availability(&fps, k) >= self.target {
                self.best_cost = cost;
                self.best = Some(picked.iter().map(|(z, b, _)| (*z, *b)).collect());
            }
            return;
        }
        let zone = &self.zones[depth];
        // Option: skip this zone entirely.
        self.go(depth + 1, cost, picked);
        // Option: each candidate bid.
        for &(bid, fp) in &zone.options {
            picked.push((zone.zone_idx, bid, fp));
            self.go(depth + 1, cost + bid, picked);
            picked.pop();
        }
    }
}

impl ExhaustiveSolver {
    /// One zone's candidate bids: its [`spot_model::BidGrid`] — the
    /// model's price levels within [spot, on-demand) — priced, with
    /// fp-dominated bids (same fp, higher price) dropped and the rest
    /// thinned to `max_levels_per_zone`, plus the top level when the
    /// thinning skipped it. Empty when the zone is untrained.
    fn hull(&self, z: &ZoneState<'_>, horizon_minutes: u32) -> Vec<(Price, f64)> {
        let (spot, age, cap) = (z.spot_price, z.sojourn_age, z.on_demand);
        let grid = (z.model).bid_grid(Estimator::Expectation, spot, age, horizon_minutes, cap);
        let Some(mut grid) = grid else {
            return Vec::new();
        };
        // The grid is ascending by bid: keep each strict fp drop (the
        // monotone hull; a repeated bid repeats its fp).
        let mut hull: Vec<(Price, f64)> = Vec::new();
        for (b, fp) in grid.priced() {
            if hull.last().map(|(_, lf)| fp < *lf).unwrap_or(true) {
                hull.push((b, fp));
            }
        }
        // Thin evenly if too many.
        if hull.len() > self.max_levels_per_zone {
            let step = hull.len() as f64 / self.max_levels_per_zone as f64;
            let mut thinned = Vec::with_capacity(self.max_levels_per_zone);
            for i in 0..self.max_levels_per_zone {
                thinned.push(hull[(i as f64 * step) as usize]);
            }
            if thinned.last() != hull.last() {
                thinned.push(*hull.last().expect("non-empty"));
            }
            hull = thinned;
        }
        hull
    }
}

impl BiddingStrategy for ExhaustiveSolver {
    fn name(&self) -> String {
        "Exhaustive".into()
    }

    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        horizon_minutes: u32,
    ) -> BidDecision {
        assert!(
            zones.len() <= MAX_ZONES,
            "exhaustive search limited to {MAX_ZONES} zones, got {}",
            zones.len()
        );
        let candidates: Vec<ZoneCandidates> = (zones.iter().enumerate())
            .map(|(zone_idx, z)| ZoneCandidates {
                zone_idx,
                options: self.hull(z, horizon_minutes),
            })
            .filter(|c| !c.options.is_empty())
            .collect();

        let mut search = Search {
            zones: &candidates,
            quorum: spec.quorum,
            target: spec.availability_target(),
            best_cost: Price::from_micros(u64::MAX / 2),
            best: None,
        };
        search.go(0, Price::ZERO, &mut Vec::new());
        match search.best {
            None => BidDecision::empty(),
            Some(picked) => BidDecision {
                bids: picked
                    .into_iter()
                    .map(|(zi, b)| PoolBid {
                        zone: zones[zi].zone,
                        instance_type: zones[zi].instance_type,
                        bid: b,
                    })
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::JupiterStrategy;
    use proptest::prelude::*;
    use spot_market::{PricePoint, PriceTrace};
    use spot_model::{FailureModel, FailureModelConfig};

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    fn model(low: f64, high: f64, stay: u64) -> FailureModel {
        let mut points = Vec::new();
        let mut t = 0;
        for _ in 0..150 {
            points.push(PricePoint {
                minute: t,
                price: p(low),
            });
            t += stay;
            points.push(PricePoint {
                minute: t,
                price: p(high),
            });
            t += 3;
        }
        FailureModel::from_trace(&PriceTrace::new(points, t), FailureModelConfig::default())
    }

    fn states<'a>(models: &'a [FailureModel], spots: &[f64]) -> Vec<ZoneState<'a>> {
        let zones = spot_market::topology::all_zones();
        models
            .iter()
            .zip(spots)
            .enumerate()
            .map(|(i, (m, s))| ZoneState {
                zone: zones[i],
                instance_type: spot_market::InstanceType::M1Small,
                spot_price: p(*s),
                sojourn_age: 5,
                on_demand: p(0.044),
                model: m,
            })
            .collect()
    }

    #[test]
    fn exact_solution_is_feasible() {
        let models: Vec<FailureModel> = (0..6).map(|_| model(0.008, 0.012, 60)).collect();
        let st = states(&models, &[0.008; 6]);
        let spec = ServiceSpec::lock_service();
        let d = ExhaustiveSolver::default().decide(&st, &spec, 240);
        assert!(d.n() > 0, "feasible instance must be solved");
        // Verify the availability constraint of the returned assignment.
        let fps: Vec<f64> = d
            .bids
            .iter()
            .map(|pb| {
                let zs = st.iter().find(|s| s.zone == pb.zone).unwrap();
                zs.model.estimate_fp(pb.bid, zs.spot_price, zs.sojourn_age, 240)
            })
            .collect();
        let k = spec.quorum.quorum_size(d.n());
        assert!(threshold_availability(&fps, k) >= spec.availability_target());
    }

    /// A trace wandering over `levels` price levels, `base + step · l`
    /// hundredths of a cent, one `(level, dwell minutes)` hop at a time.
    fn wandering(levels: u64, base: u64, step: u64, hops: &[(u64, u64)]) -> PriceTrace {
        let mut points = Vec::new();
        let mut t = 0;
        for &(level, dwell) in hops {
            let price = Price::from_micros((base + step * (level % levels)) * 100);
            if points.last().map(|q: &PricePoint| q.price) != Some(price) {
                points.push(PricePoint { minute: t, price });
            }
            t += dwell; // a repeated level stretches the sojourn
        }
        PriceTrace::new(points, t)
    }

    /// One zone: level count, base, step, hops, and (spot level, age).
    type ZoneMarket = (u64, u64, u64, Vec<(u64, u64)>, (u64, u32));

    fn zone_market() -> impl Strategy<Value = ZoneMarket> {
        (
            2u64..=11,
            40u64..120,
            2u64..30,
            proptest::collection::vec((0u64..11, 1u64..90), 40..120),
            (0u64..11, 0u32..120),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Jupiter's decision is one point of the exact search space: its
        /// bids are hull points (the minimal bid meeting a target has a
        /// lower FP than every cheaper bid), no zone's hull is thinned
        /// (≤ 11 kernel levels, spot among them), and equal-FP targets
        /// meet the exact Poisson-binomial constraint. So the exact
        /// optimum costs no more, on every instance.
        #[test]
        fn exact_never_costs_more_than_greedy(
            zones in proptest::collection::vec(zone_market(), 2..=6),
            horizon in 60u32..480,
            slack in 0usize..3,
            rs_paxos in 0u32..2,
        ) {
            let models: Vec<FailureModel> = zones
                .iter()
                .map(|(levels, base, step, hops, _)| {
                    FailureModel::from_trace(
                        &wandering(*levels, *base, *step, hops),
                        FailureModelConfig::default(),
                    )
                })
                .collect();
            let all = spot_market::topology::all_zones();
            let st: Vec<ZoneState> = models
                .iter()
                .zip(&zones)
                .enumerate()
                .map(|(i, (m, (levels, base, step, _, (spot, age))))| ZoneState {
                    zone: all[i],
                    instance_type: spot_market::InstanceType::M1Small,
                    spot_price: Price::from_micros((base + step * (spot % levels)) * 100),
                    sojourn_age: *age,
                    on_demand: p(0.044),
                    model: m,
                })
                .collect();
            let base = if rs_paxos == 1 {
                ServiceSpec::storage_service()
            } else {
                ServiceSpec::lock_service()
            };
            // Looser targets let two to four zones carry a decision.
            let spec = ServiceSpec {
                epsilon: [1e-6, 1e-3, 2e-2][slack],
                ..base
            };
            let greedy = JupiterStrategy::new().decide(&st, &spec, horizon);
            let exact = ExhaustiveSolver::default().decide(&st, &spec, horizon);
            if greedy.n() == 0 {
                return Ok(()); // the exact search may still find a mix
            }
            let fps: Vec<f64> = greedy
                .bids
                .iter()
                .map(|pb| {
                    let z = st.iter().find(|s| s.zone == pb.zone).expect("known zone");
                    z.model.estimate_fp(pb.bid, z.spot_price, z.sojourn_age, horizon)
                })
                .collect();
            let k = spec.quorum.quorum_size(greedy.n());
            prop_assert!(
                threshold_availability(&fps, k) >= spec.availability_target(),
                "greedy {:?} misses the target: fps {fps:?}",
                greedy.bids
            );
            prop_assert!(exact.n() > 0, "greedy {:?} is feasible", greedy.bids);
            prop_assert!(
                exact.cost_upper_bound() <= greedy.cost_upper_bound(),
                "exact {} > greedy {}",
                exact.cost_upper_bound(),
                greedy.cost_upper_bound()
            );
        }
    }

    #[test]
    fn greedy_is_within_twice_the_exact_cost_on_a_benign_market() {
        // The paper's near-optimality claim on a fixed six-zone market.
        let models: Vec<FailureModel> = vec![
            model(0.006, 0.010, 40),
            model(0.008, 0.012, 60),
            model(0.007, 0.011, 50),
            model(0.009, 0.013, 70),
            model(0.008, 0.012, 55),
            model(0.010, 0.014, 45),
        ];
        let st = states(&models, &[0.006, 0.008, 0.007, 0.009, 0.008, 0.010]);
        let spec = ServiceSpec::lock_service();
        let greedy = JupiterStrategy::new().decide(&st, &spec, 240);
        let exact = ExhaustiveSolver::default().decide(&st, &spec, 240);
        assert!(greedy.n() > 0 && exact.n() > 0);
        assert!(exact.cost_upper_bound() <= greedy.cost_upper_bound());
        assert!(
            greedy.cost_upper_bound().as_micros() <= exact.cost_upper_bound().as_micros() * 2,
            "greedy is far from optimal: {} vs {}",
            greedy.cost_upper_bound(),
            exact.cost_upper_bound()
        );
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn refuses_large_instances() {
        let models: Vec<FailureModel> = (0..9).map(|_| model(0.008, 0.012, 60)).collect();
        let st = states(&models, &[0.008; 9]);
        ExhaustiveSolver::default().decide(&st, &ServiceSpec::lock_service(), 60);
    }

    #[test]
    fn infeasible_returns_empty() {
        let models: Vec<FailureModel> = (0..2).map(|_| model(0.008, 0.012, 60)).collect();
        let st = states(&models, &[0.008; 2]);
        // Two zones can never reach the 5-node baseline availability.
        let d = ExhaustiveSolver::default().decide(&st, &ServiceSpec::lock_service(), 60);
        assert_eq!(d, BidDecision::empty());
    }
}
