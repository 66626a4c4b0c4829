//! The Jupiter online bidding algorithm (Fig. 3): enumeration over node
//! counts + greedy zone selection.
//!
//! For every candidate node count `n`:
//!
//! 1. derive the per-node failure-probability target `FP` that keeps an
//!    `n`-node deployment at the availability target when every node has
//!    the same failure probability (equal probabilities are optimal for a
//!    fixed threshold quorum, §4.1);
//! 2. per availability zone, find the **minimal bid** whose estimated
//!    failure probability over the interval is ≤ `FP` (bids capped below
//!    the on-demand price);
//! 3. sort the feasible bids and greedily take the `n` cheapest;
//! 4. the candidate's score is its cost upper bound Σ bids.
//!
//! The answer is the candidate with the lowest upper bound. Step 2 does
//! not look across zones and dominates a decision (the semi-Markov forward
//! evolution), so it runs zone-major: one [`par_map`] job per zone builds
//! its [`spot_model::BidGrid`] once — the grid does not depend on `n` —
//! and asks it for every target; steps 3–4 then run on the caller. A
//! replay's decision pass goes one step further: one job per zone walks
//! every boundary of the run ([`BiddingStrategy::decide_schedule`]).

use std::cmp::Reverse;
use std::time::Instant;

use obs::{Counter, Histogram, Obs};
use spot_market::topology::ZONE_COUNT;
use spot_market::{Price, Zone};
pub use spot_model::Estimator;

use crate::par::{host_workers, par_map};
use crate::service::ServiceSpec;
use crate::strategy::{
    BidDecision, BiddingStrategy, Boundary, Decided, PoolBid, PoolWalk, ZoneState,
};

/// Pick `n` pools from `bids` approximately minimizing total cost subject
/// to the capacity-weight floor: start from the `n` cheapest bids (the
/// paper's greedy order), then repeatedly apply the single swap — a
/// selected pool out, a strictly heavier unselected pool in — with the
/// lowest marginal cost per unit of strength gained, until the floor is
/// met. When the node-count constraint binds (the cheap picks already
/// satisfy the floor) this buys no excess strength; when the strength
/// constraint binds it pays for strength wherever it is cheapest per
/// unit. Returns `None` when no `n`-pool subset can reach the target.
fn select_with_strength(
    mut bids: Vec<PoolBid>,
    n: usize,
    min_strength: u32,
) -> Option<Vec<PoolBid>> {
    bids.sort_by_key(|b| (b.bid, b.zone.ordinal(), b.instance_type.ordinal()));
    upgrade_to_strength(bids, n, min_strength)
}

/// [`select_with_strength`] with a zone-diversified starting selection:
/// instead of the `n` cheapest pools outright, take each zone's cheapest
/// pool first, then each zone's second cheapest, and so on, in price
/// order within each round ([`zone_ranks`]), so same-zone pools — which
/// share capacity crunches under `BidEra::CapacityReclaim` — are only
/// doubled up once every zone is covered. The strength upgrade loop then
/// runs unchanged, over the unselected pools in price order.
fn select_diversified(mut bids: Vec<PoolBid>, n: usize, min_strength: u32) -> Option<Vec<PoolBid>> {
    if bids.len() < n {
        return None;
    }
    bids.sort_by_key(|b| (b.bid, b.zone.ordinal(), b.instance_type.ordinal()));
    let mut rank = zone_ranks();
    let mut order: Vec<(usize, usize)> = bids.iter().map(|b| rank(b.zone)).zip(0..).collect();
    order.sort_unstable();
    order[n..].sort_unstable_by_key(|&(_, i)| i);
    let pools = order.into_iter().map(|(_, i)| bids[i]).collect();
    upgrade_to_strength(pools, n, min_strength)
}

/// A pool's price rank within its zone, asked of the pools' zones in
/// price order: 0 for a zone's cheapest pool, 1 for its second cheapest,
/// …; the counts live on the stack. A stable sort by rank is the
/// zone-first order of Jupiter's and Feedback's diversified picks.
pub(crate) fn zone_ranks() -> impl FnMut(Zone) -> usize {
    let mut seen = [0; ZONE_COUNT];
    move |zone| {
        seen[zone.ordinal()] += 1;
        seen[zone.ordinal()] - 1
    }
}

/// The marginal-cost strength-upgrade loop shared by the plain and the
/// diversified selections (see [`select_with_strength`]): the first
/// `picks` pools are the starting selection, the rest the candidates in
/// order. Returns the selection alone.
fn upgrade_to_strength(
    mut pools: Vec<PoolBid>,
    picks: usize,
    min_strength: u32,
) -> Option<Vec<PoolBid>> {
    let weight = |b: &PoolBid| b.instance_type.capacity_weight();
    let mut strength: u32 = pools[..picks].iter().map(weight).sum();
    while strength < min_strength {
        let (selected, rest) = pools.split_at(picks);
        // Marginal-cost comparison is exact via cross-multiplication:
        // Δcost_a / gain_a < Δcost_b / gain_b  ⇔  Δcost_a·gain_b <
        // Δcost_b·gain_a (gains positive; Δcost may be negative once
        // earlier swaps put expensive pools into the selection). Ties
        // prefer the bigger strength gain, then bid and ordinal order,
        // keeping the choice deterministic.
        let mut best: Option<(i128, i128, usize, usize)> = None; // (Δcost µ, gain, vi, ri)
        for (vi, v) in selected.iter().enumerate() {
            for (ri, r) in rest.iter().enumerate() {
                let gain = i128::from(weight(r)) - i128::from(weight(v));
                if gain <= 0 {
                    continue;
                }
                let dc = r.bid.as_micros() as i128 - v.bid.as_micros() as i128;
                let better = match &best {
                    None => true,
                    Some((bdc, bgain, bvi, bri)) => {
                        let (cur, prev) = (dc * bgain, *bdc * gain);
                        let cur_tie =
                            (std::cmp::Reverse(gain), r.bid, selected[vi].bid, ri, vi);
                        let prev_tie = (
                            std::cmp::Reverse(*bgain),
                            rest[*bri].bid,
                            selected[*bvi].bid,
                            *bri,
                            *bvi,
                        );
                        cur < prev || (cur == prev && cur_tie < prev_tie)
                    }
                };
                if better {
                    best = Some((dc, gain, vi, ri));
                }
            }
        }
        let (_, gain, vi, ri) = best?;
        pools[vi] = pools.remove(picks + ri);
        strength = (i128::from(strength) + gain) as u32;
    }
    pools.truncate(picks);
    Some(pools)
}

/// The paper's bidding algorithm ("Jupiter").
#[derive(Clone, Debug, Default)]
pub struct JupiterStrategy {
    /// The failure estimator variant.
    pub estimator: Estimator,
    /// Observability sink (disabled by default; see [`Self::with_obs`]).
    pub obs: Obs,
}

impl JupiterStrategy {
    /// The paper's algorithm: expectation estimator, every node count.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ablation variant driven by absorbing (kill-probability)
    /// estimates.
    pub fn absorbing() -> Self {
        JupiterStrategy {
            estimator: Estimator::Absorbing,
            obs: Obs::disabled(),
        }
    }

    /// Record decision metrics (`jupiter.*` instruments) into `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

impl BiddingStrategy for JupiterStrategy {
    fn name(&self) -> String {
        match self.estimator {
            Estimator::Expectation => "Jupiter".into(),
            Estimator::Absorbing => "Jupiter-abs".into(),
        }
    }

    fn decide(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        horizon_minutes: u32,
    ) -> BidDecision {
        if zones.is_empty() {
            return BidDecision::empty();
        }
        if !self.obs.is_enabled() {
            return self.decide_inner(zones, spec, horizon_minutes, host_workers());
        }
        let start = Instant::now();
        let decision = self.decide_inner(zones, spec, horizon_minutes, host_workers());
        self.record_decide(start.elapsed().as_micros() as u64);
        decision
    }

    /// Jupiter reads only the market and its models, so it decides a
    /// whole schedule up front, zone-major: one [`par_map`] job per pool
    /// walks every boundary in order — observe, fold, forecast (or
    /// absorbing search), minimal bid per node-count target — then the
    /// selection runs per boundary on the caller. One fan-out for the
    /// whole schedule instead of one per decision, and each job holds one
    /// kernel at a time.
    fn decide_schedule(
        &self,
        pools: &[PoolWalk<'_>],
        boundaries: &[Boundary],
        spec: &ServiceSpec,
    ) -> Option<Vec<Decided>> {
        Some(self.schedule_on(pools, boundaries, spec, host_workers()))
    }

    fn record_decided(&self, decided: &Decided) {
        if self.obs.is_enabled() {
            self.record_decide(decided.micros);
        }
    }
}

/// The `jupiter.*` instruments a zone's job records into. They are
/// atomics, so the jobs of one decision share them across threads.
struct Probes {
    forecast_micros: Histogram,
    forecasts_computed: Counter,
    fp_cache_hits: Counter,
    fp_cache_misses: Counter,
    forward_micros: Histogram,
}

/// One zone's minimal bids at one decision: per node-count target, the
/// bid (`None` where the target is absent or out of reach), and the memo
/// hits it took.
struct ZoneBids {
    bids: Vec<Option<Price>>,
    hits: u64,
}

impl JupiterStrategy {
    /// A decision's `jupiter.decide_micros` sample and series point, the
    /// point on the market-minute axis (the obs clock is driven in
    /// minutes-as-micros by the replay loops).
    fn record_decide(&self, micros: u64) {
        let minute = self.obs.trace.now_micros() / 60_000_000;
        self.obs.histogram("jupiter.decide_micros").record(micros);
        self.obs
            .series
            .record("jupiter.decide_micros", minute, micros as f64);
    }

    fn probes(&self) -> Probes {
        Probes {
            forecast_micros: self.obs.histogram("jupiter.forecast_micros"),
            forecasts_computed: self.obs.counter("jupiter.forecasts_computed"),
            fp_cache_hits: self.obs.counter("jupiter.fp_cache_hits"),
            fp_cache_misses: self.obs.counter("jupiter.fp_cache_misses"),
            forward_micros: self.obs.histogram("jupiter.forward_evolution_micros"),
        }
    }

    /// The per-node FP target of each node count `1..=pools`.
    fn targets(pools: usize, spec: &ServiceSpec) -> Vec<Option<f64>> {
        (1..=pools).map(|n| spec.node_fp_target(n)).collect()
    }

    /// Fig. 3 with the per-zone half on at most `workers` threads: every
    /// zone's minimal bids in one [`par_map`], then the selection over
    /// node counts on the caller.
    pub(crate) fn decide_inner(
        &self,
        zones: &[ZoneState<'_>],
        spec: &ServiceSpec,
        horizon_minutes: u32,
        workers: usize,
    ) -> BidDecision {
        let probes = self.probes();
        let targets = Self::targets(zones.len(), spec);
        // Until selection the zones are independent, and one zone's
        // forecast or bid search is nearly all of a decision.
        let zone_bids = par_map(zones, workers, |z| {
            self.zone_min_bids(z, &targets, horizon_minutes, &probes)
        });
        let bid_at = |p: usize, n: usize| {
            let z = &zones[p];
            zone_bids[p].bids[n - 1].map(|bid| PoolBid {
                zone: z.zone,
                instance_type: z.instance_type,
                bid,
            })
        };
        self.select(zones.len(), bid_at, &targets, spec)
    }

    /// [`BiddingStrategy::decide_schedule`] with the pool jobs on at most
    /// `workers` threads. Each decision's `micros` — its
    /// `jupiter.decide_micros` sample once the books record it — is its
    /// host time summed over the jobs that worked on it, plus its
    /// selection.
    pub(crate) fn schedule_on(
        &self,
        pools: &[PoolWalk<'_>],
        boundaries: &[Boundary],
        spec: &ServiceSpec,
        workers: usize,
    ) -> Vec<Decided> {
        if pools.is_empty() {
            let empty = || Decided {
                decision: BidDecision::empty(),
                fp_cache_hits: 0,
                micros: 0,
            };
            return boundaries.iter().map(|_| empty()).collect();
        }
        let probes = self.probes();
        let targets = Self::targets(pools.len(), spec);
        // Longest ladder first: a forecast costs about the square of the
        // ladder, and the dearest pool claimed last would leave the other
        // workers idle at the end.
        let mut order: Vec<usize> = (0..pools.len()).collect();
        order.sort_by_key(|&p| Reverse(pools[p].model.kernel().n_states()));
        // Per pool, per boundary: its minimal bids and the job's host time.
        let walked = par_map(&order, workers, |&p| {
            pools[p].walk(boundaries, |b, state| {
                let start = Instant::now();
                let zone = self.zone_min_bids(state, &targets, b.horizon_minutes, &probes);
                (zone, start.elapsed().as_micros() as u64)
            })
        });
        let mut answers: Vec<_> = order.into_iter().zip(walked).collect();
        answers.sort_unstable_by_key(|&(p, _)| p);
        let at = |p: usize, k: usize| &answers[p].1[k];
        (0..boundaries.len())
            .map(|k| {
                let start = Instant::now();
                let bid_at = |p: usize, n: usize| {
                    at(p, k).0.bids[n - 1].map(|bid| PoolBid {
                        zone: pools[p].zone,
                        instance_type: pools[p].instance_type,
                        bid,
                    })
                };
                let decision = self.select(pools.len(), bid_at, &targets, spec);
                let jobs: u64 = (0..pools.len()).map(|p| at(p, k).1).sum();
                Decided {
                    decision,
                    fp_cache_hits: (0..pools.len()).map(|p| at(p, k).0.hits).sum(),
                    micros: jobs + start.elapsed().as_micros() as u64,
                }
            })
            .collect()
    }

    /// Fig. 3's steps 3–4: for each node count `n` with a target, the
    /// pools' minimal bids there (`bid_at(pool, n)`), greedily selected;
    /// the cheapest feasible candidate wins.
    fn select(
        &self,
        pools: usize,
        bid_at: impl Fn(usize, usize) -> Option<PoolBid>,
        targets: &[Option<f64>],
        spec: &ServiceSpec,
    ) -> BidDecision {
        let candidates_evaluated = self.obs.counter("jupiter.candidates_evaluated");
        let candidates_feasible = self.obs.counter("jupiter.candidates_feasible");
        let mut best: Option<(Price, BidDecision)> = None;
        for (n, target) in (1..).zip(targets) {
            if target.is_none() {
                continue;
            }
            candidates_evaluated.inc();
            // Minimal feasible bid per pool at this target.
            let bids: Vec<PoolBid> = (0..pools).filter_map(|p| bid_at(p, n)).collect();
            if bids.len() < n {
                continue; // not enough pools can meet the target
            }
            // The n cheapest pools (the paper's greedy), upgraded to
            // heavier types at the lowest marginal cost per unit of
            // strength until the capacity floor holds. Under `diversify`
            // the starting selection covers zones round-robin before
            // doubling up in any zone.
            let selected = if spec.diversify {
                select_diversified(bids, n, spec.min_strength)
            } else {
                select_with_strength(bids, n, spec.min_strength)
            };
            let Some(bids) = selected else {
                continue; // no n-pool subset reaches the strength floor
            };
            candidates_feasible.inc();
            let candidate = BidDecision { bids };
            let cost = candidate.cost_upper_bound();
            let better = best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true);
            if better {
                best = Some((cost, candidate));
            }
        }
        best.map(|(_, d)| d).unwrap_or_else(BidDecision::empty)
    }

    /// One zone's job: its minimal bid at each per-node FP target (`None`
    /// where the target is absent or out of reach), node counts
    /// ascending, from one [`spot_model::BidGrid`] the node counts share.
    /// On the absorbing path each of the grid's misses was one forward
    /// evolution, recorded at the search's mean time.
    fn zone_min_bids(
        &self,
        z: &ZoneState<'_>,
        targets: &[Option<f64>],
        horizon_minutes: u32,
        probes: &Probes,
    ) -> ZoneBids {
        let expectation = self.estimator == Estimator::Expectation;
        let build = || {
            let (spot, age, cap) = (z.spot_price, z.sojourn_age, z.on_demand);
            (z.model).bid_grid(self.estimator, spot, age, horizon_minutes, cap)
        };
        let mut grid = if expectation {
            probes.forecast_micros.time(build)
        } else {
            build()
        };
        if expectation && grid.is_some() {
            probes.forecasts_computed.inc();
        }
        let start = Instant::now();
        let bids = targets.iter().map(|&t| grid.as_mut()?.min_bid(t?)).collect();
        let (hits, misses) = grid.map_or((0, 0), |g| (g.hits, g.misses));
        if !expectation && misses > 0 {
            let mean = start.elapsed().as_micros() as u64 / misses;
            (0..misses).for_each(|_| probes.forward_micros.record(mean));
        }
        probes.fp_cache_hits.add(hits);
        probes.fp_cache_misses.add(misses);
        ZoneBids { bids, hits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::MarketSnapshot;
    use crate::strategy::tests::strength;
    use spot_market::{InstanceType, PricePoint, PriceTrace, Region};
    use spot_model::{FailureModel, FailureModelConfig};
    use std::sync::Arc;

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    /// A zone whose price alternates `low` (stay minutes) → `high`
    /// (3 min) — riskier the longer `high` dwells relative to `low`.
    fn model(low: f64, high: f64, stay: u64) -> FailureModel {
        FailureModel::from_trace(&model_trace(low, high, stay), FailureModelConfig::default())
    }

    fn model_trace(low: f64, high: f64, stay: u64) -> PriceTrace {
        let mut points = Vec::new();
        let mut t = 0;
        for _ in 0..200 {
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
        PriceTrace::new(points, t)
    }

    fn zone(i: usize) -> Zone {
        let zones = spot_market::topology::all_zones();
        zones[i]
    }

    #[test]
    fn picks_safe_bids_meeting_availability() {
        // 6 zones, all calm (price alternates 0.008/0.012, high phase is
        // brief): bidding 0.012 pins FP at FP0 = 0.01.
        let models: Vec<FailureModel> = (0..6).map(|_| model(0.008, 0.012, 60)).collect();
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 5,
                on_demand: InstanceType::M1Small.on_demand_price(Region::UsEast1),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();
        let d = JupiterStrategy::new().decide(&states, &spec, 360);
        assert!(d.n() >= 5, "needs ≥5 nodes at FP≈0.01: got {}", d.n());
        for b in &d.bids {
            assert_eq!(b.bid, p(0.012), "minimal safe bid is the high level");
        }
    }

    #[test]
    fn prefers_cheaper_zones() {
        // Two cheap-safe zones, four expensive-safe zones; at n = 5 the
        // cheap ones must be included.
        let cheap = model(0.004, 0.006, 60);
        let pricey = model(0.010, 0.014, 60);
        let models = [&cheap, &cheap, &pricey, &pricey, &pricey, &pricey];
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: if i < 2 { p(0.004) } else { p(0.010) },
                sojourn_age: 5,
                on_demand: p(0.044),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();
        let d = JupiterStrategy::new().decide(&states, &spec, 360);
        assert!(d.bid_for(zone(0), InstanceType::M1Small).is_some());
        assert!(d.bid_for(zone(1), InstanceType::M1Small).is_some());
        assert_eq!(d.bid_for(zone(0), InstanceType::M1Small), Some(p(0.006)));
    }

    #[test]
    fn untrainable_zones_are_skipped() {
        let trained = model(0.008, 0.012, 60);
        let untrained = FailureModel::new(FailureModelConfig::default());
        let models: Vec<&FailureModel> =
            vec![&trained, &trained, &trained, &trained, &trained, &untrained];
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 0,
                on_demand: p(0.044),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();
        let d = JupiterStrategy::new().decide(&states, &spec, 360);
        assert!(
            d.bid_for(zone(5), InstanceType::M1Small).is_none(),
            "untrained zone must not be bid"
        );
        assert!(d.n() >= 5);
    }

    #[test]
    fn infeasible_everywhere_returns_empty() {
        // One zone, lock service needs FP ≈ 0.0017 at n = 1... a single
        // node can never reach 0.99999 availability with FP0 = 0.01, and
        // there are not enough zones for more nodes.
        let m = model(0.008, 0.012, 60);
        let states = vec![ZoneState {
            zone: zone(0),
            instance_type: InstanceType::M1Small,
            spot_price: p(0.008),
            sojourn_age: 0,
            on_demand: p(0.044),
            model: &m,
        }];
        let spec = ServiceSpec::lock_service();
        let d = JupiterStrategy::new().decide(&states, &spec, 360);
        assert_eq!(d, BidDecision::empty());
    }

    #[test]
    fn absorbing_variant_bids_at_least_as_high() {
        let models: Vec<FailureModel> = (0..6).map(|_| model(0.008, 0.012, 60)).collect();
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 5,
                on_demand: p(0.044),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();
        let expectation = JupiterStrategy::new().decide(&states, &spec, 240);
        let absorbing = JupiterStrategy::absorbing().decide(&states, &spec, 240);
        // For every zone both selected, the absorbing bid dominates.
        for b in &absorbing.bids {
            if let Some(b_exp) = expectation.bid_for(b.zone, b.instance_type) {
                assert!(b.bid >= b_exp, "{}: {:?} < {b_exp:?}", b.zone.name(), b.bid);
            }
        }
    }

    #[test]
    fn observability_counts_candidates_and_cache() {
        let models: Vec<FailureModel> = (0..6).map(|_| model(0.008, 0.012, 60)).collect();
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 5,
                on_demand: p(0.044),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();

        let (o, _clock) = Obs::simulated();
        let d = JupiterStrategy::new()
            .with_obs(o.clone())
            .decide(&states, &spec, 240);
        assert!(d.n() > 0);
        let snap = o.metrics.snapshot();
        assert!(snap.counter("jupiter.candidates_evaluated").unwrap_or(0) >= 1);
        assert_eq!(snap.counter("jupiter.forecasts_computed"), Some(6));
        assert!(snap.histogram("jupiter.decide_micros").unwrap().count >= 1);
        assert!(snap.histogram("jupiter.forecast_micros").unwrap().count >= 6);

        let (o2, _clock) = Obs::simulated();
        let d2 = JupiterStrategy::absorbing()
            .with_obs(o2.clone())
            .decide(&states, &spec, 240);
        assert!(d2.n() > 0);
        let snap2 = o2.metrics.snapshot();
        let misses = snap2.counter("jupiter.fp_cache_misses").unwrap_or(0);
        let hits = snap2.counter("jupiter.fp_cache_hits").unwrap_or(0);
        assert!(misses >= 1, "absorbing probes must miss at least once");
        assert!(hits >= 1, "ladder levels are revisited across node counts");
        assert_eq!(
            snap2.histogram("jupiter.forward_evolution_micros").unwrap().count,
            misses
        );
    }

    #[test]
    fn expectation_path_reuses_the_fp_grid_across_node_counts() {
        // Regression: the bid-grid FP cache used to be wired only into
        // the absorbing estimator, so `jupiter.fp_cache_hits/misses` both
        // read 0 on every replay of the paper's default strategy. The
        // expectation path probes the same (zone, ladder-level) grid for
        // every node count n = 1..max_n, so a repeated decide must hit.
        let models: Vec<FailureModel> = (0..6).map(|_| model(0.008, 0.012, 60)).collect();
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 5,
                on_demand: p(0.044),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();

        let (o, _clock) = Obs::simulated();
        let strategy = JupiterStrategy::new().with_obs(o.clone());
        let first = strategy.decide(&states, &spec, 240);
        let snap = o.metrics.snapshot();
        let misses = snap.counter("jupiter.fp_cache_misses").unwrap_or(0);
        let hits = snap.counter("jupiter.fp_cache_hits").unwrap_or(0);
        assert!(misses >= 1, "first probe of each (zone, level) misses");
        assert!(hits >= 1, "node counts 2..=6 revisit the same grid");
        // Memoization must not change the decision: every chosen bid
        // equals the cache-less reference scan at the decision's own
        // per-node FP target.
        let target = spec
            .node_fp_target(first.n())
            .expect("chosen n has a target");
        for b in &first.bids {
            let s = (states.iter())
                .find(|s| s.zone == b.zone)
                .expect("known zone");
            let fp = |bid| s.model.estimate_fp(bid, s.spot_price, s.sojourn_age, 240);
            let want = scan_min_bid(s, fp, target);
            assert_eq!(want, Some(b.bid), "{}", b.zone.name());
        }
        let again = strategy.decide(&states, &spec, 240);
        assert_eq!(first, again, "repeated decide is deterministic");
        let snap2 = o.metrics.snapshot();
        assert!(
            snap2.counter("jupiter.fp_cache_hits").unwrap_or(0) > hits,
            "a repeated decide hits the (fresh) grid again"
        );
    }

    /// The reference minimal bid: the first of the spot price and the
    /// ladder levels, at or above spot and below on-demand, whose `fp` is
    /// ≤ `target` — a plain ascending scan, no memo, no bisection.
    fn scan_min_bid(s: &ZoneState<'_>, fp: impl Fn(Price) -> f64, target: f64) -> Option<Price> {
        (std::iter::once(s.spot_price).chain(s.model.kernel().prices().iter().copied()))
            .filter(|&b| b >= s.spot_price && b < s.on_demand)
            .find(|&b| fp(b) <= target)
    }

    #[test]
    fn absorbing_path_equals_the_unmemoized_search() {
        // The absorbing estimator's memoized binary search must choose
        // what a linear scan of the absorbing FP does: every chosen bid
        // is the scan's at the decision's own per-node FP target.
        let models: Vec<FailureModel> = (0..6).map(|i| model(0.008, 0.012, 40 + 10 * i)).collect();
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 5,
                on_demand: p(0.044),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::lock_service();
        let d = JupiterStrategy::absorbing().decide(&states, &spec, 240);
        assert!(d.n() > 0, "the market affords a decision");
        let target = spec.node_fp_target(d.n()).expect("chosen n has a target");
        for b in &d.bids {
            let s = (states.iter())
                .find(|s| s.zone == b.zone)
                .expect("known zone");
            let fp = |bid| (s.model).estimate_fp_absorbing(bid, s.spot_price, s.sojourn_age, 240);
            let want = scan_min_bid(s, fp, target);
            assert_eq!(want, Some(b.bid), "{}", b.zone.name());
        }
    }

    #[test]
    fn one_worker_and_four_decide_alike() {
        // Eight zones with distinct kernels, half of them holding an
        // observed range the zone's job cuts and folds in. Fresh models per run,
        // so both runs fold.
        let run = |strategy: &JupiterStrategy, workers: usize| {
            let models: Vec<FailureModel> = (0..8u64)
                .map(|i| {
                    let f = i as f64 * 0.0005;
                    let mut m = model(0.006 + f, 0.011 + f, 30 + 9 * i);
                    if i % 2 == 1 {
                        let t = Arc::new(model_trace(0.006 + f, 0.013 + f, 20 + 7 * i));
                        m.observe(&t, 0..t.horizon());
                    }
                    m
                })
                .collect();
            let states: Vec<ZoneState> = models
                .iter()
                .enumerate()
                .map(|(i, m)| ZoneState {
                    zone: zone(i),
                    instance_type: InstanceType::M1Small,
                    spot_price: p(0.006 + i as f64 * 0.0005),
                    sojourn_age: 3 * i as u32,
                    on_demand: p(0.044),
                    model: m,
                })
                .collect();
            let (o, _clock) = Obs::simulated();
            let strategy = strategy.clone().with_obs(o.clone());
            let d = strategy.decide_inner(&states, &ServiceSpec::lock_service(), 240, workers);
            let snap = o.metrics.snapshot();
            let counts: Vec<(String, u64)> = (snap.counters.into_iter())
                .chain(snap.histograms.into_iter().map(|(n, h)| (n, h.count)))
                .filter(|(n, _)| n.starts_with("jupiter."))
                .collect();
            (d, counts)
        };
        for strategy in [JupiterStrategy::new(), JupiterStrategy::absorbing()] {
            let one = run(&strategy, 1);
            assert!(one.0.n() > 0, "{}: the market affords a decision", strategy.name());
            assert!(one.1.len() >= 5, "{:?}", one.1);
            assert_eq!(one, run(&strategy, 4), "{}", strategy.name());
        }
    }

    /// A trace hopping pseudo-randomly over `levels` price levels `base +
    /// step · l`, the low levels dwelling longest.
    fn ladder_trace(levels: u64, base: f64, step: f64, seed: u64) -> PriceTrace {
        let (mut x, mut last, mut t) = (seed, u64::MAX, 0);
        let mut points = Vec::new();
        while t < 20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let level = (x >> 33) % levels;
            if level != last {
                let price = p(base + step * level as f64);
                points.push(PricePoint { minute: t, price });
                t += 10 + 60 / (1 + level);
                last = level;
            }
        }
        PriceTrace::new(points, t)
    }

    #[test]
    fn the_pass_on_one_worker_and_four_decides_as_the_walked_models_do() {
        // Eight pools, a small and a large per zone, with ladders of 2 to
        // 8 levels, so the longest-ladder-first claim order is not the
        // pool order; six boundaries, five of them revealing new minutes.
        use InstanceType::{M1Small as S, M3Large as L};
        let pools: Vec<(Zone, InstanceType, Arc<PriceTrace>)> = (0..8u64)
            .map(|i| {
                let (ty, base, step) = match i % 2 {
                    0 => (S, 0.006 + 0.0004 * i as f64, 0.001),
                    _ => (L, 0.02 + 0.001 * i as f64, 0.003),
                };
                let trace = ladder_trace(2 + (5 * i) % 7, base, step, i + 1);
                (zone(i as usize / 2), ty, Arc::new(trace))
            })
            .collect();
        let train = 20_000 - 6 * 360;
        let models: Vec<FailureModel> = (pools.iter())
            .map(|(_, _, t)| {
                FailureModel::from_trace(&t.window(0, train), FailureModelConfig::default())
            })
            .collect();
        let ladders: Vec<usize> = models.iter().map(|m| m.kernel().n_states()).collect();
        assert_eq!(ladders, [2, 7, 5, 3, 8, 6, 4, 2]);
        let boundaries: Vec<Boundary> = (0..6u64)
            .map(|k| {
                let at = train + k * 360;
                let snapshots = (pools.iter())
                    .map(|(zone, instance_type, t)| {
                        let (spot_price, age) = t.price_and_age_at(at - 1);
                        MarketSnapshot {
                            zone: *zone,
                            instance_type: *instance_type,
                            spot_price,
                            sojourn_age: age as u32,
                        }
                    })
                    .collect();
                Boundary {
                    minute: at + 15,
                    revealed: at.saturating_sub(360).max(train)..at,
                    snapshots,
                    horizon_minutes: 360,
                }
            })
            .collect();
        // The pass walks models that follow the boundaries' revealed minutes.
        let revealed = Arc::new(boundaries.iter().map(|b| b.revealed.clone()).collect());
        let followed: Vec<FailureModel> = (models.iter().zip(&pools))
            .map(|(model, (_, _, trace))| {
                let mut model = model.clone();
                model.follow(trace, &revealed);
                model
            })
            .collect();
        let walks: Vec<PoolWalk> = (pools.iter().zip(&followed).enumerate())
            .map(|(slot, ((zone, instance_type, _), model))| PoolWalk {
                zone: *zone,
                instance_type: *instance_type,
                model,
                slot,
            })
            .collect();
        let spec = ServiceSpec::lock_service()
            .with_pools(&[S, L])
            .with_min_strength(10);
        for strategy in [JupiterStrategy::new(), JupiterStrategy::absorbing()] {
            let pass = |workers: usize| -> Vec<(BidDecision, u64)> {
                let decided = strategy.schedule_on(&walks, &boundaries, &spec, workers);
                decided.into_iter().map(|d| (d.decision, d.fp_cache_hits)).collect()
            };
            // The loop's reference: every model observes each boundary's
            // revealed minutes, then one `decide_inner` reads them all.
            let mut walked = models.clone();
            let want: Vec<(BidDecision, u64)> = (boundaries.iter())
                .map(|b| {
                    let states: Vec<ZoneState> = (walked.iter_mut().zip(&pools))
                        .zip(&b.snapshots)
                        .map(|((model, (_, _, trace)), s)| {
                            if !b.revealed.is_empty() {
                                model.observe(trace, b.revealed.clone());
                            }
                            ZoneState::new(s, model)
                        })
                        .collect();
                    let (o, _clock) = Obs::simulated();
                    let strategy = strategy.clone().with_obs(o.clone());
                    let d = strategy.decide_inner(&states, &spec, b.horizon_minutes, 1);
                    (d, o.metrics.snapshot().counter("jupiter.fp_cache_hits").unwrap_or(0))
                })
                .collect();
            let name = strategy.name();
            assert!(want.iter().all(|(d, _)| strength(d) >= 10), "{name}: {want:?}");
            assert!(want.iter().any(|&(_, hits)| hits > 0), "{name}: {want:?}");
            assert_eq!(pass(1), want, "{name}: one worker");
            assert_eq!(pass(4), want, "{name}: four workers");
        }
    }

    #[test]
    fn storage_spec_uses_larger_quorums() {
        // With the RS rule the same market needs more reliable nodes:
        // the decision never uses fewer than m = 3 nodes.
        let models: Vec<FailureModel> = (0..8).map(|_| model(0.02, 0.03, 120)).collect();
        let states: Vec<ZoneState> = models
            .iter()
            .enumerate()
            .map(|(i, m)| ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.02),
                sojourn_age: 10,
                on_demand: InstanceType::M3Large.on_demand_price(Region::UsEast1),
                model: m,
            })
            .collect();
        let spec = ServiceSpec::storage_service();
        let d = JupiterStrategy::new().decide(&states, &spec, 360);
        if d.n() > 0 {
            assert!(d.n() >= 3, "θ(3,·) needs at least 3 nodes");
        }
    }

    /// Two pools per zone (small + large). With a strength floor the mix
    /// must reach it.
    #[test]
    fn hetero_mix_meets_strength_floor() {
        let small_models: Vec<FailureModel> = (0..6).map(|_| model(0.008, 0.012, 60)).collect();
        let large_models: Vec<FailureModel> = (0..6).map(|_| model(0.016, 0.024, 60)).collect();
        let mut states: Vec<ZoneState> = Vec::new();
        for i in 0..6 {
            states.push(ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M1Small,
                spot_price: p(0.008),
                sojourn_age: 5,
                on_demand: InstanceType::M1Small.on_demand_price(Region::UsEast1),
                model: &small_models[i],
            });
            states.push(ZoneState {
                zone: zone(i),
                instance_type: InstanceType::M3Large,
                spot_price: p(0.016),
                sojourn_age: 5,
                on_demand: InstanceType::M3Large.on_demand_price(Region::UsEast1),
                model: &large_models[i],
            });
        }
        let spec = ServiceSpec::lock_service()
            .with_pools(&[InstanceType::M1Small, InstanceType::M3Large])
            .with_min_strength(14);
        let d = JupiterStrategy::new().decide(&states, &spec, 360);
        assert!(d.n() > 0, "hetero instance must be feasible");
        assert!(strength(&d) >= 14, "strength {} < floor", strength(&d));
        // 14 strength cannot be met by m1.small alone within 6 zones, so
        // the mix must include large pools.
        assert!(
            d.bids.iter().any(|b| b.instance_type == InstanceType::M3Large),
            "mix must include m3.large: {:?}",
            d.bids
        );
        // Strength is bought where it is cheapest per unit (large upgrades
        // at 0.012 marginal cost for +3 weight): the mixed fleet costs
        // less than the same strength from small pools would (14 × 0.012
        // if it were even feasible).
        assert!(d.cost_upper_bound() < p(0.012) * 14);
        // And no more nodes than the quorum rule needs: the upgrade path
        // keeps the group at the 5-node enumeration floor.
        assert_eq!(d.n(), 5, "{:?}", d.bids);
    }

    #[test]
    fn select_with_strength_is_deterministic_and_minimal() {
        let mk = |zi: usize, ty: InstanceType, bid: f64| PoolBid {
            zone: zone(zi),
            instance_type: ty,
            bid: p(bid),
        };
        let bids = vec![
            mk(0, InstanceType::M1Small, 0.006),
            mk(1, InstanceType::M1Small, 0.007),
            mk(2, InstanceType::M3Large, 0.020),
            mk(3, InstanceType::M3Large, 0.022),
        ];
        // Pick 2 with floor 8: only the two larges can reach it.
        let sel = select_with_strength(bids.clone(), 2, 8).expect("feasible");
        assert_eq!(
            sel.iter().map(|b| b.instance_type.capacity_weight()).sum::<u32>(),
            8
        );
        // Floor 9 is impossible with 2 pools (max 4+4).
        assert!(select_with_strength(bids.clone(), 2, 9).is_none());
        // Floor 0 keeps the plain cheapest-first prefix — no upgrades.
        let sel0 = select_with_strength(bids.clone(), 2, 0).expect("feasible");
        assert_eq!(sel0.len(), 2);
        assert!(sel0.iter().all(|b| b.instance_type == InstanceType::M1Small));
    }

    /// Two pools per zone with the cheap bids concentrated in two zones:
    /// the plain selection doubles up there, the diversified one covers
    /// distinct zones first.
    #[test]
    fn diversified_selection_spreads_across_zones() {
        let mk = |zi: usize, ty: InstanceType, bid: f64| PoolBid {
            zone: zone(zi),
            instance_type: ty,
            bid: p(bid),
        };
        // Zones 0 and 1 are cheap in both pools; zones 2..5 pricier.
        let mut bids = Vec::new();
        for i in 0..6 {
            let base = if i < 2 { 0.006 } else { 0.012 };
            bids.push(mk(i, InstanceType::M1Small, base + i as f64 * 0.0001));
            bids.push(mk(i, InstanceType::M1Medium, base + 0.001 + i as f64 * 0.0001));
        }
        let plain = select_with_strength(bids.clone(), 4, 0).expect("feasible");
        let spread = select_diversified(bids.clone(), 4, 0).expect("feasible");
        let distinct = |sel: &[PoolBid]| {
            let mut zs: Vec<_> = sel.iter().map(|b| b.zone).collect();
            zs.sort_by_key(|z| z.ordinal());
            zs.dedup();
            zs.len()
        };
        assert_eq!(distinct(&plain), 2, "cheapest-4 doubles up: {plain:?}");
        assert_eq!(distinct(&spread), 4, "diversified covers 4 zones: {spread:?}");
        // The diversified pick still honors a strength floor.
        let with_floor = select_diversified(bids.clone(), 4, 7);
        if let Some(sel) = with_floor {
            let s: u32 = sel.iter().map(|b| b.instance_type.capacity_weight()).sum();
            assert!(s >= 7);
        }
        // Asking for more pools than exist fails cleanly.
        assert!(select_diversified(bids[..3].to_vec(), 4, 0).is_none());

        // Equal bids, more picks than zones: each zone's first pool, then
        // each zone's second, ties by zone and then type ordinal; the
        // unselected pools stay in price order for the strength upgrade,
        // whose tie goes to the first heavy pool there (z0's m3.large).
        use InstanceType::{M1Medium as M, M1Small as S, M3Large as L};
        let tied: Vec<PoolBid> = [(0, S), (0, M), (0, L), (1, S), (1, L), (2, S)]
            .into_iter()
            .map(|(zi, ty)| mk(zi, ty, 0.010))
            .collect();
        let order = |n: usize, floor: u32| {
            let sel = select_diversified(tied.clone(), n, floor).expect("feasible");
            let zi = |z: spot_market::Zone| (0..3).find(|&i| zone(i) == z).expect("a test zone");
            sel.iter()
                .map(|b| (zi(b.zone), b.instance_type))
                .collect::<Vec<_>>()
        };
        assert_eq!(order(5, 0), [(0, S), (1, S), (2, S), (0, M), (1, L)]);
        assert_eq!(order(4, 6), [(0, L), (1, S), (2, S), (0, M)]);
    }

    /// The node-count floor binding: the cheap picks already reach the
    /// strength floor after one upgrade, so the selection must NOT flood
    /// the group with heavy pools (that was the old per-strength ranking's
    /// failure mode — it bought 5 larges where 4 smalls + 1 large do).
    #[test]
    fn select_with_strength_buys_no_excess_strength() {
        let mk = |zi: usize, ty: InstanceType, bid: f64| PoolBid {
            zone: zone(zi),
            instance_type: ty,
            bid: p(bid),
        };
        let mut bids = Vec::new();
        for i in 0..6 {
            bids.push(mk(i, InstanceType::M1Small, 0.006 + i as f64 * 0.001));
            bids.push(mk(i, InstanceType::M3Large, 0.020 + i as f64 * 0.001));
        }
        // n = 5, floor 8: start with the 5 cheapest smalls (strength 5),
        // one upgrade (+3) reaches 8.
        let sel = select_with_strength(bids.clone(), 5, 8).expect("feasible");
        let strength: u32 = sel.iter().map(|b| b.instance_type.capacity_weight()).sum();
        assert_eq!(strength, 8, "{sel:?}");
        let larges = sel
            .iter()
            .filter(|b| b.instance_type == InstanceType::M3Large)
            .count();
        assert_eq!(larges, 1, "exactly one upgrade: {sel:?}");
        // The upgrade evicts the most expensive small (0.010) for the
        // cheapest large (0.020): total = 0.006+0.007+0.008+0.009+0.020.
        let total: f64 = sel.iter().map(|b| b.bid.as_dollars()).sum();
        assert!((total - 0.050).abs() < 1e-9, "{sel:?}");
    }
}
