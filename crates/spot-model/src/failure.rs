//! The spot-instance failure model (Eq. 4/14 plus the interval expectation
//! of Eq. 5), the object the bidding framework consults.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use spot_market::{Price, PriceTrace};

use crate::forecast::{bid_candidates, forecast, survival_probability, Forecast, ForecastConfig};
use crate::kernel::FrozenKernel;
use crate::ON_DEMAND_FP;

/// Configuration of a [`FailureModel`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FailureModelConfig {
    /// Forward-evolution configuration.
    pub forecast: ForecastConfig,
}

/// Minute ranges of a trace in the order a run reveals them.
type Revealed = Arc<Vec<Range<u64>>>;

/// The failure model for one (zone, instance-type) market: a semi-Markov
/// price kernel plus the composition with the baseline failure probability
/// `FP⁰` (Eq. 4): `FP = 1 − (1 − FP⁰)(1 − P(out-of-bid))`.
///
/// ```
/// use spot_market::{InstanceType, Price, TraceGenerator};
/// use spot_model::{FailureModel, FailureModelConfig};
///
/// // Train on two weeks of history for one zone.
/// let zone = spot_market::topology::all_zones()[0];
/// let trace = TraceGenerator::new(7).generate(zone, InstanceType::M1Small, 14 * 24 * 60);
/// let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
///
/// // Estimate the failure probability of a bid over the next 6 hours.
/// let now = trace.horizon() - 1;
/// let spot = trace.price_at(now);
/// let age = trace.sojourn_age_at(now) as u32;
/// let fp = model.estimate_fp(spot.scale(1.5), spot, age, 360);
/// assert!((0.01..=1.0).contains(&fp), "never below the on-demand floor");
/// ```
///
/// Refinement folds on read. A model follows a trace through a run's
/// revealed minute ranges ([`Self::follow`]); showing it the next range
/// moves a cursor ([`Self::show`]), and the first reader after that cuts
/// each range's window between the last fold and the cursor and extends
/// the kernel by it, in order. A model nobody reads never copies a window
/// nor builds a kernel.
#[derive(Clone, Debug)]
pub struct FailureModel {
    /// The last kernel a reader saw (or the one the model started from).
    base: Arc<FrozenKernel>,
    /// The trace the model follows and the ranges it reveals, in order;
    /// `None` before the first follow or observe.
    source: Option<(Arc<PriceTrace>, Revealed)>,
    /// Ranges `..folded_to` are in `base`; `folded_to..shown` were shown
    /// since, and `shown` is the cursor.
    folded_to: usize,
    shown: usize,
    /// `base` extended by the shown ranges; filled by the first read after
    /// a show, promoted to `base` by the next one (`&self` readers cannot
    /// drop the superseded `base`, so it lives on until then).
    folded: OnceLock<Arc<FrozenKernel>>,
    config: FailureModelConfig,
}

impl FailureModel {
    /// An untrained model (every estimate is the conservative 1.0).
    pub fn new(config: FailureModelConfig) -> Self {
        FailureModel::from_kernel(Arc::new(FrozenKernel::new()), config)
    }

    /// Train a fresh model from a price history.
    pub fn from_trace(trace: &PriceTrace, config: FailureModelConfig) -> Self {
        FailureModel::from_kernel(Arc::new(FrozenKernel::from_trace(trace)), config)
    }

    /// A model over a pre-trained shared kernel (the [`FailureModel`] adds
    /// only the per-service `FP⁰` composition, so one kernel can back many
    /// models).
    pub fn from_kernel(kernel: Arc<FrozenKernel>, config: FailureModelConfig) -> Self {
        FailureModel {
            base: kernel,
            source: None,
            folded_to: 0,
            shown: 0,
            folded: OnceLock::new(),
            config,
        }
    }

    /// Follow `trace` through `revealed`, the minute ranges a run reveals
    /// in order, none of them shown yet. What the model was shown of what
    /// it followed before is folded first.
    pub fn follow(&mut self, trace: &Arc<PriceTrace>, revealed: &Arc<Vec<Range<u64>>>) {
        self.kernel();
        self.show(self.shown);
        self.source = Some((Arc::clone(trace), Arc::clone(revealed)));
        (self.folded_to, self.shown) = (0, 0);
    }

    /// Show the model the first `n` ranges it follows: a cursor store, no
    /// copy. The last read's fold becomes the base. Copy-on-write: other
    /// models sharing this kernel are unaffected by the fold.
    pub fn show(&mut self, n: usize) {
        if let Some(folded) = self.folded.take() {
            (self.base, self.folded_to) = (folded, self.shown);
        }
        self.shown = n;
    }

    /// Add `trace`'s `minutes` to the model (incremental re-estimation):
    /// appended to a followed list of the model's own and shown. A range
    /// of another trace first folds what was shown, then switches.
    pub fn observe(&mut self, trace: &Arc<PriceTrace>, minutes: Range<u64>) {
        if !self.source.as_ref().is_some_and(|(t, _)| Arc::ptr_eq(t, trace)) {
            self.follow(trace, &Arc::default());
        }
        self.show(self.shown);
        let ranges = Arc::make_mut(&mut self.source.as_mut().expect("a followed trace").1);
        ranges.truncate(self.shown);
        ranges.drain(..self.folded_to);
        ranges.push(minutes);
        (self.folded_to, self.shown) = (0, ranges.len());
    }

    /// The shown ranges not folded into `base`, empty ones skipped.
    fn pending(&self) -> impl Iterator<Item = &Range<u64>> {
        let ranges = self.source.as_ref().map_or(&[][..], |(_, r)| &r[..]);
        ranges[self.folded_to..self.shown].iter().filter(|r| !r.is_empty())
    }

    /// The underlying kernel, with every shown range folded in: one
    /// [`FrozenKernel::extend`] per range's window, in the order they were
    /// revealed, so each window's final segment stays right-censored.
    pub fn kernel(&self) -> &FrozenKernel {
        if let Some(folded) = self.folded.get() {
            return folded;
        }
        let mut pending = self.pending();
        let (Some((trace, _)), Some(first)) = (&self.source, pending.next()) else {
            return &self.base;
        };
        self.folded.get_or_init(|| {
            let cut = |r: &Range<u64>| trace.window(r.start, r.end);
            Arc::new(pending.fold(self.base.extend(&cut(first)), |k, r| k.extend(&cut(r))))
        })
    }

    /// Shown ranges no reader has folded into the kernel yet.
    pub fn unfolded(&self) -> usize {
        (self.folded.get()).map_or_else(|| self.pending().count(), |_| 0)
    }

    /// Whether the model has seen enough data to estimate anything.
    pub fn is_trained(&self) -> bool {
        let kernel = self.kernel();
        kernel.n_states() > 0 && kernel.total_transitions() > 0
    }

    /// Compose an out-of-bid probability with the baseline `FP⁰` =
    /// [`ON_DEMAND_FP`] (Eq. 4).
    fn compose(&self, oob: f64) -> f64 {
        1.0 - (1.0 - ON_DEMAND_FP) * (1.0 - oob.clamp(0.0, 1.0))
    }

    /// Forecast the next `horizon_minutes` given the current market state
    /// (`current_price`, held for `current_age_minutes` so far). The
    /// forecast answers out-of-bid fractions for *any* bid, which makes
    /// minimum-bid searches cheap. `None` when the model is untrained or
    /// the horizon is zero (there is no interval to average over).
    pub fn forecast(
        &self,
        current_price: Price,
        current_age_minutes: u32,
        horizon_minutes: u32,
    ) -> Option<Forecast> {
        if !self.is_trained() || horizon_minutes == 0 {
            return None;
        }
        let kernel = self.kernel();
        let state = kernel.nearest_state(current_price)?;
        Some(forecast(
            kernel,
            state,
            current_age_minutes,
            horizon_minutes,
            self.config.forecast,
        ))
    }

    /// The failure probability of a spot instance under `bid` for the next
    /// interval (Eq. 14 composed over the interval, Eq. 5 discretized):
    ///
    /// * `bid < current_price` → 1.0 (the request isn't even granted);
    /// * untrained model or zero horizon → 1.0 (be conservative without
    ///   data or an interval);
    /// * otherwise `1 − (1 − FP⁰)(1 − E[fraction of minutes out-of-bid])`.
    pub fn estimate_fp(
        &self,
        bid: Price,
        current_price: Price,
        current_age_minutes: u32,
        horizon_minutes: u32,
    ) -> f64 {
        if bid < current_price {
            return 1.0;
        }
        match self.forecast(current_price, current_age_minutes, horizon_minutes) {
            None => 1.0,
            Some(f) => self.compose(f.out_of_bid_fraction(bid)),
        }
    }

    /// Absorbing-failure variant for the ablation: probability that the
    /// instance does **not** survive the whole interval (out-of-bid at any
    /// point, or baseline failure). Conservative 1.0 in the same cases as
    /// [`Self::estimate_fp`].
    pub fn estimate_fp_absorbing(
        &self,
        bid: Price,
        current_price: Price,
        current_age_minutes: u32,
        horizon_minutes: u32,
    ) -> f64 {
        if bid < current_price || !self.is_trained() || horizon_minutes == 0 {
            return 1.0;
        }
        let kernel = self.kernel();
        let Some(state) = kernel.nearest_state(current_price) else {
            return 1.0;
        };
        let survive = survival_probability(
            kernel,
            bid,
            state,
            current_age_minutes,
            horizon_minutes,
            self.config.forecast,
        );
        self.compose(1.0 - survive)
    }

    /// The minimal-bid search at this market state under `estimator`,
    /// over bids strictly below `cap` (the bidding framework caps at the
    /// on-demand price, §4.2). `None` when the model is untrained or the
    /// horizon is zero: every estimate is the conservative 1.0 then.
    pub fn bid_grid(
        &self,
        estimator: Estimator,
        current_price: Price,
        current_age_minutes: u32,
        horizon_minutes: u32,
        cap: Price,
    ) -> Option<BidGrid<'_>> {
        let (spot, age, horizon) = (current_price, current_age_minutes, horizon_minutes);
        let pricing = match estimator {
            Estimator::Expectation => Pricing::Forecast(self.forecast(spot, age, horizon)?),
            Estimator::Absorbing => {
                (self.is_trained() && horizon > 0).then_some(Pricing::Absorbing { age, horizon })?
            }
        };
        Some(BidGrid::new(self, pricing, spot, cap))
    }

    /// The minimal bid whose expected failure probability over the next
    /// interval is ≤ `target_fp`, strictly below `cap`: one
    /// [`BidGrid::min_bid`]. `None` when no such bid exists — the zone
    /// cannot meet the target this interval.
    pub fn min_bid_for_fp(
        &self,
        target_fp: f64,
        current_price: Price,
        current_age_minutes: u32,
        horizon_minutes: u32,
        cap: Price,
    ) -> Option<Price> {
        let (age, horizon) = (current_age_minutes, horizon_minutes);
        (self.bid_grid(Estimator::Expectation, current_price, age, horizon, cap)?)
            .min_bid(target_fp)
    }
}

/// Which per-instance failure estimator prices the bids of a minimal-bid
/// search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Estimator {
    /// The paper's Eq. 5: expected fraction of the interval spent
    /// out-of-bid. Cheap (one forecast answers every candidate bid), but
    /// it prices *downtime share*, not the chance of being killed.
    #[default]
    Expectation,
    /// Absorbing variant: the probability of being killed at all during
    /// the interval. Strictly more conservative; costs one forward
    /// evolution per probed bid (binary-searched). Used by the ablation
    /// study.
    Absorbing,
}

/// How a [`BidGrid`] prices a candidate bid.
pub(crate) enum Pricing {
    /// [`Estimator::Expectation`]: one forecast answers every candidate.
    Forecast(Forecast),
    /// [`Estimator::Absorbing`]: one forward evolution per candidate.
    Absorbing { age: u32, horizon: u32 },
}

/// One minimal-bid search (Fig. 3's step 2) at one market state: the
/// ascending candidate bids — the current price, then every ladder level
/// at or above it and strictly below the cap — each with a memo slot, so
/// repeated searches at different targets (a decision's node counts,
/// which mostly revisit the same few levels) price each candidate once.
/// Between levels the failure probability is constant, so a feasible bid
/// can always be lowered onto a candidate.
pub struct BidGrid<'a> {
    model: &'a FailureModel,
    pricing: Pricing,
    spot: Price,
    /// `(memo slot, bid)`, ascending by bid. Slot `1 + l` is level `l`;
    /// slot 0 is the current price, which the absorbing estimator files
    /// under its level when it sits on one.
    candidates: Vec<(usize, Price)>,
    memo: Vec<Option<f64>>,
    /// Probes answered from the memo.
    pub hits: u64,
    /// Probes that priced a candidate (one forward evolution each on the
    /// absorbing path).
    pub misses: u64,
}

impl<'a> BidGrid<'a> {
    pub(crate) fn new(model: &'a FailureModel, pricing: Pricing, spot: Price, cap: Price) -> Self {
        let levels = model.kernel().prices();
        let absorbing = matches!(pricing, Pricing::Absorbing { .. });
        let candidates = bid_candidates(levels, spot, cap)
            .map(|(slot, bid)| match slot {
                0 if absorbing => (levels.binary_search(&bid).map_or(0, |l| l + 1), bid),
                _ => (slot, bid),
            })
            .collect();
        BidGrid {
            model,
            pricing,
            spot,
            candidates,
            memo: vec![None; levels.len() + 1],
            hits: 0,
            misses: 0,
        }
    }

    /// The cheapest candidate whose failure probability is ≤ `target`.
    /// The expectation estimator prices every candidate (each a table
    /// read); the absorbing one is non-increasing in the bid and pays a
    /// forward evolution per probe, so it bisects.
    pub fn min_bid(&mut self, target: f64) -> Option<Price> {
        let n = self.candidates.len();
        let first = if let Pricing::Forecast(_) = self.pricing {
            (0..n).filter(|&i| self.fp(i) <= target).min()
        } else {
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.fp(mid) <= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            (lo < n && self.fp(lo) <= target).then_some(lo)
        };
        first.map(|i| self.candidates[i].1)
    }

    /// Every candidate with its failure probability, ascending by bid.
    pub fn priced(&mut self) -> Vec<(Price, f64)> {
        (0..self.candidates.len())
            .map(|i| (self.candidates[i].1, self.fp(i)))
            .collect()
    }

    /// Candidate `i`'s failure probability: from the memo when a probe
    /// took its slot before (a hit), else priced and remembered (a miss).
    fn fp(&mut self, i: usize) -> f64 {
        let (slot, bid) = self.candidates[i];
        if let Some(fp) = self.memo[slot] {
            self.hits += 1;
            return fp;
        }
        self.misses += 1;
        let fp = match self.pricing {
            Pricing::Forecast(ref f) => self.model.compose(f.out_of_bid_fraction(bid)),
            Pricing::Absorbing { age, horizon } => {
                (self.model).estimate_fp_absorbing(bid, self.spot, age, horizon)
            }
        };
        *self.memo[slot].insert(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_market::PricePoint;

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    /// Deterministic alternation A=0.01 (5 min) → B=0.02 (3 min).
    fn model() -> FailureModel {
        FailureModel::from_trace(&alternating(60), FailureModelConfig::default())
    }

    #[test]
    fn untrained_model_is_conservative() {
        let m = FailureModel::new(FailureModelConfig::default());
        assert!(!m.is_trained());
        assert_eq!(m.estimate_fp(p(1.0), p(0.01), 0, 60), 1.0);
        assert!(m.min_bid_for_fp(0.5, p(0.01), 0, 60, p(1.0)).is_none());
    }

    #[test]
    fn zero_horizon_is_answered_not_asserted() {
        // No interval to average over: no forecast, and every estimate
        // falls back to the conservative 1.0 instead of panicking.
        let m = model();
        assert!(m.forecast(p(0.01), 0, 0).is_none());
        assert_eq!(m.estimate_fp(p(0.02), p(0.01), 0, 0), 1.0);
        assert_eq!(m.estimate_fp_absorbing(p(0.02), p(0.01), 0, 0), 1.0);
        assert!(m.min_bid_for_fp(0.5, p(0.01), 0, 0, p(0.044)).is_none());
        assert!(m
            .bid_grid(Estimator::Absorbing, p(0.01), 0, 0, p(0.044))
            .is_none());
    }

    #[test]
    fn empty_kernel_is_answered_not_asserted() {
        let m = FailureModel::new(FailureModelConfig::default());
        assert!(m.forecast(p(0.01), 0, 60).is_none());
        assert_eq!(m.estimate_fp_absorbing(p(1.0), p(0.01), 0, 60), 1.0);
        assert!(m
            .bid_grid(Estimator::Absorbing, p(0.01), 0, 60, p(1.0))
            .is_none());
        // States but no completed sojourn is still untrained.
        let flat = PriceTrace::new(
            vec![PricePoint {
                minute: 0,
                price: p(0.01),
            }],
            100,
        );
        let m = FailureModel::from_trace(&flat, FailureModelConfig::default());
        assert!(m.forecast(p(0.01), 0, 60).is_none());
        assert_eq!(m.estimate_fp(p(1.0), p(0.01), 0, 60), 1.0);
    }

    #[test]
    fn one_grid_answers_every_target_and_memoizes() {
        let m = model();
        let mut grid = (m.bid_grid(Estimator::Expectation, p(0.01), 0, 480, p(0.044))).unwrap();
        assert_eq!(grid.min_bid(0.02), Some(p(0.02)));
        assert_eq!((grid.hits, grid.misses), (0, 3), "spot, then both levels");
        assert_eq!(grid.min_bid(0.5), Some(p(0.01)));
        assert_eq!((grid.hits, grid.misses), (3, 3));
        assert_eq!(grid.min_bid(0.005), None, "below FP⁰");
        // The absorbing grid files the spot price under its level's slot.
        let mut grid = (m.bid_grid(Estimator::Absorbing, p(0.01), 0, 480, p(0.044))).unwrap();
        assert_eq!(grid.min_bid(0.02), Some(p(0.02)));
        assert_eq!((grid.hits, grid.misses), (1, 2));
    }

    #[test]
    fn below_market_bid_always_fails() {
        let m = model();
        assert_eq!(m.estimate_fp(p(0.005), p(0.01), 0, 60), 1.0);
        assert_eq!(m.estimate_fp_absorbing(p(0.005), p(0.01), 0, 60), 1.0);
    }

    #[test]
    fn safe_bid_fp_floors_at_fp0() {
        // A bid at the top level never goes out-of-bid; FP = FP⁰ = 0.01.
        let m = model();
        let fp = m.estimate_fp(p(0.02), p(0.01), 0, 480);
        assert!((fp - 0.01).abs() < 1e-9, "got {fp}");
    }

    #[test]
    fn duty_cycle_bid_fp_matches_expectation() {
        // Bidding 0.01 is out of bid 3/8 of the time; composed with FP⁰:
        // 1 − 0.99 · (1 − 0.375) ≈ 0.3806.
        let m = model();
        let fp = m.estimate_fp(p(0.01), p(0.01), 0, 480);
        assert!((fp - 0.3806).abs() < 0.05, "got {fp}");
    }

    #[test]
    fn min_bid_search_picks_cheapest_safe_level() {
        let m = model();
        // Target 0.02: only the 0.02 level satisfies it (FP there = 0.01).
        let bid = m.min_bid_for_fp(0.02, p(0.01), 0, 480, p(0.044)).unwrap();
        assert_eq!(bid, p(0.02));
        // Target 0.5: even the risky 0.01 bid is fine — the cheapest wins.
        let bid = m.min_bid_for_fp(0.5, p(0.01), 0, 480, p(0.044)).unwrap();
        assert_eq!(bid, p(0.01));
        // Cap below every feasible level ⇒ no bid.
        assert!(m.min_bid_for_fp(0.02, p(0.01), 0, 480, p(0.015)).is_none());
    }

    #[test]
    fn min_bid_respects_strictly_below_cap() {
        let m = model();
        // Cap exactly at the safe level must exclude it.
        assert!(m.min_bid_for_fp(0.02, p(0.01), 0, 480, p(0.02)).is_none());
    }

    #[test]
    fn absorbing_fp_at_least_expectation_fp() {
        let m = model();
        for horizon in [10u32, 60, 240] {
            let e = m.estimate_fp(p(0.01), p(0.01), 2, horizon);
            let a = m.estimate_fp_absorbing(p(0.01), p(0.01), 2, horizon);
            assert!(a >= e - 1e-9, "h={horizon}: absorbing {a} < expect {e}");
        }
    }

    #[test]
    fn fp_decreases_with_bid() {
        let m = model();
        let lo = m.estimate_fp(p(0.01), p(0.01), 0, 120);
        let hi = m.estimate_fp(p(0.02), p(0.01), 0, 120);
        assert!(hi < lo);
    }

    #[test]
    fn absorbing_min_bid_never_below_expectation_min_bid() {
        // Killing risk dominates time-fraction risk, so the absorbing
        // search can only demand an equal or higher bid.
        let m = model();
        for target in [0.05, 0.2, 0.5] {
            let e = m.min_bid_for_fp(target, p(0.01), 0, 240, p(0.044));
            let a = absorbing_min_bid(&m, target);
            match (e, a) {
                (Some(e), Some(a)) => assert!(a >= e, "target {target}: {a:?} < {e:?}"),
                (None, Some(_)) => panic!("absorbing feasible where expectation is not"),
                _ => {}
            }
        }
        // The fully safe level is feasible for both at a loose target.
        assert_eq!(absorbing_min_bid(&m, 0.02), Some(p(0.02)));
    }

    fn absorbing_min_bid(m: &FailureModel, target: f64) -> Option<Price> {
        (m.bid_grid(Estimator::Absorbing, p(0.01), 0, 240, p(0.044)))?.min_bid(target)
    }

    /// `cycles` of the A (5 min) → B (3 min) alternation.
    fn alternating(cycles: usize) -> PriceTrace {
        let mut points = Vec::new();
        let mut t = 0;
        for _ in 0..cycles {
            points.push(PricePoint {
                minute: t,
                price: p(0.01),
            });
            t += 5;
            points.push(PricePoint {
                minute: t,
                price: p(0.02),
            });
            t += 3;
        }
        PriceTrace::new(points, t)
    }

    #[test]
    fn observes_without_a_read_fold_nothing() {
        let trace = Arc::new(alternating(4));
        let mut m = FailureModel::new(FailureModelConfig::default());
        for k in 1..=4 {
            m.observe(&trace, 8 * (k - 1)..8 * k);
            assert_eq!(m.unfolded(), k as usize);
        }
        assert!(m.folded.get().is_none(), "no kernel was built");
        assert_eq!(m.base.n_states(), 0, "the base is still the empty kernel");
    }

    #[test]
    fn a_read_folds_and_the_next_observe_promotes_it() {
        let traces = [alternating(3), alternating(5), alternating(2)].map(Arc::new);
        let whole = |t: &PriceTrace| 0..t.horizon();
        let mut m = FailureModel::new(FailureModelConfig::default());
        m.observe(&traces[0], whole(&traces[0]));
        m.observe(&traces[1], whole(&traces[1]));
        let first = FrozenKernel::new().extend(&traces[0]);
        assert_eq!(
            m.base.fingerprint(),
            first.fingerprint(),
            "switching traces folded the first one's range"
        );
        assert_eq!(
            (m.folded_to, m.shown),
            (0, 1),
            "only the new trace's range is shown"
        );
        let eager = first.extend(&traces[1]);
        assert_eq!(m.kernel().fingerprint(), eager.fingerprint());
        assert_eq!(m.unfolded(), 0);
        assert_eq!(
            (m.folded_to, m.shown),
            (0, 1),
            "a read leaves the cursor to observe"
        );
        let folded = Arc::clone(m.folded.get().expect("the read filled the lock"));
        m.observe(&traces[2], whole(&traces[2]));
        assert!(
            Arc::ptr_eq(&m.base, &folded),
            "folded kernel is the new base"
        );
        assert_eq!(
            (m.folded_to, m.shown),
            (0, 1),
            "only the new range is shown"
        );
        assert_eq!(m.unfolded(), 1);
        assert_eq!(
            m.kernel().fingerprint(),
            eager.extend(&traces[2]).fingerprint()
        );
    }

    #[test]
    fn a_cursor_folds_what_it_was_shown_of_a_shared_schedule() {
        let trace = Arc::new(alternating(4));
        let revealed = Arc::new((0..4).map(|k| 8 * k..8 * (k + 1)).collect::<Vec<_>>());
        let eager = |n: u64| {
            (0..n).fold(FrozenKernel::new(), |k, i| {
                k.extend(&trace.window(8 * i, 8 * (i + 1)))
            })
        };
        let mut m = FailureModel::new(FailureModelConfig::default());
        m.follow(&trace, &revealed);
        let mut other = m.clone();
        m.show(2);
        assert_eq!(m.unfolded(), 2);
        assert_eq!(m.kernel().fingerprint(), eager(2).fingerprint());
        m.show(4);
        assert_eq!(
            (m.unfolded(), m.folded_to),
            (2, 2),
            "the last read's fold is the base"
        );
        assert_eq!(m.kernel().fingerprint(), eager(4).fingerprint());
        assert_eq!(
            other.unfolded(),
            0,
            "a model following the same schedule saw nothing"
        );
        // An observe appends after the cursor, to a schedule of its own.
        other.show(1);
        other.observe(&trace, 16..32);
        assert_eq!(revealed.len(), 4, "the shared schedule is untouched");
        assert_eq!(other.unfolded(), 2);
        let want = eager(1).extend(&trace.window(16, 32));
        assert_eq!(other.kernel().fingerprint(), want.fingerprint());
    }

    #[test]
    fn incremental_training_improves_from_empty() {
        let mut m = FailureModel::new(FailureModelConfig::default());
        assert_eq!(m.estimate_fp(p(0.02), p(0.01), 0, 60), 1.0);
        let trace = Arc::new(alternating(20));
        m.observe(&trace, 0..trace.horizon());
        let fp = m.estimate_fp(p(0.02), p(0.01), 0, 60);
        assert!(fp < 0.02, "trained model should trust the top bid: {fp}");
    }
}
