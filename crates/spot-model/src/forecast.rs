//! Forward evolution of the semi-Markov price process.
//!
//! Starting from the current price *and the time already spent at it*
//! (the semi-Markov state), evolve the joint distribution over
//! (price level, sojourn age) minute by minute across the next bidding
//! interval. Two summaries are exposed, both driven by the one
//! `Evolution` core:
//!
//! * `forecast` — for every price level `s_l`, the average over the
//!   horizon of `P(price > s_l)`. This is the discretized Eq. 5: the
//!   expected fraction of the interval an instance bidding `b` spends
//!   out-of-bid, evaluated lazily for any `b` via
//!   [`Forecast::out_of_bid_fraction`]. Computing all levels at once makes
//!   the bidding algorithm's minimum-bid search O(levels) per zone instead
//!   of one evolution per candidate bid.
//! * `survival_probability` — the *absorbing* variant: the probability
//!   that the price never exceeds the bid during the horizon (the instance
//!   survives the whole interval). The paper's availability accounting is
//!   per-time-unit, so its Eq. 5 uses the expectation form; the absorbing
//!   form is kept for the ablation study.
//!
//! # Shape of the evolution
//!
//! Mass, `stay = 1 − hazard` and the marginal-path hazard `hm` are flat
//! *age-major* arrays: cell (state `i`, age `a`) sits at `a · n + i`, so
//! the cells of one age are adjacent and ages `[0, k)` are the prefix
//! `[0, k · n)`. One minute moves every cell's staying mass one age up
//! (`out[a + 1][i] = stay[a][i] · w`, the top age bucket also keeping its
//! own stayers) and scatters the leaving mass `hazard · w` into the age-0
//! cells of the successor states: through the state's *marginal*
//! next-state distribution for almost every cell, through an exact-sojourn
//! conditional for the few cells that have one (≥ 3 observations at that
//! exact age). Three facts keep the minute cheap:
//!
//! * **Active range.** After `t` minutes only ages `< t` can hold mass,
//!   plus the one *diagonal* cell the starting mass has been climbing
//!   (`(start_state, start_age + t)`, capped at the top bucket, which it
//!   joins for good at minute `max_age − 1`). Every loop — shift, leaving
//!   totals, row sums — covers ages `[0, min(t, max_age))` and that one
//!   cell; the rest of both buffers is exactly `0.0` and is never read.
//! * **Branch-free dense pass.** Within the active range every cell does
//!   `out[a + 1] = stay[a] · w; leaving += hm[a] · w` with no test on `w`,
//!   the hazard or the cell kind: `hm` is `0.0` where an exact conditional
//!   applies, and those cells are revisited from a short per-state list.
//! * **States are the vector lanes.** Each state's `leaving` total and row
//!   sum is a serial chain of additions over its ages; age-major order
//!   lays the `n` independent chains side by side, so one pass over the
//!   active prefix advances all of them element-wise and the shift is a
//!   single flat multiply.
//!
//! # Addend order
//!
//! Results are bit-identical to the cell-by-cell walk this replaced (kept
//! under `#[cfg(test)]` as `reference` and compared `to_bits()`-equal by a
//! proptest), because every floating-point sum keeps its addends in that
//! walk's order and only ever gains or loses `+ 0.0` terms (all mass is
//! `≥ +0.0`, so `x + 0.0 == x` bit for bit):
//!
//! * a state's `leaving` total runs over ascending age, the top bucket or
//!   the diagonal cell (which lie above the shifted ages) last;
//! * each age-0 cell receives, for source states in ascending order, that
//!   state's exact-conditional contributions in ascending age and *then*
//!   its marginal contribution — so the scatter runs state by state after
//!   the dense pass has produced every `leaving` total;
//! * the top bucket is `stay[top − 1] · w[top − 1]` first, `stay[top] ·
//!   w[top]` second;
//! * row sums run over ascending age, levels are accumulated top-down.

use std::ops::Range;

use spot_market::Price;

use crate::kernel::FrozenKernel;

#[cfg(test)]
mod reference;

/// Tuning knobs for the forward evolution.
#[derive(Clone, Copy, Debug)]
pub struct ForecastConfig {
    /// Number of sojourn-age buckets tracked exactly; ages beyond this are
    /// collapsed into the last bucket (where the kernel's geometric-tail
    /// hazard applies). 180 minutes covers the ages that matter for the
    /// bidding intervals evaluated (1–12 h) at modest cost.
    pub max_age: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig { max_age: 180 }
    }
}

/// The per-level out-of-bid summary of one forward evolution.
#[derive(Clone, Debug)]
pub struct Forecast {
    /// The kernel's price levels (sorted ascending).
    level_prices: Vec<Price>,
    /// `above_fraction[l]` = average over the horizon of
    /// `P(price > level_prices[l])`.
    above_fraction: Vec<f64>,
    /// Horizon in minutes this forecast covers.
    horizon: u32,
}

impl Forecast {
    /// Average fraction of the horizon with `price > bid` — the
    /// out-of-bid failure probability of Eq. 5 before composition with the
    /// on-demand failure floor.
    pub fn out_of_bid_fraction(&self, bid: Price) -> f64 {
        // Prices live on the level ladder, so P(price > bid) equals
        // P(price > s_l) for the largest level s_l ≤ bid; a bid below the
        // lowest level is always out-of-bid.
        let idx = self.level_prices.partition_point(|&p| p <= bid);
        match idx.checked_sub(1) {
            None => 1.0,
            Some(l) => self.above_fraction[l],
        }
    }

    /// The horizon in minutes.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The price levels the forecast is resolved on.
    pub fn levels(&self) -> &[Price] {
        &self.level_prices
    }

    /// The bids a minimum-bid search has to examine: `current_price`, then
    /// every ladder level, keeping those `≥ current_price` and strictly
    /// below `cap`. Between levels the out-of-bid fraction is constant, so
    /// any feasible bid can be lowered onto one of these without changing
    /// its failure estimate. Each bid comes with its slot on the
    /// forecast's bid grid (0 = the current price, `1 + l` = level `l`),
    /// which is what a caller memoizing per-bid estimates indexes by.
    pub fn bid_candidates(
        &self,
        current_price: Price,
        cap: Price,
    ) -> impl Iterator<Item = (usize, Price)> + '_ {
        std::iter::once(current_price)
            .chain(self.level_prices.iter().copied())
            .enumerate()
            .filter(move |&(_, b)| b >= current_price && b < cap)
    }
}

/// A (state, age) cell whose leaving mass follows an exact-sojourn
/// conditional instead of the state's marginal distribution.
struct ExactCell {
    /// Index of the cell in the flat arrays.
    cell: usize,
    hazard: f64,
    /// This cell's run of [`Tables::targets`].
    targets: Range<usize>,
}

/// Precomputed hazards and next-state lists for the evolution, flat and
/// age-major: cell `(i, a)` — state `i` at sojourn age `a`, about to live
/// the minute that takes its age to `a + 1` — sits at `a · n + i`.
struct Tables {
    n: usize,
    max_age: usize,
    /// `1 − hazard` per cell: the share of its mass that stays.
    stay: Vec<f64>,
    /// The hazard of every cell whose leaving mass follows the state's
    /// marginal distribution; `0.0` at the cells listed in `exact`.
    hm: Vec<f64>,
    /// The exact-conditional cells, state by state in ascending age;
    /// state `i` owns `exact[exact_rows[i]..exact_rows[i + 1]]`.
    exact: Vec<ExactCell>,
    exact_rows: Vec<usize>,
    /// Sparse next-state lists as `(j, p_j > 0)` in ascending `j`: state
    /// `i`'s marginal distribution is
    /// `targets[marginal_rows[i]..marginal_rows[i + 1]]`, each exact cell
    /// names its own run.
    targets: Vec<(usize, f64)>,
    marginal_rows: Vec<usize>,
}

impl Tables {
    fn build(kernel: &FrozenKernel, max_age: usize) -> Tables {
        let n = kernel.n_states();
        let mut targets = Vec::new();
        let mut marginal_rows = Vec::with_capacity(n + 1);
        for i in 0..n as u16 {
            marginal_rows.push(targets.len());
            let dist = kernel.marginal_next_state_dist(i);
            targets.extend(dist.into_iter().enumerate().filter(|&(_, p)| p > 0.0));
        }
        marginal_rows.push(targets.len());

        let mut stay = vec![0.0; n * max_age];
        let mut hm = vec![0.0; n * max_age];
        let mut exact = Vec::new();
        let mut exact_rows = Vec::with_capacity(n + 1);
        for i in 0..n {
            let hazard = kernel.hazards_up_to(i as u16, max_age);
            for (a, &h) in hazard.iter().enumerate() {
                stay[a * n + i] = 1.0 - h;
                hm[a * n + i] = h;
            }
            exact_rows.push(exact.len());
            for (age, dist) in kernel.exact_dists_up_to(i as u16, max_age) {
                let first = targets.len();
                targets.extend(dist);
                exact.push(ExactCell {
                    cell: age * n + i,
                    hazard: hazard[age],
                    targets: first..targets.len(),
                });
                hm[age * n + i] = 0.0;
            }
        }
        exact_rows.push(exact.len());
        Tables {
            n,
            max_age,
            stay,
            hm,
            exact,
            exact_rows,
            targets,
            marginal_rows,
        }
    }
}

/// The (state, age) mass distribution and its minute-by-minute evolution
/// from a point start — the core both summaries run (see the module docs
/// for the active-range invariant and the addend-order rules).
struct Evolution<'t> {
    tables: &'t Tables,
    /// States `0..live` evolve; mass that transitions into a higher state
    /// is dropped (absorbed). `n` for the plain forecast.
    live: usize,
    start_state: usize,
    /// Already capped at the top age bucket.
    start_age: usize,
    /// Minutes evolved so far.
    minute: usize,
    mass: Vec<f64>,
    /// The other half of the double buffer; zero outside the active range
    /// it last held, like `mass`.
    scratch: Vec<f64>,
    /// Per state, the mass leaving along the marginal path this minute.
    leaving: Vec<f64>,
}

impl<'t> Evolution<'t> {
    fn new(tables: &'t Tables, live: usize, start_state: u16, start_age: u32) -> Self {
        let start_state = start_state as usize;
        debug_assert!(start_state < live, "start state out of range");
        debug_assert!(live <= tables.n);
        let start_age = (start_age as usize).min(tables.max_age - 1);
        let mut mass = vec![0.0f64; tables.n * tables.max_age];
        mass[start_age * tables.n + start_state] = 1.0;
        Evolution {
            tables,
            live,
            start_state,
            start_age,
            minute: 0,
            scratch: vec![0.0; mass.len()],
            mass,
            leaving: vec![0.0; live],
        }
    }

    /// The age of the cell the starting mass occupies while it still lies
    /// above the dense range `[0, minute)`; `None` once that range covers
    /// every age.
    fn diagonal_age(&self) -> Option<usize> {
        let ages = self.tables.max_age;
        (self.minute < ages).then(|| (self.start_age + self.minute).min(ages - 1))
    }

    /// Evolve the distribution one minute.
    fn step(&mut self) {
        let t = self.tables;
        let (n, live) = (t.n, self.live);
        let top = t.max_age - 1;
        let dense = self.minute.min(t.max_age);
        let diagonal = self.diagonal_age();
        let (mass, out) = (&self.mass, &mut self.scratch);

        // Dense pass over ages `[0, shifted)`: move the staying mass one
        // age up and total, per state, the mass leaving along the marginal
        // path. Ages `1..=shifted` of `out` are assigned, which covers
        // whatever the buffer held two minutes ago; age 0 is refilled by
        // the scatter.
        let shifted = dense.min(top);
        let cells = shifted * n;
        for ((o, &stay), &w) in out[n..n + cells].iter_mut().zip(&t.stay).zip(mass) {
            *o = stay * w;
        }
        self.leaving.fill(0.0);
        for (hm, w) in t.hm[..cells].chunks_exact(n).zip(mass.chunks_exact(n)) {
            for ((leaving, &hm), &w) in self.leaving.iter_mut().zip(hm).zip(w) {
                *leaving += hm * w;
            }
        }
        // Above the shifted ages lies one more source: the diagonal cell,
        // or the whole top bucket once the dense range covers every age.
        // Its target is either untouched (still `0.0`) or the top bucket
        // the shift just assigned; `+=` is right for both.
        match diagonal {
            Some(age) => {
                let cell = age * n + self.start_state;
                out[(age + 1).min(top) * n + self.start_state] += t.stay[cell] * mass[cell];
                self.leaving[self.start_state] += t.hm[cell] * mass[cell];
            }
            None => {
                for (i, leaving) in self.leaving.iter_mut().enumerate() {
                    let cell = top * n + i;
                    out[cell] += t.stay[cell] * mass[cell];
                    *leaving += t.hm[cell] * mass[cell];
                }
            }
        }
        // Scatter into the age-0 cells, source states in ascending order:
        // exact-conditional cells by ascending age, then the marginal path.
        out[..n].fill(0.0);
        for i in 0..live {
            for exact in &t.exact[t.exact_rows[i]..t.exact_rows[i + 1]] {
                let w = mass[exact.cell];
                if w != 0.0 {
                    let hw = exact.hazard * w;
                    for &(j, p) in &t.targets[exact.targets.clone()] {
                        out[j] += hw * p;
                    }
                }
            }
            let leaving = self.leaving[i];
            if leaving > 0.0 {
                for &(j, p) in &t.targets[t.marginal_rows[i]..t.marginal_rows[i + 1]] {
                    out[j] += leaving * p;
                }
            }
        }
        // Absorb what entered a state that does not evolve.
        out[live..n].fill(0.0);
        // The diagonal cell has moved on; clear it so this buffer is zero
        // above the dense range when it comes back as `out`.
        if let Some(age) = diagonal {
            self.mass[age * n + self.start_state] = 0.0;
        }
        std::mem::swap(&mut self.mass, &mut self.scratch);
        self.minute += 1;
    }

    /// `sums[i] = Σ_a mass[i][a]` for the evolving states.
    fn row_sums(&self, sums: &mut [f64]) {
        let n = self.tables.n;
        let sums = &mut sums[..self.live];
        sums.fill(0.0);
        let dense = self.minute.min(self.tables.max_age);
        for row in self.mass[..dense * n].chunks_exact(n) {
            for (sum, &w) in sums.iter_mut().zip(row) {
                *sum += w;
            }
        }
        if let Some(age) = self.diagonal_age() {
            sums[self.start_state] += self.mass[age * n + self.start_state];
        }
    }
}

/// Run the forward evolution for `horizon > 0` minutes from
/// `(start_state, start_age)` over a non-empty kernel and summarize
/// per-level out-of-bid fractions. [`crate::FailureModel::forecast`] is
/// the checked entry point.
pub(crate) fn forecast(
    kernel: &FrozenKernel,
    start_state: u16,
    start_age: u32,
    horizon: u32,
    config: ForecastConfig,
) -> Forecast {
    debug_assert!(horizon > 0, "horizon must be positive");
    let tables = Tables::build(kernel, config.max_age.max(2));
    let n = tables.n;
    let mut evolution = Evolution::new(&tables, n, start_state, start_age);

    let mut above_sum = vec![0.0f64; n];
    let mut in_state = vec![0.0f64; n];
    for _ in 0..horizon {
        evolution.step();
        evolution.row_sums(&mut in_state);
        // P(price > s_l) = Σ_{i > l} Σ_a mass[i][a]; build via suffix sums.
        let mut suffix = 0.0;
        for l in (0..n).rev() {
            // above level l means strictly higher states.
            above_sum[l] += suffix;
            suffix += in_state[l];
        }
    }
    let above_fraction = above_sum
        .iter()
        .map(|&s| (s / horizon as f64).clamp(0.0, 1.0))
        .collect();
    Forecast {
        level_prices: kernel.prices().to_vec(),
        above_fraction,
        horizon,
    }
}

/// Absorbing variant: probability that the price stays ≤ `bid` for the
/// entire horizon (the instance survives out-of-bid termination). Same
/// preconditions as [`forecast`], except that a zero horizon is fine.
pub(crate) fn survival_probability(
    kernel: &FrozenKernel,
    bid: Price,
    start_state: u16,
    start_age: u32,
    horizon: u32,
    config: ForecastConfig,
) -> f64 {
    if kernel.prices()[start_state as usize] > bid {
        return 0.0; // already out of bid
    }
    let tables = Tables::build(kernel, config.max_age.max(2));
    // Mass that crosses above the bid is absorbed: only the states at or
    // below it evolve.
    let alive_states = kernel.prices().partition_point(|&p| p <= bid);
    let mut evolution = Evolution::new(&tables, alive_states, start_state, start_age);
    for _ in 0..horizon {
        evolution.step();
    }
    let mut in_state = vec![0.0f64; alive_states];
    evolution.row_sums(&mut in_state);
    in_state.iter().sum::<f64>().clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spot_market::{PricePoint, PriceTrace};

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    /// Deterministic alternation A(5) → B(3) → A(5) → …
    fn kernel() -> FrozenKernel {
        let mut points = Vec::new();
        let mut t = 0;
        for _ in 0..50 {
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
        FrozenKernel::from_trace(&PriceTrace::new(points, t))
    }

    #[test]
    fn high_bid_never_out_of_bid() {
        let k = kernel();
        let f = forecast(&k, 0, 0, 60, ForecastConfig::default());
        assert_eq!(f.out_of_bid_fraction(p(0.02)), 0.0);
        assert_eq!(f.out_of_bid_fraction(p(0.5)), 0.0);
    }

    #[test]
    fn low_bid_always_out_of_bid() {
        let k = kernel();
        let f = forecast(&k, 0, 0, 60, ForecastConfig::default());
        assert_eq!(f.out_of_bid_fraction(p(0.005)), 1.0);
    }

    #[test]
    fn mid_bid_matches_duty_cycle() {
        // Bidding 0.01 survives the A segments (5 of every 8 minutes).
        let k = kernel();
        let f = forecast(&k, 0, 0, 480, ForecastConfig::default());
        let frac = f.out_of_bid_fraction(p(0.01));
        assert!((frac - 3.0 / 8.0).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn forecast_conditions_on_age() {
        // At age 4 of a 5-minute A sojourn, a transition to B is imminent;
        // at age 0 it is 5 minutes away. Short-horizon OOB must differ.
        let k = kernel();
        let fresh = forecast(&k, 0, 0, 3, ForecastConfig::default());
        let stale = forecast(&k, 0, 4, 3, ForecastConfig::default());
        assert!(
            stale.out_of_bid_fraction(p(0.01)) > fresh.out_of_bid_fraction(p(0.01)) + 0.2,
            "stale {} vs fresh {}",
            stale.out_of_bid_fraction(p(0.01)),
            fresh.out_of_bid_fraction(p(0.01))
        );
    }

    #[test]
    fn mass_is_conserved() {
        let k = kernel();
        let tables = Tables::build(&k, 16);
        for start_age in [0, 9, 40] {
            let mut evolution = Evolution::new(&tables, k.n_states(), 0, start_age);
            for _ in 0..200 {
                evolution.step();
                // Everything, not only the active range: nothing may hide
                // outside it either.
                let total: f64 = evolution.mass.iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
                let mut in_state = vec![0.0; k.n_states()];
                evolution.row_sums(&mut in_state);
                let rows: f64 = in_state.iter().sum();
                assert!((rows - 1.0).abs() < 1e-9, "row sums miss mass: {rows}");
            }
        }
    }

    #[test]
    fn bid_candidates_keep_grid_slots_through_the_filter() {
        let k = kernel();
        let f = forecast(&k, 0, 0, 60, ForecastConfig::default());
        // Spot between the levels: the lower level is dropped, the slots
        // of what remains are unchanged.
        let got: Vec<_> = f.bid_candidates(p(0.015), p(0.044)).collect();
        assert_eq!(got, vec![(0, p(0.015)), (2, p(0.02))]);
        // The cap is exclusive.
        let got: Vec<_> = f.bid_candidates(p(0.01), p(0.02)).collect();
        assert_eq!(got, vec![(0, p(0.01)), (1, p(0.01))]);
        assert_eq!(f.bid_candidates(p(0.05), p(0.044)).count(), 0);
    }

    #[test]
    fn survival_deterministic_chain() {
        let k = kernel();
        // Starting fresh at A with bid 0.01: the price hits B within 5
        // minutes, so 8-minute survival is ~0.
        let s = survival_probability(&k, p(0.01), 0, 0, 8, ForecastConfig::default());
        assert!(s < 0.05, "got {s}");
        // Bid 0.02 survives forever.
        let s = survival_probability(&k, p(0.02), 0, 0, 500, ForecastConfig::default());
        assert!(s > 0.999, "got {s}");
        // Starting above the bid is instant death.
        let s = survival_probability(&k, p(0.01), 1, 0, 10, ForecastConfig::default());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn survival_never_exceeds_expectation_based_alive_fraction() {
        // P(alive all horizon) ≤ average P(alive at t).
        let k = kernel();
        for horizon in [5u32, 20, 60] {
            let f = forecast(&k, 0, 0, horizon, ForecastConfig::default());
            let s = survival_probability(&k, p(0.01), 0, 0, horizon, ForecastConfig::default());
            let avg_alive = 1.0 - f.out_of_bid_fraction(p(0.01));
            assert!(
                s <= avg_alive + 1e-9,
                "h={horizon}: survival {s} > avg alive {avg_alive}"
            );
        }
    }

    #[test]
    fn out_of_bid_fraction_is_monotone_in_bid() {
        let k = kernel();
        let f = forecast(&k, 0, 2, 120, ForecastConfig::default());
        let mut last = 1.1;
        for bid_micro in (1_000..30_000).step_by(1_000) {
            let frac = f.out_of_bid_fraction(Price::from_micros(bid_micro));
            assert!(frac <= last + 1e-12);
            last = frac;
        }
    }

    /// Sojourn lengths the random traces draw from: few distinct values,
    /// so the same (state, sojourn) recurs and exact conditionals reach
    /// their 3-observation support, on both sides of small and large
    /// `max_age`s.
    const SOJOURNS: [u64; 8] = [1, 2, 3, 5, 8, 21, 60, 190];

    /// Strategy: a kernel over 2–24 price levels. With `unseen`, the trace
    /// ends on a brand-new top price, a state that never completes a
    /// sojourn (global-fallback hazard, neighbour-uniform marginal).
    fn random_kernel() -> impl Strategy<Value = FrozenKernel> {
        (
            2usize..=24,
            proptest::collection::vec((0usize..24, 0usize..SOJOURNS.len()), 40..400),
            any::<bool>(),
        )
            .prop_map(|(levels, visits, unseen)| {
                let mut points: Vec<PricePoint> = Vec::new();
                let mut t = 0;
                for (level, sojourn) in visits {
                    let price = Price::from_micros(1_000 + 500 * (level % levels) as u64);
                    if points.last().is_some_and(|last| last.price == price) {
                        continue;
                    }
                    points.push(PricePoint { minute: t, price });
                    t += SOJOURNS[sojourn];
                }
                if unseen {
                    points.push(PricePoint {
                        minute: t,
                        price: Price::from_micros(50_000),
                    });
                    t += 7;
                }
                FrozenKernel::from_trace(&PriceTrace::new(points, t))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The flat core reproduces the reference evolution bit for bit,
        /// for the expectation forecast and for the absorbing survival
        /// probability at every distinct bid.
        #[test]
        fn evolution_is_bit_identical_to_the_reference(
            k in random_kernel(),
            max_age in 2usize..=200,
            (state_pick, age_pick) in (0usize..1_000, 0usize..1_000),
            horizon in 1u32..=720,
        ) {
            let config = ForecastConfig { max_age };
            let state = (state_pick % k.n_states()) as u16;
            // Start ages on both sides of the top bucket.
            let age = (age_pick % (2 * max_age + 2)) as u32;

            let new = forecast(&k, state, age, horizon, config);
            let old = reference::forecast(&k, state, age, horizon, config);
            prop_assert_eq!(&new.level_prices, &old.level_prices);
            prop_assert_eq!(new.horizon, old.horizon);
            for (l, (a, b)) in new.above_fraction.iter().zip(&old.above_fraction).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "level {l}: {a:e} vs {b:e} (n={} max_age={max_age} state={state} age={age} horizon={horizon})",
                    k.n_states()
                );
            }

            for &bid in k.prices() {
                let new = survival_probability(&k, bid, state, age, horizon, config);
                let old = reference::survival_probability(&k, bid, state, age, horizon, config);
                prop_assert_eq!(
                    new.to_bits(), old.to_bits(),
                    "bid {bid:?}: {new:e} vs {old:e} (n={} max_age={max_age} state={state} age={age} horizon={horizon})",
                    k.n_states()
                );
            }
        }
    }

    #[test]
    fn random_kernels_cover_the_cases_the_differential_test_is_for() {
        // The generator must actually produce exact-conditional cells and
        // unseen states, or the proptest above compares only the easy path.
        use rand::SeedableRng;
        let mut rng = proptest::TestRng::seed_from_u64(7);
        let (mut exact_cells, mut unseen_states) = (0, 0);
        for _ in 0..32 {
            let k = random_kernel().sample(&mut rng);
            let tables = Tables::build(&k, 200);
            exact_cells += tables.exact.len();
            unseen_states += usize::from(k.prices().last() == Some(&Price::from_micros(50_000)));
        }
        assert!(
            exact_cells > 100,
            "only {exact_cells} exact cells in 32 kernels"
        );
        assert!(
            unseen_states > 4,
            "only {unseen_states} unseen states in 32 kernels"
        );
    }
}
