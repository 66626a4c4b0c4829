//! The discrete semi-Markov chain over spot prices and its empirical
//! estimator (Eq. 6/7/12/13): an immutable, query-optimized
//! [`FrozenKernel`] with one way to build it — [`FrozenKernel::extend`].
//!
//! `extend` counts a trace window in a private append-only builder that
//! interns price states in O(1) per observation (no re-index of existing
//! statistics when a new price appears mid-ladder), then merges it into
//! a fork of the kernel: the ladder is sorted once and every state's
//! transition counts are laid out in a sorted CSR-style table, so the hot
//! queries (`q`, `hazard`, `exact_next_state_dist`) are binary searches
//! over dense vectors instead of per-key `HashMap` walks. A kernel is
//! cheap to share (`Arc<StateTable>` per state) and cheap to fork: the
//! merge is copy-on-write, deep-cloning only the states the window
//! actually touched. [`FrozenKernel::from_trace`] is the empty kernel
//! extended once.

use std::collections::HashMap;
use std::sync::Arc;

use spot_market::{Price, PriceTrace};

/// Sojourn times are tracked exactly up to this many minutes; longer stays
/// are clamped into the final bucket (the paper's state space `T` is finite;
/// six hours comfortably covers the longest bidding interval evaluated).
pub(crate) const MAX_SOJOURN_MINUTES: usize = 360;

/// Per-price-state transition statistics in builder (insertion) order.
#[derive(Clone, Debug, Default)]
struct BuilderStats {
    /// `N_i`: number of completed sojourns observed at this price.
    n_out: u64,
    /// `Σ_j N_{i,j}^k` indexed by `k−1` (sojourn of exactly `k` minutes).
    sojourn_counts: Vec<u64>,
    /// `N_{i,j}^k` keyed by `(k−1, j)`; `j` is a builder index.
    trans: HashMap<(u32, u16), u64>,
    /// `N_{i,j}` marginal over sojourns, indexed by builder `j`.
    next_marginal: Vec<u64>,
    /// Total minutes spent at this price (including the censored final
    /// segment), for occupancy statistics.
    occupancy_minutes: u64,
}

/// Append-only accumulator for the kernel statistics of Eq. 13.
///
/// States are interned in *insertion* order via a hash index, so folding a
/// trace in is O(segments) regardless of how many new price levels it
/// introduces; the sorted state space is materialized once, when
/// [`FrozenKernel::extend`] merges the builder into a kernel.
#[derive(Clone, Debug, Default)]
struct KernelBuilder {
    /// Prices in insertion order (the builder's working index space).
    prices: Vec<Price>,
    index: HashMap<Price, u16>,
    stats: Vec<BuilderStats>,
    total_transitions: u64,
}

impl KernelBuilder {
    /// The state index for `price`, inserting a new state if unseen.
    /// O(1): existing statistics are never re-indexed.
    fn intern(&mut self, price: Price) -> u16 {
        if let Some(&i) = self.index.get(&price) {
            return i;
        }
        let i = self.prices.len() as u16;
        self.prices.push(price);
        self.stats.push(BuilderStats::default());
        self.index.insert(price, i);
        i
    }

    /// Fold the transitions of `trace` into the builder (Eq. 13 counts).
    ///
    /// Every *completed* sojourn contributes one `(i → j, k)` observation;
    /// the final segment of the trace is right-censored (its true sojourn
    /// is unknown) and only contributes occupancy time.
    fn observe_trace(&mut self, trace: &PriceTrace) {
        let segments: Vec<_> = trace.segments().collect();
        for (idx, seg) in segments.iter().enumerate() {
            let i = self.intern(seg.price);
            self.stats[i as usize].occupancy_minutes += seg.duration;
            let Some(next) = segments.get(idx + 1) else {
                continue; // censored final segment
            };
            let j = self.intern(next.price);
            let k = (seg.duration as usize).clamp(1, MAX_SOJOURN_MINUTES) as u32;
            let n_states = self.prices.len();
            let st = &mut self.stats[i as usize];
            if st.sojourn_counts.len() < k as usize {
                st.sojourn_counts.resize(k as usize, 0);
            }
            st.sojourn_counts[(k - 1) as usize] += 1;
            *st.trans.entry((k - 1, j)).or_insert(0) += 1;
            if st.next_marginal.len() < n_states {
                st.next_marginal.resize(n_states, 0);
            }
            st.next_marginal[j as usize] += 1;
            st.n_out += 1;
            self.total_transitions += 1;
        }
    }
}

/// One frozen state's statistics, shared via `Arc` across kernel forks.
#[derive(Clone, Debug, Default)]
struct StateTable {
    /// `N_i`: number of completed sojourns observed at this price.
    n_out: u64,
    /// Total minutes spent at this price (censored final segment included).
    occupancy_minutes: u64,
    /// `Σ_j N_{i,j}^k` indexed by `k−1`.
    sojourn_counts: Vec<u64>,
    /// `N_{i,j}^k` as `(k−1, j, count)` sorted by `(k−1, j)` — the
    /// CSR-style replacement for the builder's hash map; `j` is a sorted
    /// state index.
    trans: Vec<(u32, u16, u64)>,
    /// `N_{i,j}` marginal over sojourns, dense over all sorted states.
    next_marginal: Vec<u64>,
}

impl StateTable {
    /// Sum of `N_{i,j}^k` over `j` at exactly sojourn `k−1 = k0`.
    fn count_at(&self, k0: u32, j: u16) -> u64 {
        self.trans
            .binary_search_by_key(&(k0, j), |&(k, j, _)| (k, j))
            .map(|idx| self.trans[idx].2)
            .unwrap_or(0)
    }

    /// The contiguous run of transition entries with `k−1 = k0`.
    fn run_at(&self, k0: u32) -> &[(u32, u16, u64)] {
        let lo = self.trans.partition_point(|&(k, _, _)| k < k0);
        let hi = self.trans.partition_point(|&(k, _, _)| k <= k0);
        &self.trans[lo..hi]
    }

    /// Fold a builder state's counts in, with `map[j_builder]` giving the
    /// merged sorted index. `n` is the merged state-space size.
    fn absorb(&mut self, d: &BuilderStats, map: &[u16], n: usize) {
        self.n_out += d.n_out;
        self.occupancy_minutes += d.occupancy_minutes;
        if self.sojourn_counts.len() < d.sojourn_counts.len() {
            self.sojourn_counts.resize(d.sojourn_counts.len(), 0);
        }
        for (sum, &c) in self.sojourn_counts.iter_mut().zip(&d.sojourn_counts) {
            *sum += c;
        }
        if self.next_marginal.len() < n {
            self.next_marginal.resize(n, 0);
        }
        for (j, &c) in d.next_marginal.iter().enumerate() {
            if c > 0 {
                self.next_marginal[map[j] as usize] += c;
            }
        }
        if !d.trans.is_empty() {
            // Append, sort, and coalesce equal `(k−1, j)` keys. The
            // builder's keys are unique, so only a table that already held
            // counts can have equal keys to coalesce.
            let coalesce = !self.trans.is_empty();
            let trans = d.trans.iter().map(|(&(k, j), &c)| (k, map[j as usize], c));
            self.trans.extend(trans);
            self.trans.sort_unstable_by_key(|&(k, j, _)| (k, j));
            if coalesce {
                self.trans.dedup_by(|next, kept| {
                    let same = (next.0, next.1) == (kept.0, kept.1);
                    if same {
                        kept.2 += next.2;
                    }
                    same
                });
            }
        }
    }
}

/// The estimated stochastic kernel `Q(i, j, k)` of the price process for
/// one (zone, instance-type) market — immutable, sorted, and cheap to
/// share or fork. Build one with [`FrozenKernel::from_trace`]; grow one
/// with [`FrozenKernel::extend`].
#[derive(Clone, Debug, Default)]
pub struct FrozenKernel {
    /// Sorted unique prices; the state space `S`.
    prices: Vec<Price>,
    states: Vec<Arc<StateTable>>,
    /// Total completed transitions across all states.
    total_transitions: u64,
}

impl FrozenKernel {
    /// An empty kernel (no states, no data).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a kernel from a single trace: the empty kernel extended by
    /// it.
    pub fn from_trace(trace: &PriceTrace) -> Self {
        FrozenKernel::new().extend(trace)
    }

    /// Copy-on-write fork: a new kernel equal to `self` with `trace`'s
    /// transitions folded in. States the trace does not touch keep sharing
    /// their `Arc<StateTable>` with `self`; only touched states (and, when
    /// the trace introduces a new price level mid-ladder, the `j` index
    /// maps of every state) are re-materialized.
    ///
    /// Censoring semantics match feeding the same window into a builder:
    /// the window's final segment is right-censored, so transitions across
    /// window boundaries are not recorded.
    pub fn extend(&self, trace: &PriceTrace) -> FrozenKernel {
        let mut delta = KernelBuilder::default();
        delta.observe_trace(trace);
        self.merge(&delta)
    }

    /// Fold a builder's counts into a fork of `self`.
    fn merge(&self, delta: &KernelBuilder) -> FrozenKernel {
        if delta.prices.is_empty() {
            return self.clone();
        }
        // Merged sorted ladder.
        let mut prices = self.prices.clone();
        for &p in &delta.prices {
            if let Err(pos) = prices.binary_search(&p) {
                prices.insert(pos, p);
            }
        }
        let n = prices.len();
        let grew = n != self.prices.len();
        // Sorted index in the merged ladder for each of the old sorted
        // states, and for each delta builder state.
        let old_map: Vec<u16> = self
            .prices
            .iter()
            .map(|p| prices.binary_search(p).expect("old price kept") as u16)
            .collect();
        let delta_map: Vec<u16> = delta
            .prices
            .iter()
            .map(|p| prices.binary_search(p).expect("delta price inserted") as u16)
            .collect();

        // One shared empty table seeds every slot; slots the old kernel or
        // the delta touch are overwritten below, the rest stay genuinely
        // empty (the tables are immutable, so sharing is intentional).
        let empty = Arc::new(StateTable::default());
        let mut states: Vec<Arc<StateTable>> = (0..n).map(|_| Arc::clone(&empty)).collect();
        for (old_i, st) in self.states.iter().enumerate() {
            let slot = old_map[old_i] as usize;
            if grew {
                // The ladder shifted: every `j` reference must be remapped,
                // so the table is re-materialized.
                let mut next_marginal = vec![0u64; n];
                for (j, &c) in st.next_marginal.iter().enumerate() {
                    next_marginal[old_map[j] as usize] = c;
                }
                let trans = st
                    .trans
                    .iter()
                    .map(|&(k, j, c)| (k, old_map[j as usize], c))
                    .collect();
                states[slot] = Arc::new(StateTable {
                    n_out: st.n_out,
                    occupancy_minutes: st.occupancy_minutes,
                    sojourn_counts: st.sojourn_counts.clone(),
                    trans,
                    next_marginal,
                });
            } else {
                states[slot] = Arc::clone(st);
            }
        }
        for (bi, d) in delta.stats.iter().enumerate() {
            let slot = delta_map[bi] as usize;
            Arc::make_mut(&mut states[slot]).absorb(d, &delta_map, n);
        }
        FrozenKernel {
            prices,
            states,
            total_transitions: self.total_transitions + delta.total_transitions,
        }
    }

    /// The state space `S` (sorted unique prices).
    pub fn prices(&self) -> &[Price] {
        &self.prices
    }

    /// Number of price states.
    pub fn n_states(&self) -> usize {
        self.prices.len()
    }

    /// Total completed transitions observed (training-data volume).
    pub fn total_transitions(&self) -> u64 {
        self.total_transitions
    }

    /// A stable identifier for this kernel's training state — an FNV-1a
    /// hash of the price ladder and transition volume. Two kernels fit
    /// from the same data share a fingerprint; extending a kernel
    /// changes it. Audit records carry this as `kernel_id` so a bid can
    /// be traced back to the exact model view that produced it.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for &p in &self.prices {
            mix(p.0);
        }
        mix(self.prices.len() as u64);
        mix(self.total_transitions);
        h
    }

    /// The state index whose price is nearest to `price` (`None` on an
    /// empty kernel). Used to map a live market price onto the trained
    /// state space.
    pub fn nearest_state(&self, price: Price) -> Option<u16> {
        if self.prices.is_empty() {
            return None;
        }
        let i = self.prices.partition_point(|&p| p < price);
        let candidates = [i.checked_sub(1), (i < self.prices.len()).then_some(i)];
        candidates
            .into_iter()
            .flatten()
            .min_by_key(|&c| {
                let d = self.prices[c].as_micros().abs_diff(price.as_micros());
                (d, c)
            })
            .map(|c| c as u16)
    }

    /// `q̂_{i,j,k} = N_{i,j}^k / N_i` (Eq. 13); zero when `N_i = 0`.
    pub fn q(&self, i: u16, j: u16, k_minutes: u32) -> f64 {
        let st = &self.states[i as usize];
        if st.n_out == 0 || k_minutes == 0 {
            return 0.0;
        }
        let k = (k_minutes as usize).min(MAX_SOJOURN_MINUTES) as u32;
        st.count_at(k - 1, j) as f64 / st.n_out as f64
    }

    /// Pseudo-count weight pulling sparse empirical hazards toward the
    /// state's geometric hazard. Pure MLE (the paper's Eq. 13) is
    /// overconfident in the tail: a single observed 300-minute sojourn
    /// would make the chain *certain* the price holds for 300 minutes,
    /// collapsing the forecast risk to zero exactly where it matters.
    const HAZARD_SMOOTHING: f64 = 3.0;

    /// The discrete hazard at age `a` minutes: `P(τ = a | τ ≥ a)` for
    /// state `i`, smoothed toward the geometric hazard `1/mean sojourn`
    /// with `HAZARD_SMOOTHING` pseudo-observations so sparse tails
    /// degrade gracefully instead of reading as certainties.
    pub fn hazard(&self, i: u16, age: u32) -> f64 {
        let st = &self.states[i as usize];
        if st.n_out == 0 {
            return self.global_fallback_hazard();
        }
        let age = age.max(1) as usize;
        let at: u64 = st.sojourn_counts.get(age - 1).copied().unwrap_or(0);
        let at_or_later: u64 = st.sojourn_counts.iter().skip(age - 1).sum();
        let p_geo = (1.0 / self.mean_sojourn(i).max(1.0)).clamp(0.0, 1.0);
        let alpha = Self::HAZARD_SMOOTHING;
        ((at as f64 + alpha * p_geo) / (at_or_later as f64 + alpha)).clamp(0.0, 1.0)
    }

    /// All hazards `P(τ = a | τ ≥ a)` for ages `1..=max_age`, one row per
    /// state, states ascending, each row in one pass (suffix sums computed
    /// once; the per-age [`Self::hazard`] recomputes them and is O(max
    /// sojourn) per call — this batch form is what forecast-table
    /// construction uses). The global fallback hazard is walked out at
    /// most once for all the unobserved states, not once each.
    pub(crate) fn hazard_rows(&self, max_age: usize) -> impl Iterator<Item = Vec<f64>> + '_ {
        let fallback = std::cell::OnceCell::new();
        (0..self.n_states() as u16).map(move |i| {
            self.hazards_or(i, max_age, || {
                *fallback.get_or_init(|| self.global_fallback_hazard())
            })
        })
    }

    /// The hazards of state `i` with `fallback` as the flat hazard of an
    /// unobserved state. The suffix sums also give the state's mean
    /// sojourn: Σ_a Σ_{k ≥ a} N(τ = k) = Σ_k k · N(τ = k), the integer
    /// [`Self::mean_sojourn`] sums.
    pub(crate) fn hazards_or(
        &self,
        i: u16,
        max_age: usize,
        fallback: impl FnOnce() -> f64,
    ) -> Vec<f64> {
        let st = &self.states[i as usize];
        if st.n_out == 0 {
            return vec![fallback(); max_age];
        }
        // suffix[a-1] = Σ_{k ≥ a} N(τ = k).
        let len = st.sojourn_counts.len();
        let mut suffix = vec![0u64; len + 1];
        for k in (0..len).rev() {
            suffix[k] = suffix[k + 1] + st.sojourn_counts[k];
        }
        let sojourn_minutes: u64 = suffix.iter().sum();
        let mean = sojourn_minutes as f64 / st.n_out as f64;
        let p_geo = (1.0 / mean.max(1.0)).clamp(0.0, 1.0);
        let alpha = Self::HAZARD_SMOOTHING;
        (1..=max_age)
            .map(|age| {
                let at = st.sojourn_counts.get(age - 1).copied().unwrap_or(0);
                let at_or_later = suffix.get(age - 1).copied().unwrap_or(0);
                ((at as f64 + alpha * p_geo) / (at_or_later as f64 + alpha)).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Mean completed sojourn of state `i` in minutes (fallbacks to the
    /// global mean when unobserved).
    pub fn mean_sojourn(&self, i: u16) -> f64 {
        let st = &self.states[i as usize];
        if st.n_out == 0 {
            return 1.0 / self.global_fallback_hazard();
        }
        let total: u64 = st
            .sojourn_counts
            .iter()
            .enumerate()
            .map(|(k, &c)| (k as u64 + 1) * c)
            .sum();
        total as f64 / st.n_out as f64
    }

    pub(crate) fn global_fallback_hazard(&self) -> f64 {
        let (total_minutes, total_out) = self.states.iter().fold((0u64, 0u64), |(m, o), s| {
            let mins: u64 = s
                .sojourn_counts
                .iter()
                .enumerate()
                .map(|(k, &c)| (k as u64 + 1) * c)
                .sum();
            (m + mins, o + s.n_out)
        });
        if total_out == 0 {
            0.1 // no data at all: assume ~10-minute sojourns
        } else {
            (total_out as f64 / total_minutes as f64).clamp(1e-6, 1.0)
        }
    }

    /// Next-state distribution conditioned on leaving `i` after exactly
    /// `age` minutes: `P(j | i, τ = age)` — `Some` only when that exact
    /// sojourn has ≥ 3 observations (one data point says little about
    /// where the price goes after a particular dwell time).
    pub(crate) fn exact_next_state_dist(&self, i: u16, age: u32) -> Option<Vec<f64>> {
        let n = self.n_states();
        assert!(n > 0, "empty kernel");
        let st = &self.states[i as usize];
        let age = (age.max(1) as usize).min(MAX_SOJOURN_MINUTES) as u32;
        // The sorted layout keeps all of this exact sojourn's entries in
        // one contiguous run: most (state, age) cells have no support and
        // cost one binary search, no allocation.
        let run = st.run_at(age - 1);
        let total: u64 = run.iter().map(|&(_, _, c)| c).sum();
        (total >= 3).then(|| {
            let mut out = vec![0.0; n];
            for &(_, j, c) in run {
                out[j as usize] = c as f64 / total as f64;
            }
            out
        })
    }

    /// Every age index `a < max_age` at which state `i` has an
    /// exact-sojourn conditional — the cells where
    /// [`Self::exact_next_state_dist`]`(i, a + 1)` answers `Some` — in
    /// ascending `a`, each with its `(j, p_j > 0)` entries in ascending
    /// `j`. One walk over the state's sorted transition runs instead of a
    /// pair of binary searches per age; forecast-table construction uses
    /// this. Ages past [`MAX_SOJOURN_MINUTES`] share the final (clamped)
    /// sojourn bucket, exactly as the per-age query clamps them.
    pub(crate) fn exact_dists_up_to(
        &self,
        i: u16,
        max_age: usize,
    ) -> impl Iterator<Item = (usize, impl Iterator<Item = (usize, f64)> + '_)> + '_ {
        const LAST: usize = MAX_SOJOURN_MINUTES - 1;
        self.states[i as usize]
            .trans
            .chunk_by(|x, y| x.0 == y.0)
            .filter_map(|run| {
                let total: u64 = run.iter().map(|&(_, _, c)| c).sum();
                (total >= 3).then_some((run, total))
            })
            .flat_map(move |(run, total)| {
                let k0 = run[0].0 as usize;
                // A run past `max_age` covers no age: its range is empty.
                let end = if k0 == LAST {
                    max_age
                } else {
                    (k0 + 1).min(max_age)
                };
                (k0..end).map(move |a| {
                    let dist = run
                        .iter()
                        .map(move |&(_, j, c)| (j as usize, c as f64 / total as f64));
                    (a, dist)
                })
            })
    }

    /// Marginal next-state distribution `P(j | i)`, falling back to
    /// "uniform over adjacent states" when `i` was never seen completing a
    /// sojourn. Always sums to 1 for a non-empty state space.
    pub(crate) fn marginal_next_state_dist(&self, i: u16) -> Vec<f64> {
        let n = self.n_states();
        assert!(n > 0, "empty kernel");
        let st = &self.states[i as usize];
        let total: u64 = st.next_marginal.iter().sum();
        if total > 0 {
            let mut out = vec![0.0; n];
            for (j, &c) in st.next_marginal.iter().enumerate() {
                out[j] = c as f64 / total as f64;
            }
            return out;
        }
        // No data: uniform over neighbours (or self if singleton).
        let mut out = vec![0.0; n];
        let i = i as usize;
        let mut neighbours = Vec::new();
        if i > 0 {
            neighbours.push(i - 1);
        }
        if i + 1 < n {
            neighbours.push(i + 1);
        }
        if neighbours.is_empty() {
            out[i] = 1.0;
        } else {
            for &j in &neighbours {
                out[j] = 1.0 / neighbours.len() as f64;
            }
        }
        out
    }

    /// Next-state distribution at `(i, age)`: the exact-sojourn
    /// conditional when well supported, otherwise the marginal.
    pub fn next_state_dist(&self, i: u16, age: u32) -> Vec<f64> {
        self.exact_next_state_dist(i, age)
            .unwrap_or_else(|| self.marginal_next_state_dist(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spot_market::PricePoint;

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    /// A trace alternating A(5 min) → B(3 min) → A(5) → B(3) …
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
    fn estimates_simple_kernel() {
        let k = FrozenKernel::from_trace(&alternating(10));
        assert_eq!(k.n_states(), 2);
        let a = k.nearest_state(p(0.01)).unwrap();
        let b = k.nearest_state(p(0.02)).unwrap();
        // Every A sojourn lasts exactly 5 minutes and goes to B.
        assert!((k.q(a, b, 5) - 1.0).abs() < 1e-12);
        assert_eq!(k.q(a, b, 4), 0.0);
        assert_eq!(k.q(a, a, 5), 0.0);
        // B sojourns: 9 completed (the last is censored), all 3 min → A.
        assert!((k.q(b, a, 3) - 1.0).abs() < 1e-12);
        assert_eq!(k.total_transitions(), 19);
    }

    #[test]
    fn new_mid_ladder_state_does_not_misattribute_sojourns() {
        // Regression: the retired mutable kernel interned the successor
        // price *after* caching the current state's index; a brand-new
        // price level sorting at or below it shifted the ladder and the
        // sojourn landed in a neighbor's table (visible as impossible
        // self-transitions `q(i, i, k) > 0`). The append-only builder
        // never shifts indices mid-observation.
        let points = vec![
            PricePoint {
                minute: 0,
                price: p(0.010),
            },
            PricePoint {
                minute: 10,
                price: p(0.005), // new level below the current state
            },
            PricePoint {
                minute: 25,
                price: p(0.010),
            },
            PricePoint {
                minute: 40,
                price: p(0.002), // another new low, again as a successor
            },
        ];
        let k = FrozenKernel::from_trace(&PriceTrace::new(points, 60));
        let n = k.n_states() as u16;
        for i in 0..n {
            for kk in 1..=30 {
                assert_eq!(k.q(i, i, kk), 0.0, "self-transition at state {i}");
            }
        }
        let hi = k.nearest_state(p(0.010)).unwrap();
        let mid = k.nearest_state(p(0.005)).unwrap();
        let lo = k.nearest_state(p(0.002)).unwrap();
        // p=0.010 completes two sojourns (10 min → 0.005, 15 min → 0.002).
        assert!((k.mean_sojourn(hi) - 12.5).abs() < 1e-12);
        assert!((k.q(hi, mid, 10) - 0.5).abs() < 1e-12);
        assert!((k.q(hi, lo, 15) - 0.5).abs() < 1e-12);
        // p=0.005 completes one 15-minute sojourn back to 0.010.
        assert!((k.q(mid, hi, 15) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_rows_sum_to_at_most_one() {
        let k = FrozenKernel::from_trace(&alternating(7));
        for i in 0..k.n_states() as u16 {
            let mut row = 0.0;
            for j in 0..k.n_states() as u16 {
                for kk in 1..=10u32 {
                    row += k.q(i, j, kk);
                }
            }
            assert!(row <= 1.0 + 1e-9, "row {i} sums to {row}");
        }
    }

    #[test]
    fn deterministic_sojourn_hazard() {
        let k = FrozenKernel::from_trace(&alternating(10));
        let a = k.nearest_state(p(0.01)).unwrap();
        // All 10 completed sojourns at A last 5 minutes. With smoothing
        // (α = 3 pseudo-observations at the geometric hazard 1/5), the
        // hazard is small-but-positive before minute 5 and large at 5.
        let early = k.hazard(a, 1);
        let at_end = k.hazard(a, 5);
        assert!(early > 0.0 && early < 0.1, "early hazard {early}");
        assert!(at_end > 0.7, "end-of-sojourn hazard {at_end}");
        assert!(at_end > 5.0 * early);
        assert!((k.mean_sojourn(a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn batched_hazards_equal_per_age_hazards() {
        // The trace ends on a new top price, a state that never completes
        // a sojourn, so the batch's cached global fallback is checked
        // against the one `hazard` walks out afresh.
        let base = alternating(10);
        let mut points = base.points().to_vec();
        points.push(PricePoint {
            minute: base.horizon(),
            price: p(0.05),
        });
        let k = FrozenKernel::from_trace(&PriceTrace::new(points, base.horizon() + 7));
        assert_eq!(k.n_states(), 3);
        for (i, batch) in (0..).zip(k.hazard_rows(20)) {
            for age in 1..=20u32 {
                let single = k.hazard(i, age);
                assert!(
                    (batch[(age - 1) as usize] - single).abs() < 1e-15,
                    "state {i} age {age}"
                );
            }
        }
    }

    #[test]
    fn hazard_beyond_support_falls_back_to_geometric() {
        let k = FrozenKernel::from_trace(&alternating(10));
        let a = k.nearest_state(p(0.01)).unwrap();
        let h = k.hazard(a, 50);
        assert!((h - 1.0 / 5.0).abs() < 1e-12, "got {h}");
    }

    #[test]
    fn next_state_dist_sums_to_one_and_backs_off() {
        let k = FrozenKernel::from_trace(&alternating(10));
        let a = k.nearest_state(p(0.01)).unwrap();
        // Exact support at τ=5.
        let d = k.next_state_dist(a, 5);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
        // Unseen sojourn (τ=2) backs off to the marginal, still → B.
        let d = k.next_state_dist(a, 2);
        assert!((d[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_dists_walk_equals_per_age_queries() {
        // A(5) ↔ B(3) for support at short sojourns, plus A holding past
        // MAX_SOJOURN_MINUTES three times so the clamped final bucket is
        // supported and must answer for every age beyond it.
        let mut points = Vec::new();
        let mut t = 0;
        for cycle in 0..12u64 {
            let stay = if cycle % 4 == 0 { 400 + cycle } else { 5 };
            points.push(PricePoint {
                minute: t,
                price: p(0.01),
            });
            t += stay;
            points.push(PricePoint {
                minute: t,
                price: p(0.02),
            });
            t += 3;
        }
        let k = FrozenKernel::from_trace(&PriceTrace::new(points, t));
        let beyond = MAX_SOJOURN_MINUTES + 40;
        for max_age in [2usize, 5, 180, MAX_SOJOURN_MINUTES, beyond] {
            for i in 0..k.n_states() as u16 {
                let walked: Vec<(usize, Vec<(usize, f64)>)> = k
                    .exact_dists_up_to(i, max_age)
                    .map(|(a, dist)| (a, dist.collect()))
                    .collect();
                let queried: Vec<(usize, Vec<(usize, f64)>)> = (0..max_age)
                    .filter_map(|a| {
                        let dist = k.exact_next_state_dist(i, a as u32 + 1)?;
                        let sparse = dist.into_iter().enumerate().filter(|&(_, p)| p > 0.0);
                        Some((a, sparse.collect()))
                    })
                    .collect();
                assert_eq!(walked, queried, "state {i} max_age {max_age}");
            }
        }
        // The clamped bucket really is exercised.
        assert_eq!(k.exact_dists_up_to(0, beyond).count(), 1 + 41);
    }

    #[test]
    fn nearest_state_mapping() {
        let k = FrozenKernel::from_trace(&alternating(3));
        assert_eq!(k.prices(), &[p(0.01), p(0.02)]);
        assert_eq!(k.nearest_state(p(0.005)).unwrap(), 0);
        assert_eq!(k.nearest_state(p(0.014)).unwrap(), 0);
        assert_eq!(k.nearest_state(p(0.016)).unwrap(), 1);
        assert_eq!(k.nearest_state(p(0.5)).unwrap(), 1);
        assert_eq!(FrozenKernel::new().nearest_state(p(0.01)), None);
    }

    #[test]
    fn incremental_observation_equals_batch() {
        let t = alternating(10);
        let batch = FrozenKernel::from_trace(&t);
        let mut inc = KernelBuilder::default();
        // Observing windows [0,40) and [40,80) misses only the boundary
        // transition statistics; totals must line up within that.
        inc.observe_trace(&t.window(0, 40));
        inc.observe_trace(&t.window(40, 80));
        let inc = FrozenKernel::new().merge(&inc);
        assert_eq!(inc.n_states(), batch.n_states());
        // One cross-boundary transition is lost to censoring.
        assert_eq!(inc.total_transitions() + 1, batch.total_transitions());
    }

    #[test]
    fn extend_equals_builder_incremental() {
        // Forking with extend() must count exactly like feeding the same
        // windows into one builder.
        let t = alternating(10);
        let base = FrozenKernel::from_trace(&t.window(0, 40));
        let forked = base.extend(&t.window(40, 80));
        let mut b = KernelBuilder::default();
        b.observe_trace(&t.window(0, 40));
        b.observe_trace(&t.window(40, 80));
        let rebuilt = FrozenKernel::new().merge(&b);
        assert_eq!(forked.prices(), rebuilt.prices());
        assert_eq!(forked.total_transitions(), rebuilt.total_transitions());
        for i in 0..forked.n_states() as u16 {
            assert_eq!(forked.mean_sojourn(i), rebuilt.mean_sojourn(i));
            for j in 0..forked.n_states() as u16 {
                for k in 1..=10u32 {
                    assert_eq!(forked.q(i, j, k), rebuilt.q(i, j, k), "q({i},{j},{k})");
                }
            }
        }
        // The base is untouched by the fork.
        assert_eq!(base.n_states(), 2);
        assert_eq!(base.total_transitions(), FrozenKernel::from_trace(&t.window(0, 40)).total_transitions());
    }

    #[test]
    fn extend_with_new_mid_ladder_state_preserves_old_statistics() {
        // Insert a price *below* existing states and check old statistics
        // still point at the right prices (the old `intern` re-index
        // guarantee, now provided by the merge remap).
        let k = FrozenKernel::from_trace(&alternating(5));
        let t2 = PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.005),
                },
                PricePoint {
                    minute: 4,
                    price: p(0.02),
                },
                PricePoint {
                    minute: 8,
                    price: p(0.005),
                },
            ],
            12,
        );
        let k = k.extend(&t2);
        assert_eq!(k.prices(), &[p(0.005), p(0.01), p(0.02)]);
        let a = 1u16; // 0.01 shifted up by the new state
        let b = 2u16;
        assert!((k.q(a, b, 5) - 1.0).abs() < 1e-12, "A→B stats survived");
        let low = 0u16;
        assert!(k.q(low, b, 4) > 0.0, "new state's transition recorded");
    }

    #[test]
    fn extend_shares_untouched_state_tables() {
        // A window that only revisits existing states must not clone the
        // tables of states it never leaves from or arrives at... and a
        // no-op extend shares everything.
        let base = FrozenKernel::from_trace(&alternating(10));
        let forked = base.extend(&alternating(2));
        assert_eq!(forked.n_states(), base.n_states());
        // Both states are touched here, so check sharing via the empty
        // delta path instead: merging nothing clones only Arcs.
        let same = base.merge(&KernelBuilder::default());
        for (a, b) in same.states.iter().zip(&base.states) {
            assert!(Arc::ptr_eq(a, b), "no-op merge must share tables");
        }
    }

    #[test]
    fn unknown_state_distributions_are_sane() {
        // A kernel with occupancy but no completed transitions.
        let t = PriceTrace::new(
            vec![PricePoint {
                minute: 0,
                price: p(0.01),
            }],
            100,
        );
        let k = FrozenKernel::from_trace(&t);
        assert_eq!(k.n_states(), 1);
        let d = k.next_state_dist(0, 5);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(k.hazard(0, 5) > 0.0, "fallback hazard must be positive");
    }

    /// A random multi-level trace with enough transitions to train (the
    /// generator `tests/proptests.rs` trains its models on).
    fn training_trace() -> impl Strategy<Value = PriceTrace> {
        (
            proptest::collection::vec((1u64..30, 0usize..5), 20..120),
            proptest::collection::vec(50u64..5_000, 5..=5),
        )
            .prop_map(|(steps, levels)| {
                let mut levels: Vec<Price> = levels
                    .into_iter()
                    .map(|m| Price::from_micros(m * 100))
                    .collect();
                levels.sort_unstable();
                levels.dedup();
                let mut points = vec![PricePoint {
                    minute: 0,
                    price: levels[0],
                }];
                let mut t = 0;
                for (dt, idx) in steps {
                    t += dt;
                    let price = levels[idx % levels.len()];
                    if points.last().expect("non-empty").price != price {
                        points.push(PricePoint { minute: t, price });
                    }
                }
                PriceTrace::new(points, t + 30)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Refit equivalence: a kernel grown incrementally — fit the
        /// first segment, then fork-extend with the remaining segments —
        /// yields the same `q` / `hazard` / `mean_sojourn` values as one
        /// builder counting every segment, merged once.
        #[test]
        fn incremental_refit_equals_one_shot(
            trace in training_trace(),
            cut_pct in 10u64..90,
            freeze_pct in 20u64..80,
        ) {
            let horizon = trace.horizon();
            let cut = (horizon * cut_pct / 100).max(1);
            let freeze_at = (cut * freeze_pct / 100).max(1);
            // Segment windows (each right-censors its own tail — the
            // windows, not the full trace, are the ground truth both sides
            // must match).
            let segments = [
                trace.window(0, freeze_at),
                trace.window(freeze_at, cut),
                trace.window(cut, horizon),
            ];

            // One-shot: a single builder over every segment.
            let mut one_shot = KernelBuilder::default();
            for s in &segments {
                one_shot.observe_trace(s);
            }
            let one_shot = FrozenKernel::new().merge(&one_shot);

            // Incremental: fit the first segment, then copy-on-write
            // extend per remaining segment.
            let mut incremental = FrozenKernel::from_trace(&segments[0]);
            for s in &segments[1..] {
                incremental = incremental.extend(s);
            }

            prop_assert_eq!(incremental.prices(), one_shot.prices());
            prop_assert_eq!(incremental.total_transitions(), one_shot.total_transitions());
            let n = one_shot.n_states() as u16;
            for i in 0..n {
                prop_assert_eq!(
                    incremental.mean_sojourn(i).to_bits(),
                    one_shot.mean_sojourn(i).to_bits(),
                    "mean_sojourn({}) diverged", i
                );
                for age in [1u32, 2, 7, 30, MAX_SOJOURN_MINUTES as u32] {
                    prop_assert_eq!(
                        incremental.hazard(i, age).to_bits(),
                        one_shot.hazard(i, age).to_bits(),
                        "hazard({}, {}) diverged", i, age
                    );
                }
                for j in 0..n {
                    for k in [1u32, 3, 11, 60] {
                        prop_assert_eq!(
                            incremental.q(i, j, k).to_bits(),
                            one_shot.q(i, j, k).to_bits(),
                            "q({}, {}, {}) diverged", i, j, k
                        );
                    }
                }
            }
        }
    }
}
