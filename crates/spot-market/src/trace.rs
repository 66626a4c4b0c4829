//! Step-function spot-price traces at one-minute resolution.
//!
//! A trace is a sorted sequence of change points `(minute, price)`; the
//! price holds until the next change point. One minute is the time unit the
//! paper adopts for the semi-Markov model (Eq. 12: sojourn times are
//! discretized to minutes because 2014 prices changed many times per hour).
//! A lookup is one load from a per-32-minute block index plus a short
//! forward scan; a trace that is only walked never builds the index.

use std::sync::OnceLock;

use crate::money::Price;

/// Minutes per block of a trace's lookup index, as a shift.
const BLOCK_SHIFT: u32 = 5;

/// A price change point: from `minute` (inclusive) the market price is
/// `price` until the next point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PricePoint {
    /// Minute index since trace start.
    pub minute: u64,
    /// The spot price holding from this minute.
    pub price: Price,
}

/// A maximal constant-price interval of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The price during the segment.
    pub price: Price,
    /// First minute of the segment (inclusive).
    pub start: u64,
    /// Length in minutes (≥ 1; the final segment runs to the horizon).
    pub duration: u64,
}

/// A spot-price history for one (zone, instance type) pair.
#[derive(Clone, Debug)]
pub struct PriceTrace {
    points: Vec<PricePoint>,
    /// Total trace length in minutes; prices are defined on `[0, horizon)`.
    horizon: u64,
    /// The lookup index, built at the first lookup: `blocks[b]` is the
    /// index of the point holding minute `b << BLOCK_SHIFT`.
    blocks: OnceLock<Box<[u32]>>,
}

/// Equal points over an equal horizon; the index follows from them.
impl PartialEq for PriceTrace {
    fn eq(&self, other: &Self) -> bool {
        (self.horizon, &self.points) == (other.horizon, &other.points)
    }
}

impl Eq for PriceTrace {}

impl PriceTrace {
    /// Build a trace from change points.
    ///
    /// Points must start at minute 0, be strictly increasing in time, lie
    /// within the horizon, and consecutive points must change the price
    /// (equal-price points would be redundant and break sojourn statistics).
    pub fn new(points: Vec<PricePoint>, horizon: u64) -> Self {
        assert!(!points.is_empty(), "trace needs at least one point");
        assert_eq!(points[0].minute, 0, "trace must start at minute 0");
        assert!(horizon > 0, "horizon must be positive");
        for w in points.windows(2) {
            assert!(
                w[0].minute < w[1].minute,
                "points must be strictly increasing in time"
            );
            assert_ne!(
                w[0].price, w[1].price,
                "consecutive points must change the price"
            );
        }
        assert!(
            points.last().unwrap().minute < horizon,
            "last point beyond horizon"
        );
        assert!(u32::try_from(points.len()).is_ok(), "too many points");
        let blocks = OnceLock::new();
        PriceTrace { points, horizon, blocks }
    }

    /// The block index, built on first use: each point marks the first
    /// block it holds, and a running maximum fills the blocks between.
    fn blocks(&self) -> &[u32] {
        self.blocks.get_or_init(|| {
            let first_block = |minute: u64| minute.div_ceil(1 << BLOCK_SHIFT) as usize;
            let mut blocks = vec![0u32; first_block(self.horizon) + 1];
            for (i, p) in self.points.iter().enumerate() {
                blocks[first_block(p.minute)] = i as u32;
            }
            let mut held = 0;
            for b in &mut blocks {
                held = held.max(*b);
                *b = held;
            }
            blocks.pop();
            blocks.into()
        })
    }

    /// The trace length in minutes.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The underlying change points.
    pub fn points(&self) -> &[PricePoint] {
        &self.points
    }

    /// Index of the change point whose segment holds `minute` (the last
    /// point at or before it; the first point is at minute 0): the block
    /// index's point, then a scan over the block's later points. Requires
    /// `minute < horizon`.
    fn segment_index(&self, minute: u64) -> usize {
        let mut i = self.blocks()[(minute >> BLOCK_SHIFT) as usize] as usize;
        while self.points.get(i + 1).is_some_and(|p| p.minute <= minute) {
            i += 1;
        }
        i
    }

    /// The price in effect at `minute` (must be `< horizon`).
    pub fn price_at(&self, minute: u64) -> Price {
        self.price_and_age_at(minute).0
    }

    /// The price in effect at `minute` and the minutes it has held by then
    /// (its sojourn age), from one segment lookup.
    pub fn price_and_age_at(&self, minute: u64) -> (Price, u64) {
        assert!(minute < self.horizon, "minute {minute} beyond horizon");
        let point = self.points[self.segment_index(minute)];
        (point.price, minute - point.minute)
    }

    /// The segments overlapping `[from, to)` as `(price, lo, hi)`, clipped
    /// to it: one lookup of the segment holding `from`, then a walk that
    /// stops at `to`. Requires `from < horizon`.
    fn clipped(&self, from: u64, to: u64) -> impl Iterator<Item = (Price, u64, u64)> + '_ {
        let first = self.segment_index(from);
        let ends = self.points[first + 1..]
            .iter()
            .map(|p| p.minute)
            .chain([self.horizon]);
        self.points[first..]
            .iter()
            .zip(ends)
            .take_while(move |(p, _)| p.minute < to)
            .map(move |(p, end)| (p.price, p.minute.max(from), end.min(to)))
    }

    /// Iterate over the maximal constant-price segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.iter().enumerate().map(move |(i, p)| {
            let end = self
                .points
                .get(i + 1)
                .map(|n| n.minute)
                .unwrap_or(self.horizon);
            Segment {
                price: p.price,
                start: p.minute,
                duration: end - p.minute,
            }
        })
    }

    /// The last price change at or before the end of `[from, to)`; i.e. the
    /// price in effect just before minute `to`. Used by billing ("the last
    /// price of a spot instance in the hour").
    pub fn last_price_in(&self, from: u64, to: u64) -> Price {
        assert!(from < to && to <= self.horizon, "bad window {from}..{to}");
        self.price_at(to - 1)
    }

    /// The maximum price over `[from, to)`.
    pub fn max_price_in(&self, from: u64, to: u64) -> Price {
        assert!(from < to && to <= self.horizon, "bad window {from}..{to}");
        self.clipped(from, to)
            .map(|(price, _, _)| price)
            .max()
            .expect("window overlaps at least one segment")
    }

    /// First minute in `[from, until)` (and before the horizon) at which
    /// the price strictly exceeds `bid` — the out-of-bid termination
    /// minute for an instance holding `bid` — or `None` if the bid
    /// survives that long.
    pub fn first_minute_above(&self, bid: Price, from: u64, until: u64) -> Option<u64> {
        let until = until.min(self.horizon);
        if from >= until {
            return None;
        }
        self.clipped(from, until)
            .find(|&(price, _, _)| price > bid)
            .map(|(_, lo, _)| lo)
    }

    /// Fraction of minutes in `[from, to)` during which `price > bid`
    /// (the measured out-of-bid failure probability of the micro-benchmark,
    /// Fig. 4).
    pub fn fraction_above(&self, bid: Price, from: u64, to: u64) -> f64 {
        assert!(from < to && to <= self.horizon, "bad window {from}..{to}");
        let above: u64 = self
            .clipped(from, to)
            .filter(|&(price, _, _)| price > bid)
            .map(|(_, lo, hi)| hi - lo)
            .sum();
        above as f64 / (to - from) as f64
    }

    /// Restrict the trace to `[from, to)`, re-basing minutes to 0.
    /// Used to split history into a training prefix and an evaluation
    /// suffix.
    pub fn window(&self, from: u64, to: u64) -> PriceTrace {
        assert!(from < to && to <= self.horizon, "bad window {from}..{to}");
        // The segment `from` falls in opens the window.
        let first = self.segment_index(from);
        let mut points = vec![PricePoint {
            minute: 0,
            price: self.points[first].price,
        }];
        for p in self.points[first + 1..].iter().take_while(|p| p.minute < to) {
            if p.price == points.last().unwrap().price {
                continue;
            }
            points.push(PricePoint {
                minute: p.minute - from,
                price: p.price,
            });
        }
        PriceTrace::new(points, to - from)
    }

    /// Minutes the price at `minute` has already held its value (the
    /// semi-Markov sojourn age observed at bidding time).
    pub fn sojourn_age_at(&self, minute: u64) -> u64 {
        self.price_and_age_at(minute).1
    }

    /// The trace re-quoted on a coarser price grid: every price rounds up
    /// to a multiple of `quantum`, merging adjacent segments that land on
    /// the same quantized value. Keeps semi-Markov state spaces bounded
    /// when the underlying process quotes near-continuously (e.g. the
    /// AR(1) market model).
    pub fn quantized(&self, quantum: Price) -> PriceTrace {
        assert!(quantum > Price::ZERO, "quantum must be positive");
        let q = quantum.as_micros();
        let mut points: Vec<PricePoint> = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let price = Price::from_micros(p.price.as_micros().div_ceil(q) * q);
            match points.last() {
                Some(last) if last.price == price => {}
                _ => points.push(PricePoint { minute: p.minute, price }),
            }
        }
        PriceTrace::new(points, self.horizon)
    }

    /// Mean price over the whole trace, weighted by sojourn time.
    pub fn mean_price(&self) -> Price {
        let total: u64 = self
            .segments()
            .map(|s| s.price.as_micros() * s.duration)
            .sum();
        Price::from_micros(total / self.horizon)
    }

    /// Number of price changes per hour, averaged over the trace.
    pub fn changes_per_hour(&self) -> f64 {
        (self.points.len() - 1) as f64 / (self.horizon as f64 / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    impl PriceTrace {
        /// The linear-scan `window` the bisecting one replaced, kept as the
        /// reference the differential tests compare against.
        pub(crate) fn window_by_scan(&self, from: u64, to: u64) -> PriceTrace {
            assert!(from < to && to <= self.horizon, "bad window {from}..{to}");
            let mut points = vec![PricePoint {
                minute: 0,
                price: self.price_at(from),
            }];
            for p in &self.points {
                if p.minute > from && p.minute < to {
                    if p.price == points.last().unwrap().price {
                        continue;
                    }
                    points.push(PricePoint {
                        minute: p.minute - from,
                        price: p.price,
                    });
                }
            }
            PriceTrace::new(points, to - from)
        }

        /// The scanning queries the bisecting ones replaced: every segment
        /// from minute 0, kept as the differential tests' references.
        fn first_minute_above_by_scan(&self, bid: Price, from: u64, until: u64) -> Option<u64> {
            self.segments()
                .filter(|s| s.start + s.duration > from && s.price > bid)
                .map(|s| s.start.max(from))
                .next()
                .filter(|&m| m < until)
        }

        fn max_price_in_by_scan(&self, from: u64, to: u64) -> Price {
            self.segments()
                .filter(|s| s.start < to && s.start + s.duration > from)
                .map(|s| s.price)
                .max()
                .unwrap()
        }

        fn fraction_above_by_scan(&self, bid: Price, from: u64, to: u64) -> f64 {
            let mut above = 0u64;
            for s in self.segments() {
                let lo = s.start.max(from);
                let hi = (s.start + s.duration).min(to);
                if lo < hi && s.price > bid {
                    above += hi - lo;
                }
            }
            above as f64 / (to - from) as f64
        }

        /// The bisection the block index replaced, kept as the reference
        /// the block-index tests compare against.
        fn segment_index_by_bisection(&self, minute: u64) -> usize {
            self.points.partition_point(|p| p.minute <= minute) - 1
        }

        fn price_and_age_by_scan(&self, minute: u64) -> (Price, u64) {
            let p = self
                .points
                .iter()
                .rev()
                .find(|p| p.minute <= minute)
                .unwrap();
            (p.price, minute - p.minute)
        }
    }

    fn sample() -> PriceTrace {
        // Mirrors Fig. 1: 0.0071 for a while, then 0.0081, then 0.0117.
        PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.0071),
                },
                PricePoint {
                    minute: 40,
                    price: p(0.0081),
                },
                PricePoint {
                    minute: 70,
                    price: p(0.0117),
                },
                PricePoint {
                    minute: 100,
                    price: p(0.0081),
                },
            ],
            120,
        )
    }

    #[test]
    fn price_lookup() {
        let t = sample();
        assert_eq!(t.price_at(0), p(0.0071));
        assert_eq!(t.price_at(39), p(0.0071));
        assert_eq!(t.price_at(40), p(0.0081));
        assert_eq!(t.price_at(99), p(0.0117));
        assert_eq!(t.price_at(119), p(0.0081));
    }

    #[test]
    fn segments_partition_the_horizon() {
        let t = sample();
        let segs: Vec<Segment> = t.segments().collect();
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].duration, 40);
        assert_eq!(segs[2].duration, 30);
        let total: u64 = segs.iter().map(|s| s.duration).sum();
        assert_eq!(total, t.horizon());
        for w in segs.windows(2) {
            assert_eq!(w[0].start + w[0].duration, w[1].start);
        }
    }

    #[test]
    fn window_queries() {
        let t = sample();
        assert_eq!(t.last_price_in(0, 60), p(0.0081));
        assert_eq!(t.last_price_in(0, 40), p(0.0071));
        assert_eq!(t.max_price_in(0, 60), p(0.0081));
        assert_eq!(t.max_price_in(0, 120), p(0.0117));
    }

    #[test]
    fn out_of_bid_minute() {
        let t = sample();
        // Bid 0.0081 survives until the 0.0117 segment.
        assert_eq!(t.first_minute_above(p(0.0081), 0, 120), Some(70));
        // ... unless the query ends first.
        assert_eq!(t.first_minute_above(p(0.0081), 0, 70), None);
        // Starting inside the expensive segment fails immediately.
        assert_eq!(t.first_minute_above(p(0.0081), 80, 120), Some(80));
        // A bid at the max price never goes out of bid.
        assert_eq!(t.first_minute_above(p(0.0117), 0, 120), None);
        // Low bid dies at minute 0.
        assert_eq!(t.first_minute_above(p(0.0050), 0, 120), Some(0));
        // Nothing is asked at or past the horizon.
        assert_eq!(t.first_minute_above(p(0.0050), 120, u64::MAX), None);
    }

    #[test]
    fn fraction_above_counts_minutes() {
        let t = sample();
        // price > 0.0081 only during [70, 100): 30 of 120 minutes.
        assert!((t.fraction_above(p(0.0081), 0, 120) - 0.25).abs() < 1e-12);
        assert_eq!(t.fraction_above(p(0.0117), 0, 120), 0.0);
        assert_eq!(t.fraction_above(p(0.001), 0, 120), 1.0);
    }

    #[test]
    fn sojourn_age_tracks_segments() {
        let t = sample();
        assert_eq!(t.sojourn_age_at(0), 0);
        assert_eq!(t.sojourn_age_at(39), 39);
        assert_eq!(t.sojourn_age_at(40), 0);
        assert_eq!(t.sojourn_age_at(75), 5);
        assert_eq!(t.sojourn_age_at(119), 19);
    }

    #[test]
    fn windowing_rebases() {
        let t = sample();
        let w = t.window(50, 110);
        assert_eq!(w.horizon(), 60);
        assert_eq!(w.price_at(0), p(0.0081));
        assert_eq!(w.price_at(25), p(0.0117));
        assert_eq!(w.price_at(55), p(0.0081));
        assert_eq!(w.points().len(), 3);
    }

    #[test]
    fn window_merges_equal_prices() {
        // Window starting inside segment B where the next point is also B
        // must not produce two consecutive equal prices.
        let t = PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.01),
                },
                PricePoint {
                    minute: 10,
                    price: p(0.02),
                },
                PricePoint {
                    minute: 20,
                    price: p(0.01),
                },
            ],
            30,
        );
        let w = t.window(5, 30);
        assert_eq!(w.points().len(), 3);
        assert_eq!(w.price_at(0), p(0.01));
    }

    /// Window edges worth trying on `t`: every change point and the
    /// minutes either side of it, plus both ends of the trace.
    fn edges(t: &PriceTrace) -> Vec<u64> {
        let mut edges: Vec<u64> = t
            .points()
            .iter()
            .flat_map(|p| [p.minute.saturating_sub(1), p.minute, p.minute + 1])
            .chain([0, t.horizon()])
            .filter(|&m| m <= t.horizon())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    #[test]
    fn block_indexed_window_matches_the_scan_on_the_merge_trace() {
        // A → B → A: a window opening inside the first A meets its own
        // price again two points later; one opening on B's change point
        // must start at B without repeating it.
        let t = PriceTrace::new(
            vec![
                PricePoint { minute: 0, price: p(0.01) },
                PricePoint { minute: 10, price: p(0.02) },
                PricePoint { minute: 20, price: p(0.01) },
            ],
            30,
        );
        let edges = edges(&t);
        for &from in &edges {
            for &to in edges.iter().filter(|&&to| to > from) {
                assert_eq!(t.window(from, to), t.window_by_scan(from, to), "{from}..{to}");
            }
        }
        assert_eq!(t.window(10, 20).points().len(), 1, "exactly one segment");
        assert_eq!(t.window(12, 15).points().len(), 1, "inside one segment");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The block-indexed `window` equals the linear scan it replaced
        /// for every pair of edges on or next to a change point (which
        /// covers `from`/`to` exactly on one and windows inside one
        /// segment), and for an arbitrary pair besides.
        #[test]
        fn block_indexed_window_matches_the_scan(
            steps in proptest::collection::vec((1u64..40, 0usize..4), 1..20),
            a in 0u64..1_000,
            len in 1u64..1_000,
        ) {
            let levels = [p(0.01), p(0.02), p(0.03), p(0.05)];
            let mut points = vec![PricePoint { minute: 0, price: levels[0] }];
            let mut at = 0;
            for (dt, level) in steps {
                at += dt;
                if points.last().unwrap().price != levels[level] {
                    points.push(PricePoint { minute: at, price: levels[level] });
                }
            }
            let t = PriceTrace::new(points, at + 40);
            let edges = edges(&t);
            for &from in &edges {
                for &to in edges.iter().filter(|&&to| to > from) {
                    proptest::prop_assert_eq!(t.window(from, to), t.window_by_scan(from, to));
                }
            }
            let from = a % t.horizon();
            let to = (from + len).min(t.horizon());
            proptest::prop_assert_eq!(t.window(from, to), t.window_by_scan(from, to));
        }
    }

    /// Every block-indexed query equals its linear scan on `t`, for `from`
    /// on, next to and between change points, in the last segment and (for
    /// the out-of-bid minute) at or past the horizon, and for bids below,
    /// on and above every price level, the top level included.
    fn block_indexed_queries_match_the_scans_on(t: &PriceTrace, bids: &[Price]) {
        let edges = edges(t);
        for &from in &edges {
            if from < t.horizon() {
                assert_eq!(
                    t.price_and_age_at(from),
                    t.price_and_age_by_scan(from),
                    "at {from}"
                );
                assert_eq!(t.price_at(from), t.price_and_age_by_scan(from).0);
                assert_eq!(t.sojourn_age_at(from), t.price_and_age_by_scan(from).1);
            }
            for &to in edges.iter().filter(|&&to| to > from) {
                assert_eq!(
                    t.max_price_in(from, to),
                    t.max_price_in_by_scan(from, to),
                    "{from}..{to}"
                );
                for &bid in bids {
                    assert_eq!(
                        t.fraction_above(bid, from, to).to_bits(),
                        t.fraction_above_by_scan(bid, from, to).to_bits(),
                        "{bid:?} over {from}..{to}"
                    );
                }
            }
            for until in edges.iter().copied().chain([t.horizon() + 7, u64::MAX]) {
                for &bid in bids {
                    assert_eq!(
                        t.first_minute_above(bid, from, until),
                        t.first_minute_above_by_scan(bid, from, until),
                        "{bid:?} from {from} until {until}"
                    );
                }
            }
        }
        for from in [t.horizon(), t.horizon() + 1, u64::MAX] {
            for &bid in bids {
                assert_eq!(t.first_minute_above(bid, from, u64::MAX), None);
            }
        }
    }

    #[test]
    fn block_indexed_queries_match_the_scans_on_the_sample() {
        let t = sample();
        let bids = [p(0.0), p(0.0071), p(0.008), p(0.0081), p(0.0117), p(0.02)];
        block_indexed_queries_match_the_scans_on(&t, &bids);
        // A bid at the top price never dies, wherever the query starts.
        for from in 0..t.horizon() {
            assert_eq!(t.first_minute_above(p(0.0117), from, u64::MAX), None);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The block-indexed out-of-bid minute, window maximum, fraction
        /// above and price/age lookup equal the scans they replaced on random
        /// traces (see `block_indexed_queries_match_the_scans_on`).
        #[test]
        fn block_indexed_queries_match_the_scans(
            steps in proptest::collection::vec((1u64..40, 0usize..4), 1..20),
        ) {
            let levels = [p(0.01), p(0.02), p(0.03), p(0.05)];
            let mut points = vec![PricePoint { minute: 0, price: levels[0] }];
            let mut at = 0;
            for (dt, level) in steps {
                at += dt;
                if points.last().unwrap().price != levels[level] {
                    points.push(PricePoint { minute: at, price: levels[level] });
                }
            }
            let t = PriceTrace::new(points, at + 40);
            let mut bids = vec![Price::ZERO, p(0.06)];
            for level in levels {
                bids.extend([level - Price::TICK, level, level + Price::TICK]);
            }
            block_indexed_queries_match_the_scans_on(&t, &bids);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The block-indexed lookup equals the bisection it replaced at
        /// every minute of traces whose change points fall on, next to and
        /// between block edges (runs of one-minute segments included), over
        /// horizons that end inside a block; and the range queries built on
        /// it equal their references over random ranges.
        #[test]
        fn block_index_matches_the_bisection(
            steps in proptest::collection::vec((0usize..4, 1u64..70, 0usize..4), 1..40),
            tail in 1u64..64,
            ranges in proptest::collection::vec((0u64..10_000, 1u64..400, 0usize..4), 16),
        ) {
            let levels = [p(0.01), p(0.02), p(0.03), p(0.05)];
            let mut points = vec![PricePoint { minute: 0, price: levels[0] }];
            let mut at = 0;
            for (kind, dt, level) in steps {
                let edge = ((at >> BLOCK_SHIFT) + 1) << BLOCK_SHIFT;
                at = match kind {
                    0 => edge,
                    1 => (edge - 1).max(at + 1),
                    2 => edge + 1,
                    _ => at + dt,
                };
                if points.last().unwrap().price != levels[level] {
                    points.push(PricePoint { minute: at, price: levels[level] });
                }
            }
            let mut horizon = at + tail;
            horizon += u64::from(horizon % (1 << BLOCK_SHIFT) == 0);
            let t = PriceTrace::new(points, horizon);
            for minute in 0..horizon {
                let i = t.segment_index_by_bisection(minute);
                proptest::prop_assert_eq!(t.segment_index(minute), i, "at {}", minute);
                let point = t.points[i];
                proptest::prop_assert_eq!(
                    t.price_and_age_at(minute),
                    (point.price, minute - point.minute)
                );
            }
            for (a, len, level) in ranges {
                let from = a % horizon;
                let to = (from + len).min(horizon);
                let bid = levels[level];
                proptest::prop_assert_eq!(
                    t.last_price_in(from, to),
                    t.points[t.segment_index_by_bisection(to - 1)].price
                );
                proptest::prop_assert_eq!(
                    t.first_minute_above(bid, from, to),
                    t.first_minute_above_by_scan(bid, from, to)
                );
                proptest::prop_assert_eq!(t.max_price_in(from, to), t.max_price_in_by_scan(from, to));
                proptest::prop_assert_eq!(
                    t.fraction_above(bid, from, to).to_bits(),
                    t.fraction_above_by_scan(bid, from, to).to_bits()
                );
                proptest::prop_assert_eq!(t.window(from, to), t.window_by_scan(from, to));
            }
        }
    }

    #[test]
    fn quantization_bounds_states_and_preserves_shape() {
        let t = PriceTrace::new(
            vec![
                PricePoint { minute: 0, price: Price::from_micros(10_010) },
                PricePoint { minute: 5, price: Price::from_micros(10_090) },
                PricePoint { minute: 9, price: Price::from_micros(11_700) },
                PricePoint { minute: 15, price: Price::from_micros(10_040) },
            ],
            20,
        );
        let q = t.quantized(Price::from_micros(1_000));
        // 10_010 and 10_090 both round up to 11_000 and merge.
        assert_eq!(q.points().len(), 3);
        assert_eq!(q.price_at(0), Price::from_micros(11_000));
        assert_eq!(q.price_at(9), Price::from_micros(12_000));
        assert_eq!(q.price_at(16), Price::from_micros(11_000));
        // Quantized prices never fall below the originals (bids chosen on
        // the quantized grid stay conservative).
        for m in 0..20 {
            assert!(q.price_at(m) >= t.price_at(m));
        }
    }

    #[test]
    fn statistics() {
        let t = sample();
        assert_eq!(t.changes_per_hour(), 1.5);
        let mean = t.mean_price().as_dollars();
        let expect = (0.0071 * 40.0 + 0.0081 * 30.0 + 0.0117 * 30.0 + 0.0081 * 20.0) / 120.0;
        assert!((mean - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_points() {
        PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.01),
                },
                PricePoint {
                    minute: 0,
                    price: p(0.02),
                },
            ],
            10,
        );
    }

    #[test]
    #[should_panic(expected = "change the price")]
    fn rejects_redundant_points() {
        PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.01),
                },
                PricePoint {
                    minute: 5,
                    price: p(0.01),
                },
            ],
            10,
        );
    }
}
