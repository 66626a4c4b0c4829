//! Order statistics for the benchmark's timings: nearest-rank quantiles,
//! the "highest percentile the sample supports" rule, and the quartile
//! spread the acceptance procedure uses.

/// Percentiles a tail may be reported at, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The 1-based nearest rank of quantile `q` (0..=1) among `n` samples.
/// The epsilon keeps `0.999 * 10_000` from rounding up to rank 9991.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` (0..=1) of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct / 100.0)
}

/// The highest of 99.9 / 99 / 95 / 90 / 75 that leaves at least ten of
/// `n` samples beyond it; `None` when even p75 does not.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&pct| n > 0 && beyond(n, pct) >= 10)
}

/// A timing sample reduced the way the metrics guide asks: the median,
/// the highest tail percentile the sample supports, and the count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize `samples` (must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail =
            highest_supported(sorted.len()).map(|pct| (pct, quantile_sorted(&sorted, pct / 100.0)));
        Summary {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            tail,
            sorted,
        }
    }

    /// The nearest-rank percentile `pct`, or `None` when fewer than ten
    /// samples lie beyond it (the number would be one outlier's value).
    pub fn supported(&self, pct: f64) -> Option<f64> {
        (beyond(self.n, pct) >= 10).then(|| quantile_sorted(&self.sorted, pct / 100.0))
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.n - 1]
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50={:.4}", self.p50)?;
        if let Some((pct, v)) = self.tail {
            write!(f, " p{pct}={v:.4}")?;
        }
        write!(f, " n={}", self.n)
    }
}

/// Median with the mean of the middle pair for even counts (what the
/// acceptance procedure's `statistics.median` computes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(3) - cut(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(39), None);
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=336).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 336);
        assert_eq!(s.p50, 168.0);
        // p95 of 336 is rank 320: sixteen beyond. p99 would leave three.
        assert_eq!(s.tail, Some((95.0, 320.0)));
        assert_eq!(s.supported(95.0), Some(320.0));
        assert_eq!(s.supported(99.0), None);
        assert_eq!(s.max(), 336.0);
        assert_eq!(s.to_string(), "p50=168.0000 p95=320.0000 n=336");
    }

    #[test]
    fn small_samples_report_no_tail() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        assert_eq!(s.to_string(), "p50=2.0000 n=3");
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
