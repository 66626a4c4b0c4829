//! Trace statistics: the quantities the spot-pricing literature reports
//! (Javadi et al.'s statistical modeling; Ben-Yehuda et al.'s
//! deconstruction) and the calibration targets for the synthetic
//! generator.

use crate::money::Price;
use crate::trace::PriceTrace;

/// Summary statistics of one price trace.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Time-weighted mean price (dollars).
    pub mean: f64,
    /// Time-weighted standard deviation (dollars).
    pub std_dev: f64,
    /// Minimum price.
    pub min: Price,
    /// Maximum price.
    pub max: Price,
    /// Price quantiles at 10/50/90/99 % (time-weighted).
    pub quantiles: [Price; 4],
    /// Price changes per hour.
    pub changes_per_hour: f64,
    /// Mean sojourn length in minutes (completed segments).
    pub mean_sojourn: f64,
    /// Coefficient of variation of sojourn lengths (> 1 ⇒ heavier than
    /// exponential ⇒ the process is *not* Markov in continuous time,
    /// justifying the paper's semi-Markov model).
    pub sojourn_cv: f64,
    /// Lag-1 autocorrelation of the price level sequence (the Markovian
    /// persistence Ben-Yehuda et al. and Chohan et al. observe).
    pub level_autocorr: f64,
}

impl TraceStats {
    /// Compute the summary for `trace`.
    pub fn of(trace: &PriceTrace) -> TraceStats {
        let horizon = trace.horizon() as f64;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for s in trace.segments() {
            let w = s.duration as f64 / horizon;
            let p = s.price.as_dollars();
            mean += w * p;
            m2 += w * p * p;
        }
        let std_dev = (m2 - mean * mean).max(0.0).sqrt();

        let mut prices: Vec<(Price, u64)> =
            trace.segments().map(|s| (s.price, s.duration)).collect();
        prices.sort_by_key(|(p, _)| *p);
        let quantile = |q: f64| -> Price {
            let target = (q * trace.horizon() as f64) as u64;
            let mut acc = 0u64;
            for &(p, d) in &prices {
                acc += d;
                if acc > target {
                    return p;
                }
            }
            prices.last().expect("non-empty").0
        };
        let quantiles = [
            quantile(0.10),
            quantile(0.50),
            quantile(0.90),
            quantile(0.99),
        ];

        let min = prices.first().expect("non-empty").0;
        let max = prices.last().expect("non-empty").0;

        // Completed sojourns (exclude the censored final segment).
        let segs: Vec<_> = trace.segments().collect();
        let completed = &segs[..segs.len().saturating_sub(1)];
        let (mean_sojourn, sojourn_cv) = if completed.is_empty() {
            (trace.horizon() as f64, 0.0)
        } else {
            let n = completed.len() as f64;
            let m = completed.iter().map(|s| s.duration as f64).sum::<f64>() / n;
            let v = completed
                .iter()
                .map(|s| (s.duration as f64 - m).powi(2))
                .sum::<f64>()
                / n;
            (m, v.sqrt() / m.max(f64::EPSILON))
        };

        // Lag-1 autocorrelation of the segment-price sequence.
        let levels: Vec<f64> = segs.iter().map(|s| s.price.as_dollars()).collect();
        let level_autocorr = lag1_autocorr(&levels);

        TraceStats {
            mean,
            std_dev,
            min,
            max,
            quantiles,
            changes_per_hour: trace.changes_per_hour(),
            mean_sojourn,
            sojourn_cv,
            level_autocorr,
        }
    }
}

/// Lag-1 sample autocorrelation (0 for constant or too-short series).
pub fn lag1_autocorr(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if var < f64::EPSILON {
        return 0.0;
    }
    let cov = xs
        .windows(2)
        .map(|w| (w[0] - mean) * (w[1] - mean))
        .sum::<f64>()
        / (n - 1.0);
    (cov / var).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use crate::instance::InstanceType;
    use crate::topology::all_zones;
    use crate::trace::PricePoint;

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    #[test]
    fn deterministic_two_level_stats() {
        // 0.01 for 60 min, 0.03 for 40 min.
        let t = PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.01),
                },
                PricePoint {
                    minute: 60,
                    price: p(0.03),
                },
            ],
            100,
        );
        let s = TraceStats::of(&t);
        assert!((s.mean - 0.018).abs() < 1e-12);
        assert_eq!(s.min, p(0.01));
        assert_eq!(s.max, p(0.03));
        assert_eq!(s.quantiles[1], p(0.01)); // median minute is cheap
        assert_eq!(s.quantiles[3], p(0.03));
        let expected_std =
            (0.6f64 * 0.01f64.powi(2) + 0.4 * 0.03f64.powi(2) - 0.018f64.powi(2)).sqrt();
        assert!((s.std_dev - expected_std).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_detects_persistence() {
        let rising: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert!(lag1_autocorr(&rising) > 0.9);
        let alternating: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        assert!(lag1_autocorr(&alternating) < -0.9);
        assert_eq!(lag1_autocorr(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(lag1_autocorr(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn generator_matches_paper_reported_shape() {
        // The calibration contract of the synthetic market: level
        // persistence (positive autocorrelation), non-memoryless sojourns
        // (CV > 1 in aggregate), minute-scale changes.
        let gen = TraceGenerator::new(99);
        let mut cvs = Vec::new();
        for z in all_zones().into_iter().take(8) {
            let t = gen.generate(z, InstanceType::M1Small, 6 * 7 * 24 * 60);
            let s = TraceStats::of(&t);
            assert!(
                s.changes_per_hour > 0.5,
                "{}: {}",
                z.name(),
                s.changes_per_hour
            );
            assert!(s.mean > 0.0 && s.std_dev > 0.0);
            assert!(s.quantiles[0] <= s.quantiles[1]);
            assert!(s.quantiles[1] <= s.quantiles[2]);
            assert!(s.quantiles[2] <= s.quantiles[3]);
            cvs.push(s.sojourn_cv);
        }
        let mean_cv = cvs.iter().sum::<f64>() / cvs.len() as f64;
        assert!(mean_cv > 1.0, "sojourns look memoryless: CV {mean_cv}");
    }
}
