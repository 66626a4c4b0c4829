//! An alternative price process: AR(1) with a price band.
//!
//! Ben-Yehuda et al. ("Deconstructing Amazon EC2 spot instance pricing",
//! cited by the paper as \[1\]) conjectured that pre-2011 spot prices were
//! *not* market-driven but produced by a hidden autoregressive algorithm
//! banded between a reserve floor and a cap. This module implements that
//! process as a second, structurally different trace generator.
//!
//! Its purpose here is the **model-mismatch ablation**: the paper's
//! failure model assumes a semi-Markov chain over discrete price levels;
//! training it on AR(1)-banded traces measures how gracefully the bidding
//! framework degrades when the market does not match its modelling
//! assumptions.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::instance::InstanceType;
use crate::money::Price;
use crate::topology::Zone;
use crate::trace::{PricePoint, PriceTrace};

// Parameters of the banded AR(1) process.
/// Long-run mean as a fraction of the on-demand price.
const MEAN_FRACTION: f64 = 0.18;
/// AR coefficient φ ∈ (0, 1): persistence of deviations.
const PHI: f64 = 0.92;
/// Innovation standard deviation as a fraction of the on-demand price.
const SIGMA_FRACTION: f64 = 0.025;
/// Reserve floor as a fraction of the on-demand price.
const FLOOR_FRACTION: f64 = 0.10;
/// Cap as a fraction of the on-demand price.
const CAP_FRACTION: f64 = 1.2;
/// Mean minutes between AR updates (updates arrive as a Poisson-like
/// stream; the banded value is re-quoted at each arrival).
const MEAN_UPDATE_MINUTES: f64 = 9.0;

/// Deterministic AR(1) trace generator (same interface shape as
/// [`crate::gen::TraceGenerator`]).
#[derive(Clone, Debug)]
pub struct ArTraceGenerator {
    seed: u64,
}

impl ArTraceGenerator {
    /// A generator whose every trace derives from `seed`.
    pub fn new(seed: u64) -> Self {
        ArTraceGenerator { seed }
    }

    fn rng_for(&self, zone: Zone, ty: InstanceType) -> ChaCha8Rng {
        let mut x = self
            .seed
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .wrapping_add(zone.ordinal() as u64 + 101)
            .wrapping_mul(0x1656_67B1_9E37_79F9)
            .wrapping_add(ty as u64 + 11);
        x ^= x >> 30;
        ChaCha8Rng::seed_from_u64(x)
    }

    /// A standard normal via Box–Muller (deterministic from the stream).
    fn gauss(rng: &mut ChaCha8Rng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Generate `minutes` of AR(1)-banded prices for `(zone, ty)`.
    pub fn generate(&self, zone: Zone, ty: InstanceType, minutes: u64) -> PriceTrace {
        assert!(minutes > 0, "trace length must be positive");
        let mut rng = self.rng_for(zone, ty);
        let od = ty.on_demand_price(zone.region).as_dollars();
        // Mild per-zone personality.
        let mean = od * MEAN_FRACTION * rng.gen_range(0.8..1.25);
        let sigma = od * SIGMA_FRACTION * rng.gen_range(0.7..1.4);
        let floor = od * FLOOR_FRACTION;
        let cap = od * CAP_FRACTION;
        let phi = (PHI * rng.gen_range(0.95..1.02)).clamp(0.5, 0.995);

        let mut x = mean + sigma * Self::gauss(&mut rng);
        let quote =
            |x: f64| -> Price { Price::from_dollars(x.clamp(floor, cap)).round_up_to_tick() };
        let mut points = vec![PricePoint {
            minute: 0,
            price: quote(x),
        }];
        let mut t = 0u64;
        while t < minutes {
            // Next update arrival.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let dt = (-u.ln() * MEAN_UPDATE_MINUTES).ceil().max(1.0) as u64;
            t += dt;
            if t >= minutes {
                break;
            }
            x = mean + phi * (x - mean) + sigma * Self::gauss(&mut rng);
            let price = quote(x);
            if points.last().expect("non-empty").price != price {
                points.push(PricePoint { minute: t, price });
            }
        }
        PriceTrace::new(points, minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::all_zones;

    fn zone() -> Zone {
        all_zones()[0]
    }

    #[test]
    fn deterministic_and_banded() {
        // Ablation F's rows do not move with the band edges; held here.
        assert_eq!((FLOOR_FRACTION, CAP_FRACTION), (0.10, 1.2));
        let g = ArTraceGenerator::new(5);
        let a = g.generate(zone(), InstanceType::M1Small, 20_000);
        let b = g.generate(zone(), InstanceType::M1Small, 20_000);
        assert_eq!(a, b);
        let od = InstanceType::M1Small
            .on_demand_price(zone().region)
            .as_dollars();
        for s in a.segments() {
            let p = s.price.as_dollars();
            assert!(p >= 0.10 * od - 1e-9, "below reserve: {p}");
            assert!(p <= 1.2 * od + 1e-4, "above cap: {p}");
        }
    }

    #[test]
    fn ar_process_is_persistent() {
        // φ ≈ 0.92 ⇒ strongly positive level autocorrelation.
        let g = ArTraceGenerator::new(9);
        let t = g.generate(zone(), InstanceType::M1Small, 4 * 7 * 24 * 60);
        // Lag-1 autocorrelation of the segment-price sequence.
        let xs: Vec<f64> = t.segments().map(|s| s.price.as_dollars()).collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let cov = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n - 1.0);
        let autocorr = cov / var;
        assert!(autocorr > 0.5, "expected persistence, got {autocorr}");
        assert!(t.changes_per_hour() > 1.0);
    }

    #[test]
    fn ar_differs_structurally_from_semi_markov() {
        // The AR process quotes on a near-continuous grid: far more
        // distinct price values than the ladder generator's ≤ 24 levels.
        let g = ArTraceGenerator::new(11);
        let t = g.generate(zone(), InstanceType::M1Small, 4 * 7 * 24 * 60);
        let mut distinct: Vec<Price> = t.segments().map(|s| s.price).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > 40,
            "only {} distinct prices",
            distinct.len()
        );
    }

    #[test]
    fn zones_differ() {
        let g = ArTraceGenerator::new(5);
        let a = g.generate(all_zones()[0], InstanceType::M1Small, 5_000);
        let b = g.generate(all_zones()[1], InstanceType::M1Small, 5_000);
        assert_ne!(a, b);
    }
}
