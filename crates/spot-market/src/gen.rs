//! Synthetic spot-price trace generation.
//!
//! AWS removed spot bidding in 2017 and the 2014 price archives the paper
//! replays are not redistributable, so this module substitutes a calibrated
//! generator. It produces exactly the statistical structure the paper's
//! model assumes and the literature it cites reports:
//!
//! * the price sequence is **Markovian** over a discrete ladder of price
//!   levels (Chohan et al.; Song et al.), with mild mean reversion toward a
//!   base level around 15–20 % of the on-demand price (Fig. 1 shows
//!   $0.0071–$0.0117 against a $0.044 on-demand price);
//! * **sojourn times are not memoryless**: they are drawn from a two-part
//!   mixture of short (minutes) and long (hours) stays, so the process is
//!   semi-Markov, exactly what the paper's estimator must capture;
//! * prices change **many times per hour** (Wee's hourly pattern was gone
//!   by 2014, §4.2);
//! * occasional **spikes above the on-demand price** occur, so that no bid
//!   below the on-demand cap is ever perfectly safe — the phenomenon that
//!   breaks the naive "bid the spot price" strategy in the paper's
//!   introduction.
//!
//! Every zone/type pair gets its own stable "personality" (base level,
//! volatility, spike rate) derived deterministically from the generator
//! seed, so cheap-and-calm zones coexist with expensive-and-jumpy ones and
//! the greedy zone selection in the bidding algorithm has real choices to
//! make.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::instance::InstanceType;
use crate::money::Price;
use crate::topology::Zone;
use crate::trace::{PricePoint, PriceTrace};

/// Tunable parameters of the per-zone price process.
#[derive(Clone, Debug)]
pub struct GenParams {
    /// Base spot price as a fraction of the on-demand price (grid bottom).
    pub base_fraction: f64,
    /// Top grid level as a fraction of the on-demand price (> 1 ⇒ spikes
    /// can exceed on-demand).
    pub top_fraction: f64,
    /// Number of discrete price levels on the geometric ladder.
    pub n_levels: usize,
    /// Mean of the short-stay sojourn component, in minutes.
    pub mean_sojourn_short: f64,
    /// Probability that a sojourn is drawn from the long component.
    pub long_sojourn_prob: f64,
    /// Mean of the long-stay sojourn component, in minutes.
    pub mean_sojourn_long: f64,
    /// Per-transition probability of jumping into the spike band (the top
    /// 20 % of levels) regardless of the current level.
    pub spike_prob: f64,
    /// Random-walk step scale: larger values make multi-level moves more
    /// common.
    pub step_scale: f64,
    /// Mean-reversion strength in `[0, 1]`: the higher the current level
    /// sits above base, the more the walk is biased downward.
    pub reversion: f64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            base_fraction: 0.115,
            top_fraction: 0.9,
            n_levels: 24,
            mean_sojourn_short: 7.0,
            long_sojourn_prob: 0.15,
            mean_sojourn_long: 120.0,
            spike_prob: 0.0004,
            step_scale: 1.4,
            reversion: 0.75,
        }
    }
}

impl GenParams {
    /// Derive a zone-specific personality from defaults: base level,
    /// volatility and spike rate vary deterministically with the mixed
    /// seed so that zones differ the way real availability zones do.
    pub(crate) fn personalize(&self, rng: &mut ChaCha8Rng) -> GenParams {
        let mut p = self.clone();
        p.base_fraction *= rng.gen_range(0.75..1.35);
        // Most zones top out below the on-demand price (safe bids exist,
        // as in the 2014 archives); a minority can spike above it.
        p.top_fraction *= rng.gen_range(0.55..1.55);
        p.mean_sojourn_short *= rng.gen_range(0.6..1.8);
        p.long_sojourn_prob *= rng.gen_range(0.5..1.6);
        p.mean_sojourn_long *= rng.gen_range(0.6..1.6);
        p.spike_prob *= rng.gen_range(0.2..2.0);
        p.step_scale *= rng.gen_range(0.8..1.3);
        p.reversion = (p.reversion * rng.gen_range(0.7..1.4)).min(0.9);
        p
    }
}

/// Deterministic semi-Markov trace generator.
///
/// ```
/// use spot_market::{InstanceType, TraceGenerator};
///
/// let zone = spot_market::topology::all_zones()[0];
/// let gen = TraceGenerator::new(42);
/// let day = gen.generate(zone, InstanceType::M1Small, 24 * 60);
/// // Prices are a positive step function over the whole day…
/// assert_eq!(day.horizon(), 24 * 60);
/// // …and regeneration is bit-identical.
/// assert_eq!(day, gen.generate(zone, InstanceType::M1Small, 24 * 60));
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    seed: u64,
    params: GenParams,
}

impl TraceGenerator {
    /// A generator with the given global seed and default parameters.
    pub fn new(seed: u64) -> Self {
        TraceGenerator {
            seed,
            params: GenParams::default(),
        }
    }

    /// A generator with custom base parameters.
    pub fn with_params(seed: u64, params: GenParams) -> Self {
        TraceGenerator { seed, params }
    }

    /// Stable per-(zone, type) RNG stream.
    fn rng_for(&self, zone: Zone, ty: InstanceType) -> ChaCha8Rng {
        // SplitMix-style mixing of the identifying integers into one seed.
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(zone.ordinal() as u64 + 1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(ty as u64 + 1);
        x ^= x >> 31;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 29;
        ChaCha8Rng::seed_from_u64(x)
    }

    /// The price ladder for a zone/type: geometric between base and top,
    /// rounded to the bidding tick, deduplicated, always non-empty.
    fn ladder(params: &GenParams, on_demand: Price) -> Vec<Price> {
        let base = on_demand.as_dollars() * params.base_fraction;
        let top = on_demand.as_dollars() * params.top_fraction;
        let n = params.n_levels.max(2);
        let ratio = (top / base).powf(1.0 / (n as f64 - 1.0));
        let mut ladder: Vec<Price> = (0..n)
            .map(|i| Price::from_dollars(base * ratio.powi(i as i32)).round_up_to_tick())
            .collect();
        ladder.dedup();
        ladder
    }

    /// Draw a sojourn time in minutes from the short/long mixture (≥ 1).
    fn draw_sojourn(params: &GenParams, rng: &mut ChaCha8Rng) -> u64 {
        let mean = if rng.gen::<f64>() < params.long_sojourn_prob {
            params.mean_sojourn_long
        } else {
            params.mean_sojourn_short
        };
        // Geometric with the requested mean: support {1, 2, ...}.
        let p = 1.0 / mean.max(1.0);
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let k = (u.ln() / (1.0 - p).ln()).ceil();
        (k as u64).max(1)
    }

    /// Pick the next ladder level from `current` (never returns `current`).
    fn next_level(params: &GenParams, n: usize, current: usize, rng: &mut ChaCha8Rng) -> usize {
        debug_assert!(n >= 2);
        let spike_band = ((n as f64 * 0.8) as usize).min(n - 1);
        if rng.gen::<f64>() < params.spike_prob && current < spike_band {
            return rng.gen_range(spike_band..n);
        }
        // Random-walk step with geometric magnitude and reversion-biased
        // direction.
        let height = current as f64 / (n as f64 - 1.0);
        let down_bias = 0.5 + params.reversion * (height - 0.15);
        loop {
            let mag = 1 + (rng.gen::<f64>() * params.step_scale) as usize;
            let down = rng.gen::<f64>() < down_bias.clamp(0.05, 0.95);
            let next = if down {
                current.saturating_sub(mag)
            } else {
                (current + mag).min(n - 1)
            };
            if next != current {
                return next;
            }
        }
    }

    /// Generate a trace of `minutes` length for `(zone, ty)`.
    ///
    /// The result is a pure function of `(seed, zone, ty, minutes)` — the
    /// first `k` minutes of a longer trace equal a shorter trace, which lets
    /// the replay harness grow histories incrementally.
    pub fn generate(&self, zone: Zone, ty: InstanceType, minutes: u64) -> PriceTrace {
        assert!(minutes > 0, "trace length must be positive");
        let mut rng = self.rng_for(zone, ty);
        let params = self.params.personalize(&mut rng);
        let on_demand = ty.on_demand_price(zone.region);
        let ladder = Self::ladder(&params, on_demand);
        let n = ladder.len();

        let mut level = if n >= 2 { rng.gen_range(0..n / 2) } else { 0 };
        let mut points = Vec::new();
        let mut t = 0u64;
        while t < minutes {
            points.push(PricePoint {
                minute: t,
                price: ladder[level],
            });
            // High prices dwell somewhat shorter than the base (demand
            // surges pass), but excursions remain *persistent* — tens of
            // minutes, as in the 2014 archives (Fig. 1 shows half-hour
            // sojourns) — rather than one-minute blips.
            let height = level as f64 / (n.max(2) as f64 - 1.0);
            let raw = Self::draw_sojourn(&params, &mut rng);
            t += ((raw as f64 * (1.0 - 0.35 * height)).round() as u64).max(1);
            if n < 2 {
                break;
            }
            // Skip to a genuinely different *price* (ladder rounding can
            // merge adjacent levels near the bottom).
            let mut next = Self::next_level(&params, n, level, &mut rng);
            let mut guard = 0;
            while ladder[next] == ladder[level] && guard < 16 {
                next = Self::next_level(&params, n, level, &mut rng);
                guard += 1;
            }
            if ladder[next] == ladder[level] {
                // Degenerate ladder; force a move to a distinct price.
                next = (0..n)
                    .find(|&i| ladder[i] != ladder[level])
                    .unwrap_or(level);
                if next == level {
                    break;
                }
            }
            level = next;
        }
        PriceTrace::new(points, minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{all_zones, Region};

    fn zone() -> Zone {
        Zone::new(Region::UsEast1, 0)
    }

    #[test]
    fn deterministic_per_seed() {
        let g = TraceGenerator::new(7);
        let a = g.generate(zone(), InstanceType::M1Small, 10_000);
        let b = g.generate(zone(), InstanceType::M1Small, 10_000);
        assert_eq!(a, b);
        let g2 = TraceGenerator::new(8);
        let c = g2.generate(zone(), InstanceType::M1Small, 10_000);
        assert_ne!(a, c);
    }

    #[test]
    fn prefix_stability() {
        let g = TraceGenerator::new(7);
        let long = g.generate(zone(), InstanceType::M1Small, 20_000);
        let short = g.generate(zone(), InstanceType::M1Small, 5_000);
        for m in (0..5_000).step_by(17) {
            assert_eq!(long.price_at(m), short.price_at(m), "minute {m}");
        }
    }

    #[test]
    fn zones_and_types_differ() {
        let g = TraceGenerator::new(7);
        let a = g.generate(zone(), InstanceType::M1Small, 5_000);
        let b = g.generate(Zone::new(Region::UsEast1, 1), InstanceType::M1Small, 5_000);
        let c = g.generate(zone(), InstanceType::M3Large, 5_000);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prices_mostly_well_below_on_demand() {
        let g = TraceGenerator::new(42);
        let week = 7 * 24 * 60;
        for z in all_zones().into_iter().take(6) {
            let od = InstanceType::M1Small.on_demand_price(z.region);
            let t = g.generate(z, InstanceType::M1Small, week);
            // Time-weighted mean should sit in the cheap band.
            let mean = t.mean_price().as_dollars();
            assert!(
                mean < 0.6 * od.as_dollars(),
                "{}: mean {mean} vs od {}",
                z.name(),
                od.as_dollars()
            );
            // And the floor must be strictly positive.
            let min = t.segments().map(|s| s.price).min().unwrap();
            assert!(min > Price::ZERO);
        }
    }

    #[test]
    fn changes_many_times_per_hour_on_average() {
        // §4.2: by 2014 prices changed "many times each hour". Our default
        // short sojourn of ~7 minutes gives several changes per hour.
        let g = TraceGenerator::new(1);
        let t = g.generate(zone(), InstanceType::M1Small, 14 * 24 * 60);
        let rate = t.changes_per_hour();
        assert!(rate > 1.0, "rate {rate} too low");
        assert!(rate < 60.0, "rate {rate} impossibly high");
    }

    #[test]
    fn spikes_above_on_demand_exist_somewhere() {
        // Over many zone-weeks some zone must spike above its on-demand
        // price — the failure mode that motivates the whole paper.
        let g = TraceGenerator::new(3);
        let eleven_weeks = 11 * 7 * 24 * 60;
        let mut spiked = false;
        for z in all_zones() {
            let od = InstanceType::M1Small.on_demand_price(z.region);
            let t = g.generate(z, InstanceType::M1Small, eleven_weeks);
            if t.max_price_in(0, eleven_weeks) > od {
                spiked = true;
                break;
            }
        }
        assert!(spiked, "no zone ever spiked above on-demand");
    }

    #[test]
    fn sojourns_are_not_memoryless() {
        // The mixture produces excess variance relative to a geometric
        // distribution with the same mean (coefficient of variation > 1),
        // which is what makes the process semi-Markov rather than Markov.
        let g = TraceGenerator::new(5);
        let t = g.generate(zone(), InstanceType::M1Small, 60 * 24 * 60);
        let d: Vec<f64> = t.segments().map(|s| s.duration as f64).collect();
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / d.len() as f64;
        // Geometric(mean m) has variance m(m-1); a heavy mixture exceeds it.
        assert!(
            var > 1.5 * mean * (mean - 1.0),
            "var {var} vs geometric {}",
            mean * (mean - 1.0)
        );
    }

    #[test]
    fn generator_matches_paper_reported_shape() {
        // The calibration contract of the synthetic market: minute-scale
        // changes and non-memoryless sojourns (CV > 1 in aggregate).
        let gen = TraceGenerator::new(99);
        let mut cvs = Vec::new();
        for z in all_zones().into_iter().take(8) {
            let t = gen.generate(z, InstanceType::M1Small, 6 * 7 * 24 * 60);
            let rate = t.changes_per_hour();
            assert!(rate > 0.5, "{}: {rate}", z.name());
            // Completed sojourns: the censored final segment is left out.
            let d: Vec<f64> = t.segments().map(|s| s.duration as f64).collect();
            let d = &d[..d.len() - 1];
            let n = d.len() as f64;
            let mean = d.iter().sum::<f64>() / n;
            let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            cvs.push(var.sqrt() / mean);
        }
        let mean_cv = cvs.iter().sum::<f64>() / cvs.len() as f64;
        assert!(mean_cv > 1.0, "sojourns look memoryless: CV {mean_cv}");
    }

    #[test]
    fn ladder_is_tick_aligned_and_increasing() {
        let params = GenParams::default();
        let ladder = TraceGenerator::ladder(&params, Price::from_dollars(0.044));
        assert!(ladder.len() >= 2);
        for w in ladder.windows(2) {
            assert!(w[0] < w[1]);
        }
        for p in &ladder {
            assert_eq!(p.as_micros() % Price::TICK.as_micros(), 0);
        }
    }
}
