//! The load-driven auto-scaler: re-target the fleet's capacity-weighted
//! serving strength at every bidding boundary from a deterministic demand
//! forecast and the availability observed over the interval that just
//! ended.
//!
//! The controller is deliberately asymmetric, the classic production
//! shape: **scale-out is immediate** (forecast demand above the standing
//! target, or an interval that burned through the availability floor,
//! re-targets at once), while **scale-in waits out a hysteresis window**
//! (the demand forecast must sit below the target with full headroom for
//! several consecutive intervals before the target shrinks). That keeps a
//! diurnal trough from oscillating the fleet and keeps an SLO burn from
//! ever waiting on a timer.
//!
//! The target strength feeds
//! [`jupiter::BiddingFramework::set_min_strength`]: the optimizer then
//! picks whichever (zone, type) mix reaches the strength floor cheapest,
//! so scaling decisions and bidding decisions stay in their own layers.
//! Every re-targeting is audited as an
//! [`obs::AuditKind::ScaleDecision`] record, which carries the demand
//! and the strength target before and after.

use obs::{AuditKind, Obs};

/// Availability floor for the interval just ended; an interval below it
/// triggers an immediate scale-out even when the forecast says the
/// standing target suffices (the load model underestimated).
const AVAILABILITY_FLOOR: f64 = 0.99;

/// Consecutive intervals the demand forecast must sit below the standing
/// target (with full headroom) before the target shrinks.
pub const HYSTERESIS_INTERVALS: u32 = 3;

/// Headroom kept over forecast demand (0.25 ⇒ target strength = demand ×
/// 1.25, rounded up).
pub const HEADROOM: f64 = 0.25;

/// Auto-scaler parameters.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleConfig {
    /// The target never drops below this strength floor.
    pub min_strength: u32,
    /// The target never exceeds this strength cap.
    pub max_strength: u32,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_strength: 5,
            max_strength: 64,
        }
    }
}

/// What the replay loop observed over the interval that just ended — the
/// controller's feedback signal.
#[derive(Clone, Copy, Debug)]
pub struct ObservedInterval {
    /// Fraction of the interval's minutes a quorum was up.
    pub availability: f64,
    /// Mean capacity-weighted live strength over the interval.
    pub mean_strength: f64,
}

/// One applied re-targeting, kept for the replay's summary accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleAction {
    /// The target grew.
    Out,
    /// The target shrank.
    In,
    /// The target held.
    Hold,
}

/// The auto-scaling controller. Owns a step-function demand series in
/// strength units on the market-minute axis (precomputed by the caller —
/// deterministic by construction) and the standing strength target.
#[derive(Clone, Debug)]
pub struct AutoScaler {
    config: AutoscaleConfig,
    /// `(minute, demand_strength)` steps, sorted by minute; the demand at
    /// minute `m` is the value of the last step at or before `m`.
    demand: Vec<(u64, f64)>,
    target: u32,
    headroom_streak: u32,
    scale_outs: u64,
    scale_ins: u64,
}

impl AutoScaler {
    /// A controller over `demand` steps, starting at the config's
    /// strength floor.
    pub fn new(config: AutoscaleConfig, mut demand: Vec<(u64, f64)>) -> Self {
        demand.sort_by_key(|&(m, _)| m);
        AutoScaler {
            target: config.min_strength,
            config,
            demand,
            headroom_streak: 0,
            scale_outs: 0,
            scale_ins: 0,
        }
    }

    /// The standing strength target.
    pub fn target(&self) -> u32 {
        self.target
    }

    /// Applied scale-out and scale-in counts so far.
    pub fn scale_events(&self) -> (u64, u64) {
        (self.scale_outs, self.scale_ins)
    }

    /// The demand step active at `minute`.
    pub fn demand_at(&self, minute: u64) -> f64 {
        match self.demand.partition_point(|&(m, _)| m <= minute) {
            0 => 0.0,
            i => self.demand[i - 1].1,
        }
    }

    /// Peak demand over `[start, end)` — the step at `start` plus every
    /// step that begins inside the window.
    pub fn peak_demand(&self, start: u64, end: u64) -> f64 {
        let mut peak = self.demand_at(start);
        for &(m, d) in &self.demand {
            if m >= start && m < end && d > peak {
                peak = d;
            }
        }
        peak
    }

    /// Re-target for the interval `[boundary, interval_end)`. `observed`
    /// is the previous interval's feedback (`None` before the first
    /// interval completes). Returns the new target strength and records
    /// the decision in `obs`'s audit log.
    pub fn plan(
        &mut self,
        boundary: u64,
        interval_end: u64,
        observed: Option<ObservedInterval>,
        obs: &Obs,
    ) -> u32 {
        let cfg = self.config;
        let demand = self.peak_demand(boundary, interval_end);
        let desired = ((demand * (1.0 + HEADROOM)).ceil() as u32)
            .clamp(cfg.min_strength, cfg.max_strength);
        let availability = observed.map_or(1.0, |o| o.availability);
        let slo_burn = availability < AVAILABILITY_FLOOR;
        let from = self.target;

        let (action, reason) = if desired > self.target {
            self.target = desired;
            self.headroom_streak = 0;
            (ScaleAction::Out, "demand_exceeds_target")
        } else if slo_burn {
            // The forecast says we have enough, but the interval burned
            // the floor anyway: grow by one headroom notch immediately.
            self.target = ((self.target as f64 * (1.0 + HEADROOM)).ceil() as u32)
                .max(self.target + 1)
                .min(cfg.max_strength);
            self.headroom_streak = 0;
            (ScaleAction::Out, "slo_burn")
        } else if desired < self.target {
            self.headroom_streak += 1;
            if self.headroom_streak >= HYSTERESIS_INTERVALS {
                self.target = desired;
                self.headroom_streak = 0;
                (ScaleAction::In, "sustained_headroom")
            } else {
                (ScaleAction::Hold, "within_band")
            }
        } else {
            self.headroom_streak = 0;
            (ScaleAction::Hold, "within_band")
        };
        match action {
            ScaleAction::Out => self.scale_outs += 1,
            ScaleAction::In => self.scale_ins += 1,
            ScaleAction::Hold => {}
        }
        obs.audit.record(
            boundary,
            AuditKind::ScaleDecision {
                action: match action {
                    ScaleAction::Out => "scale_out",
                    ScaleAction::In => "scale_in",
                    ScaleAction::Hold => "hold",
                }
                .to_owned(),
                reason: reason.to_owned(),
                from_strength: from as u64,
                to_strength: self.target as u64,
                demand_strength: demand,
                observed_availability: availability,
            },
        );
        self.target
    }
}

/// Sample a deterministic arrival-rate function into the step demand
/// series an [`AutoScaler`] consumes: one step every `step_minutes` over
/// `[start, end)`, with the rate converted to strength units by
/// `per_strength_throughput` (requests/s one strength unit serves).
pub fn demand_series(
    rate_at_secs: impl Fn(f64) -> f64,
    start: u64,
    end: u64,
    step_minutes: u64,
    per_strength_throughput: f64,
) -> Vec<(u64, f64)> {
    assert!(step_minutes >= 1, "zero-width demand steps");
    assert!(per_strength_throughput > 0.0, "non-positive unit throughput");
    let mut steps = Vec::new();
    let mut minute = start;
    while minute < end {
        let rate = rate_at_secs(minute as f64 * 60.0);
        steps.push((minute, (rate / per_strength_throughput).max(0.0)));
        minute += step_minutes;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal(minute: u64) -> f64 {
        // Period 1 day, trough 2.0, peak 10.0 strength units.
        let phase = (minute % 1_440) as f64 / 1_440.0 * std::f64::consts::TAU;
        6.0 - 4.0 * phase.cos()
    }

    fn scaler() -> AutoScaler {
        let demand: Vec<(u64, f64)> = (0..2_880).step_by(60).map(|m| (m, diurnal(m))).collect();
        AutoScaler::new(
            AutoscaleConfig {
                min_strength: 3,
                max_strength: 32,
            },
            demand,
        )
    }

    #[test]
    fn demand_lookup_is_a_step_function() {
        let s = AutoScaler::new(AutoscaleConfig::default(), vec![(10, 2.0), (20, 5.0)]);
        assert_eq!(s.demand_at(0), 0.0);
        assert_eq!(s.demand_at(10), 2.0);
        assert_eq!(s.demand_at(19), 2.0);
        assert_eq!(s.demand_at(25), 5.0);
        assert_eq!(s.peak_demand(0, 30), 5.0);
        assert_eq!(s.peak_demand(10, 20), 2.0);
    }

    #[test]
    fn scales_out_into_the_diurnal_peak() {
        let mut s = scaler();
        let obs = Obs::disabled();
        let mut targets = Vec::new();
        for b in (0..1_440).step_by(360) {
            targets.push(s.plan(b, b + 360, None, &obs));
        }
        // The peak sits mid-day: the target must grow strictly into it
        // and cover peak demand with headroom.
        assert!(targets.windows(2).take(2).all(|w| w[1] >= w[0]));
        let peak = s.peak_demand(0, 1_440);
        assert!(
            f64::from(*targets.iter().max().unwrap()) >= peak,
            "peak target {targets:?} below demand {peak}"
        );
    }

    #[test]
    fn scale_in_waits_out_hysteresis() {
        let mut s = scaler();
        let obs = Obs::disabled();
        // Spike then flat trough: the spike scales out immediately...
        s.plan(720, 1_080, None, &obs);
        let high = s.target();
        // ...then three low-demand intervals must pass before scale-in.
        let calm = Some(ObservedInterval {
            availability: 1.0,
            mean_strength: high as f64,
        });
        let t1 = s.plan(1_440, 1_500, calm, &obs);
        let t2 = s.plan(1_500, 1_560, calm, &obs);
        assert_eq!(t1, high, "first low interval must hold");
        assert_eq!(t2, high, "second low interval must hold");
        let t3 = s.plan(1_560, 1_620, calm, &obs);
        assert!(t3 < high, "third low interval scales in: {t3} vs {high}");
        assert_eq!(s.scale_events().1, 1);
    }

    #[test]
    fn slo_burn_scales_out_without_demand_growth() {
        let mut s = scaler();
        let obs = Obs::disabled();
        let before = s.plan(0, 60, None, &obs);
        let burned = s.plan(
            60,
            120,
            Some(ObservedInterval {
                availability: 0.9,
                mean_strength: before as f64,
            }),
            &obs,
        );
        assert!(burned > before, "{burned} !> {before}");
        // The floor is 0.99 exactly (no golden interval lands near it):
        // at it the target holds, a hair under it burns.
        let at = |availability| {
            Some(ObservedInterval {
                availability,
                mean_strength: burned as f64,
            })
        };
        assert_eq!(s.plan(120, 180, at(0.99), &obs), burned);
        assert!(s.plan(180, 240, at(0.9899), &obs) > burned);
    }

    #[test]
    fn demand_series_is_deterministic_and_positive() {
        let a = demand_series(|t| 100.0 + (t / 3600.0).sin() * 50.0, 0, 1_440, 30, 25.0);
        let b = demand_series(|t| 100.0 + (t / 3600.0).sin() * 50.0, 0, 1_440, 30, 25.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48);
        assert!(a.iter().all(|&(_, d)| d > 0.0));
    }
}
