//! The paper's proposed extension (§5.5): "detect the frequency of spot
//! prices fluctuating and change the bidding interval correspondingly."
//!
//! A short interval reacts quickly but pays startup churn; a long one
//! saves churn but holds stale bids through market swings (the paper's
//! sweeps find ≈ 6 h the best fixed choice). The adaptive rule here sizes
//! each interval so that the *expected number of price changes per zone
//! within the interval* stays near a target: fast-moving markets re-bid
//! hourly, quiet ones stretch toward the 12-hour cap.

use jupiter::ServiceSpec;
use spot_market::Market;

/// Parameters of the adaptive interval rule.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Smallest interval, hours.
    pub min_hours: u64,
    /// Largest interval, hours.
    pub max_hours: u64,
    /// Desired price changes per zone per interval.
    pub target_changes: f64,
    /// Trailing window used to estimate the change rate, minutes.
    pub lookback_minutes: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_hours: 1,
            max_hours: 12,
            target_changes: 12.0,
            lookback_minutes: 24 * 60,
        }
    }
}

/// The interval (minutes) the adaptive rule picks at `boundary`, from the
/// *revealed* trailing price history only.
pub fn adaptive_interval(
    market: &Market,
    spec: &ServiceSpec,
    cfg: &AdaptiveConfig,
    boundary: u64,
) -> u64 {
    let ty = spec.instance_type;
    let from = boundary.saturating_sub(cfg.lookback_minutes);
    let span_hours = (boundary - from).max(60) as f64 / 60.0;
    let mut rate_sum = 0.0;
    let mut zones = 0.0;
    for &z in market.zones() {
        if boundary == 0 {
            break;
        }
        let w = market.trace(z, ty).window(from, boundary.max(from + 1));
        rate_sum += (w.points().len() - 1) as f64 / span_hours;
        zones += 1.0;
    }
    let rate = if zones > 0.0 { rate_sum / zones } else { 0.0 };
    let hours = if rate <= f64::EPSILON {
        cfg.max_hours
    } else {
        (cfg.target_changes / rate).round().max(1.0) as u64
    };
    hours.clamp(cfg.min_hours, cfg.max_hours) * 60
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Replay, ReplayConfig};
    use jupiter::ExtraStrategy;
    use spot_market::{InstanceType, MarketConfig};

    fn market() -> Market {
        let mut cfg = MarketConfig::paper(13, 2 * 7 * 24 * 60);
        cfg.zones.truncate(6);
        cfg.types = vec![InstanceType::M1Small];
        Market::generate(cfg)
    }

    #[test]
    fn interval_respects_bounds_and_rate() {
        let market = market();
        let spec = ServiceSpec::lock_service();
        let cfg = AdaptiveConfig::default();
        let at = 7 * 24 * 60;
        let minutes = adaptive_interval(&market, &spec, &cfg, at);
        assert!(minutes >= cfg.min_hours * 60 && minutes <= cfg.max_hours * 60);
        // A higher change target stretches the interval.
        let longer = adaptive_interval(
            &market,
            &spec,
            &AdaptiveConfig {
                target_changes: 48.0,
                ..cfg
            },
            at,
        );
        assert!(longer >= minutes);
    }

    #[test]
    fn adaptive_replay_runs_and_labels_itself() {
        let market = market();
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 9 * 24 * 60, 6);
        let r = Replay::new(&market, &spec, config)
            .adaptive(AdaptiveConfig::default())
            .run(ExtraStrategy::new(0, 0.2));
        assert!(r.strategy.contains("[adaptive]"));
        assert_eq!(r.window_minutes, 2 * 24 * 60);
        assert!(!r.intervals.is_empty());
        // Interval lengths actually vary with the market unless the rate
        // is perfectly flat; all stay within bounds.
        for w in r.intervals.windows(2) {
            let len = w[1].start - w[0].start;
            assert!((60..=12 * 60).contains(&len), "interval {len}");
        }
    }
}
