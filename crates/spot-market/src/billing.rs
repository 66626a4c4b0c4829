//! EC2 billing rules, 2014 edition.
//!
//! The paper's cost results hinge on these rules (§2.1):
//!
//! * A spot instance is **charged hourly with the last spot price observed
//!   in each instance-hour**, not with the bid.
//! * If the **provider** terminates the instance (out-of-bid), the final
//!   partial hour is **free**.
//! * If the **user** terminates it, the final partial hour is charged in
//!   full, as with on-demand instances.
//! * On-demand instances are charged their fixed hourly price per *started*
//!   hour.

use crate::money::Price;
use crate::trace::PriceTrace;

/// Who ended an instance's life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Terminated by EC2 because the spot price exceeded the bid — the
    /// final partial hour is not charged.
    Provider,
    /// Terminated by the user (e.g. replaced at a bidding-interval
    /// boundary) — the final partial hour is charged in full.
    User,
}

/// Charge for a spot instance that ran over `[launch_min, end_min)` against
/// the zone's price trace.
///
/// Instance-hours are aligned to the launch minute. Every *full* hour is
/// charged at the last price within it. The trailing partial hour (if any)
/// is free for [`Termination::Provider`] and charged at its last observed
/// price for [`Termination::User`].
pub fn spot_charge(
    trace: &PriceTrace,
    launch_min: u64,
    end_min: u64,
    termination: Termination,
) -> Price {
    assert!(launch_min <= end_min, "negative lifetime");
    assert!(end_min <= trace.horizon(), "lifetime beyond trace horizon");
    let mut total = Price::ZERO;
    let mut hour_start = launch_min;
    while hour_start < end_min {
        let hour_end = hour_start + 60;
        if hour_end <= end_min {
            total += trace.last_price_in(hour_start, hour_end);
        } else {
            // Trailing partial hour.
            if termination == Termination::User {
                total += trace.last_price_in(hour_start, end_min);
            }
        }
        hour_start = hour_end;
    }
    total
}

/// Charge for an on-demand instance running `[launch_min, end_min)`:
/// the hourly price times the number of started hours.
pub fn on_demand_charge(hourly: Price, launch_min: u64, end_min: u64) -> Price {
    assert!(launch_min <= end_min, "negative lifetime");
    let minutes = end_min - launch_min;
    hourly * minutes.div_ceil(60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::PricePoint;

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    /// 3 hours: 0.010 for 90 min, 0.020 for 30 min, 0.008 for 60 min.
    fn trace() -> PriceTrace {
        PriceTrace::new(
            vec![
                PricePoint {
                    minute: 0,
                    price: p(0.010),
                },
                PricePoint {
                    minute: 90,
                    price: p(0.020),
                },
                PricePoint {
                    minute: 120,
                    price: p(0.008),
                },
            ],
            180,
        )
    }

    #[test]
    fn full_hours_charged_at_last_in_hour_price() {
        let t = trace();
        // Hour 1 ends at the 0.010 segment; hour 2 at 0.020→ last is 0.020?
        // minute 119 is in the 0.020 segment, so hour 2 charges 0.020;
        // hour 3 ends at 0.008.
        let c = spot_charge(&t, 0, 180, Termination::User);
        assert_eq!(c, p(0.010) + p(0.020) + p(0.008));
    }

    #[test]
    fn provider_kill_partial_hour_free() {
        let t = trace();
        // 90 minutes of life: one full hour (0.010) + 30 free minutes.
        let c = spot_charge(&t, 0, 90, Termination::Provider);
        assert_eq!(c, p(0.010));
    }

    #[test]
    fn user_kill_partial_hour_charged() {
        let t = trace();
        // Same 90 minutes, user kill: partial hour charged at its last
        // price (minute 89 → 0.010).
        let c = spot_charge(&t, 0, 90, Termination::User);
        assert_eq!(c, p(0.010) + p(0.010));
        // Partial hour spanning a price rise charges the *last* price.
        let c2 = spot_charge(&t, 60, 100, Termination::User);
        assert_eq!(c2, p(0.020));
    }

    #[test]
    fn hours_align_to_launch_not_wall_clock() {
        let t = trace();
        // Launch at minute 30: the first instance-hour is [30, 90) whose
        // last price (minute 89) is 0.010... minute 89 falls in the 0.010
        // segment [0,90). Second hour [90,150) last price at minute 149 is
        // 0.008.
        let c = spot_charge(&t, 30, 150, Termination::Provider);
        assert_eq!(c, p(0.010) + p(0.008));
    }

    #[test]
    fn zero_lifetime_costs_nothing() {
        let t = trace();
        assert_eq!(spot_charge(&t, 10, 10, Termination::User), Price::ZERO);
        assert_eq!(spot_charge(&t, 10, 10, Termination::Provider), Price::ZERO);
    }

    #[test]
    fn provider_kill_never_charges_more_than_user_kill() {
        let t = trace();
        for start in [0u64, 7, 30, 61] {
            for len in [0u64, 10, 59, 60, 61, 119, 120] {
                let end = start + len;
                if end > t.horizon() {
                    continue;
                }
                let pk = spot_charge(&t, start, end, Termination::Provider);
                let uk = spot_charge(&t, start, end, Termination::User);
                assert!(pk <= uk, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn on_demand_rounds_up_started_hours() {
        let hourly = p(0.044);
        assert_eq!(on_demand_charge(hourly, 0, 0), Price::ZERO);
        assert_eq!(on_demand_charge(hourly, 0, 1), hourly);
        assert_eq!(on_demand_charge(hourly, 0, 60), hourly);
        assert_eq!(on_demand_charge(hourly, 0, 61), hourly * 2);
        assert_eq!(on_demand_charge(hourly, 30, 150), hourly * 2);
    }

    #[test]
    fn week_of_on_demand_matches_paper_scale() {
        // 5 m1.small at $0.044 for 168 h ≈ $36.96/week ⇒ the paper's
        // one-week baseline of ~$41 (Fig. 5) is the same order.
        let hourly = p(0.044);
        let c = on_demand_charge(hourly, 0, 7 * 24 * 60) * 5;
        assert!((c.as_dollars() - 36.96).abs() < 1e-9);
    }
}
