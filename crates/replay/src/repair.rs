//! The mid-interval repair controller: policy and timing.
//!
//! The paper's online algorithm (Fig. 3) only re-decides at bidding
//! interval boundaries, so an out-of-bid kill mid-interval leaves the
//! quorum degraded for up to a full interval. The repair controller reacts
//! to those kills between boundaries:
//!
//! ```text
//!            kill detected            rebid granted
//!  healthy ───────────────▶ degraded ───────────────▶ healthy
//!     ▲                        │  ▲                      │
//!     │                        │  │ rebid failed:        │
//!     │      boundary          │  │ backoff ×2, retry    │
//!     └────────────────────────┘  └──────────────────────┘
//!                              │
//!                              │ budget exhausted / spot infeasible
//!                              ▼
//!                          fallback (on-demand replacement, Hybrid only)
//! ```
//!
//! A repair re-runs the per-zone bid selection through the same
//! [`jupiter::BiddingFramework`] the boundary decisions use — against the
//! already-frozen [`jupiter::ModelStore`] kernels, never with freshly
//! trained models — with a fresh market snapshot at the repair minute.
//! Rebids respect an exponential backoff and a per-interval budget; when
//! the spot market cannot fill the gap (no feasible bid, grant refused, or
//! budget exhausted), [`RepairPolicy::Hybrid`] escalates to on-demand
//! replacements billed via [`spot_market::on_demand_charge`] and retired
//! at the next boundary.

/// How the replay responds to mid-interval out-of-bid terminations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairPolicy {
    /// The paper's behaviour: dead instances stay dead until the next
    /// bidding-interval boundary.
    #[default]
    Off,
    /// Reactive spot rebid: re-run the bid selection for the missing
    /// slots, backing off exponentially when the market cannot fill them.
    Reactive,
    /// Reactive spot rebid with an on-demand fallback tier: slots the spot
    /// market cannot fill (or that exceed the rebid budget) are replaced
    /// by on-demand instances until the next boundary.
    Hybrid,
    /// Proactive migration on interruption notices: under
    /// [`spot_market::BidEra::CapacityReclaim`] the controller reacts to
    /// the provider's advance notice (and earlier rebalance
    /// recommendations) by launching a replacement in a diversified pool
    /// and draining the victim's slot before the kill lands. Deaths the
    /// notice path cannot cover fall back to the reactive rebid walk.
    /// Under the default bidding era there are no notices, so this policy
    /// replays exactly as [`RepairPolicy::Reactive`].
    Migrate,
}

impl RepairPolicy {
    /// Short lowercase label used in metric prefixes and report rows.
    pub fn label(&self) -> &'static str {
        match self {
            RepairPolicy::Off => "off",
            RepairPolicy::Reactive => "reactive",
            RepairPolicy::Hybrid => "hybrid",
            RepairPolicy::Migrate => "migrate",
        }
    }
}

impl std::fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// The repair walk's timing: a kill is detected within a minute, rebid
// after a five-minute settle (price spikes that kill an instance are
// often still standing at the kill minute), the wait doubles on every
// failed repair, and an interval allows four rebids.
/// Minutes between an out-of-bid kill and the controller noticing it.
pub(crate) const DETECTION_DELAY_MINUTES: u64 = 1;
/// Wait before the first rebid after a kill, minutes.
pub(crate) const BACKOFF_BASE_MINUTES: u64 = 5;
/// Upper bound on the exponential backoff, minutes.
pub(crate) const BACKOFF_CAP_MINUTES: u64 = 60;
/// Rebid budget per bidding interval; repairs beyond it escalate
/// straight to on-demand (Hybrid) or give up (Reactive).
pub(crate) const MAX_REBIDS_PER_INTERVAL: u32 = 4;

/// How the replay repairs its fleet between bidding boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairConfig {
    /// The response policy.
    pub policy: RepairPolicy,
}

impl RepairConfig {
    /// Repair disabled — byte-for-byte the paper's fixed-interval replay.
    pub fn off() -> Self {
        Self::default()
    }

    /// Reactive spot rebids only.
    pub fn reactive() -> Self {
        RepairConfig { policy: RepairPolicy::Reactive }
    }

    /// Proactive notice-driven migration with the reactive rebid walk as
    /// fallback (backoff and budget govern the fallback only — the notice
    /// path has neither, it fires once per notice).
    pub fn migrate() -> Self {
        RepairConfig { policy: RepairPolicy::Migrate }
    }

    /// Rebids plus the on-demand fallback tier.
    pub fn hybrid() -> Self {
        RepairConfig { policy: RepairPolicy::Hybrid }
    }

    /// Whether the controller is active at all.
    pub(crate) fn is_active(&self) -> bool {
        self.policy != RepairPolicy::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_activity() {
        assert_eq!(RepairPolicy::Off.label(), "off");
        assert_eq!(RepairPolicy::Reactive.label(), "reactive");
        assert_eq!(format!("{}", RepairPolicy::Hybrid), "hybrid");
        assert_eq!(RepairPolicy::Migrate.label(), "migrate");
        assert!(!RepairConfig::off().is_active());
        assert!(RepairConfig::reactive().is_active());
        assert!(RepairConfig::hybrid().is_active());
        assert!(RepairConfig::migrate().is_active());
        assert_eq!(RepairConfig::default(), RepairConfig::off());
    }

    /// No golden replays a repair that backs off past 40 minutes, so the
    /// cap is held here (the other three move `tests/replay_golden.rs`).
    #[test]
    fn backoff_doubles_from_five_minutes_up_to_an_hour() {
        assert_eq!((BACKOFF_BASE_MINUTES, BACKOFF_CAP_MINUTES), (5, 60));
    }
}
