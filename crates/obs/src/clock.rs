//! The time source for trace timestamps.

use std::sync::atomic::{AtomicU64, Ordering};

/// A virtual microsecond clock advanced explicitly by the owner — the
/// bridge between simulated time (simnet `SimTime`, replay minutes) and
/// trace timestamps.
#[derive(Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A virtual clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Current time in microseconds since this clock's origin.
    pub fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    /// Move the clock to `micros`. Monotonic: concurrent setters never
    /// move time backwards.
    pub fn set_micros(&self, micros: u64) {
        self.micros.fetch_max(micros, Ordering::Relaxed);
    }
}
