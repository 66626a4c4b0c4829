//! Virtual time for the simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in milliseconds since simulation start.
///
/// `SimTime` is a thin wrapper over `u64` so that raw millisecond counts and
/// times cannot be confused at API boundaries. Durations are also expressed
/// as `SimTime` offsets (the simulator has no separate duration type; the
/// arithmetic below keeps usage ergonomic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time infinitely far in the future (used as a run-forever bound).
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// The raw millisecond count.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The same instant in microseconds, the trace clock's unit
    /// (saturating at `u64::MAX`).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0.saturating_mul(1_000)
    }

    /// Whole seconds elapsed (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole minutes elapsed (truncating).
    #[inline]
    pub(crate) const fn as_minutes(self) -> u64 {
        self.0 / 60_000
    }

    /// Whole hours elapsed (truncating).
    #[inline]
    pub(crate) const fn as_hours(self) -> u64 {
        self.0 / 3_600_000
    }

    /// Saturating subtraction, returning the gap between two times.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let s = self.as_secs() % 60;
        let m = self.as_minutes() % 60;
        let h = self.as_hours();
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_secs(3_600).as_minutes(), 60);
        assert_eq!(SimTime::from_secs(25 * 3_600).as_hours(), 25);
        assert_eq!(SimTime::from_millis(1_234).as_micros(), 1_234_000);
        assert_eq!(SimTime::MAX.as_micros(), u64::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!((a + b).as_secs(), 14);
        assert_eq!((a - b).as_secs(), 6);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 14);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::from_millis(3_661_042).to_string(), "01:01:01.042");
    }

    #[test]
    fn max_is_sticky_under_addition() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(5 * 3_600), SimTime::MAX);
    }
}
