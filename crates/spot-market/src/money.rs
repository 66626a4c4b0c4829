//! Exact money arithmetic in micro-dollars.
//!
//! Spot prices in 2014 were quoted with four decimal places (e.g. $0.0071),
//! so floating point is both unnecessary and hazardous for billing. All
//! prices and charges in this workspace are integers in units of 10⁻⁶ USD.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A non-negative amount of money in micro-dollars (10⁻⁶ USD).
///
/// Used both for hourly prices/bids and for accumulated charges.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Price(pub u64);

impl Price {
    /// Zero dollars.
    pub const ZERO: Price = Price(0);

    /// The minimum bid increment on the 2014 spot market: $0.0001.
    pub const TICK: Price = Price(100);

    /// Construct from micro-dollars.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Price(micros)
    }

    /// Construct from a dollar amount, rounding to the nearest micro-dollar.
    ///
    /// Panics on negative or non-finite input (prices are never negative).
    pub fn from_dollars(d: f64) -> Self {
        assert!(d.is_finite() && d >= 0.0, "invalid dollar amount {d}");
        Price((d * 1e6).round() as u64)
    }

    /// The amount in micro-dollars.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The amount as floating-point dollars (for reporting only).
    #[inline]
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Round up to the next multiple of [`Price::TICK`].
    pub(crate) fn round_up_to_tick(self) -> Price {
        let t = Price::TICK.0;
        Price(self.0.div_ceil(t) * t)
    }

    /// Multiply by a non-negative scale factor, rounding to nearest.
    ///
    /// Used for "spot price plus p percent" heuristic bids.
    pub fn scale(self, factor: f64) -> Price {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        Price((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Price {
    type Output = Price;
    #[inline]
    fn add(self, rhs: Price) -> Price {
        Price(self.0.checked_add(rhs.0).expect("price overflow"))
    }
}

impl AddAssign for Price {
    #[inline]
    fn add_assign(&mut self, rhs: Price) {
        *self = *self + rhs;
    }
}

impl Sub for Price {
    type Output = Price;
    #[inline]
    fn sub(self, rhs: Price) -> Price {
        Price(self.0.checked_sub(rhs.0).expect("price underflow"))
    }
}

impl Mul<u64> for Price {
    type Output = Price;
    #[inline]
    fn mul(self, rhs: u64) -> Price {
        Price(self.0.checked_mul(rhs).expect("price overflow"))
    }
}

impl Sum for Price {
    fn sum<I: Iterator<Item = Price>>(iter: I) -> Price {
        iter.fold(Price::ZERO, Add::add)
    }
}

impl fmt::Debug for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self)
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dollars = self.0 / 1_000_000;
        let micros = self.0 % 1_000_000;
        let s = if micros == 0 {
            format!("{dollars}.00")
        } else if micros.is_multiple_of(100) {
            // Four decimals when exact (typical spot quotes), else six.
            format!("{dollars}.{:04}", micros / 100)
        } else {
            format!("{dollars}.{micros:06}")
        };
        // Respect width/alignment flags from format strings.
        f.pad(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dollar_round_trip() {
        let p = Price::from_dollars(0.0071);
        assert_eq!(p.as_micros(), 7_100);
        assert!((p.as_dollars() - 0.0071).abs() < 1e-12);
    }

    #[test]
    fn tick_rounding() {
        assert_eq!(Price(7_150).round_up_to_tick(), Price(7_200));
        assert_eq!(Price(7_100).round_up_to_tick(), Price(7_100));
        assert_eq!(Price::ZERO.round_up_to_tick(), Price::ZERO);
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = Price::from_dollars(0.01);
        let b = Price::from_dollars(0.002);
        assert_eq!(a + b, Price::from_dollars(0.012));
        assert_eq!(a - b, Price::from_dollars(0.008));
        assert_eq!(a * 3, Price::from_dollars(0.03));
        let total: Price = [a, b, b].into_iter().sum();
        assert_eq!(total, Price::from_dollars(0.014));
    }

    #[test]
    fn scaling_matches_percentage_bids() {
        // Extra(m, 0.2) bids the spot price plus 20 %.
        let spot = Price::from_dollars(0.0080);
        assert_eq!(spot.scale(1.2), Price::from_dollars(0.0096));
        assert_eq!(spot.scale(0.0), Price::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Price::from_dollars(0.0071).to_string(), "0.0071");
        assert_eq!(Price::from_dollars(1.5).to_string(), "1.5000");
        assert_eq!(Price::from_dollars(2.0).to_string(), "2.00");
        assert_eq!(Price(1_234_567).to_string(), "1.234567");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = Price(1) - Price(2);
    }
}
