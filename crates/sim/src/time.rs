//! Absolute simulation time.
//!
//! [`Time`] is a newtype over `f64` **picoseconds** with a total order
//! (non-finite values are rejected at construction), so it can key the
//! event queue deterministically.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An absolute simulation instant, in picoseconds.
///
/// `Time` is totally ordered: constructors reject NaN and infinities, so
/// comparisons never need to handle unordered values.
///
/// # Examples
///
/// ```
/// use strent_sim::Time;
///
/// let t = Time::from_ps(2_500.0);
/// assert_eq!(t.as_ns(), 2.5);
/// assert!(t + 100.0 > t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Time(f64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0.0);

    /// Creates a `Time` from a picosecond value.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is NaN or infinite — a non-finite simulation time is
    /// always a logic error upstream and would break event ordering.
    #[must_use]
    pub fn from_ps(ps: f64) -> Self {
        assert!(ps.is_finite(), "simulation time must be finite, got {ps}");
        Time(ps)
    }

    /// Creates a `Time` from a nanosecond value.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is NaN or infinite.
    #[must_use]
    pub fn from_ns(ns: f64) -> Self {
        Self::from_ps(ns * 1e3)
    }

    /// Creates a `Time` from a microsecond value.
    ///
    /// # Panics
    ///
    /// Panics if `us` is NaN or infinite.
    #[must_use]
    pub fn from_us(us: f64) -> Self {
        Self::from_ps(us * 1e6)
    }

    /// Returns the instant as picoseconds.
    #[must_use]
    pub fn as_ps(self) -> f64 {
        self.0
    }

    /// Returns the instant as nanoseconds.
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Default for Time {
    fn default() -> Self {
        Time::ZERO
    }
}

impl Eq for Time {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction guarantees finiteness, so partial_cmp never fails.
        self.0
            .partial_cmp(&other.0)
            .expect("Time is always finite")
    }
}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<f64> for Time {
    /// Interprets the value as picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value is NaN or infinite.
    fn from(ps: f64) -> Self {
        Time::from_ps(ps)
    }
}

impl Add<f64> for Time {
    type Output = Time;

    /// Advances the instant by a duration in picoseconds.
    fn add(self, ps: f64) -> Time {
        Time::from_ps(self.0 + ps)
    }
}

impl AddAssign<f64> for Time {
    fn add_assign(&mut self, ps: f64) {
        *self = *self + ps;
    }
}

impl Sub for Time {
    type Output = f64;

    /// Difference between two instants, in picoseconds.
    fn sub(self, rhs: Time) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.3} us", self.0 * 1e-6)
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} ns", self.0 * 1e-3)
        } else {
            write!(f, "{:.3} ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        let t = Time::from_ns(1.5);
        assert_eq!(t.as_ps(), 1_500.0);
        assert_eq!(t.as_ns(), 1.5);
        assert_eq!(Time::from_us(2.0).as_ps(), 2e6);
    }

    #[test]
    fn ordering_is_total() {
        let a = Time::from_ps(1.0);
        let b = Time::from_ps(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Time::from_ps(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = Time::from_ps(f64::INFINITY);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ps(100.0);
        assert_eq!((t + 50.0).as_ps(), 150.0);
        assert_eq!((t + 50.0) - t, 50.0);
        let mut u = t;
        u += 25.0;
        assert_eq!(u.as_ps(), 125.0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Time::from_ps(12.5)), "12.500 ps");
        assert_eq!(format!("{}", Time::from_ps(1_500.0)), "1.500 ns");
        assert_eq!(format!("{}", Time::from_ps(2.5e6)), "2.500 us");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Time::default(), Time::ZERO);
    }
}
