//! Virtual simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point (or span) of virtual time, stored as seconds in an `f64`.
///
/// `SimTime` implements a *total* order via [`f64::total_cmp`] so it can be
/// used as an event-queue key. Constructors reject NaN, which keeps the total
/// order consistent with the arithmetic order for every reachable value.
///
/// # Example
///
/// ```
/// use sync_switch_sim::SimTime;
/// let t = SimTime::from_secs(1.5) + SimTime::from_millis(500.0);
/// assert_eq!(t.as_secs(), 2.0);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is NaN.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1e3)
    }

    /// Creates a time from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is NaN.
    pub fn from_micros(micros: f64) -> Self {
        Self::from_secs(micros / 1e6)
    }

    /// Returns the value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns `true` if this time is non-negative and finite.
    pub fn is_valid_duration(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Returns the maximum of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the minimum of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60.0 {
            write!(f, "{:.2}min", self.0 / 60.0)
        } else if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else {
            write!(f, "{:.3}ms", self.0 * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_convert_units() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_micros(2_000_000.0).as_secs(), 2.0);
    }

    #[test]
    fn arithmetic_behaves_like_f64_seconds() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(1.5);
        assert_eq!((a + b).as_secs(), 4.5);
        assert_eq!((a - b).as_secs(), 1.5);
        assert_eq!((a * 2.0).as_secs(), 6.0);
        assert_eq!((a / 2.0).as_secs(), 1.5);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 4.5);
        c -= b;
        assert_eq!(c.as_secs(), 3.0);
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let ts = [
            SimTime::from_secs(0.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(-1.0),
            SimTime::from_secs(f64::INFINITY),
        ];
        let mut sorted = ts;
        sorted.sort();
        assert_eq!(sorted[0], SimTime::from_secs(-1.0));
        assert_eq!(sorted[3], SimTime::from_secs(f64::INFINITY));
        assert!(SimTime::from_secs(1.0) > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn min_max_and_sum() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total.as_secs(), 5.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_secs(120.0)), "2.00min");
        assert_eq!(format!("{}", SimTime::from_secs(2.5)), "2.500s");
        assert_eq!(format!("{}", SimTime::from_millis(1.5)), "1.500ms");
    }

    #[test]
    fn valid_duration_checks() {
        assert!(SimTime::from_secs(0.0).is_valid_duration());
        assert!(!SimTime::from_secs(-1.0).is_valid_duration());
        assert!(!SimTime::from_secs(f64::INFINITY).is_valid_duration());
    }
}
