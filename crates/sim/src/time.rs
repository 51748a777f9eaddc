//! Virtual time.
//!
//! Simulation time is a `u64` count of **microseconds** since the start of
//! the run. Microsecond resolution is fine-grained enough to model
//! serialization delays of single packets on gigabit links (a 1500-byte
//! frame takes 12 µs at 1 Gbps) while leaving headroom for half a million
//! years of virtual time.
//!
//! Construction from seconds or milliseconds and `Time + Duration`
//! saturate at `u64::MAX`: a spec's "never" (a timer period of 10^17 ms)
//! stays the farthest instant instead of wrapping round to a near one.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant in virtual time (microseconds since run start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The beginning of the simulation.
    pub const ZERO: Time = Time(0);

    /// Construct from whole seconds, saturating at the end of time.
    pub fn from_secs(s: u64) -> Time {
        Time(s.saturating_mul(1_000_000))
    }

    /// Construct from milliseconds, saturating at the end of time.
    pub fn from_millis(ms: u64) -> Time {
        Time(ms.saturating_mul(1_000))
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Time {
        Time(us)
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in whole milliseconds (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub const fn from_secs(s: u64) -> Duration {
        Duration(s.saturating_mul(1_000_000))
    }

    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms.saturating_mul(1_000))
    }

    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

/// Integer division (e.g. splitting a period into equal probe slots);
/// division by zero is clamped to 1, preserving the semantics of the old
/// `Duration::div` method this trait impl replaces.
impl std::ops::Div<u64> for Duration {
    type Output = Duration;
    fn div(self, n: u64) -> Duration {
        Duration(self.0 / n.max(1))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative duration: {self:?} - {rhs:?}");
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(Time::from_millis(5).as_micros(), 5_000);
        assert_eq!(Time::from_micros(7).as_micros(), 7);
        assert_eq!(Duration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10) + Duration::from_millis(500);
        assert_eq!(t.as_millis(), 10_500);
        assert_eq!((t - Time::from_secs(10)).as_millis(), 500);
    }

    #[test]
    fn fractional_seconds() {
        assert_eq!(Duration::from_millis(500).as_secs_f64(), 0.5);
        assert!((Time::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn mul_and_div() {
        let d = Duration::from_secs(10);
        assert_eq!((d / 4).as_millis(), 2_500);
        // division by zero clamps to 1
        assert_eq!((d / 0).as_secs_f64(), 10.0);
    }

    #[test]
    fn saturating_ops() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
        assert_eq!(
            Duration::from_secs(1).saturating_sub(Duration::from_secs(2)),
            Duration::ZERO
        );
    }

    #[test]
    fn construction_and_addition_saturate() {
        let end = Time(u64::MAX);
        assert_eq!(Duration::from_millis(100_000_000_000_000_000).0, u64::MAX);
        assert_eq!(Duration::from_secs(u64::MAX / 1000).0, u64::MAX);
        assert_eq!(Time::from_millis(u64::MAX), end);
        assert_eq!(Time::from_secs(1 << 60), end);
        assert_eq!(Time::from_secs(5) + Duration(u64::MAX), end);
        let mut t = Time::from_millis(1);
        t += Duration::from_millis(u64::MAX / 2);
        assert_eq!(t, end);
        // Exact below the edge.
        assert_eq!(Time(u64::MAX - 1) + Duration(1), end);
        assert_eq!(
            Duration::from_secs(18_446_744_073_709).0,
            18_446_744_073_709_000_000
        );
    }

    #[test]
    fn ordering() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(Duration::from_micros(999) < Duration::from_millis(1));
    }
}
