//! Virtual time: integer microseconds since simulation start.
//!
//! Integer time makes event ordering total and runs bit-reproducible;
//! microsecond resolution is three orders of magnitude below the smallest
//! latency the paper models (1 ms), so quantization never shows up in
//! results.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Microseconds in the span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiply the span by an integer factor.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

/// The span from `rhs` to `self`; saturates to zero if reversed.
impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_micros(1_500_000).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(t.as_micros(), 3_000);
        let later = t + SimDuration::from_millis(7);
        assert_eq!(later - t, SimDuration::from_millis(7));
        assert_eq!((t - later), SimDuration::ZERO, "reversed span saturates");
        assert_eq!(
            SimDuration::from_millis(2).mul(3),
            SimDuration::from_millis(6)
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(1_000);
        assert_eq!(t.as_secs_f64(), 1.0);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_micros(1_234_000).to_string(), "1.234s");
        assert_eq!(SimDuration::from_millis(10).to_string(), "0.010s");
    }
}
