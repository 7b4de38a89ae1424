//! Simulated time.
//!
//! All simulator state advances on a single virtual clock measured in
//! nanoseconds. Per-node *local* clocks (which SwitchPointer's epoch
//! machinery reads) are derived by adding a bounded per-node offset — see
//! [`Simulator::clock_offset`](crate::engine::Simulator::clock_offset)
//! and the paper's §4.2.1 asynchrony handling.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant of simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Constructs from fractional milliseconds (handy for experiment
    /// parameters quoted in the paper, e.g. 0.4 ms UDP bursts).
    #[inline]
    pub fn from_ms_f64(ms: f64) -> Self {
        assert!(ms >= 0.0, "negative time");
        SimTime((ms * 1_000_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked signed offset: local clocks may run ahead of or behind the
    /// global clock. Saturates at zero (the simulation never predates t=0).
    #[inline]
    pub fn offset_by(self, offset_ns: i64) -> SimTime {
        if offset_ns >= 0 {
            SimTime(self.0.saturating_add(offset_ns as u64))
        } else {
            SimTime(self.0.saturating_sub(offset_ns.unsigned_abs()))
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Computes the serialization time of `bytes` on a link of `bandwidth_bps`.
#[inline]
pub fn serialization_time(bytes: u64, bandwidth_bps: u64) -> SimTime {
    assert!(bandwidth_bps > 0, "zero-bandwidth link");
    // ns = bits * 1e9 / bps, computed in u128 to avoid overflow.
    let ns = (bytes as u128 * 8 * 1_000_000_000) / bandwidth_bps as u128;
    SimTime(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_ms(5).as_ns(), 5_000_000);
        assert_eq!(SimTime::from_us(7).as_ns(), 7_000);
        assert_eq!(SimTime::from_secs(2).as_ms(), 2_000);
        assert_eq!(SimTime::from_ms_f64(0.4).as_us(), 400);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(3);
        let b = SimTime::from_ms(1);
        assert_eq!((a + b).as_ms(), 4);
        assert_eq!((a - b).as_ms(), 2);
        assert_eq!((b * 5).as_ms(), 5);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ms(1) - SimTime::from_ms(2);
    }

    #[test]
    fn offsets() {
        let t = SimTime::from_us(10);
        assert_eq!(t.offset_by(500).as_ns(), 10_500);
        assert_eq!(t.offset_by(-500).as_ns(), 9_500);
        assert_eq!(SimTime::from_ns(3).offset_by(-10), SimTime::ZERO);
    }

    #[test]
    fn serialization_math() {
        // 1500 bytes at 1 Gbps = 12 us.
        assert_eq!(
            serialization_time(1500, 1_000_000_000),
            SimTime::from_ns(12_000)
        );
        // 64 bytes at 10 Gbps = 51.2 ns.
        assert_eq!(serialization_time(64, 10_000_000_000), SimTime::from_ns(51));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.0us");
        assert_eq!(format!("{}", SimTime::from_ms(2)), "2.000ms");
    }
}
