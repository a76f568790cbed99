//! Simulation time.

use rat_core::quantity::{Cycles, Freq, Seconds};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Simulation time with picosecond resolution.
///
/// Picoseconds in a `u64` cover about 213 days of simulated time — far beyond any
/// RAT workload — while resolving a single cycle at multi-GHz clock rates without
/// accumulating floating-point drift in the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

const PS_PER_SEC: f64 = 1e12;

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from a typed duration, rounding to the nearest picosecond.
    ///
    /// Panics on negative or non-finite input: durations in the simulator are
    /// always physical.
    pub fn from_seconds(secs: Seconds) -> Self {
        let secs = secs.seconds();
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be a finite non-negative duration, got {secs}"
        );
        SimTime((secs * PS_PER_SEC).round() as u64)
    }

    /// Duration of `cycles` clock cycles at `freq`, rounded to the nearest
    /// picosecond.
    pub fn from_cycles(cycles: Cycles, freq: Freq) -> Self {
        assert!(
            freq.hz() > 0.0,
            "clock frequency must be positive, got {} Hz",
            freq.hz()
        );
        Self::from_seconds(cycles / freq)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in seconds, as a raw float (for statistics and formatting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC
    }

    /// Time as a typed duration.
    pub fn as_seconds(self) -> Seconds {
        Seconds::new(self.as_secs_f64())
    }

    /// Number of whole clock cycles this duration spans at `freq`.
    pub fn as_cycles(self, freq: Freq) -> Cycles {
        Cycles::new((freq * self.as_seconds()).round() as u64)
    }

    /// Saturating subtraction (zero if `rhs` is later than `self`).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: rhs later than lhs"),
        )
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 1.0 {
            write!(f, "{secs:.4} s")
        } else if secs >= 1e-3 {
            write!(f, "{:.3} ms", secs * 1e3)
        } else if secs >= 1e-6 {
            write!(f, "{:.3} us", secs * 1e6)
        } else {
            write!(f, "{:.3} ns", secs * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(5), SimTime::from_ps(5_000));
        assert_eq!(SimTime::from_us(2), SimTime::from_ns(2_000));
        assert_eq!(
            SimTime::from_seconds(Seconds::new(1e-6)),
            SimTime::from_us(1)
        );
    }

    #[test]
    fn cycles_round_trip() {
        let f = Freq::from_mhz(150.0);
        let t = SimTime::from_cycles(Cycles::new(20850), f);
        assert_eq!(t.as_cycles(f), Cycles::new(20850));
        assert!((t.as_secs_f64() - 1.39e-4).abs() < 1e-6);
    }

    #[test]
    fn cycle_duration_at_150mhz() {
        let t = SimTime::from_cycles(Cycles::new(1), Freq::from_mhz(150.0));
        // 1/150 MHz = 6.667 ns = 6667 ps (rounded).
        assert_eq!(t.as_ps(), 6667);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!((a + b).as_ps(), 14_000_000);
        assert_eq!((a - b).as_ps(), 6_000_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_us(1) - SimTime::from_us(2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimTime::from_seconds(Seconds::new(-1.0));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_us).sum();
        assert_eq!(total, SimTime::from_us(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(
            SimTime::from_seconds(Seconds::new(2.5)).to_string(),
            "2.5000 s"
        );
        assert_eq!(SimTime::from_us(1500).to_string(), "1.500 ms");
        assert_eq!(SimTime::from_ns(250).to_string(), "250.000 ns");
    }
}
