//! Typed physical quantities for the RAT equations.
//!
//! Every number in the paper's Table 1 carries a dimension — bytes, elements,
//! cycles, Hz, seconds, bytes/second — and every equation (1)–(11) is
//! dimensional arithmetic over them. This module makes those dimensions
//! first-class as zero-cost newtypes, with **only the dimensionally valid**
//! operator impls:
//!
//! - [`Bytes`] `/` [`Throughput`] `=` [`Seconds`] (Eqs. 2–3, transfer time)
//! - [`Bytes`] `/` [`Seconds`] `=` [`Throughput`] (measured bandwidth)
//! - [`Cycles`] `/` [`Freq`] `=` [`Seconds`] (Eq. 4, cycle time)
//! - [`Elements`] `*` [`Bytes`] `=` [`Bytes`] (bytes-per-element scaling)
//! - `f64 *` [`Throughput`] `=` [`Throughput`] (alpha derating)
//! - [`Seconds`] arithmetic (`+`, `-`, `* f64`, `/ f64`, `max`) for Eqs. 5–6
//! - [`Seconds`] `/` [`Seconds`] `= f64` (Eq. 7, speedup ratios)
//!
//! A cycles-vs-seconds or Mbps-vs-MB/s mix-up is therefore a **compile
//! error**, not a silently corrupted table.
//!
//! ## Unit conventions
//!
//! Internally each quantity stores one base unit: `Seconds` in seconds,
//! `Freq` in Hz, `Throughput` in bytes/second. Constructors and accessors
//! convert from/to the units the paper's tables print ([`Freq::from_mhz`],
//! [`Throughput::from_mbps`], [`Throughput::from_mbytes_per_sec`]).
//! Worksheets hold three of them: [`Freq`], [`Seconds`] and [`Throughput`].
//! [`crate::params`] writes each as its bare base-unit number; reading one
//! through its `TryFrom<&toml::Value<'_>>` also accepts a suffixed string such
//! as `"133 MHz"`, `"1 Mbps"`, `"1000 MB/s"`, or `"0.578 s"`.
//!
//! The wrappers are `#[repr(transparent)]` over their primitive, so the
//! compiled arithmetic — and therefore every golden table — is bit-identical
//! to the untyped original.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub};

use toml::{Error, Value};

/// Parse a number-with-optional-unit string: `"133 MHz"` → `(133.0, "MHz")`.
fn split_number_unit(s: &str) -> Result<(f64, &str), String> {
    let s = s.trim();
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '+' | '-' | 'e' | 'E' | '_')))
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(end);
    let value: f64 = num
        .trim()
        .replace('_', "")
        .parse()
        .map_err(|_| format!("`{s}` has no leading number"))?;
    if !value.is_finite() {
        return Err(format!("`{s}` is not a finite number"));
    }
    Ok((value, unit.trim()))
}

/// Decode a float-valued quantity from a bare number or a suffixed string,
/// mapping the unit via `scale` (factor from that unit to the base unit).
/// Rejects non-finite values.
fn quantity_from_value(
    value: &Value<'_>,
    what: &str,
    scale: impl Fn(&str) -> Option<f64>,
) -> Result<f64, Error> {
    let base = match value {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        Value::Str(s) => {
            let (num, unit) = split_number_unit(s).map_err(Error::new)?;
            let factor = scale(unit)
                .ok_or_else(|| Error::new(format!("unknown {what} unit `{unit}` in `{s}`")))?;
            num * factor
        }
        other => return Err(Error::expected(what, other)),
    };
    if !base.is_finite() {
        return Err(Error::new(format!("{what} must be finite, got {base}")));
    }
    Ok(base)
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

/// A byte count on the communication channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// A byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// The raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The count as `f64`, for rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

/// `Bytes / Throughput = Seconds`: ideal transfer time of a block.
impl Div<Throughput> for Bytes {
    type Output = Seconds;
    fn div(self, rhs: Throughput) -> Seconds {
        Seconds(self.0 as f64 / rhs.0)
    }
}

/// `Bytes / Seconds = Throughput`: measured bandwidth of a timed transfer.
impl Div<Seconds> for Bytes {
    type Output = Throughput;
    fn div(self, rhs: Seconds) -> Throughput {
        Throughput(self.0 as f64 / rhs.0)
    }
}

// ---------------------------------------------------------------------------
// Elements
// ---------------------------------------------------------------------------

/// A count of the paper's §3.1 *elements* — the unit tying communication to
/// computation (an array value, an atom, a character).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Elements(u64);

impl Elements {
    /// An element count.
    pub const fn new(elements: u64) -> Self {
        Elements(elements)
    }

    /// The raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The count as `f64`, for rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Elements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} elements", self.0)
    }
}

/// `Elements * Bytes = Bytes`, reading the right-hand side as bytes **per
/// element** — the worksheet's `N_elements * N_bytes/element` product.
impl Mul<Bytes> for Elements {
    type Output = Bytes;
    fn mul(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 * rhs.0)
    }
}

// ---------------------------------------------------------------------------
// Cycles
// ---------------------------------------------------------------------------

/// A count of FPGA clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// A cycle count.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// The raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The count as `f64`, for time arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

/// `Cycles / Freq = Seconds`: the time a cycle count takes at a clock.
impl Div<Freq> for Cycles {
    type Output = Seconds;
    fn div(self, rhs: Freq) -> Seconds {
        Seconds(self.0 as f64 / rhs.0)
    }
}

// ---------------------------------------------------------------------------
// Freq
// ---------------------------------------------------------------------------

/// A clock frequency, stored in Hz. The paper's tables print MHz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Freq(f64);

impl Freq {
    /// A frequency from Hz. Permissive by design (no range check): validation
    /// happens where a frequency is *used* — worksheet validation and the
    /// simulator's clock check both reject non-positive clocks with a field-
    /// named error.
    pub const fn from_hz(hz: f64) -> Self {
        Freq(hz)
    }

    /// A frequency from MHz — the unit of the paper's `f_clock` rows.
    pub fn from_mhz(mhz: f64) -> Self {
        Freq(mhz * 1e6)
    }

    /// The frequency in Hz.
    pub const fn hz(self) -> f64 {
        self.0
    }

    /// The frequency in MHz, for table rendering.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.mhz(), f)?;
        write!(f, " MHz")
    }
}

/// Scale a frequency (e.g. `fclock * throughput_proc` = ops/second).
impl Mul<f64> for Freq {
    type Output = Freq;
    fn mul(self, rhs: f64) -> Freq {
        Freq(self.0 * rhs)
    }
}

/// Scale a frequency from the left.
impl Mul<Freq> for f64 {
    type Output = Freq;
    fn mul(self, rhs: Freq) -> Freq {
        Freq(self * rhs.0)
    }
}

impl MulAssign<f64> for Freq {
    fn mul_assign(&mut self, rhs: f64) {
        self.0 *= rhs;
    }
}

/// `count / Freq = Seconds`: how long `count` events take at this rate.
impl Div<Freq> for f64 {
    type Output = Seconds;
    fn div(self, rhs: Freq) -> Seconds {
        Seconds(self / rhs.0)
    }
}

/// `Freq / Freq = f64`: a dimensionless frequency ratio.
impl Div<Freq> for Freq {
    type Output = f64;
    fn div(self, rhs: Freq) -> f64 {
        self.0 / rhs.0
    }
}

/// `Freq * Seconds = f64`: the cycle (or event) count in a window.
impl Mul<Seconds> for Freq {
    type Output = f64;
    fn mul(self, rhs: Seconds) -> f64 {
        self.0 * rhs.0
    }
}

// ---------------------------------------------------------------------------
// Seconds
// ---------------------------------------------------------------------------

/// A duration in seconds — the unit of every `t_*` row in the paper.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// A duration from seconds. Permissive by design (negative differences
    /// are meaningful, e.g. break-even "time saved"); worksheet validation
    /// rejects non-positive baselines where required.
    pub const fn new(secs: f64) -> Self {
        Seconds(secs)
    }

    /// The duration in seconds.
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// The larger of two durations (Eq. 6's overlap).
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Whether the duration is a finite number.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        write!(f, " s")
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

/// Scale a duration from the left (e.g. `N_iter * t_comm`).
impl Mul<Seconds> for f64 {
    type Output = Seconds;
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

/// `Seconds / Seconds = f64`: a dimensionless time ratio (Eq. 7's speedup).
impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl std::iter::Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

// ---------------------------------------------------------------------------
// Throughput
// ---------------------------------------------------------------------------

/// A data rate, stored in bytes/second. The paper's Table 1 quotes MB/s;
/// interconnect datasheets often quote Mbps — the constructors make the
/// factor-of-8 difference explicit instead of silent.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Throughput(f64);

impl Throughput {
    /// A rate from bytes/second (the stored base unit).
    pub const fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        Throughput(bytes_per_sec)
    }

    /// A rate from **megabytes** per second — the paper's `throughput_ideal`
    /// unit (Table 1 quotes 1000 MB/s for PCI-X).
    pub fn from_mbytes_per_sec(mbytes_per_sec: f64) -> Self {
        Throughput(mbytes_per_sec * 1e6)
    }

    /// A rate from **megabits** per second — the unit interconnect marketing
    /// quotes. `Throughput::from_mbps(8.0) == Throughput::from_mbytes_per_sec(1.0)`.
    pub fn from_mbps(mbps: f64) -> Self {
        Throughput(mbps * 1e6 / 8.0)
    }

    /// The rate in bytes/second.
    pub const fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in MB/s, for table rendering.
    pub fn mbytes_per_sec(self) -> f64 {
        self.0 / 1e6
    }

    /// The rate in Mbps.
    pub fn mbps(self) -> f64 {
        self.0 * 8.0 / 1e6
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.mbytes_per_sec(), f)?;
        write!(f, " MB/s")
    }
}

/// Derate a bandwidth by a sustained fraction (`alpha * throughput_ideal`).
impl Mul<Throughput> for f64 {
    type Output = Throughput;
    fn mul(self, rhs: Throughput) -> Throughput {
        Throughput(self * rhs.0)
    }
}

/// Derate a bandwidth from the right.
impl Mul<f64> for Throughput {
    type Output = Throughput;
    fn mul(self, rhs: f64) -> Throughput {
        Throughput(self.0 * rhs)
    }
}

/// `Throughput / Throughput = f64`: a dimensionless rate ratio (a measured
/// alpha).
impl Div<Throughput> for Throughput {
    type Output = f64;
    fn div(self, rhs: Throughput) -> f64 {
        self.0 / rhs.0
    }
}

// ---------------------------------------------------------------------------
// Worksheet decoding (numbers in base units, or suffixed strings)
// ---------------------------------------------------------------------------

fn freq_unit(unit: &str) -> Option<f64> {
    match unit.to_ascii_lowercase().as_str() {
        "" | "hz" => Some(1.0),
        "khz" => Some(1e3),
        "mhz" => Some(1e6),
        "ghz" => Some(1e9),
        _ => None,
    }
}

fn seconds_unit(unit: &str) -> Option<f64> {
    match unit {
        "" | "s" | "sec" | "secs" | "seconds" => Some(1.0),
        "ms" => Some(1e-3),
        "us" | "\u{b5}s" => Some(1e-6),
        "ns" => Some(1e-9),
        _ => None,
    }
}

/// Bandwidth units are case-sensitive where it matters: `MB/s` is megabytes,
/// `Mbps` megabits — an 8x trap this table refuses to guess about.
fn throughput_unit(unit: &str) -> Option<f64> {
    match unit {
        "" | "B/s" => Some(1.0),
        "kB/s" | "KB/s" => Some(1e3),
        "MB/s" => Some(1e6),
        "GB/s" => Some(1e9),
        "bps" => Some(1.0 / 8.0),
        "kbps" | "Kbps" => Some(1e3 / 8.0),
        "Mbps" => Some(1e6 / 8.0),
        "Gbps" => Some(1e9 / 8.0),
        _ => None,
    }
}

impl TryFrom<&Value<'_>> for Freq {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        quantity_from_value(value, "frequency", freq_unit).map(Freq)
    }
}

impl TryFrom<&Value<'_>> for Seconds {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        quantity_from_value(value, "duration", seconds_unit).map(Seconds)
    }
}

impl TryFrom<&Value<'_>> for Throughput {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        quantity_from_value(value, "bandwidth", throughput_unit).map(Throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensional_products_match_hand_arithmetic() {
        let bytes = Elements::new(512) * Bytes::new(4);
        assert_eq!(bytes, Bytes::new(2048));
        let bw = 0.37 * Throughput::from_bytes_per_sec(1.0e9);
        let t = bytes / bw;
        assert!((t.seconds() - 2048.0 / 0.37e9).abs() < 1e-18);
        let back = bytes / t;
        assert!((back.bytes_per_sec() - 0.37e9).abs() < 1e-3);
    }

    #[test]
    fn cycles_over_freq_is_seconds() {
        let t = Cycles::new(20_850) / Freq::from_mhz(150.0);
        assert!((t.seconds() - 1.39e-4).abs() < 1e-7);
    }

    #[test]
    fn mbps_is_an_eighth_of_mbytes() {
        let a = Throughput::from_mbps(8.0);
        let b = Throughput::from_mbytes_per_sec(1.0);
        assert_eq!(a, b);
        assert!((a.mbps() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_arithmetic_matches_floats() {
        let a = Seconds::new(5.56e-6);
        let b = Seconds::new(1.31e-4);
        assert_eq!((a + b).seconds(), 5.56e-6 + 1.31e-4);
        assert_eq!((400.0 * (a + b)).seconds(), 400.0 * (5.56e-6 + 1.31e-4));
        assert_eq!(a.max(b), b);
        assert_eq!(Seconds::new(0.578) / b, 0.578 / 1.31e-4);
    }

    #[test]
    fn suffixed_strings_deserialize() {
        let f = Freq::try_from(&Value::Str("133 MHz".into())).unwrap();
        assert_eq!(f, Freq::from_hz(133.0e6));
        let bw = Throughput::try_from(&Value::Str("1000 MB/s".into())).unwrap();
        assert_eq!(bw, Throughput::from_bytes_per_sec(1.0e9));
        let mbps = Throughput::try_from(&Value::Str("1 Mbps".into())).unwrap();
        assert_eq!(mbps, Throughput::from_bytes_per_sec(1e6 / 8.0));
        let t = Seconds::try_from(&Value::Str("0.578 s".into())).unwrap();
        assert_eq!(t, Seconds::new(0.578));
        let ms = Seconds::try_from(&Value::Str("2.5 ms".into())).unwrap();
        assert_eq!(ms, Seconds::new(2.5e-3));
    }

    #[test]
    fn bare_numbers_deserialize_in_base_units() {
        assert_eq!(
            Freq::try_from(&Value::Float(150.0e6)).unwrap(),
            Freq::from_mhz(150.0)
        );
        assert_eq!(
            Freq::try_from(&Value::Int(100)).unwrap(),
            Freq::from_hz(100.0)
        );
        assert_eq!(
            Seconds::try_from(&Value::Float(0.578)).unwrap(),
            Seconds::new(0.578)
        );
    }

    #[test]
    fn unknown_units_and_nonfinite_values_rejected() {
        assert!(Freq::try_from(&Value::Str("133 parsecs".into())).is_err());
        assert!(Throughput::try_from(&Value::Str("1 MBps".into())).is_err());
        assert!(Freq::try_from(&Value::Float(f64::NAN)).is_err());
        assert!(Seconds::try_from(&Value::Float(f64::INFINITY)).is_err());
    }

    #[test]
    fn display_prints_table_units() {
        assert_eq!(Freq::from_mhz(150.0).to_string(), "150 MHz");
        assert_eq!(
            Throughput::from_mbytes_per_sec(1000.0).to_string(),
            "1000 MB/s"
        );
        assert_eq!(Seconds::new(0.578).to_string(), "0.578 s");
        assert_eq!(Bytes::new(2048).to_string(), "2048 B");
        assert_eq!(Cycles::new(7).to_string(), "7 cycles");
        assert_eq!(Elements::new(512).to_string(), "512 elements");
    }
}
