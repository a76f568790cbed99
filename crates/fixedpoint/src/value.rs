//! Fixed-point values and arithmetic.

use crate::format::{Overflow, QFormat, Rounding};
use std::cmp::Ordering;
use std::fmt;

/// A fixed-point value: a raw integer plus the [`QFormat`] that interprets it.
///
/// Arithmetic requires both operands to share a format (mixed-format arithmetic in
/// hardware inserts explicit alignment shifts; model those with [`Fx::requantize`]).
/// All operations take an explicit [`Overflow`] policy so a design can be audited
/// under both saturating and wrapping assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx {
    raw: i64,
    fmt: QFormat,
}

impl Fx {
    /// The zero value in `fmt`.
    pub fn zero(fmt: QFormat) -> Self {
        Self { raw: 0, fmt }
    }

    /// Construct from a raw integer, fitted to `fmt` under `policy`.
    pub fn from_raw(raw: i64, fmt: QFormat, policy: Overflow) -> Self {
        Self {
            raw: fmt.fit_raw(raw, policy),
            fmt,
        }
    }

    /// Quantize an `f64` into `fmt`.
    ///
    /// Non-finite inputs saturate to the nearest extreme (NaN maps to zero), since
    /// hardware datapaths have no NaN representation.
    pub fn from_f64(value: f64, fmt: QFormat, rounding: Rounding, policy: Overflow) -> Self {
        if value.is_nan() {
            return Self::zero(fmt);
        }
        if value.is_infinite() {
            let raw = if value > 0.0 {
                fmt.raw_max()
            } else {
                fmt.raw_min()
            };
            return Self { raw, fmt };
        }
        let scaled = value * (2.0f64).powi(fmt.frac_bits() as i32);
        let rounded = match rounding {
            Rounding::Nearest => {
                // Ties away from zero, matching `f64::round`.
                scaled.round()
            }
            Rounding::Floor => scaled.floor(),
            Rounding::TowardZero => scaled.trunc(),
            Rounding::Ceil => scaled.ceil(),
        };
        // Clamp before the i64 cast: f64 values beyond i64 range are UB-free with
        // `as` (they saturate), but be explicit.
        let raw = if rounded >= i64::MAX as f64 {
            i64::MAX
        } else if rounded <= i64::MIN as f64 {
            i64::MIN
        } else {
            rounded as i64
        };
        Self::from_raw(raw, fmt, policy)
    }

    /// The raw integer representation.
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The format of this value.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// The real value this fixed-point number represents (exact: every raw value
    /// up to 63 bits converts to `f64` with at most one rounding).
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * self.fmt.ulp()
    }

    /// Saturating/wrapping addition. Panics if formats differ.
    pub fn add(self, rhs: Self, policy: Overflow) -> Self {
        self.check_format(rhs, "add");
        // i64 + i64 of ≤63-bit operands cannot overflow i64's 64-bit range only if
        // both fit in 63 bits; use i128 to be exact, then fit.
        let sum = self.raw as i128 + rhs.raw as i128;
        Self::from_raw(clamp_i128(sum), self.fmt, policy)
    }

    /// Saturating/wrapping subtraction. Panics if formats differ.
    pub fn sub(self, rhs: Self, policy: Overflow) -> Self {
        self.check_format(rhs, "sub");
        let diff = self.raw as i128 - rhs.raw as i128;
        Self::from_raw(clamp_i128(diff), self.fmt, policy)
    }

    /// Fixed-point multiplication with the product requantized back into the
    /// operand format: `(a*b) >> frac_bits`, rounded per `rounding`.
    ///
    /// This models the common FPGA datapath where a full-width product feeds a
    /// shifter that renormalizes into the working format.
    pub fn mul(self, rhs: Self, rounding: Rounding, policy: Overflow) -> Self {
        self.check_format(rhs, "mul");
        let product = self.raw as i128 * rhs.raw as i128; // ≤126 bits: exact
        let raw = shift_round(product, self.fmt.frac_bits(), rounding);
        Self::from_raw(clamp_i128(raw), self.fmt, policy)
    }

    /// Multiply-accumulate: `self + a*b`, the fused MAC primitive the paper's PDF
    /// pipelines map onto Xilinx 18x18 MAC blocks.
    pub fn mac(self, a: Self, b: Self, rounding: Rounding, policy: Overflow) -> Self {
        self.check_format(a, "mac");
        let product = a.raw as i128 * b.raw as i128;
        let prod_raw = shift_round(product, self.fmt.frac_bits(), rounding);
        Self::from_raw(clamp_i128(self.raw as i128 + prod_raw), self.fmt, policy)
    }

    /// Negation under `policy` (the minimum signed raw value saturates or wraps).
    pub fn neg(self, policy: Overflow) -> Self {
        Self::from_raw(clamp_i128(-(self.raw as i128)), self.fmt, policy)
    }

    /// Absolute value under `policy`.
    pub fn abs(self, policy: Overflow) -> Self {
        if self.raw < 0 {
            self.neg(policy)
        } else {
            self
        }
    }

    /// Convert this value into another format, re-rounding and re-fitting.
    pub fn requantize(self, fmt: QFormat, rounding: Rounding, policy: Overflow) -> Self {
        let from = self.fmt.frac_bits();
        let to = fmt.frac_bits();
        let raw = if to >= from {
            // Gaining fractional bits is exact while it fits in i128.
            (self.raw as i128) << (to - from)
        } else {
            shift_round(self.raw as i128, from - to, rounding)
        };
        Self::from_raw(clamp_i128(raw), fmt, policy)
    }

    /// Quantization error committed by representing `value` in `fmt`:
    /// `|value - quantized|`.
    pub fn quantization_error(value: f64, fmt: QFormat, rounding: Rounding) -> f64 {
        (value - Self::from_f64(value, fmt, rounding, Overflow::Saturate).to_f64()).abs()
    }

    fn check_format(&self, rhs: Self, op: &str) {
        assert_eq!(
            self.fmt, rhs.fmt,
            "fixed-point {op}: operand formats differ ({} vs {}); requantize first",
            self.fmt, rhs.fmt
        );
    }
}

impl PartialOrd for Fx {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.fmt == other.fmt {
            Some(self.raw.cmp(&other.raw))
        } else {
            self.to_f64().partial_cmp(&other.to_f64())
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.fmt)
    }
}

/// Clamp an i128 into i64 range (values this large always saturate/wrap at the
/// format level anyway; the i64 clamp just avoids an intermediate overflow).
fn clamp_i128(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Arithmetic right shift by `bits` with explicit rounding of the dropped bits.
fn shift_round(v: i128, bits: u32, rounding: Rounding) -> i128 {
    if bits == 0 {
        return v;
    }
    let floor = v >> bits;
    let rem = v - (floor << bits); // in [0, 2^bits)
    if rem == 0 {
        return floor;
    }
    let half = 1i128 << (bits - 1);
    match rounding {
        Rounding::Floor => floor,
        Rounding::Ceil => floor + 1,
        Rounding::TowardZero => {
            if v < 0 {
                floor + 1
            } else {
                floor
            }
        }
        Rounding::Nearest => {
            // Ties away from zero.
            match rem.cmp(&half) {
                Ordering::Less => floor,
                Ordering::Greater => floor + 1,
                Ordering::Equal => {
                    if v >= 0 {
                        floor + 1
                    } else {
                        floor
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32, f: u32) -> QFormat {
        QFormat::signed(i, f).unwrap()
    }

    #[test]
    fn f64_round_trip_exact_values() {
        let fmt = q(3, 8);
        for v in [-8.0, -1.5, 0.0, 0.25, 3.125, 7.99609375] {
            let fx = Fx::from_f64(v, fmt, Rounding::Nearest, Overflow::Saturate);
            assert_eq!(fx.to_f64(), v, "value {v} should be exactly representable");
        }
    }

    #[test]
    fn quantization_rounds_to_nearest() {
        let fmt = q(3, 2); // ulp = 0.25
        let fx = Fx::from_f64(1.1, fmt, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(fx.to_f64(), 1.0);
        let fx = Fx::from_f64(1.13, fmt, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(fx.to_f64(), 1.25);
    }

    #[test]
    fn quantization_floor_vs_ceil() {
        let fmt = q(3, 2);
        assert_eq!(
            Fx::from_f64(1.1, fmt, Rounding::Floor, Overflow::Saturate).to_f64(),
            1.0
        );
        assert_eq!(
            Fx::from_f64(1.1, fmt, Rounding::Ceil, Overflow::Saturate).to_f64(),
            1.25
        );
        assert_eq!(
            Fx::from_f64(-1.1, fmt, Rounding::Floor, Overflow::Saturate).to_f64(),
            -1.25
        );
        assert_eq!(
            Fx::from_f64(-1.1, fmt, Rounding::TowardZero, Overflow::Saturate).to_f64(),
            -1.0
        );
    }

    #[test]
    fn saturation_on_conversion() {
        let fmt = q(1, 2); // range [-2, 1.75]
        assert_eq!(
            Fx::from_f64(5.0, fmt, Rounding::Nearest, Overflow::Saturate).to_f64(),
            1.75
        );
        assert_eq!(
            Fx::from_f64(-5.0, fmt, Rounding::Nearest, Overflow::Saturate).to_f64(),
            -2.0
        );
    }

    #[test]
    fn nan_and_infinities() {
        let fmt = q(1, 2);
        assert_eq!(
            Fx::from_f64(f64::NAN, fmt, Rounding::Nearest, Overflow::Saturate).to_f64(),
            0.0
        );
        assert_eq!(
            Fx::from_f64(f64::INFINITY, fmt, Rounding::Nearest, Overflow::Saturate).to_f64(),
            fmt.max_value()
        );
        assert_eq!(
            Fx::from_f64(
                f64::NEG_INFINITY,
                fmt,
                Rounding::Nearest,
                Overflow::Saturate
            )
            .to_f64(),
            fmt.min_value()
        );
    }

    #[test]
    fn add_sub_exact_within_range() {
        let fmt = q(3, 4);
        let a = Fx::from_f64(1.5, fmt, Rounding::Nearest, Overflow::Saturate);
        let b = Fx::from_f64(2.25, fmt, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(a.add(b, Overflow::Saturate).to_f64(), 3.75);
        assert_eq!(a.sub(b, Overflow::Saturate).to_f64(), -0.75);
    }

    #[test]
    fn add_saturates() {
        let fmt = q(1, 2); // max 1.75
        let a = Fx::from_f64(1.5, fmt, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(a.add(a, Overflow::Saturate).to_f64(), 1.75);
    }

    #[test]
    fn add_wraps() {
        let fmt = q(1, 2); // raw range [-8,7], span 16
        let a = Fx::from_f64(1.5, fmt, Rounding::Nearest, Overflow::Wrap); // raw 6
        let wrapped = a.add(a, Overflow::Wrap); // raw 12 -> -4
        assert_eq!(wrapped.raw(), -4);
        assert_eq!(wrapped.to_f64(), -1.0);
    }

    #[test]
    fn mul_requantizes_product() {
        let fmt = q(3, 4);
        let a = Fx::from_f64(1.5, fmt, Rounding::Nearest, Overflow::Saturate);
        let b = Fx::from_f64(2.5, fmt, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(
            a.mul(b, Rounding::Nearest, Overflow::Saturate).to_f64(),
            3.75
        );
    }

    #[test]
    fn mul_rounding_error_bounded_by_half_ulp() {
        let fmt = q(0, 7);
        let a = Fx::from_f64(0.3, fmt, Rounding::Nearest, Overflow::Saturate);
        let b = Fx::from_f64(0.7, fmt, Rounding::Nearest, Overflow::Saturate);
        let exact = a.to_f64() * b.to_f64();
        let got = a.mul(b, Rounding::Nearest, Overflow::Saturate).to_f64();
        assert!((exact - got).abs() <= fmt.ulp() / 2.0 + 1e-12);
    }

    #[test]
    fn mac_matches_mul_then_add() {
        let fmt = q(4, 8);
        let acc = Fx::from_f64(1.0, fmt, Rounding::Nearest, Overflow::Saturate);
        let a = Fx::from_f64(0.5, fmt, Rounding::Nearest, Overflow::Saturate);
        let b = Fx::from_f64(3.25, fmt, Rounding::Nearest, Overflow::Saturate);
        let via_mac = acc.mac(a, b, Rounding::Nearest, Overflow::Saturate);
        let via_two = acc.add(
            a.mul(b, Rounding::Nearest, Overflow::Saturate),
            Overflow::Saturate,
        );
        assert_eq!(via_mac, via_two);
    }

    #[test]
    fn neg_saturates_minimum() {
        let fmt = q(1, 2);
        let min = Fx::from_f64(-2.0, fmt, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(min.neg(Overflow::Saturate).to_f64(), 1.75);
        assert_eq!(min.neg(Overflow::Wrap).to_f64(), -2.0); // wraps back to itself
    }

    #[test]
    fn requantize_narrower_rounds() {
        let wide = q(3, 8);
        let narrow = q(3, 2);
        let v = Fx::from_f64(1.1015625, wide, Rounding::Nearest, Overflow::Saturate);
        let r = v.requantize(narrow, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(r.to_f64(), 1.0);
    }

    #[test]
    fn requantize_wider_is_exact() {
        let narrow = q(3, 2);
        let wide = q(3, 10);
        let v = Fx::from_f64(1.25, narrow, Rounding::Nearest, Overflow::Saturate);
        let r = v.requantize(wide, Rounding::Nearest, Overflow::Saturate);
        assert_eq!(r.to_f64(), 1.25);
        assert_eq!(r.format(), wide);
    }

    #[test]
    #[should_panic(expected = "operand formats differ")]
    fn mixed_format_add_panics() {
        let a = Fx::zero(q(1, 2));
        let b = Fx::zero(q(1, 3));
        let _ = a.add(b, Overflow::Saturate);
    }

    #[test]
    fn ordering_same_format() {
        let fmt = q(3, 4);
        let a = Fx::from_f64(1.0, fmt, Rounding::Nearest, Overflow::Saturate);
        let b = Fx::from_f64(2.0, fmt, Rounding::Nearest, Overflow::Saturate);
        assert!(a < b);
    }

    #[test]
    fn shift_round_negative_ties() {
        // -1.5 at 1 fractional bit, dropping that bit with Nearest:
        // ties away from zero -> -2.
        assert_eq!(shift_round(-3, 1, Rounding::Nearest), -2);
        assert_eq!(shift_round(3, 1, Rounding::Nearest), 2);
        assert_eq!(shift_round(-3, 1, Rounding::Floor), -2);
        assert_eq!(shift_round(-3, 1, Rounding::Ceil), -1);
        assert_eq!(shift_round(-3, 1, Rounding::TowardZero), -1);
    }
}
