//! Reduced-precision floating-point formats.
//!
//! The paper's PDF case study weighed "18-bit and 32-bit fixed point along
//! with 32-bit floating point" (§4.2). FPGA designs also use custom float
//! widths between those extremes. [`MiniFloat`] models an IEEE-754-style
//! format with arbitrary exponent and mantissa widths by quantizing `f64`
//! values: round the significand to the target mantissa width, clamp the
//! exponent to the target range (with gradual underflow to subnormals). This
//! is exact for every format whose widths are at most `f64`'s own.

use std::fmt;

/// A custom floating-point format: sign bit + `exp_bits` exponent +
/// `mant_bits` explicit mantissa bits.
///
/// `MiniFloat::new(8, 23)` is IEEE binary32; `MiniFloat::new(5, 10)` is
/// binary16; `MiniFloat::new(8, 7)` is bfloat16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MiniFloat {
    exp_bits: u32,
    mant_bits: u32,
}

impl MiniFloat {
    /// Construct a format. Panics unless `1 <= exp_bits <= 11` and
    /// `1 <= mant_bits <= 52` (the ranges representable through `f64`).
    pub fn new(exp_bits: u32, mant_bits: u32) -> Self {
        assert!(
            (1..=11).contains(&exp_bits),
            "exp_bits must be in 1..=11, got {exp_bits}"
        );
        assert!(
            (1..=52).contains(&mant_bits),
            "mant_bits must be in 1..=52, got {mant_bits}"
        );
        Self {
            exp_bits,
            mant_bits,
        }
    }

    /// IEEE-754 binary32 (the paper's "32-bit floating point" candidate).
    pub fn binary32() -> Self {
        Self::new(8, 23)
    }

    /// IEEE-754 binary16.
    pub fn binary16() -> Self {
        Self::new(5, 10)
    }

    /// bfloat16.
    pub fn bfloat16() -> Self {
        Self::new(8, 7)
    }

    /// Exponent field width.
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Explicit mantissa width.
    pub fn mant_bits(&self) -> u32 {
        self.mant_bits
    }

    /// Total storage width: sign + exponent + mantissa.
    pub fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.mant_bits
    }

    /// Exponent bias.
    fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Largest finite value.
    pub fn max_value(&self) -> f64 {
        let emax = self.bias();
        // (2 - 2^-mant) * 2^emax
        (2.0 - (2.0f64).powi(-(self.mant_bits as i32))) * (2.0f64).powi(emax)
    }

    /// Smallest positive normal value.
    pub fn min_positive_normal(&self) -> f64 {
        (2.0f64).powi(1 - self.bias())
    }

    /// Quantize `v` to this format (round to nearest even, gradual underflow,
    /// overflow to infinity — the IEEE defaults hardware float cores follow).
    pub fn quantize(&self, v: f64) -> f64 {
        if v.is_nan() || v == 0.0 {
            return v;
        }
        if v.is_infinite() {
            return v;
        }
        let sign = v.signum();
        let mag = v.abs();
        let emin = 1 - self.bias(); // smallest normal exponent
        let exp = mag.log2().floor() as i32;
        // Effective mantissa resolution: subnormals lose bits below emin.
        let quantum_exp = (exp.max(emin)) - self.mant_bits as i32;
        let quantum = (2.0f64).powi(quantum_exp);
        let rounded = (mag / quantum).round_ties_even() * quantum;
        if rounded > self.max_value() {
            return sign * f64::INFINITY;
        }
        sign * rounded
    }

    /// Quantization relative error bound for normal values: half a unit in
    /// the last place, `2^-(mant_bits+1)`.
    pub fn rel_error_bound(&self) -> f64 {
        (2.0f64).powi(-(self.mant_bits as i32 + 1))
    }
}

impl fmt::Display for MiniFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fp{}(e{}m{})",
            self.total_bits(),
            self.exp_bits,
            self.mant_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary32_round_trips_f32_values() {
        let fmt = MiniFloat::binary32();
        for v in [1.0f32, -0.375, std::f32::consts::PI, 1e-20, 6.5e37] {
            let q = fmt.quantize(v as f64);
            assert_eq!(
                q as f32, v,
                "binary32 quantization should match f32 for {v}"
            );
        }
    }

    #[test]
    fn quantization_error_within_half_ulp_for_normals() {
        let fmt = MiniFloat::binary16();
        for i in 1..1000 {
            let v = i as f64 * 0.00317;
            if v < fmt.min_positive_normal() {
                continue;
            }
            let q = fmt.quantize(v);
            assert!(
                ((q - v) / v).abs() <= fmt.rel_error_bound() * (1.0 + 1e-12),
                "v={v}, q={q}"
            );
        }
    }

    #[test]
    fn overflow_goes_to_infinity() {
        let fmt = MiniFloat::binary16(); // max ~65504
        assert_eq!(fmt.quantize(1e6), f64::INFINITY);
        assert_eq!(fmt.quantize(-1e6), f64::NEG_INFINITY);
        assert!((fmt.max_value() - 65504.0).abs() < 1.0);
    }

    #[test]
    fn subnormals_lose_precision_gradually() {
        let fmt = MiniFloat::binary16();
        let tiny = fmt.min_positive_normal() / 4.0;
        let q = fmt.quantize(tiny);
        // Representable as a subnormal, but with reduced resolution.
        assert!(q > 0.0);
        let rel = ((q - tiny) / tiny).abs();
        assert!(
            rel <= 0.25,
            "subnormal error should stay bounded, got {rel}"
        );
    }

    #[test]
    fn bfloat_is_coarser_than_binary16_in_mantissa() {
        let bf = MiniFloat::bfloat16();
        let f16 = MiniFloat::binary16();
        assert!(bf.rel_error_bound() > f16.rel_error_bound());
        assert!(bf.max_value() > f16.max_value()); // but wider range
    }

    #[test]
    fn zero_nan_inf_pass_through() {
        let fmt = MiniFloat::binary16();
        assert_eq!(fmt.quantize(0.0), 0.0);
        assert!(fmt.quantize(f64::NAN).is_nan());
        assert_eq!(fmt.quantize(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn display_shows_layout() {
        assert_eq!(MiniFloat::binary32().to_string(), "fp32(e8m23)");
        assert_eq!(MiniFloat::bfloat16().to_string(), "fp16(e8m7)");
    }

    #[test]
    #[should_panic(expected = "exp_bits")]
    fn oversized_exponent_panics() {
        MiniFloat::new(12, 10);
    }

    #[test]
    fn widths_accessors() {
        let f = MiniFloat::new(6, 17);
        assert_eq!(f.total_bits(), 24);
        assert_eq!(f.exp_bits(), 6);
        assert_eq!(f.mant_bits(), 17);
    }
}
