//! Dynamic-range analysis of sample data.
//!
//! Before choosing fractional precision, a designer must size the *integer* field
//! so intermediate values never overflow. [`RangeAnalysis`] scans sample data
//! (inputs, or traced intermediates from a reference run) and reports the minimal
//! integer bit count.

use crate::format::{FormatError, QFormat};

/// Observed dynamic range of a signal.
#[derive(Debug, Clone, Copy)]
pub struct RangeAnalysis {
    min: f64,
    max: f64,
    count: u64,
}

impl Default for RangeAnalysis {
    fn default() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }
}

impl RangeAnalysis {
    /// An empty analysis (no samples observed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one sample. Non-finite samples are ignored.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.count += 1;
    }

    /// Observe every sample in a slice.
    pub fn observe_all(&mut self, values: &[f64]) {
        for &v in values {
            self.observe(v);
        }
    }

    /// Build an analysis from a slice.
    pub fn of(values: &[f64]) -> Self {
        let mut r = Self::new();
        r.observe_all(values);
        r
    }

    /// Smallest observed value, or `None` if no samples were recorded.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value, or `None` if no samples were recorded.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of (finite) samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any observed value is negative (requiring a signed format).
    pub fn needs_sign(&self) -> bool {
        self.count > 0 && self.min < 0.0
    }

    /// Minimal integer bit count so that all observed values fit
    /// (excluding the sign bit; fractional bits do not affect this).
    ///
    /// Returns 0 for data entirely within `(-1, 1)`.
    pub fn required_int_bits(&self) -> u32 {
        if self.count == 0 {
            return 0;
        }
        let mag = self.max.abs().max(if self.min < 0.0 {
            // A signed format with `i` integer bits reaches down to -2^i exactly,
            // so a min of exactly -2^i needs only i bits; nudge by epsilon.
            self.min.abs() * (1.0 - f64::EPSILON)
        } else {
            0.0
        });
        if mag < 1.0 {
            0
        } else {
            (mag.log2().floor() as u32) + 1
        }
    }

    /// Suggest a minimal format with the given fractional precision: signed iff any
    /// sample was negative, integer bits from [`Self::required_int_bits`].
    pub fn suggest_format(&self, frac_bits: u32) -> Result<QFormat, FormatError> {
        if self.needs_sign() {
            QFormat::signed(self.required_int_bits(), frac_bits)
        } else {
            QFormat::unsigned(self.required_int_bits(), frac_bits)
        }
    }

    /// Merge another analysis into this one.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_range() {
        let r = RangeAnalysis::new();
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
        assert_eq!(r.required_int_bits(), 0);
        assert!(!r.needs_sign());
    }

    #[test]
    fn unit_interval_needs_no_int_bits() {
        let r = RangeAnalysis::of(&[0.1, 0.5, 0.999, -0.75]);
        assert_eq!(r.required_int_bits(), 0);
        assert!(r.needs_sign());
    }

    #[test]
    fn int_bits_grow_with_magnitude() {
        assert_eq!(RangeAnalysis::of(&[1.0]).required_int_bits(), 1);
        assert_eq!(RangeAnalysis::of(&[1.99]).required_int_bits(), 1);
        assert_eq!(RangeAnalysis::of(&[2.0]).required_int_bits(), 2);
        assert_eq!(RangeAnalysis::of(&[255.0]).required_int_bits(), 8);
        assert_eq!(RangeAnalysis::of(&[256.0]).required_int_bits(), 9);
    }

    #[test]
    fn exact_negative_power_of_two_fits_signed() {
        // A Q2.x signed format reaches down to exactly -4.0.
        let r = RangeAnalysis::of(&[-4.0, 3.0]);
        assert_eq!(r.required_int_bits(), 2);
        let fmt = r.suggest_format(4).unwrap();
        assert!(fmt.is_signed());
        assert!(fmt.contains(-4.0));
        assert!(fmt.contains(3.0));
    }

    #[test]
    fn suggest_format_unsigned_when_nonnegative() {
        let r = RangeAnalysis::of(&[0.0, 3.5]);
        let fmt = r.suggest_format(8).unwrap();
        assert!(!fmt.is_signed());
        assert_eq!(fmt.int_bits(), 2);
        assert!(fmt.contains(3.5));
    }

    #[test]
    fn suggested_format_always_contains_observed_range() {
        let data = [-7.3, 2.1, 0.0, 5.9, -0.001];
        let r = RangeAnalysis::of(&data);
        let fmt = r.suggest_format(10).unwrap();
        for v in data {
            assert!(fmt.contains(v), "{v} not contained in {fmt}");
        }
    }

    #[test]
    fn non_finite_ignored() {
        let r = RangeAnalysis::of(&[f64::NAN, f64::INFINITY, 1.0]);
        assert_eq!(r.count(), 1);
        assert_eq!(r.max(), Some(1.0));
    }

    #[test]
    fn merge_matches_combined() {
        let a = RangeAnalysis::of(&[1.0, -2.0]);
        let b = RangeAnalysis::of(&[5.0]);
        let mut m = a;
        m.merge(&b);
        let combined = RangeAnalysis::of(&[1.0, -2.0, 5.0]);
        assert_eq!(m.min(), combined.min());
        assert_eq!(m.max(), combined.max());
        assert_eq!(m.count(), combined.count());
    }
}
