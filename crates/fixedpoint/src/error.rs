//! Error statistics for quantized computations.
//!
//! The RAT precision test asks: "is the chosen format's error within tolerance?"
//! [`ErrorStats`] accumulates reference-vs-quantized sample pairs and reports the
//! metrics the paper quotes (the PDF case study kept "maximum error percentage"
//! around 2% for 18-bit fixed point).

/// Accumulated error metrics between a reference (`f64`) computation and its
/// quantized counterpart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorStats {
    count: u64,
    max_abs: f64,
    max_rel: f64,
    sum_sq_err: f64,
    sum_sq_ref: f64,
    sum_abs: f64,
}

impl ErrorStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `(reference, quantized)` sample pair.
    pub fn record(&mut self, reference: f64, quantized: f64) {
        let err = (reference - quantized).abs();
        self.count += 1;
        self.max_abs = self.max_abs.max(err);
        if reference != 0.0 {
            self.max_rel = self.max_rel.max(err / reference.abs());
        }
        self.sum_sq_err += err * err;
        self.sum_sq_ref += reference * reference;
        self.sum_abs += err;
    }

    /// Record every aligned pair from two slices. Panics on length mismatch.
    pub fn record_all(&mut self, reference: &[f64], quantized: &[f64]) {
        assert_eq!(
            reference.len(),
            quantized.len(),
            "reference and quantized sample counts differ"
        );
        for (&r, &q) in reference.iter().zip(quantized) {
            self.record(r, q);
        }
    }

    /// Build stats from two aligned slices.
    pub fn between(reference: &[f64], quantized: &[f64]) -> Self {
        let mut s = Self::new();
        s.record_all(reference, quantized);
        s
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest absolute error seen.
    pub fn max_abs_error(&self) -> f64 {
        self.max_abs
    }

    /// Largest relative error seen (samples with a zero reference are skipped).
    pub fn max_rel_error(&self) -> f64 {
        self.max_rel
    }

    /// Mean absolute error.
    pub fn mean_abs_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    /// Root-mean-square error.
    pub fn rms_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq_err / self.count as f64).sqrt()
        }
    }

    /// Signal-to-noise ratio in dB: `10·log10(Σref² / Σerr²)`.
    ///
    /// Returns `f64::INFINITY` when the error is exactly zero.
    pub fn snr_db(&self) -> f64 {
        if self.sum_sq_err == 0.0 {
            f64::INFINITY
        } else if self.sum_sq_ref == 0.0 {
            f64::NEG_INFINITY
        } else {
            10.0 * (self.sum_sq_ref / self.sum_sq_err).log10()
        }
    }

    /// Whether the maximum relative error is within `tolerance`
    /// (e.g. `0.02` for the paper's ~2% criterion).
    pub fn within_rel_tolerance(&self, tolerance: f64) -> bool {
        self.max_rel <= tolerance
    }

    /// Whether the maximum absolute error is within `tolerance`.
    pub fn within_abs_tolerance(&self, tolerance: f64) -> bool {
        self.max_abs <= tolerance
    }

    /// Merge another accumulator into this one (useful for parallel evaluation).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.max_abs = self.max_abs.max(other.max_abs);
        self.max_rel = self.max_rel.max(other.max_rel);
        self.sum_sq_err += other.sum_sq_err;
        self.sum_sq_ref += other.sum_sq_ref;
        self.sum_abs += other.sum_abs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = ErrorStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max_abs_error(), 0.0);
        assert_eq!(s.rms_error(), 0.0);
        assert_eq!(s.mean_abs_error(), 0.0);
        assert_eq!(s.snr_db(), f64::INFINITY);
    }

    #[test]
    fn single_sample_metrics() {
        let mut s = ErrorStats::new();
        s.record(2.0, 1.9);
        assert!((s.max_abs_error() - 0.1).abs() < 1e-12);
        assert!((s.max_rel_error() - 0.05).abs() < 1e-12);
        assert!((s.rms_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_skips_relative() {
        let mut s = ErrorStats::new();
        s.record(0.0, 0.5);
        assert_eq!(s.max_rel_error(), 0.0);
        assert_eq!(s.max_abs_error(), 0.5);
    }

    #[test]
    fn tolerance_checks() {
        let s = ErrorStats::between(&[1.0, 2.0], &[0.99, 2.01]);
        assert!(s.within_rel_tolerance(0.02));
        assert!(!s.within_rel_tolerance(0.001));
        assert!(s.within_abs_tolerance(0.011));
        assert!(!s.within_abs_tolerance(0.005));
    }

    #[test]
    fn snr_improves_with_smaller_error() {
        let noisy = ErrorStats::between(&[1.0; 100], &[0.9; 100]);
        let clean = ErrorStats::between(&[1.0; 100], &[0.999; 100]);
        assert!(clean.snr_db() > noisy.snr_db());
    }

    #[test]
    fn merge_equals_sequential() {
        let refs = [1.0, 2.0, 3.0, 4.0];
        let quants = [1.1, 1.9, 3.05, 3.9];
        let whole = ErrorStats::between(&refs, &quants);
        let mut a = ErrorStats::between(&refs[..2], &quants[..2]);
        let b = ErrorStats::between(&refs[2..], &quants[2..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.max_abs_error() - whole.max_abs_error()).abs() < 1e-15);
        assert!((a.rms_error() - whole.rms_error()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sample counts differ")]
    fn mismatched_lengths_panic() {
        let mut s = ErrorStats::new();
        s.record_all(&[1.0], &[1.0, 2.0]);
    }
}
