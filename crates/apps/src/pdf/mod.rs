//! Parzen-window probability-density-function estimation.
//!
//! The Parzen window technique estimates a PDF nonparametrically: every data
//! sample contributes a kernel "bump" at every discrete probability level
//! (bin). Complexity is `O(N·n^d)` for `N` bins per dimension, `n` samples,
//! `d` dimensions — embarrassingly parallel over bins, which is why the paper
//! picks it as a hardware-friendly case study.
//!
//! - [`parzen`]: the reference algorithm in `f64`, any dimension, sequential
//!   and engine-parallel — the software baseline.
//! - [`fixed`]: the 18-bit fixed-point datapath the paper's hardware uses,
//!   bit-accurately modelled with [`fixedpoint`], for the precision test.
//! - [`hw`]: the Figure-3 hardware design (8 parallel MAC pipelines) and its
//!   2-D sibling as simulator kernels plus resource estimates.
//! - [`pdf1d`], [`pdf2d`]: the complete case studies (Table 2/5 inputs,
//!   simulated "actual" runs for Tables 3/6).

pub mod fixed;
pub mod hw;
pub mod ndim;
pub mod parzen;
pub mod pdf1d;
pub mod pdf2d;

/// Number of discrete probability levels per dimension in both case studies.
pub const BINS: usize = 256;

/// Samples processed per iteration (one buffered block), per dimension.
pub const BLOCK: usize = 512;

/// Total samples in the full 1-D problem (400 iterations of 512).
pub const TOTAL_SAMPLES_1D: usize = 204_800;

/// Gaussian kernel bandwidth used by both case studies. Chosen by Silverman's
/// rule of thumb for the bimodal dataset at this scale.
pub const BANDWIDTH: f64 = 0.05;

/// Bin centers: `BINS` points evenly spread across `(-1, 1)`.
pub fn bin_centers() -> Vec<f64> {
    (0..BINS)
        .map(|j| (2.0 * (j as f64 + 0.5) / BINS as f64) - 1.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_centers_span_the_open_interval() {
        let c = bin_centers();
        assert_eq!(c.len(), BINS);
        assert!(c[0] > -1.0 && c[0] < -0.99);
        assert!(c[BINS - 1] < 1.0 && c[BINS - 1] > 0.99);
        // Uniform spacing.
        let step = c[1] - c[0];
        for w in c.windows(2) {
            assert!((w[1] - w[0] - step).abs() < 1e-12);
        }
    }

    #[test]
    fn block_and_iteration_counts_match_the_paper() {
        assert_eq!(TOTAL_SAMPLES_1D / BLOCK, 400);
    }
}
