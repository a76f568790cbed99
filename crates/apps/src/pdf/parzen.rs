//! Reference Parzen-window estimators in `f64`.
//!
//! These are the software baselines: the algorithm the paper's C code runs on
//! a 3.2 GHz Xeon. Sequential and parallel variants are provided; the
//! parallel ones run as jobs on the analysis [`Engine`]'s worker pool. They
//! exist because a credible modern baseline is multicore, and they let the
//! benchmark harness report how the FPGA-era speedup claims fare against
//! 2026 CPUs.

use rat_core::engine::Engine;

/// 1-D Gaussian kernel value for squared distance `d2` and bandwidth `h`.
#[inline]
pub fn gaussian_kernel(d2: f64, h: f64) -> f64 {
    (-d2 / (2.0 * h * h)).exp() / (h * (std::f64::consts::TAU).sqrt())
}

/// 2-D (isotropic product) Gaussian kernel value for squared distance `d2`
/// and bandwidth `h`. The normalization differs from the 1-D kernel:
/// `1 / (2 pi h^2)`.
#[inline]
pub fn gaussian_kernel_2d(d2: f64, h: f64) -> f64 {
    (-d2 / (2.0 * h * h)).exp() / (std::f64::consts::TAU * h * h)
}

/// 1-D Parzen-window estimate: density at each of `bins` evaluation points
/// from `samples`, bandwidth `h`. Sequential.
pub fn estimate_1d(samples: &[f64], bins: &[f64], h: f64) -> Vec<f64> {
    assert!(h > 0.0, "bandwidth must be positive");
    let norm = 1.0 / samples.len().max(1) as f64;
    bins.iter()
        .map(|&b| {
            samples
                .iter()
                .map(|&x| gaussian_kernel((b - x) * (b - x), h))
                .sum::<f64>()
                * norm
        })
        .collect()
}

/// 1-D Parzen-window estimate, one [`Engine`] job per bin.
pub fn estimate_1d_parallel(samples: &[f64], bins: &[f64], h: f64) -> Vec<f64> {
    assert!(h > 0.0, "bandwidth must be positive");
    let norm = 1.0 / samples.len().max(1) as f64;
    Engine::default().run(bins.len(), |j| {
        let b = bins[j];
        samples
            .iter()
            .map(|&x| gaussian_kernel((b - x) * (b - x), h))
            .sum::<f64>()
            * norm
    })
}

/// 2-D Parzen-window estimate on the `bins_x` x `bins_y` grid (row-major,
/// x-major ordering). Sequential.
pub fn estimate_2d(samples: &[(f64, f64)], bins_x: &[f64], bins_y: &[f64], h: f64) -> Vec<f64> {
    assert!(h > 0.0, "bandwidth must be positive");
    let norm = 1.0 / samples.len().max(1) as f64;
    let mut out = Vec::with_capacity(bins_x.len() * bins_y.len());
    for &bx in bins_x {
        for &by in bins_y {
            let mut acc = 0.0;
            for &(x, y) in samples {
                let d2 = (bx - x) * (bx - x) + (by - y) * (by - y);
                acc += gaussian_kernel_2d(d2, h);
            }
            out.push(acc * norm);
        }
    }
    out
}

/// 2-D Parzen-window estimate, one [`Engine`] job per grid row (`bins_x`
/// value), laid out x-major like [`estimate_2d`].
pub fn estimate_2d_parallel(
    samples: &[(f64, f64)],
    bins_x: &[f64],
    bins_y: &[f64],
    h: f64,
) -> Vec<f64> {
    assert!(h > 0.0, "bandwidth must be positive");
    let norm = 1.0 / samples.len().max(1) as f64;
    let rows = Engine::default().run(bins_x.len(), |r| {
        let bx = bins_x[r];
        bins_y
            .iter()
            .map(|&by| {
                let mut acc = 0.0;
                for &(x, y) in samples {
                    let d2 = (bx - x) * (bx - x) + (by - y) * (by - y);
                    acc += gaussian_kernel_2d(d2, h);
                }
                acc * norm
            })
            .collect::<Vec<f64>>()
    });
    rows.concat()
}

/// Streaming accumulator matching the hardware's iteration structure: bins'
/// partial sums persist across blocks of samples, normalized only at the end.
/// This is how Figure 3's design works — "internal registering for each bin
/// keeps a running total of the impact of all processed elements".
#[derive(Debug, Clone)]
pub struct StreamingEstimator1d {
    bins: Vec<f64>,
    acc: Vec<f64>,
    h: f64,
    seen: u64,
}

impl StreamingEstimator1d {
    /// New estimator over `bins` with bandwidth `h`.
    pub fn new(bins: Vec<f64>, h: f64) -> Self {
        assert!(h > 0.0, "bandwidth must be positive");
        let acc = vec![0.0; bins.len()];
        Self {
            bins,
            acc,
            h,
            seen: 0,
        }
    }

    /// Fold in one block of samples.
    pub fn process_block(&mut self, samples: &[f64]) {
        for (b, a) in self.bins.iter().zip(self.acc.iter_mut()) {
            for &x in samples {
                *a += gaussian_kernel((b - x) * (b - x), self.h);
            }
        }
        self.seen += samples.len() as u64;
    }

    /// Samples folded in so far.
    pub fn samples_seen(&self) -> u64 {
        self.seen
    }

    /// The normalized density estimate.
    pub fn finish(&self) -> Vec<f64> {
        let norm = 1.0 / self.seen.max(1) as f64;
        self.acc.iter().map(|a| a * norm).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::bimodal_samples;
    use crate::pdf::{bin_centers, BANDWIDTH};

    #[test]
    fn density_integrates_to_about_one() {
        let samples = bimodal_samples(4000, 21);
        let bins = bin_centers();
        let pdf = estimate_1d(&samples, &bins, BANDWIDTH);
        let dx = bins[1] - bins[0];
        let integral: f64 = pdf.iter().sum::<f64>() * dx;
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn density_is_nonnegative_and_peaks_at_modes() {
        let samples = bimodal_samples(4000, 22);
        let bins = bin_centers();
        let pdf = estimate_1d(&samples, &bins, BANDWIDTH);
        assert!(pdf.iter().all(|&p| p >= 0.0));
        let at = |c: f64| {
            let idx = bins.iter().position(|&b| (b - c).abs() < 0.01).unwrap();
            pdf[idx]
        };
        assert!(at(-0.4) > at(0.0), "left mode should beat the trough");
        assert!(at(0.45) > at(0.0), "right mode should beat the trough");
    }

    #[test]
    fn parallel_matches_sequential_1d() {
        let samples = bimodal_samples(1000, 23);
        let bins = bin_centers();
        let seq = estimate_1d(&samples, &bins, BANDWIDTH);
        let par = estimate_1d_parallel(&samples, &bins, BANDWIDTH);
        for (s, p) in seq.iter().zip(&par) {
            assert!((s - p).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential_2d() {
        let samples: Vec<(f64, f64)> = crate::datagen::bimodal_samples_2d(300, 24);
        let bx: Vec<f64> = (0..16).map(|i| i as f64 / 8.0 - 1.0).collect();
        let by = bx.clone();
        let seq = estimate_2d(&samples, &bx, &by, BANDWIDTH);
        let par = estimate_2d_parallel(&samples, &bx, &by, BANDWIDTH);
        assert_eq!(seq.len(), 256);
        for (s, p) in seq.iter().zip(&par) {
            assert!((s - p).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_blocks_match_batch() {
        let samples = bimodal_samples(1024, 25);
        let bins = bin_centers();
        let batch = estimate_1d(&samples, &bins, BANDWIDTH);
        let mut stream = StreamingEstimator1d::new(bins, BANDWIDTH);
        for block in samples.chunks(128) {
            stream.process_block(block);
        }
        assert_eq!(stream.samples_seen(), 1024);
        for (b, s) in batch.iter().zip(stream.finish()) {
            assert!((b - s).abs() < 1e-12);
        }
    }

    #[test]
    fn gaussian_kernel_properties() {
        let h = 0.1;
        assert!(gaussian_kernel(0.0, h) > gaussian_kernel(0.01, h));
        assert!(gaussian_kernel(1.0, h) < 1e-10);
        // Peak value is 1/(h*sqrt(2*pi)).
        let peak = gaussian_kernel(0.0, h);
        assert!((peak - 1.0 / (h * (std::f64::consts::TAU).sqrt())).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_give_zero_density() {
        let bins = bin_centers();
        let pdf = estimate_1d(&[], &bins, BANDWIDTH);
        assert!(pdf.iter().all(|&p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        estimate_1d(&[0.0], &[0.0], 0.0);
    }

    #[test]
    fn two_d_grid_is_x_major() {
        // A single sample at (0.9, -0.9): density at grid point (0.9, -0.9)
        // must exceed (−0.9, 0.9), and indexing must find it x-major.
        let bx: Vec<f64> = vec![-0.9, 0.9];
        let by: Vec<f64> = vec![-0.9, 0.9];
        let pdf = estimate_2d(&[(0.9, -0.9)], &bx, &by, 0.1);
        // Layout: [(x0,y0), (x0,y1), (x1,y0), (x1,y1)].
        assert!(pdf[2] > pdf[0]);
        assert!(pdf[2] > pdf[1]);
        assert!(pdf[2] > pdf[3]);
    }
}
