//! d-dimensional generalization of the PDF case studies.
//!
//! The Parzen technique "is applicable in an arbitrary number of dimensions"
//! (§5.1), with complexity `O(N n^d)`. The paper stops at d = 2 and already
//! finds the trade inverted: more parallelizable work, less delivered
//! speedup. This module extends the design family to arbitrary `d` so the
//! trend can be charted — and shows where it dies: at d = 3 the bin lattice
//! (256^3 partial sums) no longer fits the LX100's block RAM, so the design
//! fails RAT's *resource* gate before throughput even matters.

use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::resources::{device, estimate, ResourceEstimate, ResourceReport};

use crate::pdf::{BINS, BLOCK};

/// Software cost per (sample, bin) pair on the paper's 3.2 GHz Xeon,
/// calibrated from both published baselines: 0.578 s / (204800 x 256) and
/// 158.8 s / (204800 x 65536) agree at ~1.1e-8 s.
pub const SOFT_SECS_PER_PAIR: f64 = 1.13e-8;

/// Total samples in every configuration (matching the 1-D study).
pub const TOTAL_SAMPLES: u64 = crate::pdf::TOTAL_SAMPLES_1D as u64;

/// A d-dimensional PDF estimation design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdfNdDesign {
    /// Dimensionality (1..=4 supported; beyond that the numbers are absurd).
    pub dims: u32,
    /// Parallel pipelines instantiated.
    pub pipelines: u32,
}

impl PdfNdDesign {
    /// The paper's two published design points.
    pub fn paper_1d() -> Self {
        Self {
            dims: 1,
            pipelines: 8,
        }
    }

    /// The 2-D design point.
    pub fn paper_2d() -> Self {
        Self {
            dims: 2,
            pipelines: 12,
        }
    }

    /// A design point for `dims` dimensions with `pipelines` pipelines.
    /// Panics outside `1..=4` dimensions or with zero pipelines.
    pub fn new(dims: u32, pipelines: u32) -> Self {
        assert!(
            (1..=4).contains(&dims),
            "supported dimensionality is 1..=4, got {dims}"
        );
        assert!(pipelines > 0, "need at least one pipeline");
        Self { dims, pipelines }
    }

    /// Bins in the full lattice: `256^dims`.
    pub fn total_bins(&self) -> u64 {
        (BINS as u64).pow(self.dims)
    }

    /// Operations per (element, bin) pair: one subtract-square per dimension
    /// plus the accumulate chain — `3 * dims` in the paper's convention
    /// (3 ops at d = 1, 6 ops at d = 2).
    pub fn ops_per_pair(&self) -> u64 {
        3 * self.dims as u64
    }

    /// Operations per element: `256^d * 3d` (768 at d = 1, 393216 at d = 2).
    pub fn ops_per_element(&self) -> u64 {
        self.total_bins() * self.ops_per_pair()
    }

    /// Elements per iteration: one 512-sample block per dimension.
    pub fn elements_per_iter(&self) -> u64 {
        self.dims as u64 * BLOCK as u64
    }

    /// Structural peak ops/cycle.
    pub fn structural_ops_per_cycle(&self) -> f64 {
        (self.pipelines as u64 * self.ops_per_pair()) as f64
    }

    /// The worksheet's conservative `throughput_proc`: the paper discounted
    /// 24 -> 20 at d = 1 and 72 -> 48 at d = 2; a flat ~80% discount covers
    /// the family.
    pub fn worksheet_ops_per_cycle(&self) -> f64 {
        (self.structural_ops_per_cycle() * 0.8).floor()
    }

    /// Extrapolated software-baseline time: pairs x calibrated per-pair cost.
    pub fn t_soft(&self) -> f64 {
        TOTAL_SAMPLES as f64 * self.total_bins() as f64 * SOFT_SECS_PER_PAIR
    }

    /// The RAT worksheet input for this design point at `fclock_hz`.
    pub fn rat_input(&self, fclock_hz: f64) -> RatInput {
        RatInput {
            name: format!("{}-D PDF", self.dims),
            dataset: DatasetParams {
                elements_in: self.elements_per_iter(),
                // d = 1 accumulates on-chip (one result element); higher
                // dimensions return the full lattice per iteration, as the
                // 2-D study did.
                elements_out: if self.dims == 1 { 1 } else { self.total_bins() },
                bytes_per_element: 4,
            },
            comm: CommParams {
                ideal_bandwidth: Throughput::from_bytes_per_sec(1.0e9),
                alpha_write: 0.37,
                alpha_read: 0.16,
            },
            comp: CompParams {
                ops_per_element: self.ops_per_element() as f64,
                throughput_proc: self.worksheet_ops_per_cycle(),
                fclock: Freq::from_hz(fclock_hz),
            },
            software: SoftwareParams {
                t_soft: Seconds::new(self.t_soft()),
                iterations: TOTAL_SAMPLES / BLOCK as u64,
            },
            buffering: Buffering::Single,
        }
    }

    /// Resource estimate on the LX100: `dims` MACs per pipeline, the bin
    /// lattice in 18-bit block RAM partials, one kernel LUT per pipeline,
    /// the constant vendor wrapper, and ~(560 + 110*dims) slices/pipeline —
    /// coefficients fitted to the two published design points (Tables 4, 7).
    pub fn resource_estimate(&self) -> ResourceEstimate {
        let dsp = self.pipelines * self.dims;
        let bin_bytes = self.total_bins() * 18 / 8; // 18-bit partials
        let bin_brams = estimate::brams_for_buffer(bin_bytes, estimate::XILINX_BRAM18_BYTES);
        let bram = 24 + self.pipelines + 4 + bin_brams;
        let logic = self.pipelines as u64 * (560 + 110 * self.dims as u64) + 1_200;
        ResourceEstimate { dsp, bram, logic }
    }

    /// The resource test against the LX100.
    pub fn resource_report(&self) -> ResourceReport {
        ResourceReport::analyze(device::virtex4_lx100(), self.resource_estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_core::worksheet::Worksheet;

    #[test]
    fn reduces_to_the_paper_at_d1_and_d2() {
        let d1 = PdfNdDesign::paper_1d();
        assert_eq!(d1.ops_per_element(), 768);
        assert_eq!(d1.worksheet_ops_per_cycle(), 19.0); // paper used 20; 0.8*24
        let d2 = PdfNdDesign::paper_2d();
        assert_eq!(d2.ops_per_element(), 393_216);
        assert_eq!(d2.elements_per_iter(), 1024);
        // 0.8 * 72 = 57.6 -> 57; the paper's 48 was more conservative still.
        assert!(d2.worksheet_ops_per_cycle() >= 48.0);
    }

    #[test]
    fn t_soft_extrapolation_matches_published_baselines() {
        let d1 = PdfNdDesign::paper_1d().t_soft();
        assert!((d1 - 0.578).abs() / 0.578 < 0.05, "d=1 t_soft {d1}");
        let d2 = PdfNdDesign::paper_2d().t_soft();
        assert!((d2 - 158.8).abs() / 158.8 < 0.08, "d=2 t_soft {d2}");
    }

    #[test]
    fn speedup_trend_peaks_early_then_decays() {
        // With the paper's design scaling (pipelines grow modestly with d),
        // predicted speedup drops from d=1 to d=2 — §5.1's punchline —
        // because ops grow 256x per dimension while parallelism grows ~1.5x.
        let s = |design: PdfNdDesign| {
            Worksheet::new(design.rat_input(150.0e6))
                .analyze()
                .unwrap()
                .speedup
        };
        let s1 = s(PdfNdDesign::paper_1d());
        let s2 = s(PdfNdDesign::paper_2d());
        let s3 = s(PdfNdDesign::new(3, 16));
        assert!(s2 < s1, "2-D predicted {s2} should trail 1-D {s1}");
        assert!(
            s3 < s2 * 1.2,
            "3-D gains nothing without massive parallelism: {s3}"
        );
    }

    #[test]
    fn d3_busts_block_ram_on_the_lx100() {
        // 256^3 bins of 18-bit partials = ~37.7 MB >> 240 BRAM18s.
        let d3 = PdfNdDesign::new(3, 16);
        let r = d3.resource_report();
        assert!(!r.fits, "{}", r.render());
        assert_eq!(r.limiting_resource(), "block RAM");
        // d = 1 and d = 2 fit, as the paper measured.
        assert!(PdfNdDesign::paper_1d().resource_report().fits);
        assert!(PdfNdDesign::paper_2d().resource_report().fits);
    }

    #[test]
    fn resource_estimates_track_the_published_tables() {
        let r1 = PdfNdDesign::paper_1d().resource_report();
        assert!(
            (r1.bram_util - 0.15).abs() < 0.02,
            "d=1 BRAM {:.3}",
            r1.bram_util
        );
        let r2 = PdfNdDesign::paper_2d().resource_report();
        assert!(
            (r2.logic_util - 0.21).abs() < 0.05,
            "d=2 slices {:.3}",
            r2.logic_util
        );
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn absurd_dimensionality_panics() {
        PdfNdDesign::new(7, 8);
    }
}
