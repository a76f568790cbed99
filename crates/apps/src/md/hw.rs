//! The MD hardware design model — data-dependent cycle counts.
//!
//! Unlike the PDF pipelines, the MD kernel's work is a function of the
//! dataset: each molecule's cycle cost depends on how many neighbors fall
//! inside the cutoff. The design model therefore takes an actual [`System`],
//! counts neighbors with the cell list, converts them to operations with the
//! force kernel's op model, and runs those operations through a pipeline whose
//! structural peak is the paper's tuned 50 ops/cycle — derated by the
//! data-dependent hazards (variable-length neighbor runs, force-accumulation
//! conflicts) that kept the real Impulse-C design at ~61% of that peak
//! (Table 9: measured t_comp 8.79e-1 s vs the 5.37e-1 s the tuned estimate
//! promised at 100 MHz).

use fpga_sim::cache::{SimCache, SimSummary};
use fpga_sim::catalog;
use fpga_sim::kernel::TabulatedKernel;
use fpga_sim::pipeline::{PipelineSpec, StallModel};
use fpga_sim::platform::{AppRun, BufferMode, ExecError, Measurement, Platform};
use rat_core::quantity::Freq;
use rat_core::resources::{device, ResourceEstimate, ResourceReport};

use crate::md::cell_list::neighbor_counts;
use crate::md::forces::total_ops;
use crate::md::system::{System, BYTES_PER_MOLECULE};

/// Structural peak of the force pipeline: the paper's tuned
/// `throughput_proc = 50` ops/cycle, which the RAT inverse solve said a ~10x
/// speedup requires.
pub const PEAK_OPS_PER_CYCLE: u32 = 50;

/// Fraction of the structural peak the design sustains on real data,
/// calibrated to Table 9's measured computation time (8.79e-1 s at 100 MHz
/// over ~2.69e9 operations).
pub const EFFICIENCY: f64 = 0.611;

/// The MD design instantiated over a concrete dataset.
#[derive(Debug, Clone)]
pub struct MdDesign {
    n: usize,
    total_ops: u64,
    mean_near: f64,
}

impl MdDesign {
    /// Build the design model from a system snapshot: counts each molecule's
    /// near neighbors and totals the hardware operations.
    pub fn from_system(system: &System, cutoff: f64) -> Self {
        let counts = neighbor_counts(&system.positions, system.box_len, cutoff);
        let n = system.len();
        let total = total_ops(&counts, n);
        let mean_near = counts.iter().map(|&c| c as f64).sum::<f64>() / n as f64;
        Self {
            n,
            total_ops: total,
            mean_near,
        }
    }

    /// Build the paper-scale design: 16,384 molecules at the standard cutoff.
    /// Costs one full neighbor count (~2.7e8 distance checks); intended for
    /// release-mode table regeneration.
    pub fn paper_scale() -> Self {
        let system = System::random(crate::md::N_MOLECULES, crate::md::BOX_LEN, 0x3d);
        Self::from_system(&system, crate::md::CUTOFF)
    }

    /// Build the paper-scale design analytically: instead of counting
    /// neighbors over the 16,384-particle system, use the uniform-density
    /// expectation `(N-1) * (4/3) pi r_c^3 / V` for the mean near count. Fast
    /// (no O(N^2) pass) and within a fraction of a percent of
    /// [`MdDesign::paper_scale`] — useful for debug builds and quick checks.
    pub fn paper_scale_analytic() -> Self {
        let n = crate::md::N_MOLECULES;
        let rc = crate::md::CUTOFF;
        let vol_frac = (4.0 / 3.0) * std::f64::consts::PI * rc.powi(3) / crate::md::BOX_LEN.powi(3);
        let mean_near = (n as f64 - 1.0) * vol_frac;
        let ops_per_molecule = crate::md::forces::OPS_PER_DISTANT as f64 * (n as f64 - 1.0)
            + crate::md::forces::OPS_PER_NEAR as f64 * mean_near;
        Self {
            n,
            total_ops: (ops_per_molecule * n as f64).round() as u64,
            mean_near,
        }
    }

    /// Molecules in the dataset.
    pub fn molecules(&self) -> usize {
        self.n
    }

    /// Total hardware operations the dataset demands.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Mean near-neighbor count (the data-dependent driver of the workload).
    pub fn mean_near_neighbors(&self) -> f64 {
        self.mean_near
    }

    /// Actual operations per molecule — what the worksheet's 164,000 estimate
    /// is trying to predict.
    pub fn ops_per_element(&self) -> f64 {
        self.total_ops as f64 / self.n as f64
    }

    /// The pipeline's cycle model.
    pub fn pipeline_spec(&self) -> PipelineSpec {
        PipelineSpec {
            lanes: PEAK_OPS_PER_CYCLE,
            ops_per_lane_cycle: 1,
            fill_latency: 64,
            drain_latency: 32,
            stall: StallModel::Efficiency {
                efficiency: EFFICIENCY,
            },
        }
    }

    /// The design as a simulator kernel (single batch covering the whole
    /// system — Table 8's `N_iter = 1`).
    pub fn kernel(&self) -> TabulatedKernel {
        let cycles = self.pipeline_spec().cycles(self.total_ops, self.n as u64);
        TabulatedKernel::new("md-force", vec![cycles.get()])
    }

    /// The platform run: one iteration, full-system transfer in, results
    /// streamed back during computation (the XD1000 design writes forces back
    /// over HyperTransport as they emerge, so the visible communication time
    /// is the input transfer only — Table 9's measured 1.39e-3 s).
    pub fn app_run(&self) -> AppRun {
        AppRun::builder()
            .iterations(1)
            .elements_per_iter(self.n as u64)
            .input_bytes_per_iter(self.n as u64 * BYTES_PER_MOLECULE)
            .output_bytes_per_iter(self.n as u64 * BYTES_PER_MOLECULE)
            .streamed_output(true)
            .buffer_mode(BufferMode::Single)
            .build()
    }

    /// Resource estimate on the EP2S180 (Table 10: the paper reports "a large
    /// percentage of the combinatorial logic and dedicated
    /// multiply-accumulators (DSPs) were required" and that parallelism "was
    /// ultimately limited by the availability of multiplier resources"):
    /// - 96 wide multipliers (36-bit paths through the 12-6 kernel), each
    ///   consuming a full DSP block = 8 nine-bit elements: 768/768 = 100%;
    /// - neighbor/position staging in ~420 M4K blocks (55%);
    /// - ~122,000 ALUTs (85%) of pipeline control and accumulation trees.
    pub fn resource_estimate(&self) -> ResourceEstimate {
        ResourceEstimate {
            dsp: 768,
            bram: 420,
            logic: 122_000,
        }
    }

    /// The resource test against the EP2S180.
    pub fn resource_report(&self) -> ResourceReport {
        ResourceReport::analyze(device::stratix2_ep2s180(), self.resource_estimate())
    }

    /// Execute on the simulated XD1000 at `fclock_hz` ("actual" column of
    /// Table 9).
    pub fn simulate(&self, fclock_hz: f64) -> Measurement {
        self.try_simulate(fclock_hz)
            .expect("valid run by construction")
    }

    /// [`Self::simulate`], surfacing execution errors (e.g. a non-positive
    /// clock from a user-supplied `--mhz`) instead of panicking.
    pub fn try_simulate(&self, fclock_hz: f64) -> Result<Measurement, ExecError> {
        let platform = Platform::new(catalog::xd1000());
        platform.execute(&self.kernel(), &self.app_run(), Freq::from_hz(fclock_hz))
    }

    /// [`Self::simulate`] memoized through `cache`, returning the scalar
    /// summary.
    pub fn simulate_summary(&self, fclock_hz: f64, cache: Option<&SimCache>) -> SimSummary {
        let platform = Platform::new(catalog::xd1000());
        platform
            .execute_summary(
                &self.kernel(),
                &self.app_run(),
                Freq::from_hz(fclock_hz),
                cache,
            )
            .expect("valid run by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down system with the same near-neighbor *density* as the
    /// paper-scale one: N/8 molecules with the cutoff shrunk to keep
    /// mean-near/(N-1) proportionate. Keeps debug-mode tests fast.
    fn small_design() -> MdDesign {
        let system = System::random(2048, 1.0, 0x3d);
        MdDesign::from_system(&system, 0.329)
    }

    #[test]
    fn ops_scale_with_neighbor_counts() {
        let d = small_design();
        // Mean near at N=2048, rc=0.329: (N-1)*4/3 pi rc^3 ~ 305.
        assert!(
            (d.mean_near_neighbors() - 305.0).abs() < 20.0,
            "mean near {}",
            d.mean_near_neighbors()
        );
        // ops/element = 3*2047 + 47*near ~ 20.5k.
        let expect = 3.0 * 2047.0 + 47.0 * d.mean_near_neighbors();
        assert!((d.ops_per_element() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn denser_cutoff_means_more_ops() {
        let system = System::random(1024, 1.0, 0x77);
        let small = MdDesign::from_system(&system, 0.15);
        let large = MdDesign::from_system(&system, 0.35);
        assert!(large.total_ops() > small.total_ops());
        assert_eq!(small.molecules(), 1024);
    }

    #[test]
    fn kernel_cycles_follow_the_efficiency_derate() {
        let d = small_design();
        let cycles = d
            .pipeline_spec()
            .cycles(d.total_ops(), d.molecules() as u64);
        let ideal = d.total_ops() as f64 / PEAK_OPS_PER_CYCLE as f64;
        let ratio = cycles.as_f64() / ideal;
        assert!(
            (ratio - 1.0 / EFFICIENCY).abs() < 0.01,
            "cycle inflation {ratio:.3} should be ~{:.3}",
            1.0 / EFFICIENCY
        );
    }

    #[test]
    fn simulation_is_compute_dominated_with_streamed_writeback() {
        let d = small_design();
        let m = d.simulate(100.0e6);
        assert!(m.compute_busy.as_secs_f64() > 10.0 * m.comm_busy.as_secs_f64());
        assert!(m.streamed_comm > fpga_sim::SimTime::ZERO);
        // Visible comm is the input transfer only.
        let input_s = m.comm_busy.as_secs_f64();
        let expect = 2048.0 * 36.0 / (0.9 * 500.0e6);
        assert!(
            (input_s - expect).abs() / expect < 0.2,
            "input {input_s:.3e} vs {expect:.3e}"
        );
    }

    #[test]
    fn resource_report_shows_dsp_saturation() {
        let d = small_design();
        let r = d.resource_report();
        assert!(r.fits);
        assert_eq!(r.dsp_util, 1.0, "Table 10: DSPs are the wall");
        assert_eq!(r.limiting_resource(), "DSP blocks");
        assert!(r.routing_strain, "85% ALUTs should flag routing strain");
        assert!(r.replication_headroom() <= 1.0 + 1e-12);
    }

    #[test]
    fn app_run_matches_table8_structure() {
        let d = small_design();
        let run = d.app_run();
        assert_eq!(run.iterations, 1);
        assert_eq!(run.input_bytes_per_iter, 2048 * 36);
        assert!(run.streamed_output);
    }

    // The full paper-scale validation (16,384 molecules) lives in the
    // integration suite and the Table-9 reproduction binary, where it runs in
    // release mode.
}
