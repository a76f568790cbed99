//! The bitonic sorting-network hardware design model.
//!
//! A 4096-key bitonic network is 78 compare-exchange stages deep
//! (`log2(n)(log2(n)+1)/2`). Fully pipelined, it accepts one key per cycle per
//! lane; with 4 parallel input lanes a 4096-key block streams through in
//! ~1024 cycles plus the pipeline depth. That is a *blisteringly* effective
//! compute engine — which is exactly why the sorting case study is
//! interesting: the computation is so cheap that the bus dominates utterly.

use fpga_sim::cache::{SimCache, SimSummary};
use fpga_sim::catalog;
use fpga_sim::pipeline::{PipelineSpec, PipelinedKernel, StallModel};
use fpga_sim::platform::{AppRun, BufferMode, ExecError, Measurement, Platform};
use rat_core::quantity::Freq;
use rat_core::resources::{device, ResourceEstimate, ResourceReport};

use crate::sort::{BLOCK_KEYS, CE_STAGES, TOTAL_KEYS};

/// The bitonic-network design.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitonicDesign;

impl BitonicDesign {
    /// Parallel input lanes (keys accepted per cycle).
    pub const LANES: u32 = 4;

    /// Compare-exchange operations per key (one per network stage).
    pub const OPS_PER_ELEMENT: u64 = CE_STAGES;

    /// Cycle model: each lane retires one key's full set of stage-operations
    /// per cycle once the network is full; the fill is the network depth.
    pub fn pipeline_spec(&self) -> PipelineSpec {
        PipelineSpec {
            lanes: Self::LANES,
            ops_per_lane_cycle: CE_STAGES as u32,
            fill_latency: CE_STAGES, // one cycle per stage to fill
            drain_latency: CE_STAGES,
            stall: StallModel::None, // sorting networks are data-oblivious
        }
    }

    /// The design as a simulator kernel.
    pub fn kernel(&self) -> PipelinedKernel {
        PipelinedKernel::new("bitonic-4096", self.pipeline_spec(), Self::OPS_PER_ELEMENT)
    }

    /// Per-iteration data movement: every key in, every key out.
    pub fn app_run(&self) -> AppRun {
        AppRun::builder()
            .iterations((TOTAL_KEYS / BLOCK_KEYS) as u64)
            .elements_per_iter(BLOCK_KEYS as u64)
            .input_bytes_per_iter((BLOCK_KEYS * 4) as u64)
            .output_bytes_per_iter((BLOCK_KEYS * 4) as u64)
            .buffer_mode(BufferMode::Double)
            .build()
    }

    /// Resource estimate on the LX100: compare-exchange units are pure
    /// logic — 78 stages x 4 lanes x ~25 slices, plus inter-stage registers
    /// folded in, plus block RAM for the two 16 KB ping-pong buffers. No
    /// DSPs at all (comparators don't multiply).
    pub fn resource_estimate(&self) -> ResourceEstimate {
        ResourceEstimate {
            dsp: 0,
            bram: 24 + 16,
            logic: 7_800,
        }
    }

    /// The resource test against the LX100.
    pub fn resource_report(&self) -> ResourceReport {
        ResourceReport::analyze(device::virtex4_lx100(), self.resource_estimate())
    }

    /// Execute on the simulated Nallatech H101 at `fclock_hz`.
    pub fn simulate(&self, fclock_hz: f64) -> Measurement {
        self.try_simulate(fclock_hz)
            .expect("valid run by construction")
    }

    /// [`Self::simulate`], surfacing execution errors (e.g. a non-positive
    /// clock from a user-supplied `--mhz`) instead of panicking.
    pub fn try_simulate(&self, fclock_hz: f64) -> Result<Measurement, ExecError> {
        let platform = Platform::new(catalog::nallatech_h101());
        platform.execute(&self.kernel(), &self.app_run(), Freq::from_hz(fclock_hz))
    }

    /// [`Self::simulate`] memoized through `cache`, returning the scalar
    /// summary.
    pub fn simulate_summary(&self, fclock_hz: f64, cache: Option<&SimCache>) -> SimSummary {
        let platform = Platform::new(catalog::nallatech_h101());
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
    use fpga_sim::kernel::{Batch, HardwareKernel};
    use rat_core::quantity::Cycles;

    #[test]
    fn block_streams_in_about_n_over_lanes_cycles() {
        let k = BitonicDesign.kernel();
        let cycles = k.batch_cycles(&Batch {
            index: 0,
            elements: 4096,
            bytes: 16_384,
        });
        // 4096 keys / 4 lanes = 1024 steady cycles + fill + drain.
        assert_eq!(cycles, Cycles::new(1024 + 78 + 78));
    }

    #[test]
    fn compute_is_trivially_fast_next_to_the_bus() {
        let m = BitonicDesign.simulate(150.0e6);
        // Per iteration: compute ~1180 cycles at 150 MHz ~ 7.9 us; the two
        // 16 KB transfers plus overheads are several times that.
        assert!(
            m.comm_busy.as_secs_f64() > 3.0 * m.compute_busy.as_secs_f64(),
            "comm {} vs comp {}",
            m.comm_busy,
            m.compute_busy
        );
    }

    #[test]
    fn no_dsps_needed() {
        let r = BitonicDesign.resource_report();
        assert_eq!(r.dsp_util, 0.0);
        assert!(r.fits);
        assert_eq!(r.limiting_resource(), "block RAM");
    }
}
