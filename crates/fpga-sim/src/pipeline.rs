//! Pipelined-kernel cycle models.
//!
//! The paper's throughput test reduces a design to "operations per cycle"
//! (`throughput_proc`). A real pipelined design delivers less than its
//! structural peak: the pipeline must fill before the first result, drain after
//! the last, and stalls (memory-bank conflicts, accumulation hazards, control
//! bubbles) insert dead cycles. The 1-D PDF case study's designers cut their
//! estimate from the structural 24 ops/cycle to 20 for exactly these reasons
//! (§4.2), and the measured design achieved ~18.9. [`PipelineSpec`] models that
//! gap explicitly.

use crate::kernel::{Batch, HardwareKernel};
use rat_core::quantity::Cycles;

/// Stall behaviour of a pipelined design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StallModel {
    /// A perfectly scheduled pipeline with no stalls.
    None,
    /// A fixed average number of dead cycles per element (e.g. per-element
    /// bank-conflict or accumulator read-modify-write penalties). Fractional
    /// values model stalls that occur on a fraction of elements; totals are
    /// rounded once per batch, not per element.
    PerElement {
        /// Mean dead cycles added per element.
        cycles: f64,
    },
    /// A global efficiency derate: the pipeline delivers `efficiency` of its
    /// structural throughput (bubbles uniformly distributed). Models
    /// data-dependent designs where stall placement is irregular but the
    /// aggregate rate is stable.
    Efficiency {
        /// Fraction of peak throughput actually delivered, in `(0, 1]`.
        efficiency: f64,
    },
}

impl StallModel {
    fn validate(&self) {
        match *self {
            StallModel::None => {}
            StallModel::PerElement { cycles } => {
                assert!(
                    cycles >= 0.0 && cycles.is_finite(),
                    "stall cycles must be >= 0"
                );
            }
            StallModel::Efficiency { efficiency } => {
                assert!(
                    efficiency > 0.0 && efficiency <= 1.0,
                    "efficiency must be in (0, 1], got {efficiency}"
                );
            }
        }
    }
}

/// Structural description of a pipelined design, sufficient to compute cycle
/// counts for a batch of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSpec {
    /// Number of parallel pipelines (the Figure-3 PDF design instantiates 8).
    pub lanes: u32,
    /// Operations each lane retires per cycle at steady state.
    pub ops_per_lane_cycle: u32,
    /// Cycles from first input to first result (pipeline depth).
    pub fill_latency: u64,
    /// Cycles to flush results after the last input.
    pub drain_latency: u64,
    /// Stall behaviour.
    pub stall: StallModel,
}

impl PipelineSpec {
    /// Structural peak throughput: `lanes * ops_per_lane_cycle`, the number the
    /// paper calls `throughput_proc` for a fully pipelined design.
    pub fn peak_ops_per_cycle(&self) -> u32 {
        self.lanes * self.ops_per_lane_cycle
    }

    /// Cycles to execute `total_ops` operations over `elements` elements,
    /// including fill, drain, and stalls.
    pub fn cycles(&self, total_ops: u64, elements: u64) -> Cycles {
        self.stall.validate();
        let peak = u64::from(self.peak_ops_per_cycle());
        assert!(
            peak > 0,
            "pipeline must have at least one lane and one op/cycle"
        );
        let steady = total_ops.div_ceil(peak);
        let stalled = match self.stall {
            StallModel::None => steady,
            StallModel::PerElement { cycles } => steady + (cycles * elements as f64).round() as u64,
            StallModel::Efficiency { efficiency } => (steady as f64 / efficiency).ceil() as u64,
        };
        Cycles::new(self.fill_latency + stalled + self.drain_latency)
    }

    /// Effective operations per cycle actually delivered for a given workload —
    /// what a hardware counter would report, and the number RAT's
    /// `throughput_proc` tries to predict.
    pub fn effective_ops_per_cycle(&self, total_ops: u64, elements: u64) -> f64 {
        let c = self.cycles(total_ops, elements);
        if c == Cycles::ZERO {
            0.0
        } else {
            total_ops as f64 / c.as_f64()
        }
    }
}

/// A [`HardwareKernel`] built from a [`PipelineSpec`] plus a per-batch workload
/// description (total operations and element count per batch).
#[derive(Debug, Clone)]
pub struct PipelinedKernel {
    name: String,
    spec: PipelineSpec,
    ops_per_element: u64,
}

impl PipelinedKernel {
    /// A kernel executing `ops_per_element` operations for each element of a
    /// batch on the pipeline described by `spec`.
    pub fn new(name: impl Into<String>, spec: PipelineSpec, ops_per_element: u64) -> Self {
        spec.stall.validate();
        assert!(ops_per_element > 0, "ops_per_element must be positive");
        Self {
            name: name.into(),
            spec,
            ops_per_element,
        }
    }

    /// The underlying pipeline description.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Operations executed per element.
    pub fn ops_per_element(&self) -> u64 {
        self.ops_per_element
    }
}

impl HardwareKernel for PipelinedKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn batch_cycles(&self, batch: &Batch) -> Cycles {
        self.spec
            .cycles(self.ops_per_element * batch.elements, batch.elements)
    }

    // Cost depends only on the batch's element count, never its index, so the
    // whole run is index-uniform from the first batch.
    fn uniform_from(&self) -> Option<u64> {
        Some(0)
    }

    fn spec_digest(&self) -> u128 {
        let mut d = crate::digest::SpecDigest::new();
        d.write_str("pipelined");
        d.write_str(&self.name);
        d.write_u64(u64::from(self.spec.lanes));
        d.write_u64(u64::from(self.spec.ops_per_lane_cycle));
        d.write_u64(self.spec.fill_latency);
        d.write_u64(self.spec.drain_latency);
        match self.spec.stall {
            StallModel::None => d.write_tag(0),
            StallModel::PerElement { cycles } => {
                d.write_tag(1);
                d.write_f64(cycles);
            }
            StallModel::Efficiency { efficiency } => {
                d.write_tag(2);
                d.write_f64(efficiency);
            }
        }
        d.write_u64(self.ops_per_element);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdf1d_spec() -> PipelineSpec {
        // The Figure-3 design: 8 pipelines, each retiring 3 ops (sub, mul, add)
        // per cycle; stalls calibrated so the effective rate lands near the
        // measured ~18.9 ops/cycle.
        PipelineSpec {
            lanes: 8,
            ops_per_lane_cycle: 3,
            fill_latency: 18,
            drain_latency: 4,
            stall: StallModel::PerElement { cycles: 8.7 },
        }
    }

    #[test]
    fn peak_is_lanes_times_ops() {
        assert_eq!(pdf1d_spec().peak_ops_per_cycle(), 24);
    }

    #[test]
    fn no_stall_cycles_is_ops_over_peak_plus_latency() {
        let spec = PipelineSpec {
            lanes: 4,
            ops_per_lane_cycle: 2,
            fill_latency: 10,
            drain_latency: 5,
            stall: StallModel::None,
        };
        // 800 ops at 8/cycle = 100 cycles + 15 latency.
        assert_eq!(spec.cycles(800, 100), Cycles::new(115));
        // Non-divisible op counts round up.
        assert_eq!(spec.cycles(801, 100), Cycles::new(116));
    }

    #[test]
    fn per_element_stalls_accumulate() {
        let spec = PipelineSpec {
            lanes: 1,
            ops_per_lane_cycle: 1,
            fill_latency: 0,
            drain_latency: 0,
            stall: StallModel::PerElement { cycles: 2.5 },
        };
        // 100 ops over 10 elements: 100 steady + 25 stall.
        assert_eq!(spec.cycles(100, 10), Cycles::new(125));
    }

    #[test]
    fn efficiency_derate_scales_cycles() {
        let spec = PipelineSpec {
            lanes: 10,
            ops_per_lane_cycle: 5,
            fill_latency: 0,
            drain_latency: 0,
            stall: StallModel::Efficiency { efficiency: 0.5 },
        };
        assert_eq!(spec.cycles(5000, 1), Cycles::new(200)); // 100 steady / 0.5
    }

    #[test]
    fn pdf1d_batch_matches_measured_magnitude() {
        // One 512-element batch, 768 ops/element: the paper measured 1.39e-4 s
        // at 150 MHz = 20850 cycles. The calibrated model must land within 2%.
        let spec = pdf1d_spec();
        let cycles = spec.cycles(512 * 768, 512);
        let measured = 20850.0;
        assert!(
            (cycles.as_f64() - measured).abs() / measured < 0.02,
            "calibrated cycles {cycles} drifted from the paper's 20850"
        );
        let eff = spec.effective_ops_per_cycle(512 * 768, 512);
        assert!(
            eff > 18.0 && eff < 20.0,
            "effective ops/cycle {eff} out of band"
        );
    }

    #[test]
    fn pipelined_kernel_uses_batch_elements() {
        let k = PipelinedKernel::new("k", pdf1d_spec(), 768);
        let small = k.batch_cycles(&Batch {
            index: 0,
            elements: 256,
            bytes: 1024,
        });
        let large = k.batch_cycles(&Batch {
            index: 0,
            elements: 512,
            bytes: 2048,
        });
        assert!(large > small);
        assert_eq!(k.ops_per_element(), 768);
        assert_eq!(k.spec().lanes, 8);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn invalid_efficiency_panics() {
        let spec = PipelineSpec {
            lanes: 1,
            ops_per_lane_cycle: 1,
            fill_latency: 0,
            drain_latency: 0,
            stall: StallModel::Efficiency { efficiency: 1.5 },
        };
        spec.cycles(10, 1);
    }

    #[test]
    fn effective_rate_below_peak_with_stalls() {
        let spec = pdf1d_spec();
        let eff = spec.effective_ops_per_cycle(512 * 768, 512);
        assert!(eff < spec.peak_ops_per_cycle() as f64);
    }
}
