//! Host-side overhead model.
//!
//! The RAT equations model only bus time and FPGA cycles. Real co-processor
//! loops also pay host costs the analytical model ignores: each vendor-API
//! transfer call crosses the driver, and each kernel invocation writes control
//! registers and then discovers completion with some latency (interrupt or
//! polling quantization). These costs are what pushed the measured 1-D PDF
//! execution time past even its measured communication + computation sum
//! (Table 3: 7.45e-2 s total vs 400 x (2.50e-5 + 1.39e-4) = 6.56e-2 s).

use crate::time::SimTime;

/// Host overheads charged by the platform simulator.
#[derive(Debug, Clone, Copy)]
pub struct HostModel {
    /// Cost of one vendor-API transfer call (driver entry, descriptor build),
    /// charged per transfer *in application loops*. Microbenchmarks time the
    /// bus transfer itself (timers around the DMA), so this cost is invisible
    /// to the alpha-derivation procedure — one of the reasons app communication
    /// exceeds microbenchmark-based predictions.
    pub api_call_overhead: SimTime,
    /// Cost of launching a kernel and detecting its completion (control-register
    /// writes + interrupt latency or polling quantization), charged per
    /// compute invocation.
    pub kernel_sync_overhead: SimTime,
}

impl HostModel {
    /// A host with no overheads (useful for isolating bus/kernel behaviour).
    pub const IDEAL: HostModel = HostModel {
        api_call_overhead: SimTime::ZERO,
        kernel_sync_overhead: SimTime::ZERO,
    };
}

impl Default for HostModel {
    fn default() -> Self {
        Self::IDEAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_host_is_free() {
        assert_eq!(HostModel::IDEAL.api_call_overhead, SimTime::ZERO);
        assert_eq!(HostModel::IDEAL.kernel_sync_overhead, SimTime::ZERO);
        assert_eq!(HostModel::default().api_call_overhead, SimTime::ZERO);
    }
}
