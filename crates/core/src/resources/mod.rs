//! The RAT resource test (§3.3).
//!
//! "Most FPGA designs will be limited in size by the availability of three
//! common resources: on-chip memory, dedicated hardware functional units
//! (e.g. multipliers), and basic logic elements." This module models all
//! three: a device catalog ([`device`]), design-side estimates
//! ([`estimate`]), and the fit/scalability verdict ([`ResourceReport`]).

pub mod device;
pub mod estimate;

pub use device::{FpgaDevice, LogicKind};
pub use estimate::{dsps_for_multiplier, ResourceEstimate};

use crate::table::{pct, TextTable};

/// Logic-utilization fraction above which routing strain makes timing closure
/// unlikely; the paper: "routing strain increases exponentially as logic
/// element utilization approaches maximum. Consequently, it is often unwise
/// (if not impossible) to fill the entire FPGA."
pub const ROUTING_STRAIN_THRESHOLD: f64 = 0.8;

/// Outcome of holding a design's estimate against a device's capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// The device analyzed against.
    pub device: FpgaDevice,
    /// The design's estimated usage.
    pub estimate: ResourceEstimate,
    /// DSP-block utilization fraction.
    pub dsp_util: f64,
    /// Block-RAM utilization fraction.
    pub bram_util: f64,
    /// Logic-element utilization fraction.
    pub logic_util: f64,
    /// Whether every resource fits (all utilizations <= 1).
    pub fits: bool,
    /// Whether logic utilization exceeds [`ROUTING_STRAIN_THRESHOLD`] —
    /// fitting on paper but at risk of failing place-and-route.
    pub routing_strain: bool,
}

/// The DSP, block-RAM and logic utilization fractions of `estimate` on
/// `device`, and whether all three fit (each at most 1). Reads the device
/// by reference, so a search can gate candidates without building a
/// [`ResourceReport`].
pub(crate) fn utilization(device: &FpgaDevice, estimate: &ResourceEstimate) -> ([f64; 3], bool) {
    let dsp = f64::from(estimate.dsp) / f64::from(device.dsp_blocks);
    let bram = f64::from(estimate.bram) / f64::from(device.bram_blocks);
    let logic = estimate.logic as f64 / device.logic_cells as f64;
    (
        [dsp, bram, logic],
        dsp <= 1.0 && bram <= 1.0 && logic <= 1.0,
    )
}

impl ResourceReport {
    /// Run the resource test: compare `estimate` against `device`.
    pub fn analyze(device: FpgaDevice, estimate: ResourceEstimate) -> Self {
        let ([dsp_util, bram_util, logic_util], fits) = utilization(&device, &estimate);
        Self {
            device,
            estimate,
            dsp_util,
            bram_util,
            logic_util,
            fits,
            routing_strain: logic_util > ROUTING_STRAIN_THRESHOLD,
        }
    }

    /// The scaling headroom: how many more copies of the design's *parallel
    /// kernel* could be instantiated before the scarcest resource runs out.
    /// The paper uses this to note that the 1-D PDF's "relatively low resource
    /// usage … illustrates a potential for further speedup by including
    /// additional parallel kernels" while MD "was ultimately limited by the
    /// availability of multiplier resources".
    pub fn replication_headroom(&self) -> f64 {
        let max_util = self.dsp_util.max(self.bram_util).max(self.logic_util);
        if max_util == 0.0 {
            f64::INFINITY
        } else {
            1.0 / max_util
        }
    }

    /// The scarcest resource's name, driving the scalability verdict.
    pub fn limiting_resource(&self) -> &'static str {
        let m = self.dsp_util.max(self.bram_util).max(self.logic_util);
        if m == self.dsp_util {
            "DSP blocks"
        } else if m == self.bram_util {
            "block RAM"
        } else {
            self.device.logic_kind.name()
        }
    }

    /// Render in the paper's Table-4/7/10 layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!("Resource usage ({})", self.device.name))
            .header(["FPGA Resource", "Utilization"]);
        t.row([self.device.dsp_name.to_string(), pct(self.dsp_util)]);
        t.row(["BRAMs".to_string(), pct(self.bram_util)]);
        t.row([
            self.device.logic_kind.name().to_string(),
            pct(self.logic_util),
        ]);
        let verdict = if !self.fits {
            format!("DOES NOT FIT: limited by {}", self.limiting_resource())
        } else if self.routing_strain {
            format!(
                "fits, but logic above {:.0}% — routing strain likely",
                ROUTING_STRAIN_THRESHOLD * 100.0
            )
        } else {
            format!(
                "fits; ~{:.1}x replication headroom (limited by {})",
                self.replication_headroom(),
                self.limiting_resource()
            )
        };
        format!("{}{verdict}\n", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_design_fits_with_headroom() {
        let dev = device::virtex4_lx100();
        let est = ResourceEstimate {
            dsp: 8,
            bram: 36,
            logic: 6000,
        };
        let r = ResourceReport::analyze(dev, est);
        assert!(r.fits);
        assert!(!r.routing_strain);
        assert!(r.replication_headroom() > 2.0);
    }

    #[test]
    fn oversized_design_does_not_fit() {
        let dev = device::virtex4_lx100();
        let est = ResourceEstimate {
            dsp: 200,
            bram: 10,
            logic: 1000,
        };
        let r = ResourceReport::analyze(dev, est);
        assert!(!r.fits);
        assert_eq!(r.limiting_resource(), "DSP blocks");
        assert!(r.render().contains("DOES NOT FIT"));
    }

    #[test]
    fn routing_strain_flagged_above_80_percent_logic() {
        let dev = device::virtex4_lx100();
        let est = ResourceEstimate {
            dsp: 1,
            bram: 1,
            logic: (dev.logic_cells as f64 * 0.85) as u64,
        };
        let r = ResourceReport::analyze(dev, est);
        assert!(r.fits);
        assert!(r.routing_strain);
        assert!(r.render().contains("routing strain"));
    }

    #[test]
    fn headroom_is_inverse_of_max_utilization() {
        let dev = device::virtex4_lx100(); // 96 DSPs
        let est = ResourceEstimate {
            dsp: 48,
            bram: 10,
            logic: 1000,
        };
        let r = ResourceReport::analyze(dev, est);
        assert!((r.replication_headroom() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_design_has_infinite_headroom() {
        let dev = device::virtex4_lx100();
        let r = ResourceReport::analyze(dev, ResourceEstimate::default());
        assert_eq!(r.replication_headroom(), f64::INFINITY);
    }

    #[test]
    fn render_names_device_and_resources() {
        let dev = device::stratix2_ep2s180();
        let est = ResourceEstimate {
            dsp: 700,
            bram: 300,
            logic: 90000,
        };
        let r = ResourceReport::analyze(dev, est);
        let s = r.render();
        assert!(s.contains("EP2S180"));
        assert!(s.contains("9-bit DSPs"));
        assert!(s.contains("ALUTs"));
    }
}
