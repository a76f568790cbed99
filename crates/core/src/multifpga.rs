//! Multi-FPGA (and replicated-kernel) scaling analysis.
//!
//! §6 of the paper flags "systems containing multiple FPGAs being increasingly
//! deployed" as the next target for the methodology. The extension is small
//! but sharp: M devices (or M replicated kernels on one device) divide the
//! computation, but the host interconnect remains **one serialized resource**
//! — the paper's own observation about communication utilization. Scaling
//! therefore saturates at the point where per-iteration channel time exceeds
//! the divided computation time, and the model makes that wall explicit.
//!
//! The same arithmetic covers kernel replication on a single FPGA, which is
//! how the paper reads Table 4's headroom ("potential for further speedup by
//! including additional parallel kernels").
//!
//! ```
//! # use rat_core::quantity::{Freq, Seconds, Throughput};
//! # let mut input = rat_core::params::RatInput {
//! #     name: "demo".into(),
//! #     dataset: rat_core::params::DatasetParams { elements_in: 512, elements_out: 1, bytes_per_element: 4 },
//! #     comm: rat_core::params::CommParams { ideal_bandwidth: Throughput::from_bytes_per_sec(1.0e9), alpha_write: 0.37, alpha_read: 0.16 },
//! #     comp: rat_core::params::CompParams { ops_per_element: 768.0, throughput_proc: 20.0, fclock: Freq::from_mhz(150.0) },
//! #     software: rat_core::params::SoftwareParams { t_soft: Seconds::new(0.578), iterations: 400 },
//! #     buffering: rat_core::params::Buffering::Double,
//! # };
//! use rat_core::multifpga;
//! // Four devices nearly quadruple the compute-bound 1-D PDF...
//! let four = multifpga::analyze(&input, 4).unwrap();
//! assert!(four.efficiency > 0.99);
//! // ...but the shared channel caps the scaling at t_comp/t_comm devices.
//! assert_eq!(multifpga::saturating_devices(&input).unwrap(), 24);
//! ```

use crate::engine::{Engine, PointCost};
use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::Seconds;
use crate::table::{sci, TextTable};
use crate::throughput;

/// The most device counts one scaling curve analyzes. The curve holds one
/// row per count and is built whole before anything prints.
pub const MAX_DEVICES: u32 = 65_536;

/// The scaling prediction for a device count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiFpgaPrediction {
    /// Number of devices (or replicated kernels).
    pub devices: u32,
    /// Per-iteration computation time after division across devices.
    pub t_comp_each: Seconds,
    /// Per-iteration communication time (undivided: the channel is shared).
    pub t_comm: Seconds,
    /// Total RC execution time at steady state (double-buffered overlap
    /// assumed — multi-device deployments exist to overlap).
    pub t_rc: Seconds,
    /// Speedup over the software baseline.
    pub speedup: f64,
    /// Parallel efficiency: achieved speedup relative to `devices` times the
    /// single-device double-buffered speedup.
    pub efficiency: f64,
}

/// A scaling curve across device counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCurve {
    /// One prediction per device count, ascending.
    pub points: Vec<MultiFpgaPrediction>,
}

impl ScalingCurve {
    /// The smallest device count within `tolerance` (fractional) of the
    /// channel-bound speedup wall — adding devices past this point is waste.
    pub fn saturation_point(&self, tolerance: f64) -> Option<u32> {
        let wall = self
            .points
            .last()?
            .speedup
            .max(self.points.iter().map(|p| p.speedup).fold(0.0, f64::max));
        self.points
            .iter()
            .find(|p| p.speedup >= wall * (1.0 - tolerance))
            .map(|p| p.devices)
    }

    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title("Multi-FPGA scaling (shared host channel, double buffered)")
            .header(["Devices", "t_comp/dev", "t_RC", "Speedup", "Efficiency"]);
        for p in &self.points {
            t.row([
                p.devices.to_string(),
                sci(p.t_comp_each.seconds()),
                sci(p.t_rc.seconds()),
                format!("{:.2}", p.speedup),
                format!("{:.0}%", p.efficiency * 100.0),
            ]);
        }
        t.render()
    }
}

/// Predict performance with the computation divided across `devices` FPGAs
/// sharing the host channel. Assumes the workload divides evenly (the paper's
/// data-parallel case studies all do) and steady-state overlap.
pub fn analyze(input: &RatInput, devices: u32) -> Result<MultiFpgaPrediction, RatError> {
    input.validate()?;
    if devices == 0 {
        return Err(RatError::param("device count must be at least 1"));
    }
    let s = &input.software;
    let t_comm = throughput::t_comm(input);
    let t_comp_each = throughput::t_comp(input) / f64::from(devices);
    let t_rc = throughput::rc_seconds(t_comm, t_comp_each, s.iterations, Buffering::Double);
    let speedup = s.t_soft / t_rc;
    let single = s.t_soft / throughput::t_rc_double(input);
    Ok(MultiFpgaPrediction {
        devices,
        t_comp_each,
        t_comm,
        t_rc,
        speedup,
        efficiency: speedup / (f64::from(devices) * single),
    })
}

/// The scaling curve for device counts `1..=max_devices`.
///
/// Errors: a `max_devices` of 0 or above [`MAX_DEVICES`] is an invalid
/// parameter.
pub fn scaling_curve(input: &RatInput, max_devices: u32) -> Result<ScalingCurve, RatError> {
    scaling_curve_with(&Engine::sequential(), input, max_devices)
}

/// [`scaling_curve`], with device counts analyzed in
/// [`Engine::chunk_len`]-sized chunks as independent jobs on `engine`.
/// Chunks fail with the lowest-device-count error, matching the sequential
/// order.
pub fn scaling_curve_with(
    engine: &Engine,
    input: &RatInput,
    max_devices: u32,
) -> Result<ScalingCurve, RatError> {
    let _span = crate::telemetry::span("multi-fpga");
    if max_devices == 0 {
        return Err(RatError::param("device count must be at least 1"));
    }
    if max_devices > MAX_DEVICES {
        return Err(RatError::param(format!(
            "device count {max_devices} exceeds the cap of {MAX_DEVICES}"
        )));
    }
    let n = max_devices as usize;
    let chunk = engine.chunk_len(n, PointCost::FullReport);
    let per_chunk = engine.try_run(n.div_ceil(chunk), |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        (lo..hi)
            .map(|i| analyze(input, i as u32 + 1))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let points = per_chunk.into_iter().flatten().collect();
    Ok(ScalingCurve { points })
}

/// The device count beyond which the shared channel caps speedup: the
/// smallest `M` with `t_comp / M <= t_comm`. Devices beyond this idle on the
/// channel. Returns 1 for already-communication-bound designs.
pub fn saturating_devices(input: &RatInput) -> Result<u32, RatError> {
    input.validate()?;
    let comm = throughput::t_comm(input);
    let comp = throughput::t_comp(input);
    Ok((comp / comm).ceil().max(1.0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    #[test]
    fn one_device_matches_double_buffered_baseline() {
        let input = pdf1d_example();
        let p = analyze(&input, 1).unwrap();
        let db = throughput::t_rc_double(&input);
        assert!(((p.t_rc - db) / db).abs() < 1e-12);
        assert!((p.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_is_linear_until_the_channel_wall() {
        let input = pdf1d_example();
        // t_comp/t_comm = 1.31e-4 / 5.56e-6 ~ 23.6: linear to ~23 devices.
        let sat = saturating_devices(&input).unwrap();
        assert_eq!(sat, 24);
        let curve = scaling_curve(&input, 40).unwrap();
        // Near-perfect efficiency at small counts.
        assert!(
            curve.points[3].efficiency > 0.99,
            "4 devices: {}",
            curve.points[3].efficiency
        );
        // Past the wall, speedup is flat at the comm-bound ceiling.
        let wall =
            input.software.t_soft / (input.software.iterations as f64 * throughput::t_comm(&input));
        let at_40 = curve.points[39].speedup;
        assert!((at_40 - wall).abs() / wall < 1e-9, "{at_40} vs wall {wall}");
        let at_30 = curve.points[29].speedup;
        assert!((at_30 - at_40).abs() / at_40 < 1e-9, "flat past saturation");
    }

    #[test]
    fn efficiency_decays_past_saturation() {
        let curve = scaling_curve(&pdf1d_example(), 48).unwrap();
        let e24 = curve.points[23].efficiency;
        let e48 = curve.points[47].efficiency;
        assert!(
            e48 < e24 * 0.6,
            "48-device efficiency {e48} should collapse vs {e24}"
        );
    }

    #[test]
    fn saturation_point_detection() {
        let curve = scaling_curve(&pdf1d_example(), 40).unwrap();
        let sat = curve.saturation_point(0.01).unwrap();
        assert!((22..=25).contains(&sat), "saturation at {sat}");
    }

    #[test]
    fn comm_bound_design_gains_nothing() {
        let mut input = pdf1d_example();
        input.dataset.elements_out = 65536; // huge read-back per iteration
        let one = analyze(&input, 1).unwrap();
        let eight = analyze(&input, 8).unwrap();
        assert!((one.speedup - eight.speedup).abs() / one.speedup < 1e-9);
        assert_eq!(saturating_devices(&input).unwrap(), 1);
    }

    #[test]
    fn zero_devices_rejected() {
        assert!(analyze(&pdf1d_example(), 0).is_err());
    }

    #[test]
    fn chunked_curve_matches_per_count_analysis() {
        // 130 counts spans three chunks, exercising the chunk seams.
        let input = pdf1d_example();
        let curve = scaling_curve(&input, 130).unwrap();
        assert_eq!(curve.points.len(), 130);
        for (i, p) in curve.points.iter().enumerate() {
            assert_eq!(*p, analyze(&input, i as u32 + 1).unwrap());
        }
    }

    #[test]
    fn render_has_one_row_per_count() {
        let curve = scaling_curve(&pdf1d_example(), 6).unwrap();
        assert_eq!(curve.render().lines().count(), 3 + 6);
    }
}
