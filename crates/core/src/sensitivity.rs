//! Local sensitivity analysis of the speedup prediction.
//!
//! The paper's case studies show that RAT's accuracy hinges on a few inputs —
//! communication alphas for the PDF designs, `ops_per_element` for MD. A
//! sensitivity ranking tells the designer *which* estimates deserve the
//! microbenchmarking/measurement effort: a parameter with elasticity near 1
//! moves the prediction one-for-one; one near 0 can stay a guess.

use crate::engine::Engine;
use crate::error::RatError;
use crate::params::RatInput;
use crate::solve::batch::{speedup_batch, BatchPoints};
use crate::sweep::SweepParam;
use crate::table::TextTable;
use crate::throughput;

/// Elasticity of speedup with respect to one parameter:
/// `(d speedup / speedup) / (d p / p)`, estimated by central finite difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// The parameter varied.
    pub param: SweepParam,
    /// Relative elasticity of speedup to this parameter at the input point.
    pub elasticity: f64,
}

/// Sensitivity of speedup to each of the scalar inputs, ranked by magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// Per-parameter elasticities, most influential first.
    pub entries: Vec<Sensitivity>,
}

/// Parameters included in a standard sensitivity scan. `AlphaBoth` is used in
/// place of the two individual alphas' joint effect; the individual alphas are
/// also scanned so asymmetric channels (like the PDF designs' read path) are
/// visible.
pub const SCANNED_PARAMS: [SweepParam; 6] = [
    SweepParam::Fclock,
    SweepParam::AlphaWrite,
    SweepParam::AlphaRead,
    SweepParam::AlphaBoth,
    SweepParam::ThroughputProc,
    SweepParam::OpsPerElement,
];

/// Compute the elasticity of speedup with respect to `param` at `input`,
/// using a central difference with relative step `h` (e.g. `1e-4`).
pub fn elasticity(input: &RatInput, param: SweepParam, h: f64) -> Result<f64, RatError> {
    input.validate()?;
    if !(h.is_finite() && h > 0.0 && h < 0.5) {
        return Err(RatError::param(format!(
            "step h must be in (0, 0.5), got {h}"
        )));
    }
    let p0 = param.read(input);
    // The up/down probe pair is a 2-point batch: same float chain as the old
    // per-point path (bit-identical), and the batch kernel's lowest-index
    // error contract preserves the up-before-down validation order.
    let mut points = BatchPoints::new(input, 2);
    points.push_column(param, vec![p0 * (1.0 + h), p0 * (1.0 - h)]);
    let probes = speedup_batch(&points)?;
    let s0 = throughput::speedup(input);
    let ds = probes[0] - probes[1];
    Ok((ds / s0) / (2.0 * h))
}

/// Scan all of [`SCANNED_PARAMS`] and rank by absolute elasticity.
pub fn analyze(input: &RatInput) -> Result<SensitivityReport, RatError> {
    analyze_with(&Engine::sequential(), input)
}

/// [`analyze`], with each parameter's central-difference probe run as an
/// independent job on `engine`. The rank sort is stable over the fixed scan
/// order, so ties break identically at every thread count.
pub fn analyze_with(engine: &Engine, input: &RatInput) -> Result<SensitivityReport, RatError> {
    let _span = crate::telemetry::span("sensitivity");
    let mut entries = engine.try_run(SCANNED_PARAMS.len(), |i| {
        let param = SCANNED_PARAMS[i];
        Ok(Sensitivity {
            param,
            elasticity: elasticity(input, param, 1e-4)?,
        })
    })?;
    entries.sort_by(|a: &Sensitivity, b: &Sensitivity| {
        b.elasticity.abs().total_cmp(&a.elasticity.abs())
    });
    Ok(SensitivityReport { entries })
}

impl SensitivityReport {
    /// The most influential parameter.
    pub fn dominant(&self) -> Option<&Sensitivity> {
        self.entries.first()
    }

    /// Render as a ranked table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title("Speedup sensitivity (elasticity d ln speedup / d ln p)")
            .header(["Parameter", "Elasticity"]);
        for e in &self.entries {
            t.row([
                format_args!("{}", e.param.label()),
                format_args!("{:+.3}", e.elasticity),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{pdf1d_example, Buffering};

    #[test]
    fn compute_bound_design_is_clock_sensitive() {
        // 1-D PDF at 150 MHz is ~96% compute: elasticity to fclock ~ +0.96,
        // to ops/element ~ -0.96, to alphas ~ +0.04.
        let r = analyze(&pdf1d_example()).unwrap();
        let get = |p: SweepParam| r.entries.iter().find(|e| e.param == p).unwrap().elasticity;
        assert!((get(SweepParam::Fclock) - 0.96).abs() < 0.01);
        assert!((get(SweepParam::ThroughputProc) - 0.96).abs() < 0.01);
        assert!((get(SweepParam::OpsPerElement) + 0.96).abs() < 0.01);
        assert!(get(SweepParam::AlphaBoth) < 0.05);
        assert!(get(SweepParam::AlphaWrite) > get(SweepParam::AlphaRead));
    }

    #[test]
    fn elasticities_of_comm_and_comp_sum_to_one_in_sb() {
        // In SB, t_RC = Niter*(t_comm + t_comp): scaling both comm (via alpha)
        // and comp (via fclock) rates together scales speedup exactly 1:1.
        let r = analyze(&pdf1d_example()).unwrap();
        let get = |p: SweepParam| r.entries.iter().find(|e| e.param == p).unwrap().elasticity;
        let total = get(SweepParam::AlphaBoth) + get(SweepParam::Fclock);
        assert!((total - 1.0).abs() < 1e-3, "got {total}");
    }

    #[test]
    fn dominant_parameter_is_ranked_first() {
        let r = analyze(&pdf1d_example()).unwrap();
        let dom = r.dominant().unwrap();
        assert!(r
            .entries
            .iter()
            .all(|e| e.elasticity.abs() <= dom.elasticity.abs() + 1e-12));
    }

    #[test]
    fn double_buffered_compute_bound_ignores_alpha() {
        // In DB with compute dominant, small alpha changes don't move t_RC at all.
        let input = pdf1d_example().with_buffering(Buffering::Double);
        let e = elasticity(&input, SweepParam::AlphaBoth, 1e-4).unwrap();
        assert!(
            e.abs() < 1e-9,
            "alpha elasticity should vanish under DB, got {e}"
        );
        let ef = elasticity(&input, SweepParam::Fclock, 1e-4).unwrap();
        assert!(
            (ef - 1.0).abs() < 1e-6,
            "clock elasticity should be 1 under DB, got {ef}"
        );
    }

    #[test]
    fn bad_step_rejected() {
        assert!(elasticity(&pdf1d_example(), SweepParam::Fclock, 0.0).is_err());
        assert!(elasticity(&pdf1d_example(), SweepParam::Fclock, 0.9).is_err());
    }

    #[test]
    fn step_near_alpha_bound_errors_not_nans() {
        let mut input = pdf1d_example();
        input.comm.alpha_write = 1.0; // 1.0 * (1+h) exceeds the bound
        let err = elasticity(&input, SweepParam::AlphaWrite, 1e-4);
        assert!(err.is_err());
    }

    #[test]
    fn batched_probes_match_the_scalar_chain_bitwise() {
        let input = pdf1d_example();
        let h = 1e-4;
        for param in SCANNED_PARAMS {
            let p0 = param.read(&input);
            let up = param.apply(&input, p0 * (1.0 + h)).unwrap();
            let down = param.apply(&input, p0 * (1.0 - h)).unwrap();
            let s0 = throughput::speedup(&input);
            let expect = ((throughput::speedup(&up) - throughput::speedup(&down)) / s0) / (2.0 * h);
            let got = elasticity(&input, param, h).unwrap();
            assert_eq!(got.to_bits(), expect.to_bits(), "{param:?}");
        }
    }

    #[test]
    fn render_ranks_entries() {
        let r = analyze(&pdf1d_example()).unwrap();
        let s = r.render();
        assert!(s.contains("Elasticity"));
        assert_eq!(s.lines().count(), 3 + SCANNED_PARAMS.len());
    }
}
