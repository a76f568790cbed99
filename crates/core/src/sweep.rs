//! Parameter sweeps over a RAT input.
//!
//! RAT is applied iteratively across candidate designs and platform
//! assumptions; the paper itself sweeps `f_clock` over 75/100/150 MHz because
//! "a priori estimation of the required clock frequency is very difficult".
//! [`sweep`] generalizes that to any single scalar parameter.

use crate::engine::Engine;
use crate::error::RatError;
use crate::params::RatInput;
use crate::quantity::Freq;
use crate::report::Report;
use crate::solve::batch::{solve_batch_with, BatchPoints};
use crate::table::{sci, TextTable};
use serde::{Deserialize, Serialize};

/// Which scalar input parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SweepParam {
    /// FPGA clock frequency (Hz).
    Fclock,
    /// Host→FPGA sustained fraction.
    AlphaWrite,
    /// FPGA→host sustained fraction.
    AlphaRead,
    /// Both alphas together, preserving their ratio: the swept value is the
    /// new `alpha_write`, and `alpha_read` scales by the same factor. This
    /// models improving the interconnect as a whole (its asymmetry is a
    /// property of the platform, not the knob).
    AlphaBoth,
    /// Operations per cycle.
    ThroughputProc,
    /// Operations per element.
    OpsPerElement,
    /// Elements per input block (values are rounded to integers).
    ElementsIn,
    /// Number of iterations (values are rounded to integers; the total
    /// dataset `elements_in * iterations` changes accordingly).
    Iterations,
}

impl SweepParam {
    /// Human-readable axis label.
    pub fn label(self) -> &'static str {
        match self {
            SweepParam::Fclock => "f_clock (Hz)",
            SweepParam::AlphaWrite => "alpha_write",
            SweepParam::AlphaRead => "alpha_read",
            SweepParam::AlphaBoth => "alpha (both)",
            SweepParam::ThroughputProc => "throughput_proc (ops/cycle)",
            SweepParam::OpsPerElement => "ops/element",
            SweepParam::ElementsIn => "elements_in",
            SweepParam::Iterations => "iterations",
        }
    }

    /// A copy of `input` with this parameter set to `value`.
    pub fn apply(self, input: &RatInput, value: f64) -> RatInput {
        let mut next = input.clone();
        self.apply_into(&mut next, value);
        next
    }

    /// Set this parameter to `value` in place — [`SweepParam::apply`] without
    /// the clone. Hot loops keep one scratch input per worker, restore it
    /// from the base point with [`RatInput::copy_params_from`], and mutate it
    /// here, so a sweep point or Monte-Carlo sample allocates nothing.
    ///
    /// `AlphaBoth` reads the *current* `alpha_write` as the scaling
    /// reference, exactly as chained `apply` calls would.
    pub fn apply_into(self, input: &mut RatInput, value: f64) {
        match self {
            SweepParam::Fclock => input.comp.fclock = Freq::from_hz(value),
            SweepParam::AlphaWrite => input.comm.alpha_write = value,
            SweepParam::AlphaRead => input.comm.alpha_read = value,
            SweepParam::AlphaBoth => {
                let factor = value / input.comm.alpha_write;
                input.comm.alpha_write = value;
                input.comm.alpha_read *= factor;
            }
            SweepParam::ThroughputProc => input.comp.throughput_proc = value,
            SweepParam::OpsPerElement => input.comp.ops_per_element = value,
            SweepParam::ElementsIn => input.dataset.elements_in = value.round().max(1.0) as u64,
            SweepParam::Iterations => input.software.iterations = value.round().max(1.0) as u64,
        }
    }

    /// Read this parameter's current value from `input`.
    pub fn read(self, input: &RatInput) -> f64 {
        match self {
            SweepParam::Fclock => input.comp.fclock.hz(),
            SweepParam::AlphaWrite => input.comm.alpha_write,
            SweepParam::AlphaRead => input.comm.alpha_read,
            SweepParam::AlphaBoth => input.comm.alpha_write,
            SweepParam::ThroughputProc => input.comp.throughput_proc,
            SweepParam::OpsPerElement => input.comp.ops_per_element,
            SweepParam::ElementsIn => input.dataset.elements_in as f64,
            SweepParam::Iterations => input.software.iterations as f64,
        }
    }
}

/// One sweep point: the parameter value and the full report at that value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub value: f64,
    /// The analysis at this value.
    pub report: Report,
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// The swept parameter.
    pub param: SweepParam,
    /// Points in the order requested.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// `(value, speedup)` series, ready for plotting.
    pub fn speedup_series(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.value, p.report.speedup))
            .collect()
    }

    /// The sweep point with the highest speedup, if the sweep is non-empty.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.report.speedup.total_cmp(&b.report.speedup))
    }

    /// The first point (in sweep order) whose speedup meets `target`, if any —
    /// the crossover the designer is usually hunting for.
    pub fn first_meeting(&self, target: f64) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.report.speedup >= target)
    }

    /// Render as a table of value vs t_comm/t_comp/t_RC/speedup.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!("Sweep of {}", self.param.label()))
            .header([self.param.label(), "t_comm", "t_comp", "t_RC", "speedup"]);
        for p in &self.points {
            t.row([
                format!("{:.6}", p.value),
                sci(p.report.throughput.t_comm.seconds()),
                sci(p.report.throughput.t_comp.seconds()),
                sci(p.report.throughput.t_rc.seconds()),
                format!("{:.2}", p.report.speedup),
            ]);
        }
        t.render()
    }
}

/// Sweep `param` over `values`, producing one full report per value.
///
/// Values that make the input invalid (e.g. alpha > 1) are reported as errors
/// rather than skipped, so a scripted exploration can't silently drop points.
pub fn sweep(input: &RatInput, param: SweepParam, values: &[f64]) -> Result<SweepResult, RatError> {
    sweep_with(&Engine::sequential(), input, param, values)
}

/// [`sweep`], with the points analyzed as one column batch on `engine`
/// ([`solve_batch_with`]), so the Eq. (1)–(11) arithmetic runs as columnar
/// loops instead of per-point worksheet calls. Points come back in request
/// order and the lowest-indexed failing point wins error reporting, so
/// output is identical at every thread count — and bit-identical to the
/// per-point pipeline it replaced.
pub fn sweep_with(
    engine: &Engine,
    input: &RatInput,
    param: SweepParam,
    values: &[f64],
) -> Result<SweepResult, RatError> {
    let _span = crate::telemetry::span("sweep");
    let mut batch = BatchPoints::new(input, values.len());
    batch.push_column(param, values);
    let points = solve_batch_with(engine, &batch)?
        .into_iter()
        .zip(values)
        .map(|(report, &value)| SweepPoint { value, report })
        .collect();
    Ok(SweepResult { param, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    #[test]
    fn fclock_sweep_reproduces_table3() {
        let r = sweep(
            &pdf1d_example(),
            SweepParam::Fclock,
            &[75.0e6, 100.0e6, 150.0e6],
        )
        .unwrap();
        let s = r.speedup_series();
        assert_eq!(s.len(), 3);
        assert!((s[0].1 - 5.4).abs() < 0.05);
        assert!((s[2].1 - 10.6).abs() < 0.05);
        assert_eq!(r.best().unwrap().value, 150.0e6);
    }

    #[test]
    fn first_meeting_finds_crossover() {
        let values: Vec<f64> = (1..=30).map(|i| i as f64 * 10.0e6).collect();
        let r = sweep(&pdf1d_example(), SweepParam::Fclock, &values).unwrap();
        let cross = r.first_meeting(10.0).unwrap();
        // Needs ~142 MHz for 10x; first multiple of 10 MHz above that is 150.
        assert_eq!(cross.value, 150.0e6);
        assert_eq!(r.first_meeting(0.5).unwrap().value, values[0]);
        assert!(r.first_meeting(500.0).is_none());
    }

    #[test]
    fn invalid_point_errors_out() {
        let err = sweep(&pdf1d_example(), SweepParam::AlphaWrite, &[0.5, 1.5]);
        assert!(err.is_err(), "alpha 1.5 must fail the sweep");
    }

    #[test]
    fn every_param_applies_and_reads_back() {
        let input = pdf1d_example();
        for param in [
            SweepParam::Fclock,
            SweepParam::AlphaWrite,
            SweepParam::AlphaRead,
            SweepParam::AlphaBoth,
            SweepParam::ThroughputProc,
            SweepParam::OpsPerElement,
            SweepParam::ElementsIn,
            SweepParam::Iterations,
        ] {
            let old = param.read(&input);
            let modified = param.apply(&input, old * 0.5);
            let got = param.read(&modified);
            assert!(
                (got - old * 0.5).abs() / (old * 0.5) < 0.01,
                "{param:?}: applied {} read back {got}",
                old * 0.5
            );
        }
    }

    #[test]
    fn apply_into_on_a_restored_scratch_matches_apply_bit_for_bit() {
        let base = pdf1d_example();
        let mut scratch = base.clone();
        let all = [
            SweepParam::Fclock,
            SweepParam::AlphaWrite,
            SweepParam::AlphaRead,
            SweepParam::AlphaBoth,
            SweepParam::ThroughputProc,
            SweepParam::OpsPerElement,
            SweepParam::ElementsIn,
            SweepParam::Iterations,
        ];
        for param in all {
            let value = param.read(&base) * 0.75;
            let cloned = param.apply(&base, value);
            scratch.copy_params_from(&base);
            param.apply_into(&mut scratch, value);
            assert_eq!(scratch, cloned, "{param:?}");
        }
        // Chained applications agree too (AlphaBoth reads mutated state).
        let chained = SweepParam::AlphaBoth.apply(&SweepParam::AlphaWrite.apply(&base, 0.42), 0.6);
        scratch.copy_params_from(&base);
        SweepParam::AlphaWrite.apply_into(&mut scratch, 0.42);
        SweepParam::AlphaBoth.apply_into(&mut scratch, 0.6);
        assert_eq!(scratch, chained);
    }

    #[test]
    fn throughput_proc_sweep_saturates_at_comm_bound() {
        // As ops/cycle grows, speedup approaches the communication wall.
        let values = [10.0, 100.0, 1000.0, 1e6];
        let r = sweep(&pdf1d_example(), SweepParam::ThroughputProc, &values).unwrap();
        let s = r.speedup_series();
        assert!(
            s.windows(2).all(|w| w[1].1 >= w[0].1),
            "monotone in ops/cycle"
        );
        let wall = crate::solve::max_speedup(&pdf1d_example()).unwrap();
        assert!(s.last().unwrap().1 <= wall);
        assert!(
            s.last().unwrap().1 > wall * 0.99,
            "should approach the wall"
        );
    }

    #[test]
    fn render_contains_each_point() {
        let r = sweep(&pdf1d_example(), SweepParam::Fclock, &[75.0e6, 150.0e6]).unwrap();
        let s = r.render();
        assert_eq!(s.lines().count(), 5); // title + header + rule + 2 rows
    }

    #[test]
    fn empty_sweep_is_legal() {
        let r = sweep(&pdf1d_example(), SweepParam::Fclock, &[]).unwrap();
        assert!(r.points.is_empty());
        assert!(r.best().is_none());
    }
}
