//! Break-even analysis: is the migration worth the engineering?
//!
//! §1 of the paper frames the decision in exactly these terms: some managers
//! demand 50–100x before approving an FPGA effort, while "other scenarios
//! might place the break-even point (time of development versus time saved at
//! execution) at a more conservative factor of ten or less". This module
//! computes that break-even: given the predicted speedup, the software
//! baseline, and an estimate of the development investment, how many runs —
//! and how much calendar time at a given duty cycle — until the migration
//! pays for itself?

use crate::engine::Engine;
use crate::error::RatError;
use crate::params::RatInput;
use crate::quantity::Seconds;
use crate::solve::batch::{solve_batch_with, BatchPoints};
use crate::sweep::SweepParam;
use crate::table::{sci, TextTable};
use crate::throughput;

/// The development investment and usage profile of a migration project.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Engineering investment, in hours.
    pub development_hours: f64,
    /// How many application runs execute per day once deployed.
    pub runs_per_day: f64,
}

/// The break-even verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEven {
    /// Wall-clock time saved by one accelerated run.
    pub saved_per_run: Seconds,
    /// Runs needed for cumulative savings to cover the development time.
    /// `f64::INFINITY` if the design is a slowdown.
    pub runs_to_break_even: f64,
    /// Calendar days to break even at the given duty cycle.
    pub days_to_break_even: f64,
}

impl MigrationCost {
    /// Reject non-finite or non-positive cost parameters.
    pub fn validate(&self) -> Result<(), RatError> {
        if !(self.development_hours.is_finite() && self.development_hours > 0.0) {
            return Err(RatError::param("development_hours must be positive"));
        }
        if !(self.runs_per_day.is_finite() && self.runs_per_day > 0.0) {
            return Err(RatError::param("runs_per_day must be positive"));
        }
        Ok(())
    }
}

impl BreakEven {
    /// Compute the break-even point for a design under a cost model, with
    /// the RC execution time from [`throughput::t_rc`].
    pub fn analyze(input: &RatInput, cost: &MigrationCost) -> Result<Self, RatError> {
        input.validate()?;
        cost.validate()?;
        let t_rc = throughput::t_rc(input);
        Ok(Self::from_times(input.software.t_soft, t_rc, cost))
    }

    /// The break-even arithmetic given an already-predicted RC execution time.
    /// `cost` must already be validated.
    fn from_times(t_soft: Seconds, t_rc: Seconds, cost: &MigrationCost) -> Self {
        let saved_per_run = t_soft - t_rc;
        let dev_secs = Seconds::new(cost.development_hours * 3600.0);
        let (runs, days) = if saved_per_run <= Seconds::ZERO {
            (f64::INFINITY, f64::INFINITY)
        } else {
            let runs = dev_secs / saved_per_run;
            (runs, runs / cost.runs_per_day)
        };
        Self {
            saved_per_run,
            runs_to_break_even: runs,
            days_to_break_even: days,
        }
    }

    /// Whether the migration pays for itself within `horizon_days`.
    pub fn worth_it_within(&self, horizon_days: f64) -> bool {
        self.days_to_break_even <= horizon_days
    }

    /// Render the verdict.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title("Break-even analysis (development time vs execution time saved)")
            .header(["Metric", "Value"]);
        t.row([
            "time saved per run".to_string(),
            format!("{:.3e} s", self.saved_per_run.seconds()),
        ]);
        t.row([
            "runs to break even".to_string(),
            format!("{:.0}", self.runs_to_break_even),
        ]);
        t.row([
            "days to break even".to_string(),
            format!("{:.1}", self.days_to_break_even),
        ]);
        t.render()
    }
}

/// One point of a break-even sweep: the parameter value and its verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEvenSweepPoint {
    /// The swept parameter's value at this point.
    pub value: f64,
    /// The break-even verdict at this point.
    pub verdict: BreakEven,
}

/// A break-even sweep across one design parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakEvenSweep {
    /// The parameter varied.
    pub param: SweepParam,
    /// One verdict per swept value, in input order.
    pub points: Vec<BreakEvenSweepPoint>,
}

impl BreakEvenSweep {
    /// The smallest swept value whose migration pays off within
    /// `horizon_days`, if any (assumes the sweep is ordered by preference).
    pub fn first_worth_it(&self, horizon_days: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.verdict.worth_it_within(horizon_days))
            .map(|p| p.value)
    }

    /// Render as a table, one row per swept value.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!("Break-even sweep over {}", self.param.label()))
            .header([self.param.label(), "Saved/run", "Runs", "Days"]);
        for p in &self.points {
            t.row([
                sci(p.value),
                format!("{:.3e} s", p.verdict.saved_per_run.seconds()),
                format!("{:.0}", p.verdict.runs_to_break_even),
                format!("{:.1}", p.verdict.days_to_break_even),
            ]);
        }
        t.render()
    }
}

/// Break-even verdicts across a sweep of `param`, sequentially.
pub fn analyze_sweep(
    input: &RatInput,
    param: SweepParam,
    values: &[f64],
    cost: &MigrationCost,
) -> Result<BreakEvenSweep, RatError> {
    analyze_sweep_with(&Engine::sequential(), input, param, values, cost)
}

/// [`analyze_sweep`], with the swept values evaluated as one column batch on
/// `engine` ([`solve_batch_with`]), so the per-point arithmetic is the
/// batched kernel's — bit-identical to [`BreakEven::analyze`] on the
/// materialized input.
pub fn analyze_sweep_with(
    engine: &Engine,
    input: &RatInput,
    param: SweepParam,
    values: &[f64],
    cost: &MigrationCost,
) -> Result<BreakEvenSweep, RatError> {
    let _span = crate::telemetry::span("breakeven-sweep");
    cost.validate()?;
    let mut batch = BatchPoints::new(input, values.len());
    batch.push_column(param, values);
    let points = solve_batch_with(engine, &batch)?
        .into_iter()
        .zip(values)
        .map(|(report, &value)| BreakEvenSweepPoint {
            value,
            verdict: BreakEven::from_times(
                report.input.software.t_soft,
                report.throughput.t_rc,
                cost,
            ),
        })
        .collect();
    Ok(BreakEvenSweep { param, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    fn cost() -> MigrationCost {
        // Three engineer-months at ~21 workdays of 8 hours, heavy usage.
        MigrationCost {
            development_hours: 500.0,
            runs_per_day: 10_000.0,
        }
    }

    #[test]
    fn pdf1d_break_even_numbers() {
        // Saved per run: 0.578 - 0.0546 = 0.523 s; 500 h = 1.8e6 s;
        // ~3.44 million runs, ~344 days at 10k runs/day.
        let be = BreakEven::analyze(&pdf1d_example(), &cost()).unwrap();
        assert!((be.saved_per_run.seconds() - 0.523).abs() < 0.01);
        assert!((be.runs_to_break_even - 3.44e6).abs() / 3.44e6 < 0.02);
        assert!((be.days_to_break_even - 344.0).abs() < 10.0);
        assert!(!be.worth_it_within(100.0));
        assert!(be.worth_it_within(400.0));
    }

    #[test]
    fn slowdown_never_breaks_even() {
        let mut input = pdf1d_example();
        input.comp.throughput_proc = 0.1; // cripple the design: speedup < 1
        let be = BreakEven::analyze(&input, &cost()).unwrap();
        assert!(be.saved_per_run < Seconds::ZERO);
        assert_eq!(be.runs_to_break_even, f64::INFINITY);
        assert!(!be.worth_it_within(1e9));
    }

    #[test]
    fn higher_duty_cycle_breaks_even_sooner() {
        let lazy = BreakEven::analyze(
            &pdf1d_example(),
            &MigrationCost {
                development_hours: 500.0,
                runs_per_day: 100.0,
            },
        )
        .unwrap();
        let busy = BreakEven::analyze(&pdf1d_example(), &cost()).unwrap();
        assert!(busy.days_to_break_even < lazy.days_to_break_even);
        // Runs to break even are duty-cycle independent.
        assert!((busy.runs_to_break_even - lazy.runs_to_break_even).abs() < 1e-6);
    }

    #[test]
    fn invalid_costs_rejected() {
        let bad = MigrationCost {
            development_hours: 0.0,
            runs_per_day: 1.0,
        };
        assert!(BreakEven::analyze(&pdf1d_example(), &bad).is_err());
        let bad = MigrationCost {
            development_hours: 10.0,
            runs_per_day: -1.0,
        };
        assert!(BreakEven::analyze(&pdf1d_example(), &bad).is_err());
    }

    #[test]
    fn sweep_matches_per_point_analyze_bitwise() {
        use crate::sweep::SweepParam;
        let input = pdf1d_example();
        let values: Vec<f64> = (1..=8).map(|i| f64::from(i) * 25.0e6).collect();
        let sweep = analyze_sweep(&input, SweepParam::Fclock, &values, &cost()).unwrap();
        assert_eq!(sweep.points.len(), values.len());
        for (p, &v) in sweep.points.iter().zip(&values) {
            let scalar =
                BreakEven::analyze(&SweepParam::Fclock.apply(&input, v).unwrap(), &cost()).unwrap();
            assert_eq!(p.value, v);
            assert_eq!(p.verdict, scalar, "at fclock {v}");
        }
    }

    #[test]
    fn sweep_surfaces_the_first_invalid_value() {
        use crate::sweep::SweepParam;
        let input = pdf1d_example();
        let err =
            analyze_sweep(&input, SweepParam::AlphaWrite, &[0.5, 2.0, 3.0], &cost()).unwrap_err();
        let scalar = SweepParam::AlphaWrite
            .apply(&input, 2.0)
            .unwrap()
            .validate()
            .unwrap_err();
        assert_eq!(err.to_string(), scalar.to_string());
    }

    #[test]
    fn sweep_finds_the_break_even_frontier() {
        use crate::sweep::SweepParam;
        let input = pdf1d_example();
        let values: Vec<f64> = (1..=12).map(|i| f64::from(i) * 25.0e6).collect();
        let sweep = analyze_sweep(&input, SweepParam::Fclock, &values, &cost()).unwrap();
        // Fast clocks break even sooner, so a generous horizon admits a
        // slower (cheaper) clock than a tight one.
        let tight = sweep.first_worth_it(360.0).unwrap();
        let loose = sweep.first_worth_it(400.0).unwrap();
        assert!(loose <= tight, "loose {loose} vs tight {tight}");
        assert!(sweep.first_worth_it(0.001).is_none());
        assert!(sweep.render().lines().count() == 3 + values.len());
    }

    #[test]
    fn render_contains_the_three_numbers() {
        let s = BreakEven::analyze(&pdf1d_example(), &cost())
            .unwrap()
            .render();
        assert!(s.contains("time saved per run"));
        assert!(s.contains("runs to break even"));
        assert!(s.contains("days to break even"));
    }
}
