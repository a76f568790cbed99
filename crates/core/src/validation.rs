//! Prediction-vs-measurement validation.
//!
//! RAT's §4.3 and §5 tables all have the same final act: lay the worksheet's
//! predictions beside measured values and judge the miss. This module is that
//! act as an API — feed it a [`ThroughputPrediction`] and the measurements
//! (from real hardware, or from the `fpga-sim` substitute), get back graded
//! per-metric comparisons. Grades follow the paper's own framing: the
//! designer "must know what order of magnitude speedup ... will be
//! encountered", so an order-of-magnitude hit with a honest error breakdown
//! beats false precision.

use crate::table::{sci, TextTable};
use crate::throughput::ThroughputPrediction;

/// How close a prediction landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grade {
    /// Within 10% — as good as pre-design analysis gets.
    Accurate,
    /// Within 50% — the right planning answer, wrong decimals.
    Good,
    /// Within 10x — the order of magnitude survived.
    OrderOfMagnitude,
    /// More than 10x off — the model missed something structural.
    Poor,
}

impl Grade {
    /// Grade a predicted/measured pair.
    pub fn of(predicted: f64, measured: f64) -> Grade {
        if measured <= 0.0 || predicted <= 0.0 {
            return Grade::Poor;
        }
        let ratio = (predicted / measured).max(measured / predicted);
        if ratio <= 1.10 {
            Grade::Accurate
        } else if ratio <= 1.50 {
            Grade::Good
        } else if ratio <= 10.0 {
            Grade::OrderOfMagnitude
        } else {
            Grade::Poor
        }
    }

    fn label(self) -> &'static str {
        match self {
            Grade::Accurate => "accurate (<=10%)",
            Grade::Good => "good (<=50%)",
            Grade::OrderOfMagnitude => "order-of-magnitude",
            Grade::Poor => "poor (>10x)",
        }
    }
}

/// Measured performance, from hardware or simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPerformance {
    /// Measured per-iteration communication time (s).
    pub t_comm: f64,
    /// Measured per-iteration computation time (s).
    pub t_comp: f64,
    /// Measured total RC execution time (s).
    pub t_rc: f64,
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Metric name.
    pub metric: String,
    /// The worksheet's prediction.
    pub predicted: f64,
    /// The measurement.
    pub measured: f64,
    /// `measured / predicted` — above 1 means the prediction was optimistic
    /// for a time metric.
    pub ratio: f64,
    /// Accuracy grade.
    pub grade: Grade,
}

/// A full prediction-vs-measurement comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Per-metric comparisons: t_comm, t_comp, t_RC, speedup.
    pub rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Compare a prediction against measurements, with `t_soft` supplying the
    /// measured speedup.
    pub fn compare(
        prediction: &ThroughputPrediction,
        measured: &MeasuredPerformance,
        t_soft: f64,
    ) -> Self {
        let row = |metric: &str, p: f64, m: f64| ValidationRow {
            metric: metric.to_string(),
            predicted: p,
            measured: m,
            ratio: m / p,
            grade: Grade::of(p, m),
        };
        let rows = vec![
            row("t_comm", prediction.t_comm.seconds(), measured.t_comm),
            row("t_comp", prediction.t_comp.seconds(), measured.t_comp),
            row("t_RC", prediction.t_rc.seconds(), measured.t_rc),
            row("speedup", prediction.speedup, t_soft / measured.t_rc),
        ];
        Self { rows }
    }

    /// The worst grade across metrics — the headline verdict.
    pub fn overall(&self) -> Grade {
        self.rows
            .iter()
            .map(|r| r.grade)
            .max_by_key(|g| match g {
                Grade::Accurate => 0,
                Grade::Good => 1,
                Grade::OrderOfMagnitude => 2,
                Grade::Poor => 3,
            })
            .unwrap_or(Grade::Accurate)
    }

    /// The metric with the largest miss — where to aim the next
    /// microbenchmark or model refinement.
    pub fn dominant_error(&self) -> Option<&ValidationRow> {
        self.rows
            .iter()
            .filter(|r| r.metric != "t_RC" && r.metric != "speedup") // composites
            .max_by(|a, b| {
                let ra = a.ratio.max(1.0 / a.ratio);
                let rb = b.ratio.max(1.0 / b.ratio);
                ra.total_cmp(&rb)
            })
    }

    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new().title("Prediction vs measurement").header([
            "Metric",
            "Predicted",
            "Measured",
            "Meas/Pred",
            "Grade",
        ]);
        for r in &self.rows {
            t.row([
                r.metric.clone(),
                sci(r.predicted),
                sci(r.measured),
                format!("{:.2}x", r.ratio),
                r.grade.label().to_string(),
            ]);
        }
        let mut s = t.render();
        if let Some(d) = self.dominant_error() {
            s.push_str(&format!(
                "dominant error: {} ({:.2}x) — refine that estimate first\n",
                d.metric, d.ratio
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    /// The paper's Table 3 as a validation report.
    fn table3_report() -> ValidationReport {
        let prediction = ThroughputPrediction::analyze(&pdf1d_example()).unwrap();
        let measured = MeasuredPerformance {
            t_comm: 2.50e-5,
            t_comp: 1.39e-4,
            t_rc: 7.45e-2,
        };
        ValidationReport::compare(&prediction, &measured, 0.578)
    }

    #[test]
    fn grades_follow_thresholds() {
        assert_eq!(Grade::of(1.0, 1.05), Grade::Accurate);
        assert_eq!(Grade::of(1.0, 0.95), Grade::Accurate);
        assert_eq!(Grade::of(1.0, 1.4), Grade::Good);
        assert_eq!(Grade::of(1.0, 4.5), Grade::OrderOfMagnitude);
        assert_eq!(Grade::of(1.0, 20.0), Grade::Poor);
        assert_eq!(Grade::of(0.0, 1.0), Grade::Poor);
    }

    #[test]
    fn table3_grading_matches_the_papers_story() {
        let r = table3_report();
        let by_name = |n: &str| r.rows.iter().find(|row| row.metric == n).unwrap();
        assert_eq!(by_name("t_comp").grade, Grade::Accurate);
        assert_eq!(by_name("t_comm").grade, Grade::OrderOfMagnitude);
        assert_eq!(by_name("speedup").grade, Grade::Good);
        assert_eq!(r.overall(), Grade::OrderOfMagnitude);
    }

    #[test]
    fn dominant_error_is_communication() {
        let r = table3_report();
        let d = r.dominant_error().unwrap();
        assert_eq!(d.metric, "t_comm");
        assert!((d.ratio - 4.5).abs() < 0.1, "comm miss ratio {}", d.ratio);
    }

    #[test]
    fn perfect_measurement_grades_accurate() {
        let prediction = ThroughputPrediction::analyze(&pdf1d_example()).unwrap();
        let measured = MeasuredPerformance {
            t_comm: prediction.t_comm.seconds(),
            t_comp: prediction.t_comp.seconds(),
            t_rc: prediction.t_rc.seconds(),
        };
        let r = ValidationReport::compare(&prediction, &measured, 0.578);
        assert_eq!(r.overall(), Grade::Accurate);
        for row in &r.rows {
            assert!((row.ratio - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn render_includes_grades_and_dominant_error() {
        let s = table3_report().render();
        assert!(s.contains("order-of-magnitude"));
        assert!(s.contains("dominant error: t_comm"));
    }
}
