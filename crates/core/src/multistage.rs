//! Multi-kernel application analysis.
//!
//! §6 of the paper: "The current methodology was designed to support
//! applications involving several algorithms, each with their own separate RAT
//! analysis." A real application is often a pipeline of kernels, only some of
//! which migrate to the FPGA; the composite speedup follows Amdahl-style
//! accounting: each FPGA stage contributes its predicted `t_RC`, each
//! stage left in software contributes its software time unchanged.

use crate::error::RatError;
use crate::params::RatInput;
use crate::quantity::Seconds;
use crate::table::{sci, TextTable};
use crate::throughput::{self, ThroughputPrediction};

/// One stage of a multi-kernel application.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A kernel migrated to the FPGA, with its own RAT worksheet. The stage's
    /// software-baseline time is the worksheet's `t_soft`.
    Fpga(RatInput),
    /// A portion left in software: name and its execution time.
    Software {
        /// Stage name.
        name: String,
        /// Execution time.
        t_soft: Seconds,
    },
}

impl Stage {
    fn name(&self) -> &str {
        match self {
            Stage::Fpga(input) => &input.name,
            Stage::Software { name, .. } => name,
        }
    }

    fn t_soft(&self) -> Seconds {
        match self {
            Stage::Fpga(input) => input.software.t_soft,
            Stage::Software { t_soft, .. } => *t_soft,
        }
    }
}

/// Per-stage outcome within a composite analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage name.
    pub name: String,
    /// The stage's software-baseline time.
    pub t_soft: Seconds,
    /// The stage's accelerated time (equals `t_soft` for software stages).
    pub t_accel: Seconds,
    /// The stage's own speedup (1.0 for software stages).
    pub speedup: f64,
    /// Throughput prediction for FPGA stages.
    pub prediction: Option<ThroughputPrediction>,
}

/// The composite analysis of a staged application.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStageReport {
    /// Per-stage results, in pipeline order.
    pub stages: Vec<StageResult>,
    /// Total software-baseline time.
    pub total_soft: Seconds,
    /// Total accelerated time.
    pub total_accel: Seconds,
    /// Composite application speedup.
    pub speedup: f64,
}

impl MultiStageReport {
    /// Amdahl ceiling: the speedup if every FPGA stage became free, bounded by
    /// the software-resident fraction.
    pub fn amdahl_ceiling(&self) -> f64 {
        let resident: Seconds = self
            .stages
            .iter()
            .filter(|s| s.prediction.is_none())
            .map(|s| s.t_soft)
            .sum();
        if resident == Seconds::ZERO {
            f64::INFINITY
        } else {
            self.total_soft / resident
        }
    }

    /// The stage consuming the largest share of accelerated time — the next
    /// migration or optimization target.
    pub fn bottleneck(&self) -> Option<&StageResult> {
        self.stages
            .iter()
            .max_by(|a, b| a.t_accel.seconds().total_cmp(&b.t_accel.seconds()))
    }

    /// Render per-stage and composite rows.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title("Multi-stage application analysis")
            .header(["Stage", "t_soft", "t_accel", "speedup", "where"]);
        for s in &self.stages {
            t.row([
                s.name.clone(),
                sci(s.t_soft.seconds()),
                sci(s.t_accel.seconds()),
                format!("{:.2}", s.speedup),
                if s.prediction.is_some() {
                    "FPGA"
                } else {
                    "CPU"
                }
                .to_string(),
            ]);
        }
        t.row([
            "TOTAL".to_string(),
            sci(self.total_soft.seconds()),
            sci(self.total_accel.seconds()),
            format!("{:.2}", self.speedup),
            String::new(),
        ]);
        format!(
            "{}Amdahl ceiling: {:.1}x\n",
            t.render(),
            self.amdahl_ceiling()
        )
    }
}

/// Analyze a staged application: each FPGA stage gets its own throughput test;
/// software stages pass through.
pub fn analyze(stages: &[Stage]) -> Result<MultiStageReport, RatError> {
    if stages.is_empty() {
        return Err(RatError::param(
            "multi-stage analysis needs at least one stage",
        ));
    }
    let mut results = Vec::with_capacity(stages.len());
    for stage in stages {
        let (t_accel, prediction) = match stage {
            Stage::Fpga(input) => {
                let p = ThroughputPrediction::analyze(input)?;
                (throughput::t_rc(input), Some(p))
            }
            Stage::Software { t_soft, name } => {
                let t = t_soft.seconds();
                if !(t.is_finite() && t > 0.0) {
                    return Err(RatError::quantity(
                        format!("stage.{name}.t_soft"),
                        format!("software stage '{name}' needs a positive t_soft, got {t} s"),
                    ));
                }
                (*t_soft, None)
            }
        };
        results.push(StageResult {
            name: stage.name().to_string(),
            t_soft: stage.t_soft(),
            t_accel,
            speedup: stage.t_soft() / t_accel,
            prediction,
        });
    }
    let total_soft: Seconds = results.iter().map(|s| s.t_soft).sum();
    let total_accel: Seconds = results.iter().map(|s| s.t_accel).sum();
    Ok(MultiStageReport {
        stages: results,
        total_soft,
        total_accel,
        speedup: total_soft / total_accel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    fn two_stage() -> Vec<Stage> {
        vec![
            Stage::Fpga(pdf1d_example()), // 0.578 s -> ~0.0546 s (10.6x)
            Stage::Software {
                name: "post-processing".into(),
                t_soft: Seconds::new(0.2),
            },
        ]
    }

    #[test]
    fn composite_speedup_follows_amdahl() {
        let r = analyze(&two_stage()).unwrap();
        assert!((r.total_soft.seconds() - 0.778).abs() < 1e-9);
        // Accelerated: 0.0546 + 0.2 = 0.2546; speedup ~3.06.
        assert!(
            (r.speedup - 0.778 / 0.2546).abs() < 0.02,
            "speedup {}",
            r.speedup
        );
        // Composite sits between the stage speedups.
        assert!(r.speedup > 1.0 && r.speedup < 10.6);
    }

    #[test]
    fn amdahl_ceiling_bounded_by_software_residue() {
        let r = analyze(&two_stage()).unwrap();
        // Ceiling = 0.778 / 0.2 = 3.89.
        assert!((r.amdahl_ceiling() - 3.89).abs() < 0.01);
        assert!(r.speedup < r.amdahl_ceiling());
    }

    #[test]
    fn all_fpga_stages_have_infinite_ceiling() {
        let r = analyze(&[Stage::Fpga(pdf1d_example())]).unwrap();
        assert_eq!(r.amdahl_ceiling(), f64::INFINITY);
        assert!((r.speedup - 10.6).abs() < 0.05);
    }

    #[test]
    fn bottleneck_is_largest_accelerated_stage() {
        let r = analyze(&two_stage()).unwrap();
        assert_eq!(r.bottleneck().unwrap().name, "post-processing");
    }

    #[test]
    fn software_stage_speedup_is_one() {
        let r = analyze(&two_stage()).unwrap();
        assert_eq!(r.stages[1].speedup, 1.0);
        assert!(r.stages[1].prediction.is_none());
        assert!(r.stages[0].prediction.is_some());
    }

    #[test]
    fn empty_and_invalid_stages_rejected() {
        assert!(analyze(&[]).is_err());
        let bad = vec![Stage::Software {
            name: "x".into(),
            t_soft: Seconds::ZERO,
        }];
        assert!(analyze(&bad).is_err());
    }

    #[test]
    fn render_lists_stages_and_total() {
        let r = analyze(&two_stage()).unwrap();
        let s = r.render();
        assert!(s.contains("1-D PDF"));
        assert!(s.contains("post-processing"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("Amdahl ceiling"));
    }
}
