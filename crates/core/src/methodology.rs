//! The RAT methodology flow (the paper's Figure 1) as an executable state
//! machine.
//!
//! RAT is applied *iteratively*: identify the kernel, put the design on paper,
//! run the throughput test; on failure, revise; then the precision test; then
//! build and simulate, run the resource test; then verify on hardware. Each
//! test can bounce the designer back to a new design. [`AmenabilityTest`]
//! drives one pass through the three tests and reports which gate failed (if
//! any), with the reason, so a design-space loop can be scripted around it.

use crate::error::RatError;
use crate::params::RatInput;
use crate::precision::PrecisionReport;
use crate::resources::ResourceReport;
use crate::throughput::ThroughputPrediction;

/// The designer's requirements, against which the three tests are judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Requirements {
    /// Minimum acceptable speedup. The paper's §1 surveys the range: 50–100x
    /// to impress "middle management", ~10x for a break-even migration, ~1x
    /// for power-constrained embedded work.
    pub min_speedup: f64,
    /// Whether designs flagged for routing strain (logic > 80%) are rejected.
    pub reject_routing_strain: bool,
}

impl Default for Requirements {
    fn default() -> Self {
        Self {
            min_speedup: 10.0,
            reject_routing_strain: false,
        }
    }
}

/// Why a pass through the methodology bounced back to redesign
/// (the red arrows in Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Bounce {
    /// "Insufficient comm. or comp. throughput": the predicted speedup misses
    /// the requirement.
    InsufficientThroughput {
        /// Predicted speedup.
        predicted: f64,
        /// Required speedup.
        required: f64,
    },
    /// "Unrealizable precision requirement": no candidate format met the error
    /// tolerance.
    UnrealizablePrecision,
    /// "Insufficient resources": the design does not fit the device (or
    /// strains routing, if the requirements reject that).
    InsufficientResources {
        /// The resource that ran out.
        limiting: String,
    },
}

/// The verdict of one methodology pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// All gates passed: "PROCEED" to hardware implementation.
    Proceed,
    /// A gate failed: revise the design (paper's "NEW" loop back).
    Revise(Bounce),
}

/// Result of driving a design through the Figure-1 flow.
#[derive(Debug, Clone, PartialEq)]
pub struct AmenabilityReport {
    /// Throughput-test outputs (always runs first).
    pub throughput: ThroughputPrediction,
    /// Precision-test outputs, if the flow reached it.
    pub precision: Option<PrecisionReport>,
    /// Resource-test outputs, if the flow reached it.
    pub resources: Option<ResourceReport>,
    /// The verdict.
    pub verdict: Verdict,
}

impl AmenabilityReport {
    /// Whether the design may proceed to hardware.
    pub fn proceed(&self) -> bool {
        matches!(self.verdict, Verdict::Proceed)
    }

    /// Render the pass as a Figure-1-style checklist.
    pub fn render(&self) -> String {
        let mut out = String::from("RAT methodology pass:\n");
        let check = |ok: bool| if ok { "[PASS]" } else { "[FAIL]" };
        let thr_ok = !matches!(
            self.verdict,
            Verdict::Revise(Bounce::InsufficientThroughput { .. })
        );
        out.push_str(&format!(
            "  {} Throughput test   speedup {:.1}\n",
            check(thr_ok),
            self.throughput.speedup
        ));
        match &self.precision {
            Some(p) => {
                let ok = p.chosen.is_some();
                let label = p
                    .chosen_candidate()
                    .map(|c| c.format.to_string())
                    .unwrap_or_else(|| "no acceptable format".into());
                out.push_str(&format!("  {} Precision test    {}\n", check(ok), label));
            }
            None => out.push_str("  [----] Precision test    (not reached)\n"),
        }
        match &self.resources {
            Some(r) => {
                let ok = !matches!(
                    self.verdict,
                    Verdict::Revise(Bounce::InsufficientResources { .. })
                );
                out.push_str(&format!(
                    "  {} Resource test     limited by {}\n",
                    check(ok),
                    r.limiting_resource()
                ));
            }
            None => out.push_str("  [----] Resource test     (not reached)\n"),
        }
        out.push_str(match &self.verdict {
            Verdict::Proceed => "  => PROCEED: verify on HW platform\n",
            Verdict::Revise(_) => "  => REVISE: return to design on paper\n",
        });
        out
    }
}

/// One pass of the Figure-1 flow over a candidate design.
pub struct AmenabilityTest {
    input: RatInput,
    requirements: Requirements,
    precision: Option<PrecisionReport>,
    resources: Option<ResourceReport>,
}

impl AmenabilityTest {
    /// Start a pass for `input` under `requirements`.
    pub fn new(input: RatInput, requirements: Requirements) -> Self {
        Self {
            input,
            requirements,
            precision: None,
            resources: None,
        }
    }

    /// Attach the precision-test result (run the workload evaluation with
    /// [`crate::precision::precision_test`] first). Optional: skipping it
    /// models a design whose precision is already settled.
    pub fn with_precision(mut self, report: PrecisionReport) -> Self {
        self.precision = Some(report);
        self
    }

    /// Attach the resource-test result. Optional, with the same caveat the
    /// paper gives: skipping resource checks risks unrealizable designs.
    pub fn with_resources(mut self, report: ResourceReport) -> Self {
        self.resources = Some(report);
        self
    }

    /// Run the gates in the paper's order and produce the verdict.
    pub fn evaluate(self) -> Result<AmenabilityReport, RatError> {
        let throughput = ThroughputPrediction::analyze(&self.input)?;
        let verdict =
            if throughput.speedup < self.requirements.min_speedup {
                Verdict::Revise(Bounce::InsufficientThroughput {
                    predicted: throughput.speedup,
                    required: self.requirements.min_speedup,
                })
            } else if self.precision.as_ref().is_some_and(|p| p.chosen.is_none()) {
                Verdict::Revise(Bounce::UnrealizablePrecision)
            } else if let Some(r) = self.resources.as_ref().filter(|r| {
                !r.fits || (self.requirements.reject_routing_strain && r.routing_strain)
            }) {
                Verdict::Revise(Bounce::InsufficientResources {
                    limiting: r.limiting_resource().to_string(),
                })
            } else {
                Verdict::Proceed
            };
        Ok(AmenabilityReport {
            throughput,
            precision: self.precision,
            resources: self.resources,
            verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;
    use crate::resources::{device, ResourceEstimate, ResourceReport};

    fn reqs(min_speedup: f64) -> Requirements {
        Requirements {
            min_speedup,
            reject_routing_strain: false,
        }
    }

    #[test]
    fn pdf1d_at_150mhz_proceeds_for_10x() {
        let report = AmenabilityTest::new(pdf1d_example(), reqs(10.0))
            .evaluate()
            .unwrap();
        assert!(report.proceed());
        assert!(report.render().contains("PROCEED"));
    }

    #[test]
    fn pdf1d_at_75mhz_bounces_on_throughput() {
        let input = pdf1d_example().with_fclock(crate::quantity::Freq::from_mhz(75.0)); // speedup 5.4
        let report = AmenabilityTest::new(input, reqs(10.0)).evaluate().unwrap();
        assert!(matches!(
            report.verdict,
            Verdict::Revise(Bounce::InsufficientThroughput { predicted, required })
                if predicted < 6.0 && required == 10.0
        ));
        assert!(report.render().contains("REVISE"));
    }

    #[test]
    fn resource_gate_bounces_oversized_design() {
        let est = ResourceEstimate {
            dsp: 1000,
            bram: 0,
            logic: 0,
        };
        let rr = ResourceReport::analyze(device::virtex4_lx100(), est);
        let report = AmenabilityTest::new(pdf1d_example(), reqs(5.0))
            .with_resources(rr)
            .evaluate()
            .unwrap();
        assert!(matches!(
            report.verdict,
            Verdict::Revise(Bounce::InsufficientResources { ref limiting }) if limiting == "DSP blocks"
        ));
    }

    #[test]
    fn routing_strain_bounces_only_when_rejected() {
        let dev = device::virtex4_lx100();
        let est = ResourceEstimate {
            dsp: 1,
            bram: 1,
            logic: 45_000,
        }; // >80% logic
        let rr = ResourceReport::analyze(dev.clone(), est);
        let lenient = AmenabilityTest::new(pdf1d_example(), reqs(5.0))
            .with_resources(rr.clone())
            .evaluate()
            .unwrap();
        assert!(lenient.proceed());
        let strict = AmenabilityTest::new(
            pdf1d_example(),
            Requirements {
                min_speedup: 5.0,
                reject_routing_strain: true,
            },
        )
        .with_resources(rr)
        .evaluate()
        .unwrap();
        assert!(!strict.proceed());
    }

    #[test]
    fn precision_gate_bounces_when_no_format_passes() {
        let empty = crate::precision::precision_test(&[], 0.01, 18, |_| Default::default());
        let report = AmenabilityTest::new(pdf1d_example(), reqs(5.0))
            .with_precision(empty)
            .evaluate()
            .unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Revise(Bounce::UnrealizablePrecision)
        );
    }

    #[test]
    fn skipped_tests_render_as_not_reached() {
        let report = AmenabilityTest::new(pdf1d_example(), reqs(5.0))
            .evaluate()
            .unwrap();
        let s = report.render();
        assert!(s.matches("(not reached)").count() == 2, "{s}");
    }

    #[test]
    fn gates_run_in_paper_order() {
        // A design failing both throughput and resources reports throughput
        // first (Figure 1's first diamond).
        let est = ResourceEstimate {
            dsp: 1000,
            bram: 0,
            logic: 0,
        };
        let rr = ResourceReport::analyze(device::virtex4_lx100(), est);
        let input = pdf1d_example().with_fclock(crate::quantity::Freq::from_mhz(75.0));
        let report = AmenabilityTest::new(input, reqs(10.0))
            .with_resources(rr)
            .evaluate()
            .unwrap();
        assert!(matches!(
            report.verdict,
            Verdict::Revise(Bounce::InsufficientThroughput { .. })
        ));
    }

    #[test]
    fn default_requirements_are_10x() {
        assert_eq!(Requirements::default().min_speedup, 10.0);
    }
}
