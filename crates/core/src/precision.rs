//! The RAT numerical-precision test (§3.2).
//!
//! With FPGAs, "increased precision dictates higher resource utilization", so
//! the goal is the *minimum* precision meeting the application's tolerance.
//! Formal precision analysis is outside RAT's scope (the paper defers to the
//! literature); what RAT provides is "a quick and consistent procedure for
//! evaluating these design choices". This module is that procedure: evaluate a
//! slate of candidate formats against a workload, report each one's error and
//! multiplier cost, and pick the cheapest acceptable one — automating the
//! paper's 18-bit-fixed-point decision for the PDF kernel.

use crate::resources::estimate::dsps_for_multiplier;
use crate::table::TextTable;
use fixedpoint::{ErrorStats, MiniFloat, QFormat};
use std::fmt;

/// A numeric format candidate: fixed point or reduced-precision float.
///
/// The paper's §4.2 comparison spans both kinds: "18-bit and 32-bit fixed
/// point along with 32-bit floating point were considered".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericFormat {
    /// A Q-format fixed-point representation.
    Fixed(QFormat),
    /// A custom floating-point representation.
    Float(MiniFloat),
}

impl NumericFormat {
    /// Total storage width in bits.
    pub fn total_bits(&self) -> u32 {
        match self {
            NumericFormat::Fixed(q) => q.total_bits(),
            NumericFormat::Float(f) => f.total_bits(),
        }
    }

    /// Dedicated multipliers one multiply needs on a device with
    /// `native_width`-bit multipliers. Fixed point multiplies the full word;
    /// floating point multiplies the significand (mantissa plus hidden bit),
    /// with the exponent path in logic — the paper's note that
    /// "floating-point units use hardware multipliers for fast execution".
    pub fn dsps_per_mult(&self, native_width: u32) -> u32 {
        match self {
            NumericFormat::Fixed(q) => dsps_for_multiplier(q.total_bits(), native_width),
            NumericFormat::Float(f) => dsps_for_multiplier(f.mant_bits() + 1, native_width),
        }
    }
}

impl fmt::Display for NumericFormat {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericFormat::Fixed(q) => write!(out, "{q}"),
            NumericFormat::Float(f) => write!(out, "{f}"),
        }
    }
}

/// One candidate format's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateResult {
    /// The format evaluated.
    pub format: QFormat,
    /// Error of the quantized workload against the f64 reference.
    pub stats: ErrorStats,
    /// Dedicated multipliers per multiply at this width (on the given device
    /// multiplier width).
    pub dsps_per_mult: u32,
    /// Whether the error was within tolerance.
    pub acceptable: bool,
}

/// Outcome of the precision test.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionReport {
    /// Relative-error tolerance applied.
    pub tolerance: f64,
    /// Every candidate, in the order given.
    pub candidates: Vec<CandidateResult>,
    /// Index into `candidates` of the chosen format (narrowest acceptable,
    /// ties broken by fewer DSPs per multiply), or `None` if nothing passed.
    pub chosen: Option<usize>,
}

impl PrecisionReport {
    /// The chosen candidate, if any format met the tolerance.
    pub fn chosen_candidate(&self) -> Option<&CandidateResult> {
        self.chosen.map(|i| &self.candidates[i])
    }

    /// Render as a comparison table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!(
                "Precision test (max relative error <= {})",
                self.tolerance
            ))
            .header(["Format", "Bits", "Max rel err", "DSPs/mult", "Acceptable"]);
        for (i, c) in self.candidates.iter().enumerate() {
            let mark = if Some(i) == self.chosen {
                " <= chosen"
            } else {
                ""
            };
            t.row([
                c.format.to_string(),
                c.format.total_bits().to_string(),
                format!("{:.3e}", c.stats.max_rel_error()),
                c.dsps_per_mult.to_string(),
                format!("{}{}", if c.acceptable { "yes" } else { "no" }, mark),
            ]);
        }
        t.render()
    }
}

/// Run the precision test: evaluate each candidate format with `evaluate`
/// (which runs the application workload quantized to that format and returns
/// error statistics vs the f64 reference) and choose the narrowest acceptable
/// format under `tolerance` (maximum relative error).
///
/// `native_mult_width` is the device's dedicated multiplier width (18 for the
/// paper's devices), used to cost each format.
pub fn precision_test<F>(
    candidates: &[QFormat],
    tolerance: f64,
    native_mult_width: u32,
    mut evaluate: F,
) -> PrecisionReport
where
    F: FnMut(QFormat) -> ErrorStats,
{
    assert!(
        tolerance >= 0.0 && tolerance.is_finite(),
        "tolerance must be non-negative"
    );
    let results: Vec<CandidateResult> = candidates
        .iter()
        .map(|&format| {
            let stats = evaluate(format);
            CandidateResult {
                acceptable: stats.within_rel_tolerance(tolerance),
                dsps_per_mult: dsps_for_multiplier(format.total_bits(), native_mult_width),
                format,
                stats,
            }
        })
        .collect();
    let chosen = results
        .iter()
        .enumerate()
        .filter(|(_, c)| c.acceptable)
        .min_by_key(|(_, c)| (c.format.total_bits(), c.dsps_per_mult))
        .map(|(i, _)| i);
    PrecisionReport {
        tolerance,
        candidates: results,
        chosen,
    }
}

/// One mixed-format candidate's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedCandidateResult {
    /// The format evaluated.
    pub format: NumericFormat,
    /// Error of the quantized workload against the f64 reference.
    pub stats: ErrorStats,
    /// Dedicated multipliers per multiply at this format.
    pub dsps_per_mult: u32,
    /// Whether the error was within tolerance.
    pub acceptable: bool,
}

/// Outcome of the mixed fixed/float precision comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedPrecisionReport {
    /// Relative-error tolerance applied.
    pub tolerance: f64,
    /// Every candidate, in the order given.
    pub candidates: Vec<MixedCandidateResult>,
    /// Index of the chosen format: the acceptable candidate with the fewest
    /// DSPs per multiply, ties broken by fewer total bits (the paper chose
    /// 18-bit fixed over 32-bit float for exactly the single-MAC reason).
    pub chosen: Option<usize>,
}

impl MixedPrecisionReport {
    /// The chosen candidate, if any format met the tolerance.
    pub fn chosen_candidate(&self) -> Option<&MixedCandidateResult> {
        self.chosen.map(|i| &self.candidates[i])
    }

    /// Render as a comparison table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!(
                "Mixed precision comparison (max relative error <= {})",
                self.tolerance
            ))
            .header(["Format", "Bits", "Max rel err", "DSPs/mult", "Acceptable"]);
        for (i, c) in self.candidates.iter().enumerate() {
            let mark = if Some(i) == self.chosen {
                " <= chosen"
            } else {
                ""
            };
            t.row([
                c.format.to_string(),
                c.format.total_bits().to_string(),
                format!("{:.3e}", c.stats.max_rel_error()),
                c.dsps_per_mult.to_string(),
                format!("{}{}", if c.acceptable { "yes" } else { "no" }, mark),
            ]);
        }
        t.render()
    }
}

/// The paper's full §4.2 comparison: evaluate fixed- and floating-point
/// candidates together and choose the cheapest acceptable one, costed in
/// dedicated multipliers first (the scarce resource), width second.
pub fn precision_test_mixed<F>(
    candidates: &[NumericFormat],
    tolerance: f64,
    native_mult_width: u32,
    mut evaluate: F,
) -> MixedPrecisionReport
where
    F: FnMut(NumericFormat) -> ErrorStats,
{
    assert!(
        tolerance >= 0.0 && tolerance.is_finite(),
        "tolerance must be non-negative"
    );
    let results: Vec<MixedCandidateResult> = candidates
        .iter()
        .map(|&format| {
            let stats = evaluate(format);
            MixedCandidateResult {
                acceptable: stats.within_rel_tolerance(tolerance),
                dsps_per_mult: format.dsps_per_mult(native_mult_width),
                format,
                stats,
            }
        })
        .collect();
    let chosen = results
        .iter()
        .enumerate()
        .filter(|(_, c)| c.acceptable)
        .min_by_key(|(_, c)| (c.dsps_per_mult, c.format.total_bits()))
        .map(|(i, _)| i);
    MixedPrecisionReport {
        tolerance,
        candidates: results,
        chosen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixedpoint::{Fx, Overflow, Rounding};

    /// Quantization-only workload over a fixed dataset in [-1, 1).
    fn eval(fmt: QFormat) -> ErrorStats {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 / 500.0) * 1.9 - 0.95).collect();
        let q: Vec<f64> = data
            .iter()
            .map(|&v| Fx::from_f64(v, fmt, Rounding::Nearest, Overflow::Saturate).to_f64())
            .collect();
        ErrorStats::between(&data, &q)
    }

    fn candidates() -> Vec<QFormat> {
        vec![
            QFormat::signed(0, 11).unwrap(), // 12-bit
            QFormat::signed(0, 17).unwrap(), // 18-bit (the paper's choice)
            QFormat::signed(0, 31).unwrap(), // 32-bit fixed
        ]
    }

    // The workload's smallest nonzero sample is ~0.0038, so the max relative
    // error is ~(ulp/2)/0.0038: ~6.4e-2 at 12 bits, ~1.0e-3 at 18 bits,
    // ~6e-8 at 32 bits.

    #[test]
    fn chooses_narrowest_acceptable() {
        // With a loose 10% tolerance, even 12 bits pass: pick 12.
        let r = precision_test(&candidates(), 0.1, 18, eval);
        assert_eq!(r.chosen_candidate().unwrap().format.total_bits(), 12);
    }

    #[test]
    fn paper_scenario_18_bits_over_32() {
        // Tolerance tight enough to exclude 12-bit but passed by 18-bit:
        // the paper's reasoning that 18-bit suffices and 32-bit saves nothing.
        let r = precision_test(&candidates(), 0.01, 18, eval);
        let chosen = r.chosen_candidate().unwrap();
        assert_eq!(chosen.format.total_bits(), 18);
        assert_eq!(chosen.dsps_per_mult, 1);
        // 32-bit also passes but costs double the multipliers.
        assert!(r.candidates[2].acceptable);
        assert_eq!(r.candidates[2].dsps_per_mult, 2);
    }

    #[test]
    fn none_acceptable_reports_none() {
        let r = precision_test(&candidates(), 1e-15, 18, eval);
        assert!(r.chosen.is_none());
        assert!(r.chosen_candidate().is_none());
    }

    #[test]
    fn render_marks_choice() {
        let r = precision_test(&candidates(), 0.01, 18, eval);
        let s = r.render();
        assert!(
            s.contains("<= chosen"),
            "render should mark the chosen format:\n{s}"
        );
        assert!(s.contains("Q0.17"));
    }

    #[test]
    fn empty_candidates_yield_empty_report() {
        let r = precision_test(&[], 0.01, 18, eval);
        assert!(r.candidates.is_empty());
        assert!(r.chosen.is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_panics() {
        precision_test(&candidates(), -0.5, 18, eval);
    }

    /// Quantization-only mixed-format workload.
    fn eval_mixed(fmt: NumericFormat) -> ErrorStats {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 / 500.0) * 1.9 - 0.95).collect();
        let q: Vec<f64> = data
            .iter()
            .map(|&v| match fmt {
                NumericFormat::Fixed(qf) => {
                    Fx::from_f64(v, qf, Rounding::Nearest, Overflow::Saturate).to_f64()
                }
                NumericFormat::Float(mf) => mf.quantize(v),
            })
            .collect();
        ErrorStats::between(&data, &q)
    }

    fn mixed_candidates() -> Vec<NumericFormat> {
        vec![
            NumericFormat::Fixed(QFormat::signed(0, 17).unwrap()), // 18-bit fixed
            NumericFormat::Fixed(QFormat::signed(0, 31).unwrap()), // 32-bit fixed
            NumericFormat::Float(MiniFloat::binary32()),           // 32-bit float
        ]
    }

    #[test]
    fn paper_section42_three_way_comparison() {
        // At the paper's ~2% tolerance all three candidates pass; the choice
        // falls to the single-MAC 18-bit fixed format — the paper's decision.
        let r = precision_test_mixed(&mixed_candidates(), 0.02, 18, eval_mixed);
        let chosen = r.chosen_candidate().unwrap();
        assert!(matches!(chosen.format, NumericFormat::Fixed(q) if q.total_bits() == 18));
        assert_eq!(chosen.dsps_per_mult, 1);
        // Both 32-bit candidates pass but cost 2 multipliers.
        assert!(r.candidates[1].acceptable && r.candidates[1].dsps_per_mult == 2);
        assert!(r.candidates[2].acceptable && r.candidates[2].dsps_per_mult == 2);
    }

    #[test]
    fn float_wins_when_fixed_range_is_hostile() {
        // A wide-dynamic-range workload: values spanning 1e-4 to 1e4 (inside
        // binary16's normal range). The fixed format clips the top decade and
        // crushes the bottom one; float keeps relative error uniform.
        let eval = |fmt: NumericFormat| {
            let data: Vec<f64> = (0..49)
                .map(|i| (10.0f64).powf(i as f64 / 6.0 - 4.0))
                .collect();
            let q: Vec<f64> = data
                .iter()
                .map(|&v| match fmt {
                    NumericFormat::Fixed(qf) => {
                        Fx::from_f64(v, qf, Rounding::Nearest, Overflow::Saturate).to_f64()
                    }
                    NumericFormat::Float(mf) => mf.quantize(v),
                })
                .collect();
            ErrorStats::between(&data, &q)
        };
        let candidates = vec![
            NumericFormat::Fixed(QFormat::signed(10, 7).unwrap()),
            NumericFormat::Float(MiniFloat::binary16()),
        ];
        let r = precision_test_mixed(&candidates, 0.01, 18, eval);
        let chosen = r.chosen_candidate().unwrap();
        assert!(
            matches!(chosen.format, NumericFormat::Float(_)),
            "{}",
            r.render()
        );
    }

    #[test]
    fn mixed_render_and_display() {
        let r = precision_test_mixed(&mixed_candidates(), 0.02, 18, eval_mixed);
        let s = r.render();
        assert!(s.contains("Q0.17"));
        assert!(s.contains("fp32(e8m23)"));
        assert!(s.contains("<= chosen"));
    }

    #[test]
    fn numeric_format_accessors() {
        let fx = NumericFormat::Fixed(QFormat::signed(0, 17).unwrap());
        let fl = NumericFormat::Float(MiniFloat::binary32());
        assert_eq!(fx.total_bits(), 18);
        assert_eq!(fl.total_bits(), 32);
        assert_eq!(fx.dsps_per_mult(18), 1);
        assert_eq!(fl.dsps_per_mult(18), 2); // 24-bit significand
    }
}
