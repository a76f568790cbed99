//! Side-by-side comparison of candidate designs.
//!
//! §5.2 of the paper motivates this directly: three published FPGA molecular-
//! dynamics designs reported speedups of **0.29x, 2x, and 46x** — "various
//! algorithm optimizations, precision choices, and FPGA platform selections".
//! RAT "can offer insight about a particular design, but it cannot guarantee
//! that a better solution does not exist"; what it *can* do is rank the
//! candidate designs you have thought of, before any is built. This module
//! runs the worksheet over a slate of candidates and ranks them.

use crate::error::RatError;
use crate::params::RatInput;
use crate::report::Report;
use crate::table::{pct, sci, TextTable};
use crate::worksheet::Worksheet;

/// A ranked comparison of candidate designs.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignComparison {
    /// Reports ranked by predicted speedup, best first.
    pub ranked: Vec<Report>,
}

impl DesignComparison {
    /// Analyze and rank a slate of candidate designs. Errors if any input is
    /// invalid or the slate is empty.
    pub fn compare(designs: &[RatInput]) -> Result<Self, RatError> {
        if designs.is_empty() {
            return Err(RatError::param(
                "design comparison needs at least one candidate",
            ));
        }
        let mut ranked = designs
            .iter()
            .map(|d| Worksheet::new(d.clone()).analyze())
            .collect::<Result<Vec<_>, _>>()?;
        ranked.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
        Ok(Self { ranked })
    }

    /// The winning design's report.
    pub fn best(&self) -> &Report {
        &self.ranked[0]
    }

    /// Spread between best and worst predicted speedups — the §5.2 point that
    /// design choice swings results by orders of magnitude.
    pub fn spread(&self) -> f64 {
        let worst = self.ranked.last().expect("non-empty").speedup;
        self.best().speedup / worst
    }

    /// Render the ranking.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title("Candidate design comparison (ranked by predicted speedup)")
            .header([
                "Design",
                "t_comm",
                "t_comp",
                "t_RC",
                "util_comm",
                "Speedup",
                "Bound",
            ]);
        for r in &self.ranked {
            t.row([
                r.input.name.clone(),
                sci(r.throughput.t_comm.seconds()),
                sci(r.throughput.t_comp.seconds()),
                sci(r.throughput.t_rc.seconds()),
                pct(r.throughput.util_comm),
                format!("{:.2}", r.speedup),
                if r.throughput.comm_bound() {
                    "comm"
                } else {
                    "comp"
                }
                .to_string(),
            ]);
        }
        format!(
            "{}speedup spread across candidates: {:.1}x\n",
            t.render(),
            self.spread()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    fn slate() -> Vec<RatInput> {
        let a = pdf1d_example(); // 10.6x
        let mut b = pdf1d_example().with_fclock(crate::quantity::Freq::from_mhz(75.0)); // 5.4x
        b.name = "1-D PDF @75".into();
        let mut c = pdf1d_example(); // crippled comm: comm-bound
        c.name = "1-D PDF chatty".into();
        c.dataset.elements_out = 65_536;
        vec![b, a, c]
    }

    #[test]
    fn ranking_is_by_speedup_descending() {
        let cmp = DesignComparison::compare(&slate()).unwrap();
        assert_eq!(cmp.best().input.name, "1-D PDF");
        for w in cmp.ranked.windows(2) {
            assert!(w[0].speedup >= w[1].speedup);
        }
    }

    #[test]
    fn spread_reflects_best_over_worst() {
        let cmp = DesignComparison::compare(&slate()).unwrap();
        let worst = cmp.ranked.last().unwrap().speedup;
        assert!((cmp.spread() - cmp.best().speedup / worst).abs() < 1e-12);
        assert!(cmp.spread() > 2.0);
    }

    #[test]
    fn render_lists_all_candidates_with_bound() {
        let cmp = DesignComparison::compare(&slate()).unwrap();
        let s = cmp.render();
        assert!(s.contains("1-D PDF @75"));
        assert!(s.contains("chatty"));
        assert!(s.contains("comm"), "the chatty variant is comm-bound:\n{s}");
        assert!(s.contains("spread"));
    }

    #[test]
    fn empty_slate_rejected() {
        assert!(DesignComparison::compare(&[]).is_err());
    }

    #[test]
    fn invalid_candidate_propagates() {
        let mut bad = pdf1d_example();
        bad.comp.fclock = crate::quantity::Freq::from_hz(-1.0);
        assert!(DesignComparison::compare(&[bad]).is_err());
    }
}
