//! Worksheet reports: the rendered artifacts of a RAT analysis.

use crate::params::{Buffering, RatInput};
use crate::table::{pct, sci, TextTable};
use crate::throughput::ThroughputPrediction;

/// The complete output of one worksheet analysis: the echoed input plus every
/// derived quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The input the analysis was run on.
    pub input: RatInput,
    /// Throughput-test outputs under the input's buffering assumption.
    pub throughput: ThroughputPrediction,
    /// Throughput-test outputs under the *other* buffering assumption, for
    /// comparison (the paper's Figure-2 discussion is exactly this contrast).
    pub alternate: ThroughputPrediction,
    /// Predicted speedup (duplicated from `throughput` for ergonomic access).
    pub speedup: f64,
    /// The speedup ceiling if computation were free (communication-bound wall).
    pub max_speedup: f64,
}

impl Report {
    /// Render the input-parameter table in the paper's Table-2 layout.
    pub fn render_input(&self) -> String {
        let i = &self.input;
        let mut t = TextTable::new()
            .title(format!("Input parameters of {}", i.name))
            .header(["Parameter", "Value"]);
        t.section("Dataset Parameters");
        t.row([
            "N_elements, input (elements)".to_string(),
            i.dataset.elements_in.to_string(),
        ]);
        t.row([
            "N_elements, output (elements)".to_string(),
            i.dataset.elements_out.to_string(),
        ]);
        t.row([
            "N_bytes/element (bytes/element)".to_string(),
            i.dataset.bytes_per_element.to_string(),
        ]);
        t.section("Communication Parameters");
        t.row([
            "throughput_ideal (MB/s)".to_string(),
            format!("{:.0}", i.comm.ideal_bandwidth.mbytes_per_sec()),
        ]);
        t.row([
            "alpha_write (0 < a <= 1)".to_string(),
            format!("{}", i.comm.alpha_write),
        ]);
        t.row([
            "alpha_read (0 < a <= 1)".to_string(),
            format!("{}", i.comm.alpha_read),
        ]);
        t.section("Computation Parameters");
        t.row([
            "N_ops/element (ops/element)".to_string(),
            format!("{}", i.comp.ops_per_element),
        ]);
        t.row([
            "throughput_proc (ops/cycle)".to_string(),
            format!("{}", i.comp.throughput_proc),
        ]);
        t.row([
            "f_clock (MHz)".to_string(),
            format!("{:.0}", i.comp.fclock.mhz()),
        ]);
        t.section("Software Parameters");
        t.row([
            "t_soft (sec)".to_string(),
            format!("{}", i.software.t_soft.seconds()),
        ]);
        t.row([
            "N_iter (iterations)".to_string(),
            i.software.iterations.to_string(),
        ]);
        t.render()
    }

    /// Render the performance-prediction table in the paper's Table-3 layout
    /// (one column, this input's clock).
    pub fn render_performance(&self) -> String {
        let p = &self.throughput;
        let mode = match self.input.buffering {
            Buffering::Single => "SB",
            Buffering::Double => "DB",
        };
        let mut t = TextTable::new()
            .title(format!("Performance prediction for {}", self.input.name))
            .header(["Metric", "Predicted"]);
        t.row([
            "f_clk (MHz)".to_string(),
            format!("{:.0}", self.input.comp.fclock.mhz()),
        ]);
        t.row(["t_comm (sec)".to_string(), sci(p.t_comm.seconds())]);
        t.row(["t_comp (sec)".to_string(), sci(p.t_comp.seconds())]);
        t.row([format!("util_comm_{mode}"), pct(p.util_comm)]);
        t.row([format!("util_comp_{mode}"), pct(p.util_comp)]);
        t.row([format!("t_RC_{mode} (sec)"), sci(p.t_rc.seconds())]);
        t.row(["speedup".to_string(), format!("{:.1}", p.speedup)]);
        t.row([
            "speedup ceiling (comm-bound)".to_string(),
            format!("{:.1}", self.max_speedup),
        ]);
        t.render()
    }

    /// Render the report as GitHub-flavored Markdown (for docs pipelines and
    /// pull-request comments).
    pub fn render_markdown(&self) -> String {
        let i = &self.input;
        let p = &self.throughput;
        let mode = match i.buffering {
            Buffering::Single => "single-buffered",
            Buffering::Double => "double-buffered",
        };
        let bound = if p.comm_bound() {
            "communication"
        } else {
            "computation"
        };
        format!(
            "## RAT analysis: {name}\n\n\
             | Parameter | Value |\n|---|---|\n\
             | elements in / out | {ein} / {eout} |\n\
             | bytes per element | {bpe} |\n\
             | ideal bandwidth | {bw:.0} MB/s (alpha {aw} / {ar}) |\n\
             | ops per element | {ops} |\n\
             | throughput_proc | {tp} ops/cycle @ {clk:.0} MHz |\n\
             | software baseline | {tsoft} s over {iter} iterations |\n\n\
             | Prediction ({mode}) | Value |\n|---|---|\n\
             | t_comm / iteration | {tcomm} s |\n\
             | t_comp / iteration | {tcomp} s |\n\
             | t_RC | {trc} s |\n\
             | **speedup** | **{speed:.1}x** ({bound}-bound; ceiling {ceil:.1}x) |\n",
            name = i.name,
            ein = i.dataset.elements_in,
            eout = i.dataset.elements_out,
            bpe = i.dataset.bytes_per_element,
            bw = i.comm.ideal_bandwidth.mbytes_per_sec(),
            aw = i.comm.alpha_write,
            ar = i.comm.alpha_read,
            ops = i.comp.ops_per_element,
            tp = i.comp.throughput_proc,
            clk = i.comp.fclock.mhz(),
            tsoft = i.software.t_soft.seconds(),
            iter = i.software.iterations,
            tcomm = sci(p.t_comm.seconds()),
            tcomp = sci(p.t_comp.seconds()),
            trc = sci(p.t_rc.seconds()),
            speed = p.speedup,
            ceil = self.max_speedup,
        )
    }

    /// Render both tables plus a one-line verdict.
    pub fn render(&self) -> String {
        let p = &self.throughput;
        let bound = if p.comm_bound() {
            "communication"
        } else {
            "computation"
        };
        let delta = self.alternate.speedup / p.speedup;
        format!(
            "{}\n{}\nDesign is {bound}-bound; switching buffering mode would scale speedup by {delta:.2}x.\n",
            self.render_input(),
            self.render_performance(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;
    use crate::worksheet::Worksheet;

    fn report() -> Report {
        Worksheet::new(pdf1d_example()).analyze().unwrap()
    }

    #[test]
    fn input_table_lists_all_eleven_parameters() {
        let s = report().render_input();
        for needle in [
            "N_elements, input",
            "N_elements, output",
            "N_bytes/element",
            "throughput_ideal",
            "alpha_write",
            "alpha_read",
            "N_ops/element",
            "throughput_proc",
            "f_clock",
            "t_soft",
            "N_iter",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn performance_table_matches_paper_values() {
        let s = report().render_performance();
        assert!(s.contains("5.56e-6"), "t_comm missing:\n{s}");
        assert!(s.contains("1.31e-4"), "t_comp missing:\n{s}");
        // 400 * 1.36632e-4 = 5.4653e-2; the paper's Table 3 truncates to 5.46E-2.
        assert!(s.contains("5.47e-2"), "t_RC missing:\n{s}");
        assert!(s.contains("10.6"), "speedup missing:\n{s}");
    }

    #[test]
    fn full_render_names_the_bound() {
        let s = report().render();
        assert!(
            s.contains("computation-bound"),
            "1-D PDF is compute-bound:\n{s}"
        );
    }

    #[test]
    fn markdown_render_has_tables_and_verdict() {
        let s = report().render_markdown();
        assert!(s.starts_with("## RAT analysis: 1-D PDF"));
        assert!(s.contains("| **speedup** | **10.6x**"));
        assert!(s.contains("computation-bound"));
        assert!(s.contains("| t_comm / iteration | 5.56e-6 s |"));
        // Valid GFM table rows: every data line has matching pipes.
        for line in s.lines().filter(|l| l.starts_with('|')) {
            assert_eq!(line.matches('|').count(), 3, "bad row: {line}");
        }
    }
}
