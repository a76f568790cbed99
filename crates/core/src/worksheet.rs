//! The RAT worksheet.
//!
//! §4 of the paper: *"a worksheet can be constructed based upon Equations (1)
//! through (11). Users simply provide the input parameters and the resulting
//! performance values are returned."* [`Worksheet`] is that artifact: input
//! parameters in, a [`Report`] out.

use crate::error::RatError;
use crate::params::RatInput;
use crate::quantity::Freq;
use crate::report::Report;
use crate::solve::batch::{solve_batch, BatchPoints};

/// A RAT worksheet: wraps an input and produces the full analysis.
#[derive(Debug, Clone)]
pub struct Worksheet {
    input: RatInput,
}

impl Worksheet {
    /// Create a worksheet over `input`.
    pub fn new(input: RatInput) -> Self {
        Self { input }
    }

    /// The worksheet's input.
    pub fn input(&self) -> &RatInput {
        &self.input
    }

    /// Run the throughput test and assemble the report.
    ///
    /// This is [`solve_batch`] on a batch of one, so a single analysis and
    /// every sweep run the same column kernel. Errors are `validate()`'s own,
    /// and the report is bit-identical to the per-input chain:
    /// [`ThroughputPrediction::analyze`](crate::throughput::ThroughputPrediction::analyze)
    /// under both bufferings plus [`crate::solve::max_speedup`], as the
    /// differential suite pins.
    pub fn analyze(&self) -> Result<Report, RatError> {
        let mut reports = solve_batch(&BatchPoints::new(&self.input, 1))?;
        Ok(reports.pop().expect("a batch of one yields one report"))
    }

    /// Analyze the same design across several clock frequencies — the paper's
    /// Tables 3/6/9 columns (75/100/150 MHz). Returns one report per frequency,
    /// in order.
    pub fn analyze_clocks(&self, fclocks: &[Freq]) -> Result<Vec<Report>, RatError> {
        fclocks
            .iter()
            .map(|&f| Worksheet::new(self.input.with_fclock(f)).analyze())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{pdf1d_example, Buffering};
    use crate::solve;
    use crate::throughput::ThroughputPrediction;

    #[test]
    fn analyze_produces_consistent_report() {
        let r = Worksheet::new(pdf1d_example()).analyze().unwrap();
        assert_eq!(r.speedup, r.throughput.speedup);
        assert_eq!(r.throughput.buffering, Buffering::Single);
        assert_eq!(r.alternate.buffering, Buffering::Double);
        assert!(r.alternate.speedup >= r.throughput.speedup);
        assert!(r.max_speedup > r.alternate.speedup);
    }

    #[test]
    fn analyze_clocks_matches_table3_columns() {
        let ws = Worksheet::new(pdf1d_example());
        let clocks = [75.0, 100.0, 150.0].map(Freq::from_mhz);
        let reports = ws.analyze_clocks(&clocks).unwrap();
        let speedups: Vec<f64> = reports.iter().map(|r| r.speedup).collect();
        // Table 3 reports 5.4 / 7.2 / 10.6; the exact 100 MHz figure is 7.148,
        // which the paper rounds up.
        for (got, want) in speedups.iter().zip([5.4, 7.2, 10.6]) {
            assert!(
                (got - want).abs() < 0.06,
                "speedup {got} vs Table 3's {want}"
            );
        }
    }

    #[test]
    fn staged_analyze_matches_monolithic_bit_for_bit() {
        // The per-input chain, one equation function at a time.
        for (buffering, other) in [
            (Buffering::Single, Buffering::Double),
            (Buffering::Double, Buffering::Single),
        ] {
            let input = pdf1d_example().with_buffering(buffering);
            let report = Worksheet::new(input.clone()).analyze().unwrap();
            let throughput = ThroughputPrediction::analyze(&input).unwrap();
            assert_eq!(report.throughput, throughput);
            assert_eq!(report.speedup, throughput.speedup);
            let alternate = ThroughputPrediction::analyze(&input.with_buffering(other)).unwrap();
            assert_eq!(report.alternate, alternate);
            assert_eq!(report.max_speedup, solve::max_speedup(&input).unwrap());
            assert_eq!(report.input, input);
        }
    }

    #[test]
    fn invalid_input_propagates() {
        let mut input = pdf1d_example();
        input.software.iterations = 0;
        assert!(Worksheet::new(input).analyze().is_err());
    }

    #[test]
    fn input_accessor() {
        let input = pdf1d_example();
        let ws = Worksheet::new(input.clone());
        assert_eq!(ws.input(), &input);
    }
}
