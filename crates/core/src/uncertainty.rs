//! Monte-Carlo uncertainty propagation for RAT predictions.
//!
//! Several RAT inputs are estimates with real uncertainty: the achievable
//! clock is unknowable "until after the entire application has been converted
//! to a hardware design" (§4.2), `ops_per_element` is data-dependent for
//! irregular algorithms like MD, and alphas wobble with transfer size. Instead
//! of a single-point prediction, sample those ranges and report the speedup
//! *distribution* — turning "predicted 10.6x" into "90% chance of at least
//! 5.6x", which is the honest form of a pre-design commitment.

use crate::engine::{job_rng, job_rng_first_draws, Engine, PointCost, FIRST_BLOCK_DRAWS};
use crate::error::RatError;
use crate::params::RatInput;
use crate::solve::batch::{speedup_batch, BatchPoints};
use crate::sweep::SweepParam;
use crate::table::TextTable;
use rand::distributions::{Distribution, Uniform};

/// A uniform uncertainty range on one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamRange {
    /// The uncertain parameter.
    pub param: SweepParam,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl ParamRange {
    /// A range spanning `lo..=hi` for `param`. The bounds are checked where
    /// the range is used: [`propagate_with`] rejects a non-finite or
    /// inverted range with an error naming it.
    pub fn new(param: SweepParam, lo: f64, hi: f64) -> Self {
        Self { param, lo, hi }
    }
}

/// Speedup distribution statistics from a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintyReport {
    /// Number of samples drawn.
    pub samples: usize,
    /// Mean speedup.
    pub mean: f64,
    /// Standard deviation of speedup.
    pub std_dev: f64,
    /// Minimum sampled speedup.
    pub min: f64,
    /// 5th / 50th / 95th percentile speedups.
    pub p5: f64,
    /// Median speedup.
    pub p50: f64,
    /// 95th percentile speedup.
    pub p95: f64,
    /// Maximum sampled speedup.
    pub max: f64,
}

impl UncertaintyReport {
    /// Probability that the speedup is at least `target`, interpolated from
    /// the stored percentile summary. The report keeps five order statistics
    /// — `(min, 0)`, `(p5, 0.05)`, `(p50, 0.5)`, `(p95, 0.95)`, `(max, 1)` —
    /// and this treats them as knots of a piecewise-linear CDF `F`, returning
    /// `1 - F(target)`. Boundary conventions: any target at or below `min`
    /// is certain (`1.0`); any target above `max` is impossible (`0.0`); a
    /// target exactly at `max` returns `0.0`, the continuous-summary reading
    /// of "strictly better outcomes have measure zero". Degenerate segments
    /// (equal adjacent percentiles, e.g. a collapsed distribution) resolve to
    /// the upper knot's probability rather than dividing by zero.
    pub fn prob_at_least(&self, target: f64) -> f64 {
        if target <= self.min {
            return 1.0;
        }
        if target > self.max {
            return 0.0;
        }
        let knots = [
            (self.min, 0.0),
            (self.p5, 0.05),
            (self.p50, 0.5),
            (self.p95, 0.95),
            (self.max, 1.0),
        ];
        for w in knots.windows(2) {
            let (x0, f0) = w[0];
            let (x1, f1) = w[1];
            if target <= x1 {
                let f = if x1 == x0 {
                    f1
                } else {
                    f0 + (f1 - f0) * (target - x0) / (x1 - x0)
                };
                return 1.0 - f;
            }
        }
        0.0
    }

    /// Whether the design meets `target` with at least 95% interpolated
    /// probability — i.e. [`Self::prob_at_least`]`(target) >= 0.95`. At the
    /// boundary this agrees with the old `p5 >= target` rule (a target
    /// exactly at `p5` interpolates to probability 0.95 and passes), but
    /// between percentiles the answer now follows the interpolated CDF
    /// instead of snapping to the nearest stored statistic.
    pub fn likely_meets(&self, target: f64) -> bool {
        self.prob_at_least(target) >= 0.95
    }

    /// Render a summary table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!("Speedup distribution ({} samples)", self.samples))
            .header(["Statistic", "Speedup"]);
        for (name, v) in [
            ("mean", self.mean),
            ("std dev", self.std_dev),
            ("min", self.min),
            ("p5", self.p5),
            ("median", self.p50),
            ("p95", self.p95),
            ("max", self.max),
        ] {
            t.row([format_args!("{name}"), format_args!("{v:.2}")]);
        }
        t.render()
    }
}

/// Draw `samples` joint samples of the given parameter ranges (independent
/// uniforms), evaluate the speedup at each, and summarize the distribution.
/// Deterministic for a given `seed`.
pub fn propagate(
    input: &RatInput,
    ranges: &[ParamRange],
    samples: usize,
    seed: u64,
) -> Result<UncertaintyReport, RatError> {
    propagate_with(&Engine::sequential(), input, ranges, samples, seed)
}

/// [`propagate`], with samples evaluated in fixed-size chunks as independent
/// jobs on `engine`. Sample `j` draws from its own RNG stream
/// [`job_rng`]`(seed, j)` regardless of which chunk or thread evaluates it,
/// so the joint draw for every sample — and therefore the whole
/// distribution — is bit-identical at any thread count, and the summary
/// statistics accumulate in sample-index order.
pub fn propagate_with(
    engine: &Engine,
    input: &RatInput,
    ranges: &[ParamRange],
    samples: usize,
    seed: u64,
) -> Result<UncertaintyReport, RatError> {
    let _span = crate::telemetry::span("uncertainty");
    input.validate()?;
    if samples == 0 {
        return Err(RatError::param("need at least one Monte-Carlo sample"));
    }
    if ranges.is_empty() {
        return Err(RatError::param(
            "need at least one uncertain parameter range",
        ));
    }
    for (i, r) in ranges.iter().enumerate() {
        if !(r.lo.is_finite() && r.hi.is_finite() && r.lo <= r.hi) {
            return Err(RatError::quantity(
                format!("ranges[{i}]"),
                format!(
                    "{} needs finite lo <= hi, got [{}, {}]",
                    r.param.label(),
                    r.lo,
                    r.hi
                ),
            ));
        }
    }
    let dists: Vec<(SweepParam, Uniform<f64>)> = ranges
        .iter()
        .map(|r| (r.param, Uniform::new_inclusive(r.lo, r.hi)))
        .collect();
    // Samples are evaluated in adaptively-sized chunks as independent engine
    // jobs (enough samples per job to amortize dispatch, a few chunks per
    // worker for balance — see `Engine::chunk_len`; sizing is a pure function
    // of the sample count and thread count, so seams stay deterministic),
    // and each job is **one batch call**, not a per-sample loop: first a draw
    // phase fills one SoA column per uncertain parameter (sample `j` still
    // owns the stream `job_rng(seed, j)`, so the joint draw is bit-identical
    // at any thread count and chunk size), then `speedup_batch` evaluates the
    // whole chunk in a tight columnar loop. With at most eight uncertain
    // parameters the draw phase needs only each stream's first keystream
    // block, which `job_rng_first_draws` produces eight streams at a time
    // through the AVX2 multi-buffer ChaCha kernel; more parameters than that
    // fall back to per-sample RNGs for the draws (identical values, since
    // both paths consume the same words of the same streams) while keeping
    // the batched evaluation.
    let chunk = engine.chunk_len(samples, PointCost::McSample);
    let chunks = samples.div_ceil(chunk);
    let per_chunk = engine.try_run(chunks, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(samples);
        let n = hi - lo;
        let mut columns: Vec<Vec<f64>> = dists.iter().map(|_| Vec::with_capacity(n)).collect();
        if dists.len() <= FIRST_BLOCK_DRAWS {
            let draws = job_rng_first_draws(seed, lo as u64, hi as u64);
            for draw in &draws {
                for (column, ((_, dist), &word)) in columns.iter_mut().zip(dists.iter().zip(draw)) {
                    column.push(dist.sample_from_u64_word(word));
                }
            }
        } else {
            for j in lo..hi {
                let mut rng = job_rng(seed, j as u64);
                for (column, (_, dist)) in columns.iter_mut().zip(&dists) {
                    column.push(dist.sample(&mut rng));
                }
            }
        }
        let mut points = BatchPoints::new(input, n);
        for ((param, _), column) in dists.iter().zip(columns) {
            points.push_column(*param, column);
        }
        speedup_batch(&points)
    })?;
    crate::telemetry::add(crate::telemetry::Metric::McSamples, samples as u64);
    let mut speedups: Vec<f64> = Vec::with_capacity(samples);
    for chunk in &per_chunk {
        speedups.extend_from_slice(chunk);
    }
    let n = speedups.len();
    // Mean and variance accumulate in sample order — deterministic and
    // thread-count invariant, since the chunks are concatenated in index
    // order. Percentiles are order statistics, computed by O(n) selection
    // rather than a full sort: `total_cmp` is a total order, so the k-th
    // smallest value is the exact value a sorted array would hold at k.
    let mean = speedups.iter().sum::<f64>() / n as f64;
    let var = speedups.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
    let min = speedups
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("at least one sample");
    let max = speedups
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .expect("at least one sample");
    let mut pick = |q: f64| {
        let k = (((n - 1) as f64) * q).round() as usize;
        *speedups.select_nth_unstable_by(k, f64::total_cmp).1
    };
    let (p5, p50, p95) = (pick(0.05), pick(0.50), pick(0.95));
    Ok(UncertaintyReport {
        samples: n,
        mean,
        std_dev: var.sqrt(),
        min,
        p5,
        p50,
        p95,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    fn clock_range() -> Vec<ParamRange> {
        // The paper's own uncertainty: fclock anywhere in 75–150 MHz.
        vec![ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6)]
    }

    #[test]
    fn clock_uncertainty_brackets_table3_speedups() {
        let r = propagate(&pdf1d_example(), &clock_range(), 4000, 7).unwrap();
        // Table 3's extremes are 5.4 (75 MHz) and 10.6 (150 MHz).
        assert!(r.min >= 5.3 && r.min < 5.7, "min {}", r.min);
        assert!(r.max > 10.2 && r.max <= 10.7, "max {}", r.max);
        assert!(r.p50 > r.p5 && r.p95 > r.p50);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = propagate(&pdf1d_example(), &clock_range(), 500, 42).unwrap();
        let b = propagate(&pdf1d_example(), &clock_range(), 500, 42).unwrap();
        assert_eq!(a, b);
        let c = propagate(&pdf1d_example(), &clock_range(), 500, 43).unwrap();
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    fn multiple_ranges_compound() {
        let ranges = vec![
            ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6),
            ParamRange::new(SweepParam::ThroughputProc, 16.0, 24.0),
        ];
        let r = propagate(&pdf1d_example(), &ranges, 4000, 11).unwrap();
        // Worst corner: 75 MHz and 16 ops/cycle -> speedup ~4.4.
        assert!(r.min < 4.6, "min {}", r.min);
        assert!(r.std_dev > 0.5);
    }

    #[test]
    fn degenerate_range_collapses_distribution() {
        let ranges = vec![ParamRange::new(SweepParam::Fclock, 100.0e6, 100.0e6)];
        let r = propagate(&pdf1d_example(), &ranges, 100, 1).unwrap();
        assert!(r.std_dev < 1e-12);
        // 7.148 exactly; the paper's Table 3 rounds this to 7.2.
        assert!((r.mean - 7.15).abs() < 0.05);
    }

    #[test]
    fn zero_samples_and_empty_ranges_rejected() {
        assert!(propagate(&pdf1d_example(), &clock_range(), 0, 1).is_err());
        assert!(propagate(&pdf1d_example(), &[], 10, 1).is_err());
    }

    #[test]
    fn out_of_domain_range_fails_validation() {
        let ranges = vec![ParamRange::new(SweepParam::AlphaWrite, 0.5, 1.5)];
        assert!(propagate(&pdf1d_example(), &ranges, 200, 1).is_err());
    }

    #[test]
    fn render_has_all_statistics() {
        let r = propagate(&pdf1d_example(), &clock_range(), 200, 5).unwrap();
        let s = r.render();
        for key in ["mean", "std dev", "median", "p95"] {
            assert!(s.contains(key), "missing {key}:\n{s}");
        }
    }

    #[test]
    fn reversed_or_non_finite_range_is_a_quantity_error() {
        for (lo, hi) in [
            (2.0e8, 1.0e8),
            (f64::NAN, 1.0e8),
            (f64::NEG_INFINITY, 1.0e8),
        ] {
            let ranges = [
                ParamRange::new(SweepParam::ThroughputProc, 16.0, 24.0),
                ParamRange::new(SweepParam::Fclock, lo, hi),
            ];
            let err = propagate(&pdf1d_example(), &ranges, 10, 1).unwrap_err();
            assert!(
                matches!(&err, RatError::InvalidQuantity { field, .. } if field == "ranges[1]"),
                "{err}"
            );
            assert!(err.to_string().contains("finite lo <= hi"), "{err}");
        }
    }

    fn summary() -> UncertaintyReport {
        UncertaintyReport {
            samples: 1000,
            mean: 7.5,
            std_dev: 1.5,
            min: 5.0,
            p5: 5.5,
            p50: 7.5,
            p95: 10.0,
            max: 10.6,
        }
    }

    #[test]
    fn prob_at_least_pins_the_boundaries() {
        let r = summary();
        // At or below the minimum: certain.
        assert_eq!(r.prob_at_least(4.0), 1.0);
        assert_eq!(r.prob_at_least(r.min), 1.0);
        // Exactly at each stored percentile: the stored mass.
        assert!((r.prob_at_least(r.p5) - 0.95).abs() < 1e-12);
        assert!((r.prob_at_least(r.p50) - 0.50).abs() < 1e-12);
        assert!((r.prob_at_least(r.p95) - 0.05).abs() < 1e-12);
        // At or above the maximum: impossible under the continuous summary.
        assert_eq!(r.prob_at_least(r.max), 0.0);
        assert_eq!(r.prob_at_least(r.max + 1.0), 0.0);
        // Strictly between knots: linear, strictly decreasing.
        let mid = r.prob_at_least((r.p50 + r.p95) / 2.0);
        assert!((0.05..0.50).contains(&mid), "mid-segment prob {mid}");
        assert!((mid - 0.275).abs() < 1e-12, "linear midpoint, got {mid}");
    }

    #[test]
    fn likely_meets_agrees_with_the_old_rule_at_p5() {
        let r = summary();
        // Boundary compatibility: exactly p5 passes, just above fails.
        assert!(r.likely_meets(r.p5));
        assert!(!r.likely_meets(r.p5 + 1e-9));
        // Below p5 it interpolates toward certainty.
        assert!(r.likely_meets(r.min));
        assert!(r.likely_meets(5.2));
    }

    #[test]
    fn prob_at_least_handles_collapsed_distributions() {
        let mut r = summary();
        (r.min, r.p5, r.p50, r.p95, r.max) = (7.0, 7.0, 7.0, 7.0, 7.0);
        assert_eq!(r.prob_at_least(6.9), 1.0);
        assert_eq!(r.prob_at_least(7.0), 1.0, "target == min is certain");
        assert_eq!(r.prob_at_least(7.1), 0.0);
        assert!(r.likely_meets(7.0));
    }
}
