//! Design-space exploration: RAT "applied iteratively", automated.
//!
//! §3 of the paper: "RAT is applied iteratively during the design process
//! until a suitable version of the algorithm is formulated or all reasonable
//! permutations are exhausted without a satisfactory solution." This module
//! enumerates those permutations — clock assumptions, parallelism levels,
//! buffering disciplines — runs the throughput gate over the cartesian
//! product, and reports which corners pass, which is cheapest, and whether
//! the space is exhausted (the paper's "without a satisfactory solution"
//! outcome, which is itself an answer worth having before RTL).

use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::Freq;
use crate::report::Report;
use crate::solve::{self, batch::BatchPoints};
use crate::sweep::SweepParam;
use crate::table::TextTable;
use crate::worksheet::Worksheet;

/// One corner's coordinates on the exploration axes — just the raw values,
/// with no cloned input and no formatted display name attached. The name is
/// built on demand by [`Corner::display_name`], so enumerating and gating a
/// large space never pays for string formatting on corners nobody will see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Clock frequency at this corner (Hz).
    pub fclock_hz: f64,
    /// `throughput_proc` at this corner (ops/cycle).
    pub throughput_proc: f64,
    /// Buffering discipline at this corner.
    pub buffering: Buffering,
}

impl Corner {
    /// Overwrite `input`'s axis fields with this corner's values, leaving
    /// everything else (including the name) untouched.
    pub fn apply_into(&self, input: &mut RatInput) {
        input.comp.fclock = Freq::from_hz(self.fclock_hz);
        input.comp.throughput_proc = self.throughput_proc;
        input.buffering = self.buffering;
    }

    /// The corner's display name, derived from the base design's name.
    pub fn display_name(&self, base: &str) -> String {
        format!(
            "{} [{:.0} MHz, {} ops/cyc, {:?}]",
            base,
            self.fclock_hz / 1e6,
            self.throughput_proc,
            self.buffering
        )
    }
}

/// The axes of a design space around a base worksheet.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// The base design; axis values overwrite its corresponding fields.
    pub base: RatInput,
    /// Candidate clock frequencies (Hz). Empty = keep the base clock.
    pub fclocks: Vec<f64>,
    /// Candidate `throughput_proc` values (ops/cycle), typically one per
    /// parallelism level under consideration. Empty = keep the base value.
    pub throughput_procs: Vec<f64>,
    /// Candidate buffering disciplines. Empty = keep the base discipline.
    pub bufferings: Vec<Buffering>,
}

impl DesignSpace {
    /// A space that only varies the clock — the paper's own exploration shape.
    pub fn clocks(base: RatInput, fclocks: Vec<f64>) -> Self {
        Self {
            base,
            fclocks,
            throughput_procs: Vec::new(),
            bufferings: Vec::new(),
        }
    }

    /// Number of corners the space contains.
    pub fn size(&self) -> usize {
        self.fclocks.len().max(1)
            * self.throughput_procs.len().max(1)
            * self.bufferings.len().max(1)
    }

    /// Enumerate every corner's raw coordinates, in deterministic axis order
    /// (clock outermost, buffering innermost). This is the cheap enumeration:
    /// no input clones, no name formatting — a corner is three scalars.
    pub fn corner_coords(&self) -> Vec<Corner> {
        let fclocks: Vec<f64> = if self.fclocks.is_empty() {
            vec![self.base.comp.fclock.hz()]
        } else {
            self.fclocks.clone()
        };
        let tps: Vec<f64> = if self.throughput_procs.is_empty() {
            vec![self.base.comp.throughput_proc]
        } else {
            self.throughput_procs.clone()
        };
        let bufs: Vec<Buffering> = if self.bufferings.is_empty() {
            vec![self.base.buffering]
        } else {
            self.bufferings.clone()
        };
        let mut out = Vec::with_capacity(self.size());
        for &f in &fclocks {
            for &tp in &tps {
                for &b in &bufs {
                    out.push(Corner {
                        fclock_hz: f,
                        throughput_proc: tp,
                        buffering: b,
                    });
                }
            }
        }
        out
    }

    /// Enumerate every corner as a concrete, named worksheet input. This is
    /// the eager (clone + format per corner) view; hot paths should iterate
    /// [`DesignSpace::corner_coords`] instead and only materialize names for
    /// corners that end up in a report.
    pub fn corners(&self) -> Vec<RatInput> {
        self.corner_coords()
            .into_iter()
            .map(|corner| {
                let mut c = self.base.clone();
                corner.apply_into(&mut c);
                c.name = corner.display_name(&self.base.name);
                c
            })
            .collect()
    }
}

/// Outcome of exploring a design space against a speedup requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// The speedup requirement applied.
    pub min_speedup: f64,
    /// Corners that met the requirement, ranked best first.
    pub passing: Vec<Report>,
    /// Number of corners that failed.
    pub failing: usize,
    /// The *cheapest* passing corner: lowest `throughput_proc` (parallelism is
    /// the expensive axis), ties broken by lowest clock (timing closure is the
    /// risky axis). `None` when the space is exhausted.
    pub cheapest: Option<Report>,
}

impl Exploration {
    /// Whether any corner satisfied the requirement.
    pub fn satisfiable(&self) -> bool {
        !self.passing.is_empty()
    }

    /// Render a summary.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!(
                "Design-space exploration ({} passing, {} failing, target {:.1}x)",
                self.passing.len(),
                self.failing,
                self.min_speedup
            ))
            .header(["Corner", "Speedup"]);
        for r in self.passing.iter().take(10) {
            t.row([r.input.name.clone(), format!("{:.2}", r.speedup)]);
        }
        let mut s = t.render();
        match &self.cheapest {
            Some(c) => s.push_str(&format!(
                "cheapest passing corner: {} ({:.2}x)\n",
                c.input.name, c.speedup
            )),
            None => s.push_str(
                "space exhausted without a satisfactory solution — redesign or abandon\n",
            ),
        }
        s
    }
}

/// Explore `space` against `min_speedup`.
///
/// Runs in two phases: the whole space is first gated through the batched
/// SoA kernel — corners partition by buffering discipline (a base-level
/// property of a batch), and each partition is one
/// [`solve::batch::speedup_batch_indexed`] call with `f_clock` and
/// `throughput_proc` columns — and only corners that pass the gate get a
/// full named [`Report`]. The batch kernel is bit-identical to the scalar
/// [`solve::speedup_only`] gate it replaced, so the partition is exactly
/// what the per-corner version computed; on an invalid corner, the
/// lowest-indexed corner in enumeration order wins error reporting, as
/// before.
pub fn explore(space: &DesignSpace, min_speedup: f64) -> Result<Exploration, RatError> {
    let _span = crate::telemetry::span("explore");
    if !(min_speedup.is_finite() && min_speedup > 0.0) {
        return Err(RatError::param(format!(
            "min_speedup must be positive, got {min_speedup}"
        )));
    }
    let corners = space.corner_coords();
    let mut speedups = vec![0.0_f64; corners.len()];
    let mut first_err: Option<(usize, RatError)> = None;
    for buffering in [Buffering::Single, Buffering::Double] {
        let idx: Vec<usize> = (0..corners.len())
            .filter(|&i| corners[i].buffering == buffering)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let base = space.base.with_buffering(buffering);
        let mut batch = BatchPoints::new(&base, idx.len());
        batch.push_column(
            SweepParam::Fclock,
            idx.iter()
                .map(|&i| corners[i].fclock_hz)
                .collect::<Vec<f64>>(),
        );
        batch.push_column(
            SweepParam::ThroughputProc,
            idx.iter()
                .map(|&i| corners[i].throughput_proc)
                .collect::<Vec<f64>>(),
        );
        match solve::batch::speedup_batch_indexed(&batch) {
            Ok(s) => {
                for (k, &i) in idx.iter().enumerate() {
                    speedups[i] = s[k];
                }
            }
            // `idx` ascends, so the kernel's lowest in-partition failure maps
            // to the partition's lowest corner; the min across partitions is
            // the globally lowest failing corner.
            Err((k, e)) => {
                let global = idx[k];
                if first_err.as_ref().is_none_or(|(j, _)| global < *j) {
                    first_err = Some((global, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let mut scratch = space.base.clone();
    let mut passing = Vec::new();
    let mut failing = 0usize;
    for (corner, &speedup) in corners.iter().zip(&speedups) {
        if speedup >= min_speedup {
            scratch.copy_params_from(&space.base);
            corner.apply_into(&mut scratch);
            let mut named = scratch.clone();
            named.name = corner.display_name(&space.base.name);
            passing.push(Worksheet::new(named).analyze()?);
        } else {
            failing += 1;
        }
    }
    passing.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    let cheapest = passing
        .iter()
        .min_by(|a, b| {
            (a.input.comp.throughput_proc, a.input.comp.fclock)
                .partial_cmp(&(b.input.comp.throughput_proc, b.input.comp.fclock))
                .expect("finite by validation")
        })
        .cloned();
    Ok(Exploration {
        min_speedup,
        passing,
        failing,
        cheapest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;

    fn space() -> DesignSpace {
        DesignSpace {
            base: pdf1d_example(),
            fclocks: vec![75.0e6, 100.0e6, 150.0e6],
            throughput_procs: vec![10.0, 20.0, 24.0],
            bufferings: vec![Buffering::Single, Buffering::Double],
        }
    }

    #[test]
    fn corner_count_is_cartesian() {
        assert_eq!(space().size(), 18);
        assert_eq!(space().corners().len(), 18);
    }

    #[test]
    fn empty_axes_keep_base_values() {
        let s = DesignSpace::clocks(pdf1d_example(), vec![100.0e6]);
        let corners = s.corners();
        assert_eq!(corners.len(), 1);
        assert_eq!(corners[0].comp.throughput_proc, 20.0);
        assert_eq!(corners[0].comp.fclock, Freq::from_hz(100.0e6));
    }

    #[test]
    fn exploration_partitions_the_space() {
        let e = explore(&space(), 10.0).unwrap();
        assert_eq!(e.passing.len() + e.failing, 18);
        assert!(e.satisfiable());
        // Every passing corner genuinely meets the bar; ranking is descending.
        for r in &e.passing {
            assert!(r.speedup >= 10.0);
        }
        for w in e.passing.windows(2) {
            assert!(w[0].speedup >= w[1].speedup);
        }
    }

    #[test]
    fn cheapest_prefers_less_parallelism_then_lower_clock() {
        let e = explore(&space(), 10.0).unwrap();
        let c = e.cheapest.unwrap();
        // 20 ops/cyc @150 MHz SB passes (10.6x); DB @150 with 20 passes too;
        // 10 ops/cyc corners: SB 150 MHz gives ~5.5x (fail), DB 150 gives
        // 0.578/(400*2.62e-4) = 5.5 (fail). So cheapest is 20 ops/cyc, and
        // among those the lowest passing clock.
        assert_eq!(c.input.comp.throughput_proc, 20.0);
        assert!(c.input.comp.fclock <= Freq::from_mhz(150.0));
        assert!(c.speedup >= 10.0);
    }

    #[test]
    fn unsatisfiable_space_reports_exhaustion() {
        let e = explore(&space(), 1000.0).unwrap();
        assert!(!e.satisfiable());
        assert_eq!(e.failing, 18);
        assert!(e.cheapest.is_none());
        assert!(e.render().contains("exhausted"));
    }

    #[test]
    fn corner_names_identify_the_configuration() {
        let corners = space().corners();
        assert!(corners[0].name.contains("MHz"));
        assert!(corners[0].name.contains("ops/cyc"));
    }

    #[test]
    fn lazy_coords_match_the_eager_corner_view() {
        let s = space();
        let coords = s.corner_coords();
        let eager = s.corners();
        assert_eq!(coords.len(), eager.len());
        for (corner, input) in coords.iter().zip(&eager) {
            assert_eq!(input.comp.fclock, Freq::from_hz(corner.fclock_hz));
            assert_eq!(input.comp.throughput_proc, corner.throughput_proc);
            assert_eq!(input.buffering, corner.buffering);
            assert_eq!(input.name, corner.display_name(&s.base.name));
        }
    }

    #[test]
    fn two_phase_explore_reports_the_same_named_corners() {
        // Every passing report must carry exactly the name the eager
        // enumeration would have given that corner, and its speedup must
        // match a full analysis of the same input.
        let s = space();
        let eager_names: Vec<String> = s.corners().into_iter().map(|c| c.name).collect();
        let e = explore(&s, 10.0).unwrap();
        for r in &e.passing {
            assert!(
                eager_names.contains(&r.input.name),
                "unknown corner name {:?}",
                r.input.name
            );
            let full = Worksheet::new(r.input.clone()).analyze().unwrap();
            assert_eq!(full.speedup, r.speedup);
        }
    }

    #[test]
    fn bad_requirement_rejected() {
        assert!(explore(&space(), 0.0).is_err());
        assert!(explore(&space(), f64::NAN).is_err());
    }
}
