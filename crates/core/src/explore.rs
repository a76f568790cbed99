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
//!
//! The gate is the batched speedup kernel, and its speedups also rank the
//! passing corners. Only the corners the summary prints, the [`TOP`] fastest
//! and the cheapest, get a full named [`Report`], so a million-corner space
//! costs one kernel pass plus at most eleven reports.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::Write;

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

    /// The resolved axes (clocks, throughputs, bufferings): an empty axis
    /// holds the base design's value alone. Corner `(k * bufferings + b)`
    /// sits at clock `k / throughputs`, throughput `k % throughputs` and
    /// buffering `b`: clock outermost, buffering innermost.
    fn axes(&self) -> Axes<'_> {
        fn or_base<T: Clone>(axis: &[T], base: T) -> Cow<'_, [T]> {
            if axis.is_empty() {
                Cow::Owned(vec![base])
            } else {
                Cow::Borrowed(axis)
            }
        }
        Axes {
            fclocks: or_base(&self.fclocks, self.base.comp.fclock.hz()),
            throughput_procs: or_base(&self.throughput_procs, self.base.comp.throughput_proc),
            bufferings: or_base(&self.bufferings, self.base.buffering),
        }
    }

    /// Enumerate every corner's raw coordinates, in deterministic axis order
    /// (clock outermost, buffering innermost). This is the cheap enumeration:
    /// no input clones, no name formatting — a corner is three scalars.
    pub fn corner_coords(&self) -> Vec<Corner> {
        let axes = self.axes();
        (0..axes.len()).map(|c| axes.corner(c)).collect()
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

/// A design space's resolved axes (see [`DesignSpace::axes`]).
struct Axes<'a> {
    fclocks: Cow<'a, [f64]>,
    throughput_procs: Cow<'a, [f64]>,
    bufferings: Cow<'a, [Buffering]>,
}

impl Axes<'_> {
    /// Number of corners.
    fn len(&self) -> usize {
        self.grid_len() * self.bufferings.len()
    }

    /// Number of (clock, throughput) grid points.
    fn grid_len(&self) -> usize {
        self.fclocks.len() * self.throughput_procs.len()
    }

    /// Clock of grid point `k`.
    fn fclock(&self, k: usize) -> f64 {
        self.fclocks[k / self.throughput_procs.len()]
    }

    /// Throughput of grid point `k`.
    fn throughput_proc(&self, k: usize) -> f64 {
        self.throughput_procs[k % self.throughput_procs.len()]
    }

    /// Corner `c`'s coordinates.
    fn corner(&self, c: usize) -> Corner {
        let k = c / self.bufferings.len();
        Corner {
            fclock_hz: self.fclock(k),
            throughput_proc: self.throughput_proc(k),
            buffering: self.bufferings[c % self.bufferings.len()],
        }
    }
}

/// How many of the fastest passing corners an [`Exploration`] reports.
pub const TOP: usize = 10;

/// Outcome of exploring a design space against a speedup requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// The speedup requirement applied.
    pub min_speedup: f64,
    /// Number of corners that met the requirement.
    pub passing: usize,
    /// The fastest passing corners, best first: at most [`TOP`] reports.
    /// Corners with equal speedups keep enumeration order.
    pub top: Vec<Report>,
    /// Number of corners that failed.
    pub failing: usize,
    /// The *cheapest* passing corner: lowest `throughput_proc` (parallelism is
    /// the expensive axis), ties broken by lowest clock (timing closure is the
    /// risky axis), then by rank. `None` when the space is exhausted.
    pub cheapest: Option<Report>,
}

impl Exploration {
    /// Whether any corner satisfied the requirement.
    pub fn satisfiable(&self) -> bool {
        self.passing > 0
    }

    /// Render a summary.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!(
                "Design-space exploration ({} passing, {} failing, target {:.1}x)",
                self.passing, self.failing, self.min_speedup
            ))
            .header(["Corner", "Speedup"]);
        for r in &self.top {
            t.row([
                format_args!("{}", r.input.name),
                format_args!("{:.2}", r.speedup),
            ]);
        }
        let mut s = t.render();
        match &self.cheapest {
            Some(c) => writeln!(
                s,
                "cheapest passing corner: {} ({:.2}x)",
                c.input.name, c.speedup
            )
            .expect("writing to a String does not fail"),
            None => s.push_str(
                "space exhausted without a satisfactory solution — redesign or abandon\n",
            ),
        }
        s
    }
}

/// Explore `space` against `min_speedup`.
///
/// The whole space is gated through the batched SoA kernel. The clock and
/// throughput columns are built once, over the (clock, throughput) grid,
/// and each buffering discipline on the axis is one
/// [`solve::batch::speedup_batch`] call over that grid, so a corner's
/// speedup is its grid point's under its discipline: bit-identical to the
/// one a full [`Report`] would carry. One pass over the corners, in
/// enumeration order, then counts the passing ones, keeps the [`TOP`] best
/// in rank order (speedup descending, then enumeration order) and picks the
/// cheapest from the coordinates. Only those get a full named report, so
/// the cost past the gate does not grow with the space. On an invalid
/// corner, the lowest-indexed corner in enumeration order wins error
/// reporting: its grid point is the grid's lowest invalid one under every
/// discipline, since validity does not depend on the buffering.
pub fn explore(space: &DesignSpace, min_speedup: f64) -> Result<Exploration, RatError> {
    let _span = crate::telemetry::span("explore");
    if !(min_speedup.is_finite() && min_speedup > 0.0) {
        return Err(RatError::param(format!(
            "min_speedup must be positive, got {min_speedup}"
        )));
    }
    let axes = space.axes();
    let grid = axes.grid_len();
    let fcol: Vec<f64> = (0..grid).map(|k| axes.fclock(k)).collect();
    let tcol: Vec<f64> = (0..grid).map(|k| axes.throughput_proc(k)).collect();
    let mut speedups: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (slot, buffering) in [Buffering::Single, Buffering::Double]
        .into_iter()
        .enumerate()
    {
        if !axes.bufferings.contains(&buffering) {
            continue;
        }
        let base = space.base.with_buffering(buffering);
        let mut batch = BatchPoints::new(&base, grid);
        batch.push_column(SweepParam::Fclock, &fcol[..]);
        batch.push_column(SweepParam::ThroughputProc, &tcol[..]);
        // Validity does not depend on the discipline, so the lowest failing
        // corner sits at the grid's lowest failing point, whose error reads
        // the same under either discipline.
        speedups[slot] = solve::batch::speedup_batch(&batch)?;
    }
    let columns: Vec<&[f64]> = axes
        .bufferings
        .iter()
        .map(|b| match b {
            Buffering::Single => &speedups[0][..],
            Buffering::Double => &speedups[1][..],
        })
        .collect();
    let mut passing = 0;
    // The best passing corners so far as (speedup, corner), in rank order.
    let mut top: Vec<(f64, usize)> = Vec::with_capacity(TOP + 1);
    let mut cheapest: Option<(f64, usize)> = None;
    // Cost order: lowest throughput_proc, then lowest clock.
    let cost = |c: usize| {
        let k = c / columns.len();
        (axes.throughput_proc(k), axes.fclock(k))
    };
    for k in 0..grid {
        let passes = (columns.iter().enumerate())
            .map(|(pos, column)| (column[k], k * columns.len() + pos))
            .filter(|&(s, _)| s >= min_speedup);
        for (s, corner) in passes {
            passing += 1;
            // Corners arrive in enumeration order, so a new corner ranks
            // after every kept one of equal speedup.
            if top.len() < TOP || s.total_cmp(&top[TOP - 1].0) == Ordering::Greater {
                let at = top.partition_point(|(t, _)| t.total_cmp(&s) != Ordering::Less);
                top.insert(at, (s, corner));
                top.truncate(TOP);
            }
            // Equal costs go to the better-ranked corner: the earlier one,
            // unless this one is faster.
            let cheaper = cheapest.is_none_or(|(cs, c)| {
                match cost(corner)
                    .partial_cmp(&cost(c))
                    .expect("finite by validation")
                {
                    Ordering::Less => true,
                    Ordering::Equal => s.total_cmp(&cs) == Ordering::Greater,
                    Ordering::Greater => false,
                }
            });
            if cheaper {
                cheapest = Some((s, corner));
            }
        }
    }
    let report = |c: usize| {
        let corner = axes.corner(c);
        let mut named = space.base.clone();
        corner.apply_into(&mut named);
        named.name = corner.display_name(&space.base.name);
        Worksheet::new(named).analyze()
    };
    Ok(Exploration {
        min_speedup,
        passing,
        top: top
            .iter()
            .map(|&(_, c)| report(c))
            .collect::<Result<_, _>>()?,
        failing: axes.len() - passing,
        cheapest: cheapest.map(|(_, c)| report(c)).transpose()?,
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
        assert_eq!(e.passing + e.failing, 18);
        assert!(e.satisfiable());
        assert_eq!(e.top.len(), e.passing.min(TOP));
        // Every reported corner genuinely meets the bar; ranking is
        // descending.
        for r in &e.top {
            assert!(r.speedup >= 10.0);
        }
        for w in e.top.windows(2) {
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
        for r in e.top.iter().chain(&e.cheapest) {
            assert!(
                eager_names.contains(&r.input.name),
                "unknown corner name {:?}",
                r.input.name
            );
            let full = Worksheet::new(r.input.clone()).analyze().unwrap();
            assert_eq!(full.speedup, r.speedup);
        }
    }

    /// A full report per corner, in enumeration order.
    fn corner_reports(space: &DesignSpace) -> Vec<Report> {
        let analyze = |c: RatInput| Worksheet::new(c).analyze().unwrap();
        space.corners().into_iter().map(analyze).collect()
    }

    /// The exploration a full report per passing corner gives: rank the
    /// reports by speedup (stable), take the cheapest with `min_by`.
    fn rank_reference(reports: &[Report], min_speedup: f64) -> Exploration {
        let total = reports.len();
        let mut passing: Vec<Report> = reports
            .iter()
            .filter(|r| r.speedup >= min_speedup)
            .cloned()
            .collect();
        passing.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
        let cheapest = passing
            .iter()
            .min_by(|a, b| {
                (a.input.comp.throughput_proc, a.input.comp.fclock)
                    .partial_cmp(&(b.input.comp.throughput_proc, b.input.comp.fclock))
                    .unwrap()
            })
            .cloned();
        Exploration {
            min_speedup,
            passing: passing.len(),
            failing: total - passing.len(),
            top: passing.into_iter().take(TOP).collect(),
            cheapest,
        }
    }

    #[test]
    fn matches_a_full_report_per_passing_corner() {
        use rand::{Rng, SeedableRng};
        // A few values per axis, drawn with repeats, so corners tie exactly
        // on speedup; throughputs up to 120 ops/cycle make double-buffered
        // corners communication-bound, where distinct corners tie too.
        let clocks = [50.0e6, 100.0e6, 150.0e6, 1.0e9, 1.5e9];
        let tps = [4.0, 10.0, 20.0, 24.0, 80.0, 120.0];
        for seed in 0..64u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut draw = |axis: &[f64]| -> Vec<f64> {
                let n = rng.gen_range(1..=8);
                (0..n).map(|_| axis[rng.gen_range(0..axis.len())]).collect()
            };
            let fclocks = draw(&clocks);
            let throughput_procs = draw(&tps);
            let bufferings = match seed % 3 {
                0 => vec![Buffering::Single, Buffering::Double],
                1 => vec![Buffering::Double, Buffering::Single, Buffering::Double],
                _ => Vec::new(),
            };
            let s = DesignSpace {
                base: pdf1d_example(),
                fclocks,
                throughput_procs,
                bufferings,
            };
            let reports = corner_reports(&s);
            let mut speedups: Vec<f64> = reports.iter().map(|r| r.speedup).collect();
            speedups.sort_by(|a, b| b.total_cmp(a));
            // Fixed thresholds, then the best speedup and those of the 10th
            // and 11th best corners, where a tie can straddle the cut.
            let nth = |n: usize| speedups[n.min(speedups.len() - 1)];
            for min_speedup in [1.0, 8.0, 12.0, 200.0, 1.0e6, nth(0), nth(TOP - 1), nth(TOP)] {
                assert_eq!(
                    explore(&s, min_speedup).unwrap(),
                    rank_reference(&reports, min_speedup),
                    "seed {seed}, target {min_speedup}"
                );
            }
        }
    }

    /// The explore before the streaming pass: enumerate every corner,
    /// gate each buffering's corners as one batch, collect the passing
    /// corners, pick the cheapest, then select and sort the top ten.
    fn enumerate_rank_select(
        space: &DesignSpace,
        min_speedup: f64,
    ) -> Result<Exploration, RatError> {
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
            let column = |f: fn(&Corner) -> f64| -> Vec<f64> {
                idx.iter().map(|&i| f(&corners[i])).collect()
            };
            batch.push_column(SweepParam::Fclock, column(|c| c.fclock_hz));
            batch.push_column(SweepParam::ThroughputProc, column(|c| c.throughput_proc));
            match solve::batch::speedup_batch_indexed(&batch) {
                Ok(s) => {
                    for (k, &i) in idx.iter().enumerate() {
                        speedups[i] = s[k];
                    }
                }
                Err((k, e)) => {
                    if first_err.as_ref().is_none_or(|(j, _)| idx[k] < *j) {
                        first_err = Some((idx[k], e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        let rank = |&a: &usize, &b: &usize| speedups[b].total_cmp(&speedups[a]).then(a.cmp(&b));
        let mut ranked: Vec<usize> = (0..corners.len())
            .filter(|&i| speedups[i] >= min_speedup)
            .collect();
        let passing = ranked.len();
        let cheapest = ranked.iter().copied().min_by(|a, b| {
            let key = |i: usize| (corners[i].throughput_proc, corners[i].fclock_hz);
            key(*a)
                .partial_cmp(&key(*b))
                .unwrap()
                .then_with(|| rank(a, b))
        });
        if ranked.len() > TOP {
            ranked.select_nth_unstable_by(TOP - 1, rank);
            ranked.truncate(TOP);
        }
        ranked.sort_unstable_by(rank);
        let report = |i: usize| {
            let mut named = space.base.clone();
            corners[i].apply_into(&mut named);
            named.name = corners[i].display_name(&space.base.name);
            Worksheet::new(named).analyze()
        };
        Ok(Exploration {
            min_speedup,
            passing,
            top: ranked
                .iter()
                .map(|&i| report(i))
                .collect::<Result<_, _>>()?,
            failing: corners.len() - passing,
            cheapest: cheapest.map(report).transpose()?,
        })
    }

    #[test]
    fn streaming_explore_matches_enumerate_rank_select() {
        use rand::{Rng, SeedableRng};
        // Few values per axis, drawn with repeats, so corners tie on
        // speedup and on cost; throughputs up to 120 ops/cycle make
        // double-buffered corners communication-bound, where distinct
        // corners tie too. Some axes carry an invalid value.
        let clocks = [50.0e6, 100.0e6, 150.0e6, 1.0e9, 1.5e9];
        let tps = [4.0, 10.0, 20.0, 24.0, 80.0, 120.0];
        let bad = [-1.0e8, 0.0, f64::NAN, f64::INFINITY];
        let orders = [
            vec![Buffering::Single, Buffering::Double],
            vec![Buffering::Double, Buffering::Single],
            vec![Buffering::Double, Buffering::Single, Buffering::Double],
            vec![Buffering::Double],
            vec![Buffering::Single, Buffering::Single],
            Vec::new(),
        ];
        for seed in 0..192u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut draw = |axis: &[f64], max: usize| -> Vec<f64> {
                let n = rng.gen_range(0..=max);
                let mut v: Vec<f64> = (0..n).map(|_| axis[rng.gen_range(0..axis.len())]).collect();
                if seed % 4 == 3 && n > 0 {
                    let at = rng.gen_range(0..n);
                    v[at] = bad[rng.gen_range(0..bad.len())];
                }
                v
            };
            let s = DesignSpace {
                base: pdf1d_example(),
                fclocks: draw(&clocks, 9),
                throughput_procs: draw(&tps, 9),
                bufferings: orders[seed as usize % orders.len()].clone(),
            };
            if let Err(want) = enumerate_rank_select(&s, 1.0) {
                let got = explore(&s, 1.0).unwrap_err();
                assert_eq!(got.to_string(), want.to_string(), "seed {seed}");
                continue;
            }
            // Thresholds at the 10th and 11th best speedups, where a tie
            // can straddle the cut, plus all and none passing.
            let mut speedups: Vec<f64> = corner_reports(&s).iter().map(|r| r.speedup).collect();
            speedups.sort_by(|a, b| b.total_cmp(a));
            let nth = |n: usize| speedups[n.min(speedups.len() - 1)];
            for min_speedup in [1.0e-9, nth(TOP - 2), nth(TOP - 1), nth(TOP), nth(0), 1.0e6] {
                assert_eq!(
                    explore(&s, min_speedup).unwrap(),
                    enumerate_rank_select(&s, min_speedup).unwrap(),
                    "seed {seed}, target {min_speedup}"
                );
            }
        }
    }

    #[test]
    fn bad_requirement_rejected() {
        assert!(explore(&space(), 0.0).is_err());
        assert!(explore(&space(), f64::NAN).is_err());
    }
}
