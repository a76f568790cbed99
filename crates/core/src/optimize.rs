//! Guided design-space search: RAT "applied iteratively", steered.
//!
//! [`crate::explore`] answers "which corners pass?" by brute force — fine for
//! a handful of candidate clocks, hopeless once the space grows devices,
//! precision candidates, and continuous frequency/parallelism axes. This
//! module replaces enumeration with a **deterministic, seeded,
//! population-based search** (a cross-entropy method with per-axis Gaussian
//! adaptation — see `DESIGN.md` §17 for why this beats simulated annealing on
//! RAT's batch kernels): each generation draws a population of candidate
//! design points, evaluates all of them through the SoA
//! [`solve_batch`] kernels on the warm engine pool, gates each candidate
//! through the Eq. (9)–(11) resource test, and adapts the sampling
//! distribution toward the feasible elite.
//!
//! The output is not a single winner but a **Pareto front** over three
//! objectives: predicted speedup (Eq. 7, maximize), computation utilization
//! (Eqs. 8/10, maximize), and resource pressure (the largest of the Eq.
//! (9)–(11)-style utilization fractions, minimize). A migration decision
//! trades these off — the fastest point may saturate the device, the
//! lightest may idle it — so the front is the honest deliverable.
//!
//! ## Determinism contract
//!
//! Same seed → bit-identical front, at every `--jobs` setting and with SIMD
//! forced on or off. Three mechanisms carry the contract:
//!
//! 1. All random draws happen on the coordinating thread from per-generation
//!    streams [`job_rng`]`(seed, generation)` — never from a stream consumed
//!    in scheduling order.
//! 2. Candidate evaluation is dispatched as [`solve_batch`] chunks sized by
//!    [`Engine::chunk_len`]; the batch kernels are bit-identical across chunk
//!    seams and to the scalar [`Worksheet::analyze`] path (pinned by the
//!    PR 8 differential suites), so results cannot depend on the job count
//!    or the vector ISA.
//! 3. Every ranking and front update orders floats with `total_cmp` and
//!    breaks ties by candidate index, in generation order.
//!
//! [`Worksheet::analyze`]: crate::worksheet::Worksheet::analyze
//! [`solve_batch`]: crate::solve::batch::solve_batch

use crate::engine::{job_rng, Engine};
use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::report::Report;
use crate::resources::device::{all_devices, FpgaDevice, LogicKind};
use crate::resources::estimate::{
    brams_for_buffer, dsps_for_multiplier, ResourceEstimate, ALTERA_M4K_BYTES, XILINX_BRAM18_BYTES,
};
use crate::resources::ResourceReport;
use crate::solve::batch::{solve_batch_with, BatchPoints};
use crate::sweep::SweepParam;
use crate::table::{pct, TextTable};
use crate::telemetry::{self, Metric};
use fixedpoint::QFormat;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Slices/ALUTs of datapath logic per lane-bit of the candidate's number
/// format: registers, routing, and the adder tree around each dedicated
/// multiplier. Coarse by design — the paper is frank that a-priori logic
/// counts are inexact — but deterministic, so the resource gate is
/// reproducible.
const LOGIC_CELLS_PER_LANE_BIT: u64 = 12;

/// Fixed control-plane overhead (state machine, DMA glue) independent of
/// parallelism.
const CONTROL_OVERHEAD_CELLS: u64 = 320;

/// Fraction of the population adopted as the elite set each generation.
const ELITE_FRACTION: usize = 8;

/// Multiplier applied to the elite standard deviation when adapting the
/// per-axis step size: keeps the search from collapsing prematurely on a
/// lucky early generation.
const SIGMA_EXPAND: f64 = 1.2;

/// Relative floor on the per-axis step size (fraction of the axis range):
/// the distribution never degenerates to a point, so later generations keep
/// probing even after convergence.
const SIGMA_RANGE_FLOOR: f64 = 1e-4;

/// The design space a guided search samples from.
///
/// Continuous axes are closed ranges; categorical axes are candidate lists.
/// An empty categorical list means "use the default" — the base worksheet's
/// buffering, the full device catalog, or the paper's two fixed-point
/// precision candidates (18-bit and 32-bit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeSpace {
    /// The base design; axis values overwrite its corresponding fields.
    pub base: RatInput,
    /// Clock frequency range in Hz, inclusive.
    pub fclock_hz: (f64, f64),
    /// `throughput_proc` range in ops/cycle, inclusive.
    pub throughput_proc: (f64, f64),
    /// Candidate buffering disciplines. Empty = the base discipline.
    pub bufferings: Vec<Buffering>,
    /// Candidate target devices. Empty = the full catalog.
    pub devices: Vec<FpgaDevice>,
    /// Candidate fixed-point formats. Empty = the paper's Q0.17 (18-bit) and
    /// Q0.31 (32-bit) candidates.
    pub precisions: Vec<QFormat>,
}

impl OptimizeSpace {
    /// A space around `base` with the paper's own exploration shape: clocks
    /// from half the base clock up to the base clock, parallelism from one
    /// op/cycle up to the base `throughput_proc`, both buffering
    /// disciplines, the default device catalog and precision candidates.
    pub fn around(base: RatInput) -> Self {
        let f = base.comp.fclock.hz();
        let tp = base.comp.throughput_proc;
        OptimizeSpace {
            base,
            fclock_hz: (0.5 * f, f),
            throughput_proc: (1.0_f64.min(tp), tp),
            bufferings: vec![Buffering::Single, Buffering::Double],
            devices: Vec::new(),
            precisions: Vec::new(),
        }
    }

    /// Validate the axes, naming the offending field.
    pub fn validate(&self) -> Result<(), RatError> {
        self.base.validate()?;
        range_ok("fclock_range", self.fclock_hz)?;
        range_ok("throughput_range", self.throughput_proc)?;
        Ok(())
    }

    fn resolved_bufferings(&self) -> Vec<Buffering> {
        if self.bufferings.is_empty() {
            vec![self.base.buffering]
        } else {
            self.bufferings.clone()
        }
    }

    fn resolved_devices(&self) -> Vec<FpgaDevice> {
        if self.devices.is_empty() {
            all_devices()
        } else {
            self.devices.clone()
        }
    }

    fn resolved_precisions(&self) -> Vec<QFormat> {
        if self.precisions.is_empty() {
            default_precisions()
        } else {
            self.precisions.clone()
        }
    }
}

/// The paper's two fixed-point candidates: the 18-bit format that fills one
/// dedicated multiplier, and the 32-bit format that costs two (§3.4's "32-bit
/// fixed-point multiplications on Xilinx V4 FPGAs require two dedicated
/// 18-bit multipliers").
pub fn default_precisions() -> Vec<QFormat> {
    let q17 = QFormat::signed(0, 17);
    let q31 = QFormat::signed(0, 31);
    match (q17, q31) {
        (Ok(a), Ok(b)) => vec![a, b],
        // 18 and 32 total bits are far below the 63-bit cap; unreachable.
        _ => Vec::new(),
    }
}

fn range_ok(field: &str, (lo, hi): (f64, f64)) -> Result<(), RatError> {
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(RatError::quantity(
            field,
            format!("bounds must be finite, got [{lo}, {hi}]"),
        ));
    }
    if lo <= 0.0 {
        return Err(RatError::quantity(
            field,
            format!("lower bound must be positive, got {lo}"),
        ));
    }
    if lo > hi {
        return Err(RatError::quantity(
            field,
            format!("empty range: lower bound {lo} exceeds upper bound {hi}"),
        ));
    }
    Ok(())
}

/// Knobs of the search itself (not of the space it searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizeConfig {
    /// Root seed: the whole run is a pure function of `(space, config)`.
    pub seed: u64,
    /// Generations to run.
    pub generations: u32,
    /// Candidates per generation (one `solve_batch` dispatch each).
    pub population: usize,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            seed: 2007,
            generations: 24,
            population: 512,
        }
    }
}

impl OptimizeConfig {
    /// Validate the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), RatError> {
        if self.generations == 0 {
            return Err(RatError::quantity(
                "generations",
                "must be at least 1".to_string(),
            ));
        }
        if self.population == 0 {
            return Err(RatError::quantity(
                "population",
                "must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// The three Pareto objectives of one evaluated, feasible design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objectives {
    /// Predicted speedup over software, Eq. (7). Maximize.
    pub speedup: f64,
    /// Computation utilization, Eq. (8)/(10). Maximize.
    pub util_comp: f64,
    /// Resource pressure: the largest of the DSP/BRAM/logic utilization
    /// fractions on the candidate device. Minimize.
    pub resource_frac: f64,
}

impl Objectives {
    /// Pareto dominance: at least as good on every objective and strictly
    /// better on at least one. Floats compare via `total_cmp`, so the
    /// relation is total even in the presence of exotic values.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let s = self.speedup.total_cmp(&other.speedup);
        let u = self.util_comp.total_cmp(&other.util_comp);
        // Resource pressure is minimized: flip the comparison.
        let r = other.resource_frac.total_cmp(&self.resource_frac);
        let none_worse = s != Ordering::Less && u != Ordering::Less && r != Ordering::Less;
        let some_better =
            s == Ordering::Greater || u == Ordering::Greater || r == Ordering::Greater;
        none_worse && some_better
    }

    /// Bitwise equality on all three objectives.
    pub fn ties(&self, other: &Objectives) -> bool {
        self.speedup.total_cmp(&other.speedup) == Ordering::Equal
            && self.util_comp.total_cmp(&other.util_comp) == Ordering::Equal
            && self.resource_frac.total_cmp(&other.resource_frac) == Ordering::Equal
    }
}

/// One non-dominated design point of the final front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// The full throughput report at this point. Bit-identical to running
    /// [`crate::worksheet::Worksheet::analyze`] on `report.input` directly —
    /// pinned by the differential suite.
    pub report: Report,
    /// The candidate device.
    pub device: FpgaDevice,
    /// The candidate number format.
    pub precision: QFormat,
    /// The Eq. (9)–(11) resource verdict (always `fits`; infeasible points
    /// never enter the front).
    pub resources: ResourceReport,
    /// The point's Pareto objectives.
    pub objectives: Objectives,
    /// The generation that first evaluated this point.
    pub generation: u32,
}

impl FrontPoint {
    /// Display name for the point: base design plus its axis coordinates.
    pub fn display_name(&self) -> String {
        format!(
            "{} [{:.1} MHz, {:.3} ops/cyc, {:?}, {}, {}]",
            self.report.input.name,
            self.report.input.comp.fclock.hz() / 1e6,
            self.report.input.comp.throughput_proc,
            self.report.input.buffering,
            self.device.name,
            self.precision,
        )
    }
}

/// Outcome of a guided search: the Pareto front plus the audit trail the
/// property suites replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeOutcome {
    /// Seed the run was rooted at.
    pub seed: u64,
    /// Generations actually run.
    pub generations: u32,
    /// Candidate evaluations performed (generations × population).
    pub evals: u64,
    /// Evaluations that passed the resource test.
    pub feasible_evals: u64,
    /// The non-dominated set, ranked by speedup (descending), ties by
    /// utilization then resource pressure then insertion order.
    pub front: Vec<FrontPoint>,
    /// Objectives of every *feasible* point the search visited, in
    /// evaluation order — the audit trail behind the dominance property:
    /// each entry is dominated by or ties a front member, and no entry
    /// dominates one.
    pub visited: Vec<Objectives>,
}

impl OptimizeOutcome {
    /// The highest-speedup front member.
    pub fn best(&self) -> &FrontPoint {
        // The constructor sorts the front and rejects empty fronts.
        &self.front[0]
    }

    /// Render the front as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(format!(
                "Guided design-space search (seed {}, {} generations, {} evals, {} feasible, front {})",
                self.seed,
                self.generations,
                self.evals,
                self.feasible_evals,
                self.front.len()
            ))
            .header(["Design point", "Speedup", "util_comp", "max resource"]);
        for p in self.front.iter().take(10) {
            t.row([
                p.display_name(),
                format!("{:.2}", p.objectives.speedup),
                pct(p.objectives.util_comp),
                pct(p.objectives.resource_frac),
            ]);
        }
        let mut s = t.render();
        if self.front.len() > 10 {
            s.push_str(&format!(
                "... and {} more front points\n",
                self.front.len() - 10
            ));
        }
        let b = self.best();
        s.push_str(&format!(
            "best speedup: {} ({:.2}x, {} of {} {})\n",
            b.display_name(),
            b.objectives.speedup,
            b.resources.estimate.dsp,
            b.device.dsp_blocks,
            b.device.dsp_name,
        ));
        s
    }
}

/// Derive the Eq. (9)–(11) resource demand of one candidate: enough parallel
/// multiply lanes to sustain `throughput_proc` ops/cycle at the candidate
/// precision, input/output block buffers (doubled under double buffering),
/// and datapath + control logic.
pub fn estimate_candidate(
    base: &RatInput,
    throughput_proc: f64,
    buffering: Buffering,
    precision: QFormat,
    device: &FpgaDevice,
) -> ResourceEstimate {
    let lanes = throughput_proc.ceil().clamp(1.0, 1e9) as u64;
    let per_mult = u64::from(dsps_for_multiplier(
        precision.total_bits(),
        device.native_mult_width,
    ));
    let dsp = u32::try_from(lanes * per_mult).unwrap_or(u32::MAX);
    let block_bytes = match device.logic_kind {
        LogicKind::Aluts => ALTERA_M4K_BYTES,
        LogicKind::Slices | LogicKind::Luts => XILINX_BRAM18_BYTES,
    };
    let copies = match buffering {
        Buffering::Single => 1,
        Buffering::Double => 2,
    };
    let bram = (brams_for_buffer(base.input_bytes().get(), block_bytes)
        + brams_for_buffer(base.output_bytes().get(), block_bytes))
        * copies;
    let logic = lanes * u64::from(precision.total_bits()) * LOGIC_CELLS_PER_LANE_BIT
        + CONTROL_OVERHEAD_CELLS;
    ResourceEstimate { dsp, bram, logic }
}

/// One candidate's categorical/continuous coordinates, as indices into the
/// resolved axis lists.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    fclock_hz: f64,
    throughput_proc: f64,
    buf: usize,
    dev: usize,
    prec: usize,
}

/// Per-axis sampling state of the cross-entropy search.
struct SearchState {
    mean: [f64; 2],
    sigma: [f64; 2],
    lo: [f64; 2],
    hi: [f64; 2],
    /// Laplace-smoothed elite frequencies per categorical axis
    /// (buffering, device, precision).
    weights: [Vec<f64>; 3],
}

impl SearchState {
    fn new(space: &OptimizeSpace, n_buf: usize, n_dev: usize, n_prec: usize) -> Self {
        let (flo, fhi) = space.fclock_hz;
        let (tlo, thi) = space.throughput_proc;
        SearchState {
            mean: [0.5 * (flo + fhi), 0.5 * (tlo + thi)],
            sigma: [0.25 * (fhi - flo), 0.25 * (thi - tlo)],
            lo: [flo, tlo],
            hi: [fhi, thi],
            weights: [vec![1.0; n_buf], vec![1.0; n_dev], vec![1.0; n_prec]],
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> Candidate {
        // Fixed draw order (two Gaussians, three categorical picks) keeps
        // the per-generation stream layout independent of everything else.
        let z0 = gaussian(rng);
        let z1 = gaussian(rng);
        let fclock_hz = (self.mean[0] + self.sigma[0] * z0).clamp(self.lo[0], self.hi[0]);
        let throughput_proc = (self.mean[1] + self.sigma[1] * z1).clamp(self.lo[1], self.hi[1]);
        let buf = pick(rng, &self.weights[0]);
        let dev = pick(rng, &self.weights[1]);
        let prec = pick(rng, &self.weights[2]);
        Candidate {
            fclock_hz,
            throughput_proc,
            buf,
            dev,
            prec,
        }
    }

    /// Adapt the distribution toward the elite set (cross-entropy update):
    /// continuous axes take the elite mean and (expanded, floored) standard
    /// deviation; categorical axes take Laplace-smoothed elite frequencies.
    fn adapt(&mut self, elites: &[&Candidate]) {
        if elites.is_empty() {
            return;
        }
        let n = elites.len() as f64;
        for axis in 0..2 {
            let coord = |c: &Candidate| match axis {
                0 => c.fclock_hz,
                _ => c.throughput_proc,
            };
            let mean = elites.iter().map(|c| coord(c)).sum::<f64>() / n;
            let var = elites
                .iter()
                .map(|c| (coord(c) - mean).powi(2))
                .sum::<f64>()
                / n;
            let range = self.hi[axis] - self.lo[axis];
            self.mean[axis] = mean;
            self.sigma[axis] =
                (var.sqrt() * SIGMA_EXPAND).clamp(SIGMA_RANGE_FLOOR * range, 0.5 * range.max(0.0));
        }
        let selectors: [fn(&Candidate) -> usize; 3] = [|c| c.buf, |c| c.dev, |c| c.prec];
        for (axis, idx_of) in selectors.into_iter().enumerate() {
            let w = &mut self.weights[axis];
            w.iter_mut().for_each(|x| *x = 1.0);
            for c in elites {
                w[idx_of(c)] += 1.0;
            }
        }
    }
}

/// A standard normal draw via Box–Muller: two uniform draws per Gaussian, so
/// the stream layout is fixed.
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Weighted categorical pick: one uniform draw walked against the cumulative
/// weights. Deterministic for a given stream position.
fn pick(rng: &mut ChaCha8Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u: f64 = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u < 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Run the guided search.
///
/// Each generation draws `config.population` candidates from the adapted
/// distribution (per-generation stream [`job_rng`]`(seed, generation)`),
/// evaluates them all through [`solve_batch_with`] on `engine`'s warm pool,
/// gates them through the Eq. (9)–(11) resource test, folds the feasible
/// ones into the running Pareto front, and adapts toward the highest-speedup
/// feasible elite.
///
/// Errors: invalid axes/knobs report the offending field; a space where *no*
/// evaluated candidate passes the resource test is [`RatError::Infeasible`]
/// (CLI exit 4, HTTP 422).
pub fn optimize(
    engine: &Engine,
    space: &OptimizeSpace,
    config: &OptimizeConfig,
) -> Result<OptimizeOutcome, RatError> {
    let _span = telemetry::span("optimize");
    space.validate()?;
    config.validate()?;
    let bufs = space.resolved_bufferings();
    let devs = space.resolved_devices();
    let precs = space.resolved_precisions();
    if devs.is_empty() {
        return Err(RatError::quantity(
            "devices",
            "no candidate devices resolved".to_string(),
        ));
    }
    if precs.is_empty() {
        return Err(RatError::quantity(
            "precisions",
            "no candidate precisions resolved".to_string(),
        ));
    }

    let mut state = SearchState::new(space, bufs.len(), devs.len(), precs.len());
    let mut front: Vec<FrontPoint> = Vec::new();
    let mut visited: Vec<Objectives> = Vec::new();
    let mut evals = 0u64;
    let mut feasible_evals = 0u64;

    for generation in 0..config.generations {
        let mut rng = job_rng(config.seed, u64::from(generation));
        let candidates: Vec<Candidate> = (0..config.population)
            .map(|_| state.sample(&mut rng))
            .collect();
        let reports = evaluate(engine, &space.base, &bufs, &candidates)?;
        evals += candidates.len() as u64;
        telemetry::add(Metric::OptimizeGenerations, 1);
        telemetry::add(Metric::OptimizeEvals, candidates.len() as u64);

        let mut gen_feasible: Vec<(usize, f64)> = Vec::new();
        for (i, (cand, report)) in candidates.iter().zip(&reports).enumerate() {
            let estimate = estimate_candidate(
                &space.base,
                cand.throughput_proc,
                bufs[cand.buf],
                precs[cand.prec],
                &devs[cand.dev],
            );
            let resources = ResourceReport::analyze(devs[cand.dev].clone(), estimate);
            if !resources.fits {
                continue;
            }
            feasible_evals += 1;
            let objectives = Objectives {
                speedup: report.speedup,
                util_comp: report.throughput.util_comp,
                resource_frac: resources
                    .dsp_util
                    .max(resources.bram_util)
                    .max(resources.logic_util),
            };
            visited.push(objectives);
            gen_feasible.push((i, report.speedup));
            fold_into_front(&mut front, objectives, || FrontPoint {
                report: report.clone(),
                device: devs[cand.dev].clone(),
                precision: precs[cand.prec],
                resources: resources.clone(),
                objectives,
                generation,
            });
        }

        // Elite update: highest feasible speedup first, index-tiebroken.
        gen_feasible.sort_by(|(ia, sa), (ib, sb)| sb.total_cmp(sa).then(ia.cmp(ib)));
        let elite_n = (config.population / ELITE_FRACTION).max(1);
        let elites: Vec<&Candidate> = gen_feasible
            .iter()
            .take(elite_n)
            .map(|&(i, _)| &candidates[i])
            .collect();
        state.adapt(&elites);
    }

    if front.is_empty() {
        return Err(RatError::infeasible(format!(
            "no feasible design point: 0 of {evals} candidates passed the Eq. (9)-(11) resource \
             test on {} candidate device(s) with {} precision candidate(s) — widen `devices`, \
             `precisions`, or lower `throughput_range`",
            devs.len(),
            precs.len()
        )));
    }

    front.sort_by(|a, b| {
        b.objectives
            .speedup
            .total_cmp(&a.objectives.speedup)
            .then(b.objectives.util_comp.total_cmp(&a.objectives.util_comp))
            .then(
                a.objectives
                    .resource_frac
                    .total_cmp(&b.objectives.resource_frac),
            )
    });
    telemetry::add(Metric::OptimizeFrontSize, front.len() as u64);

    Ok(OptimizeOutcome {
        seed: config.seed,
        generations: config.generations,
        evals,
        feasible_evals,
        front,
        visited,
    })
}

/// Fold one feasible point into the running non-dominated set. The front
/// admits a point iff no member dominates or ties it, then evicts members
/// the newcomer dominates — so it is exactly the non-dominated set of
/// everything folded so far, with first-seen points winning ties.
fn fold_into_front(
    front: &mut Vec<FrontPoint>,
    objectives: Objectives,
    make: impl FnOnce() -> FrontPoint,
) {
    if front
        .iter()
        .any(|f| f.objectives.dominates(&objectives) || f.objectives.ties(&objectives))
    {
        return;
    }
    front.retain(|f| !objectives.dominates(&f.objectives));
    front.push(make());
}

/// Evaluate every candidate's throughput report, batched: candidates
/// partition by buffering discipline (a base-level property of a batch —
/// same shape as [`crate::explore::explore`]), and each partition is one
/// [`solve_batch_with`] call on the engine. Reports come back indexed by
/// candidate; the lowest-indexed failing point wins error reporting.
fn evaluate(
    engine: &Engine,
    base: &RatInput,
    bufs: &[Buffering],
    candidates: &[Candidate],
) -> Result<Vec<Report>, RatError> {
    let mut out: Vec<Option<Report>> = vec![None; candidates.len()];
    for buffering in [Buffering::Single, Buffering::Double] {
        let idx: Vec<usize> = (0..candidates.len())
            .filter(|&i| bufs[candidates[i].buf] == buffering)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let b = base.with_buffering(buffering);
        let fcol: Vec<f64> = idx.iter().map(|&i| candidates[i].fclock_hz).collect();
        let tcol: Vec<f64> = idx.iter().map(|&i| candidates[i].throughput_proc).collect();
        let mut batch = BatchPoints::new(&b, idx.len());
        batch.push_column(SweepParam::Fclock, fcol);
        batch.push_column(SweepParam::ThroughputProc, tcol);
        for (&i, report) in idx.iter().zip(solve_batch_with(engine, &batch)?) {
            out[i] = Some(report);
        }
    }
    // Every candidate belongs to exactly one partition, so every slot is
    // filled; collect defensively all the same.
    out.into_iter()
        .collect::<Option<Vec<Report>>>()
        .ok_or_else(|| RatError::quantity("candidates", "evaluation dropped a point".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;
    use crate::resources::device::{virtex4_lx100, virtex4_lx25};
    use crate::worksheet::Worksheet;

    fn quick_config() -> OptimizeConfig {
        OptimizeConfig {
            seed: 2007,
            generations: 8,
            population: 64,
        }
    }

    #[test]
    fn smoke_finds_a_nonempty_feasible_front() {
        let engine = Engine::sequential();
        let space = OptimizeSpace::around(pdf1d_example());
        let out = optimize(&engine, &space, &quick_config()).unwrap();
        assert!(!out.front.is_empty());
        assert_eq!(out.evals, 8 * 64);
        assert!(out.feasible_evals > 0);
        for p in &out.front {
            assert!(p.resources.fits, "front member must pass the resource test");
            assert!(p.objectives.speedup > 0.0);
        }
        // Ranked by speedup, best first.
        for w in out.front.windows(2) {
            assert!(w[0].objectives.speedup >= w[1].objectives.speedup);
        }
        assert_eq!(
            out.best().objectives.speedup,
            out.front[0].objectives.speedup
        );
    }

    #[test]
    fn front_members_replay_through_the_scalar_worksheet() {
        let engine = Engine::sequential();
        let space = OptimizeSpace::around(pdf1d_example());
        let out = optimize(&engine, &space, &quick_config()).unwrap();
        for p in &out.front {
            let scalar = Worksheet::new(p.report.input.clone()).analyze().unwrap();
            assert_eq!(
                scalar, p.report,
                "front member diverged from scalar analyze"
            );
        }
    }

    #[test]
    fn front_is_mutually_non_dominated_and_covers_visited_points() {
        let engine = Engine::sequential();
        let space = OptimizeSpace::around(pdf1d_example());
        let out = optimize(&engine, &space, &quick_config()).unwrap();
        for (i, a) in out.front.iter().enumerate() {
            for (j, b) in out.front.iter().enumerate() {
                if i != j {
                    assert!(
                        !a.objectives.dominates(&b.objectives),
                        "front member {i} dominates {j}"
                    );
                }
            }
        }
        for v in &out.visited {
            assert!(
                out.front
                    .iter()
                    .any(|f| f.objectives.dominates(v) || f.objectives.ties(v)),
                "visited point {v:?} not covered by the front"
            );
            assert!(
                !out.front.iter().any(|f| v.dominates(&f.objectives)),
                "visited point {v:?} dominates a front member"
            );
        }
    }

    #[test]
    fn same_seed_same_front_different_seed_different_search() {
        let engine = Engine::sequential();
        let space = OptimizeSpace::around(pdf1d_example());
        let a = optimize(&engine, &space, &quick_config()).unwrap();
        let b = optimize(&engine, &space, &quick_config()).unwrap();
        assert_eq!(a, b);
        let other = OptimizeConfig {
            seed: 42,
            ..quick_config()
        };
        let c = optimize(&engine, &space, &other).unwrap();
        // Different seeds visit different candidate sets.
        assert_ne!(a.visited, c.visited);
    }

    #[test]
    fn degenerate_single_point_space_works() {
        let engine = Engine::sequential();
        let base = pdf1d_example();
        let space = OptimizeSpace {
            fclock_hz: (150.0e6, 150.0e6),
            throughput_proc: (20.0, 20.0),
            bufferings: vec![Buffering::Single],
            devices: vec![virtex4_lx100()],
            precisions: vec![QFormat::signed(0, 17).unwrap()],
            base,
        };
        let cfg = OptimizeConfig {
            seed: 1,
            generations: 2,
            population: 4,
        };
        let out = optimize(&engine, &space, &cfg).unwrap();
        assert_eq!(
            out.front.len(),
            1,
            "single-candidate space has a 1-point front"
        );
        assert_eq!(out.front[0].report.input.comp.throughput_proc, 20.0);
    }

    #[test]
    fn empty_and_nonpositive_ranges_name_the_field() {
        let engine = Engine::sequential();
        let mut space = OptimizeSpace::around(pdf1d_example());
        space.fclock_hz = (150.0e6, 75.0e6);
        let err = optimize(&engine, &space, &quick_config()).unwrap_err();
        assert!(err.to_string().contains("fclock_range"), "{err}");

        let mut space = OptimizeSpace::around(pdf1d_example());
        space.throughput_proc = (0.0, 4.0);
        let err = optimize(&engine, &space, &quick_config()).unwrap_err();
        assert!(err.to_string().contains("throughput_range"), "{err}");

        let mut space = OptimizeSpace::around(pdf1d_example());
        space.fclock_hz = (f64::NAN, 150.0e6);
        let err = optimize(&engine, &space, &quick_config()).unwrap_err();
        assert!(err.to_string().contains("fclock_range"), "{err}");
    }

    #[test]
    fn all_infeasible_space_reports_infeasible() {
        let engine = Engine::sequential();
        let mut space = OptimizeSpace::around(pdf1d_example());
        // 256 lanes of 32-bit multipliers cannot fit the smallest device.
        space.throughput_proc = (200.0, 256.0);
        space.devices = vec![virtex4_lx25()];
        space.precisions = vec![QFormat::signed(0, 31).unwrap()];
        let err = optimize(&engine, &space, &quick_config()).unwrap_err();
        assert!(
            matches!(err, RatError::Infeasible { .. }),
            "expected Infeasible, got {err:?}"
        );
        assert!(err.to_string().contains("resource test"), "{err}");
    }

    #[test]
    fn zero_generations_and_population_are_rejected() {
        let engine = Engine::sequential();
        let space = OptimizeSpace::around(pdf1d_example());
        for cfg in [
            OptimizeConfig {
                generations: 0,
                ..quick_config()
            },
            OptimizeConfig {
                population: 0,
                ..quick_config()
            },
        ] {
            let err = optimize(&engine, &space, &cfg).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("generations") || msg.contains("population"),
                "{msg}"
            );
        }
    }

    #[test]
    fn estimate_scales_with_lanes_precision_and_buffering() {
        let base = pdf1d_example();
        let dev = virtex4_lx100();
        let q18 = QFormat::signed(0, 17).unwrap();
        let q32 = QFormat::signed(0, 31).unwrap();
        let narrow = estimate_candidate(&base, 8.0, Buffering::Single, q18, &dev);
        // One 18-bit mult per lane on an 18-bit-native device.
        assert_eq!(narrow.dsp, 8);
        let wide = estimate_candidate(&base, 8.0, Buffering::Single, q32, &dev);
        // The paper's rule: 32-bit fixed-point multiplies cost two DSPs.
        assert_eq!(wide.dsp, 16);
        // Fractional parallelism still needs whole lanes.
        let frac = estimate_candidate(&base, 7.3, Buffering::Single, q18, &dev);
        assert_eq!(frac.dsp, 8);
        // Double buffering doubles the block-RAM footprint.
        let sb = estimate_candidate(&base, 8.0, Buffering::Single, q18, &dev);
        let db = estimate_candidate(&base, 8.0, Buffering::Double, q18, &dev);
        assert_eq!(db.bram, 2 * sb.bram);
        assert!(wide.logic > narrow.logic);
    }

    #[test]
    fn dominance_is_irreflexive_and_directional() {
        let a = Objectives {
            speedup: 10.0,
            util_comp: 0.8,
            resource_frac: 0.5,
        };
        assert!(!a.dominates(&a));
        assert!(a.ties(&a));
        let worse = Objectives {
            speedup: 9.0,
            util_comp: 0.8,
            resource_frac: 0.6,
        };
        assert!(a.dominates(&worse));
        assert!(!worse.dominates(&a));
        let tradeoff = Objectives {
            speedup: 12.0,
            util_comp: 0.7,
            resource_frac: 0.9,
        };
        assert!(!a.dominates(&tradeoff));
        assert!(!tradeoff.dominates(&a));
    }
}
