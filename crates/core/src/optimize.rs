//! Guided design-space search: RAT "applied iteratively", steered.
//!
//! [`crate::explore`] answers "which corners pass?" by brute force — fine for
//! a handful of candidate clocks, hopeless once the space grows devices,
//! precision candidates, and continuous frequency/parallelism axes. This
//! module replaces enumeration with a **deterministic, seeded,
//! population-based search** (a cross-entropy method with per-axis Gaussian
//! adaptation — see `DESIGN.md` §17 for why this beats simulated annealing on
//! RAT's batch kernels): each generation draws a population of candidate
//! design points, predicts all of them through the SoA
//! [`predict_batch`] kernel on the warm engine pool, gates each candidate
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
//! The search keeps only what it prints. A generation reads its draws in
//! bulk, scores each candidate with the two numbers the search ranks by,
//! and gathers its feasible points' objectives in one buffer that the next
//! generation reuses. A skyline (`pareto_front`: three pivots prune, then a
//! sort-and-sweep) runs over that buffer alone, and only its members keep
//! their objectives and coordinates. After the last generation one more
//! skyline over those survivors gives the front. A [`FrontPoint`] holds its
//! coordinates, estimate and objectives; its full report and resource
//! verdict are derived when a caller asks for them.
//!
//! ## Determinism contract
//!
//! Same seed → bit-identical front, at every `--jobs` setting and with SIMD
//! forced on or off. Three mechanisms carry the contract:
//!
//! 1. All random draws happen on the coordinating thread from per-generation
//!    streams [`job_rng`]`(seed, generation)` — never from a stream consumed
//!    in scheduling order.
//! 2. Candidate evaluation is dispatched as [`predict_batch`] chunks sized
//!    by [`Engine::chunk_len`]; the batch kernels are bit-identical across
//!    chunk seams and to the scalar [`Worksheet::analyze`] path (pinned by
//!    the differential suites), so results cannot depend on the job count
//!    or the vector ISA.
//! 3. Every ranking orders floats with `total_cmp` and breaks ties by
//!    candidate index, in generation order.
//!
//! [`Worksheet::analyze`]: crate::worksheet::Worksheet::analyze
//! [`predict_batch`]: crate::solve::batch::predict_batch

use crate::engine::{job_rng, Engine};
use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::Freq;
use crate::report::Report;
use crate::resources::device::{all_devices, FpgaDevice, LogicKind};
use crate::resources::estimate::{
    brams_for_buffer, dsps_for_multiplier, ResourceEstimate, ALTERA_M4K_BYTES, XILINX_BRAM18_BYTES,
};
use crate::resources::{utilization, ResourceReport};
use crate::solve::batch::{predict_batch_with, BatchPoints, Score};
use crate::sweep::SweepParam;
use crate::table::{pct, TextTable};
use crate::telemetry::{self, Metric};
use crate::worksheet::Worksheet;
use fixedpoint::QFormat;
use std::cmp::Ordering;
use std::sync::Arc;

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

/// `u64` draws per candidate: two per Box–Muller normal and one per
/// categorical pick.
const DRAWS_PER_CANDIDATE: usize = 7;

/// Candidates per bulk read of a generation's stream, so the draw buffer
/// stays at 56 KiB at any population.
const SAMPLE_CHUNK: usize = 1024;

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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeConfig {
    /// Root seed: the whole run is a pure function of `(space, config)`.
    pub seed: u64,
    /// Generations to run.
    pub generations: u32,
    /// Candidates per generation, scored by one `predict_batch` per
    /// buffering discipline.
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// What every member of one search's front shares: the base design and the
/// resolved candidate devices.
#[derive(Debug, PartialEq)]
struct SearchAxes {
    base: RatInput,
    devices: Vec<FpgaDevice>,
}

/// One non-dominated design point of the final front.
///
/// A member holds its coordinates, estimate and objectives. Its full report
/// ([`FrontPoint::report`]) and resource verdict ([`FrontPoint::resources`])
/// are derived when called, so a search pays for the members a caller
/// reads (`render` reads ten), not for the whole front.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    axes: Arc<SearchAxes>,
    /// Clock frequency at this point (Hz).
    pub fclock_hz: f64,
    /// `throughput_proc` at this point (ops/cycle).
    pub throughput_proc: f64,
    /// Buffering discipline at this point.
    pub buffering: Buffering,
    /// Index of the candidate device in the search's resolved device list.
    dev: usize,
    /// The candidate number format.
    pub precision: QFormat,
    /// The point's Eq. (9)–(11) resource demand on its device.
    pub estimate: ResourceEstimate,
    /// The point's Pareto objectives.
    pub objectives: Objectives,
    /// The generation that first evaluated this point.
    pub generation: u32,
}

impl FrontPoint {
    /// The design point as a worksheet input: the base design with this
    /// point's clock, parallelism and buffering.
    pub fn input(&self) -> RatInput {
        let mut input = self.axes.base.with_buffering(self.buffering);
        input.comp.fclock = Freq::from_hz(self.fclock_hz);
        input.comp.throughput_proc = self.throughput_proc;
        input
    }

    /// The full throughput report at this point: [`Worksheet::analyze`] of
    /// [`FrontPoint::input`], bit-identical to [`solve_batch`] over the
    /// members (pinned by the differential suite).
    ///
    /// [`solve_batch`]: crate::solve::batch::solve_batch
    pub fn report(&self) -> Report {
        Worksheet::new(self.input())
            .analyze()
            .expect("a front member's input passed validation when it was scored")
    }

    /// The candidate device.
    pub fn device(&self) -> &FpgaDevice {
        &self.axes.devices[self.dev]
    }

    /// The Eq. (9)–(11) resource verdict (always `fits`; infeasible points
    /// never enter the front).
    pub fn resources(&self) -> ResourceReport {
        ResourceReport::analyze(self.device().clone(), self.estimate)
    }

    /// Display name for the point: base design plus its axis coordinates.
    pub fn display_name(&self) -> String {
        format!(
            "{} [{:.1} MHz, {:.3} ops/cyc, {:?}, {}, {}]",
            self.axes.base.name,
            self.fclock_hz / 1e6,
            self.throughput_proc,
            self.buffering,
            self.device().name,
            self.precision,
        )
    }
}

/// Outcome of a guided search: the Pareto front and the counts
/// [`OptimizeOutcome::render`] prints.
#[derive(Debug, Clone, PartialEq)]
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
    /// utilization (descending) then resource pressure (ascending). Of
    /// points tied on all three objectives, only the first evaluated is a
    /// member.
    pub front: Vec<FrontPoint>,
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
        let device = b.device();
        s.push_str(&format!(
            "best speedup: {} ({:.2}x, {} of {} {})\n",
            b.display_name(),
            b.objectives.speedup,
            b.estimate.dsp,
            device.dsp_blocks,
            device.dsp_name,
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
    let bram = brams_for_buffer(base.input_bytes().get(), block_bytes)
        .saturating_add(brams_for_buffer(base.output_bytes().get(), block_bytes))
        .saturating_mul(copies);
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

    /// The categorical weights' totals, which [`Self::sample`] takes: the
    /// weights change only in [`Self::adapt`].
    fn weight_totals(&self) -> [f64; 3] {
        self.weights.each_ref().map(|w| w.iter().sum())
    }

    /// One candidate from its [`DRAWS_PER_CANDIDATE`] words, in a fixed
    /// order (two Gaussians of two words each, three categorical picks of
    /// one), so the per-generation stream layout is independent of
    /// everything else.
    fn sample(&self, w: &[u64], totals: &[f64; 3]) -> Candidate {
        let z0 = gaussian(w[0], w[1]);
        let z1 = gaussian(w[2], w[3]);
        let fclock_hz = (self.mean[0] + self.sigma[0] * z0).clamp(self.lo[0], self.hi[0]);
        let throughput_proc = (self.mean[1] + self.sigma[1] * z1).clamp(self.lo[1], self.hi[1]);
        Candidate {
            fclock_hz,
            throughput_proc,
            buf: pick(w[4], &self.weights[0], totals[0]),
            dev: pick(w[5], &self.weights[1], totals[1]),
            prec: pick(w[6], &self.weights[2], totals[2]),
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

/// A standard normal draw via Box–Muller from two `u64` draws, so the
/// stream layout is fixed.
fn gaussian(w1: u64, w2: u64) -> f64 {
    let u1 = rand::unit_f64(w1);
    let u2 = rand::unit_f64(w2);
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Weighted categorical pick: one `u64` draw, as a uniform in `[0, total)`,
/// walked against the cumulative weights. `total` is `weights`' sum.
fn pick(word: u64, weights: &[f64], total: f64) -> usize {
    let mut u = rand::unit_f64(word) * total;
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
/// scores them through [`predict_batch_with`] on `engine`, gates them
/// through the Eq. (9)–(11) resource test, keeps the members of the
/// feasible ones' own front, and adapts toward the highest-speedup feasible
/// elite. After the last generation, `pareto_front` picks the
/// non-dominated points among those members.
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
    let axes = Arc::new(SearchAxes {
        base: space.base.clone(),
        devices: space.resolved_devices(),
    });
    let devs = &axes.devices;
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

    let estimate = |c: &Candidate| {
        estimate_candidate(
            &space.base,
            c.throughput_proc,
            bufs[c.buf],
            precs[c.prec],
            &devs[c.dev],
        )
    };
    let mut state = SearchState::new(space, bufs.len(), devs.len(), precs.len());
    // Each generation's own front members, in visit order: their
    // objectives, generation and coordinates. Every member of the final
    // front is among them.
    let mut survivors: Vec<(Objectives, u32, Candidate)> = Vec::new();
    let mut words = vec![0u64; DRAWS_PER_CANDIDATE * config.population.min(SAMPLE_CHUNK)];
    let mut candidates: Vec<Candidate> = Vec::with_capacity(config.population);
    // A generation's feasible points: their objectives, and at the same
    // index their candidate index and speedup.
    let mut objectives: Vec<Objectives> = Vec::new();
    let mut feasible: Vec<(usize, f64)> = Vec::new();
    let elite_n = (config.population / ELITE_FRACTION).max(1);
    // Highest speedup first, index-tiebroken: a total order.
    let rank = |(ia, sa): &(usize, f64), (ib, sb): &(usize, f64)| sb.total_cmp(sa).then(ia.cmp(ib));
    let mut evals = 0u64;
    let mut feasible_evals = 0u64;

    for generation in 0..config.generations {
        let mut rng = job_rng(config.seed, u64::from(generation));
        let totals = state.weight_totals();
        candidates.clear();
        while candidates.len() < config.population {
            let n = (config.population - candidates.len()).min(SAMPLE_CHUNK);
            let w = &mut words[..DRAWS_PER_CANDIDATE * n];
            rng.fill_u64(w);
            candidates.extend(
                w.chunks_exact(DRAWS_PER_CANDIDATE)
                    .map(|c| state.sample(c, &totals)),
            );
        }
        let scores = evaluate(engine, &space.base, &bufs, &candidates)?;
        evals += candidates.len() as u64;
        telemetry::add(Metric::OptimizeGenerations, 1);
        telemetry::add(Metric::OptimizeEvals, candidates.len() as u64);

        objectives.clear();
        feasible.clear();
        for (i, (cand, score)) in candidates.iter().zip(&scores).enumerate() {
            let ([dsp, bram, logic], fits) = utilization(&devs[cand.dev], &estimate(cand));
            if !fits {
                continue;
            }
            objectives.push(Objectives {
                speedup: score.speedup,
                util_comp: score.util_comp,
                resource_frac: dsp.max(bram).max(logic),
            });
            feasible.push((i, score.speedup));
        }
        feasible_evals += objectives.len() as u64;
        survivors.extend(
            generation_front(&objectives)
                .into_iter()
                .map(|k| (objectives[k], generation, candidates[feasible[k].0])),
        );

        // Elite update: select the elite, then rank only it, because
        // `adapt` sums in rank order.
        if feasible.len() > elite_n {
            feasible.select_nth_unstable_by(elite_n, rank);
            feasible.truncate(elite_n);
        }
        feasible.sort_unstable_by(rank);
        let elites: Vec<&Candidate> = feasible.iter().map(|&(i, _)| &candidates[i]).collect();
        state.adapt(&elites);
    }

    if feasible_evals == 0 {
        return Err(RatError::infeasible(format!(
            "no feasible design point: 0 of {evals} candidates passed the Eq. (9)-(11) resource \
             test on {} candidate device(s) with {} precision candidate(s) — widen `devices`, \
             `precisions`, or lower `throughput_range`",
            devs.len(),
            precs.len()
        )));
    }

    let survivor_objectives: Vec<Objectives> = survivors.iter().map(|s| s.0).collect();
    let front: Vec<FrontPoint> = pareto_front(&survivor_objectives)
        .into_iter()
        .map(|m| {
            let (objectives, generation, cand) = survivors[m];
            FrontPoint {
                axes: Arc::clone(&axes),
                fclock_hz: cand.fclock_hz,
                throughput_proc: cand.throughput_proc,
                buffering: bufs[cand.buf],
                dev: cand.dev,
                precision: precs[cand.prec],
                estimate: estimate(&cand),
                objectives,
                generation,
            }
        })
        .collect();
    telemetry::add(Metric::OptimizeFrontSize, front.len() as u64);

    Ok(OptimizeOutcome {
        seed: config.seed,
        generations: config.generations,
        evals,
        feasible_evals,
        front,
    })
}

/// The non-dominated points of `points`, as indices in front order:
/// speedup descending, then utilization descending, then resource pressure
/// ascending. Of several points that tie exactly on all three objectives,
/// only the first (lowest index) is a member.
///
/// Say a point *beats* another when it dominates it, or ties it and comes
/// first. The relation is transitive, and the front is the points
/// nothing beats. Three pivots prune first, dropping every point one of
/// them beats: the first point in (speedup desc, util_comp desc,
/// resource_frac asc, index) order, the first in (util_comp, speedup,
/// resource_frac, index) order and the first in (resource_frac, speedup,
/// util_comp, index) order. Each is first in an order that ranks every
/// point that would beat it ahead of it, so each is a front member, the
/// best point on its own objective; a generation's runs of exact speedup
/// ties (candidates clamped at an axis bound) mostly fall to them. The
/// prune is exact: a point a pivot beats is off the front, and whatever
/// beats a kept point is itself kept (else a pivot would beat it, and by
/// transitivity the kept point too), so the front of the kept points is the
/// front of all.
///
/// The kept points then take one sort and one sweep (Kung, Luccio &
/// Preparata's three-objective skyline). The sort key is (speedup desc,
/// util_comp desc, resource_frac asc, index asc) in `total_cmp` order, which
/// puts every point after all the points that dominate it, same-speedup
/// dominators included, and puts exact ties next to each other with the
/// first in front. The sweep drops a point when some kept point
/// matches or beats it on both util_comp and resource_frac: that point's
/// speedup is already at least as high, so it dominates or ties the dropped
/// one. The kept points' (util_comp, resource_frac) pairs are held as a
/// staircase, util_comp non-decreasing and resource_frac strictly
/// ascending, so each test is one binary search.
pub(crate) fn pareto_front(points: &[Objectives]) -> Vec<usize> {
    let key = |i: usize| -> Key {
        let o = &points[i];
        (
            total_key(o.speedup),
            total_key(o.util_comp),
            total_key(o.resource_frac),
        )
    };
    // Each pivot's order as an ascending key; one pass finds all three.
    let orders: [fn(Key) -> Key; 3] = [
        |(s, u, r)| (!s, !u, r),
        |(s, u, r)| (!u, !s, r),
        |(s, u, r)| (r, !s, !u),
    ];
    let mut pivots: [Option<(Key, usize)>; 3] = [None; 3];
    for i in 0..points.len() {
        let k = key(i);
        for (pivot, order) in pivots.iter_mut().zip(orders) {
            // Only a strictly earlier key replaces a pivot, so of equal
            // keys the first stays.
            if pivot.is_none_or(|(p, _)| order(k) < order(p)) {
                *pivot = Some((k, i));
            }
        }
    }
    let beats = |((ps, pu, pr), pi): (Key, usize), (s, u, r): Key, i| {
        ps >= s && pu >= u && pr <= r && (ps > s || pu > u || pr < r || pi < i)
    };
    let mut order: Vec<(i64, i64, i64, usize)> = (0..points.len())
        .filter_map(|i| {
            let k = key(i);
            let beaten = pivots.iter().flatten().any(|&p| beats(p, k, i));
            (!beaten).then_some((!k.0, !k.1, k.2, i))
        })
        .collect();
    // The index makes every key distinct, so an unstable sort is exact.
    order.sort_unstable();
    let mut front = Vec::new();
    let mut stair: Vec<(i64, i64)> = Vec::new();
    for &(_, nu, r, i) in &order {
        let u = !nu;
        // Among steps with util_comp >= u, the first has the least
        // resource_frac.
        let at = stair.partition_point(|&(su, _)| su < u);
        if stair.get(at).is_some_and(|&(_, sr)| sr <= r) {
            continue;
        }
        // The new step replaces the steps below it in util_comp that it
        // matches or beats on resource_frac.
        let lo = stair[..at].partition_point(|&(_, sr)| sr < r);
        stair.splice(lo..at, [(u, r)]);
        front.push(i);
    }
    front
}

/// The members of the front of one generation's `points`, as indices into
/// them, ascending.
///
/// Run on each generation's points as they arrive, this is an exact
/// prefilter: the front of the survivors, kept in visit order, is the front
/// of every point the search evaluated. A point dropped here is beaten
/// within its generation (see [`pareto_front`]), so it is off the front.
/// And whatever beats a survivor is a survivor or beaten by one (of its own
/// generation), which then beats that survivor too, so the survivors' front
/// drops only what the whole front drops.
fn generation_front(points: &[Objectives]) -> Vec<usize> {
    let mut members = pareto_front(points);
    members.sort_unstable();
    members
}

/// A point's (speedup, util_comp, resource_frac), each as a [`total_key`].
type Key = (i64, i64, i64);

/// `x` as an integer with the ordering of [`f64::total_cmp`].
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Score `candidates` through [`predict_batch_with`]: candidates partition
/// by buffering discipline (a base-level property of a batch — same shape
/// as [`crate::explore::explore`]), and each partition is one batch on the
/// engine with `f_clock` and `throughput_proc` columns. Scores come back
/// indexed by candidate.
fn evaluate(
    engine: &Engine,
    base: &RatInput,
    bufs: &[Buffering],
    candidates: &[Candidate],
) -> Result<Vec<Score>, RatError> {
    let unscored = Score {
        speedup: 0.0,
        util_comp: 0.0,
    };
    let mut out = vec![unscored; candidates.len()];
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
        // Every candidate's buffering is one of the two, so every slot is
        // written.
        for (&i, score) in idx.iter().zip(predict_batch_with(engine, &batch)?) {
            out[i] = score;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;
    use crate::resources::device::{virtex4_lx100, virtex4_lx25};
    use crate::worksheet::Worksheet;
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

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
            assert!(
                p.resources().fits,
                "front member must pass the resource test"
            );
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
            let scalar = Worksheet::new(p.input()).analyze().unwrap();
            assert_eq!(
                scalar,
                p.report(),
                "front member diverged from scalar analyze"
            );
        }
    }

    /// The reports and resource verdicts the members derive are the ones
    /// the front once stored: `solve_batch_with` over the members of each
    /// buffering (as `evaluate` partitioned them) and `ResourceReport::analyze`
    /// of each member's device and estimate, bit for bit.
    #[test]
    fn derived_reports_match_batch_solved_members_under_both_bufferings() {
        use crate::engine::EngineConfig;
        use crate::solve::batch::solve_batch_with;
        let pdf2d: RatInput =
            toml::from_str(include_str!("../../../worksheets/pdf2d.toml")).unwrap();
        for base in [pdf1d_example(), pdf2d] {
            let space = OptimizeSpace::around(base.clone());
            let out = optimize(&Engine::sequential(), &space, &quick_config()).unwrap();
            let mut seen = [false; 2];
            for (k, buffering) in [Buffering::Single, Buffering::Double]
                .into_iter()
                .enumerate()
            {
                let members: Vec<&FrontPoint> = out
                    .front
                    .iter()
                    .filter(|p| p.buffering == buffering)
                    .collect();
                seen[k] = !members.is_empty();
                let b = base.with_buffering(buffering);
                let mut batch = BatchPoints::new(&b, members.len());
                batch.push_column(
                    SweepParam::Fclock,
                    members.iter().map(|p| p.fclock_hz).collect::<Vec<f64>>(),
                );
                batch.push_column(
                    SweepParam::ThroughputProc,
                    members
                        .iter()
                        .map(|p| p.throughput_proc)
                        .collect::<Vec<f64>>(),
                );
                for jobs in [1, 2, 8] {
                    let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
                    let solved = solve_batch_with(&engine, &batch).unwrap();
                    for (p, want) in members.iter().zip(&solved) {
                        assert_eq!(&p.report(), want, "{}: {jobs} jobs", p.display_name());
                        assert_eq!(p.report().speedup.to_bits(), want.speedup.to_bits());
                    }
                }
                for p in &members {
                    let estimate = estimate_candidate(
                        &base,
                        p.throughput_proc,
                        p.buffering,
                        p.precision,
                        p.device(),
                    );
                    assert_eq!(estimate, p.estimate);
                    let want = ResourceReport::analyze(p.device().clone(), estimate);
                    assert_eq!(p.resources(), want, "{}", p.display_name());
                    assert_eq!(p.objectives.speedup.to_bits(), p.report().speedup.to_bits());
                }
            }
            assert_eq!(
                seen,
                [true, true],
                "{}: both bufferings on the front",
                base.name
            );
        }
    }

    #[test]
    fn front_is_mutually_non_dominated() {
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
        // Different seeds visit different candidate sets, so their fronts
        // differ.
        assert_ne!(a.front, c.front);
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
        assert_eq!(out.front[0].throughput_proc, 20.0);
        assert_eq!(out.front[0].report().input.comp.throughput_proc, 20.0);
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

    /// The running fold the front was once built with, plus its final sort:
    /// admit a point unless a member dominates or ties it, evict the members
    /// it dominates, then rank.
    fn fold_reference(points: &[Objectives]) -> Vec<usize> {
        let mut front: Vec<usize> = Vec::new();
        for (i, o) in points.iter().enumerate() {
            let v = |f: usize| &points[f];
            if front.iter().any(|&f| v(f).dominates(o) || v(f).ties(o)) {
                continue;
            }
            front.retain(|&f| !o.dominates(v(f)));
            front.push(i);
        }
        front.sort_by(|&a, &b| {
            let (a, b) = (&points[a], &points[b]);
            b.speedup
                .total_cmp(&a.speedup)
                .then(b.util_comp.total_cmp(&a.util_comp))
                .then(a.resource_frac.total_cmp(&b.resource_frac))
        });
        front
    }

    /// The skyline before the pivot prune: every point sorted by the
    /// 4-tuple key, then the staircase sweep.
    fn sort_and_sweep(points: &[Objectives]) -> Vec<usize> {
        let mut order: Vec<(i64, i64, i64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    !total_key(o.speedup),
                    !total_key(o.util_comp),
                    total_key(o.resource_frac),
                    i,
                )
            })
            .collect();
        order.sort_unstable();
        let mut front = Vec::new();
        let mut stair: Vec<(i64, i64)> = Vec::new();
        for &(_, nu, r, i) in &order {
            let u = !nu;
            let at = stair.partition_point(|&(su, _)| su < u);
            if stair.get(at).is_some_and(|&(_, sr)| sr <= r) {
                continue;
            }
            let lo = stair[..at].partition_point(|&(_, sr)| sr < r);
            stair.splice(lo..at, [(u, r)]);
            front.push(i);
        }
        front
    }

    #[test]
    fn skyline_front_matches_the_running_fold() {
        use rand::SeedableRng;
        // Few distinct values per objective, ±0.0 and both NaN signs among
        // them, so exact ties, equal speedups, same-speedup dominance and
        // keys at either end of the `total_cmp` order are all common.
        let nan = f64::NAN;
        let speedups = [-nan, -0.0, 0.0, 1.0, 2.5, 7.0, nan];
        let utils = [-nan, -0.0, 0.0, 0.25, 0.5, 1.0, nan];
        let fracs = [-nan, -0.0, 0.0, 0.3, 0.6, 0.9, 1.0, nan];
        for seed in 0..300u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(0..=(seed as usize % 7 + 1) * 40);
            let mut points: Vec<Objectives> = Vec::with_capacity(n);
            let one_of = |rng: &mut ChaCha8Rng, vals: &[f64]| vals[rng.gen_range(0..vals.len())];
            while points.len() < n {
                let o = Objectives {
                    speedup: one_of(&mut rng, &speedups),
                    util_comp: one_of(&mut rng, &utils),
                    resource_frac: one_of(&mut rng, &fracs),
                };
                // Every third seed adds runs of one speedup, as candidates
                // clamped at an axis bound give: exact duplicates and
                // points that differ only in utilization or pressure.
                let run = if seed % 3 == 0 {
                    rng.gen_range(1..=60)
                } else {
                    1
                };
                for _ in 0..run.min(n - points.len()) {
                    let mut p = o;
                    match rng.gen_range(0..3) {
                        0 => {}
                        1 => p.util_comp = one_of(&mut rng, &utils),
                        _ => p.resource_frac = one_of(&mut rng, &fracs),
                    }
                    points.push(p);
                }
            }
            let fold = fold_reference(&points);
            assert_eq!(sort_and_sweep(&points), fold, "seed {seed}, {n} points");
            assert_eq!(pareto_front(&points), fold, "seed {seed}, {n} points");

            // The same points in random generations, as `optimize` sees
            // them: each generation's own front, then the final skyline
            // over those survivors.
            let mut survivors = Vec::new();
            let mut first = 0;
            while first < n {
                let end = (first + rng.gen_range(1..=60)).min(n);
                survivors.extend(
                    generation_front(&points[first..end])
                        .into_iter()
                        .map(|k| first + k),
                );
                first = end;
            }
            let objectives: Vec<Objectives> = survivors.iter().map(|&v| points[v]).collect();
            let front: Vec<usize> = pareto_front(&objectives)
                .into_iter()
                .map(|m| survivors[m])
                .collect();
            assert_eq!(front, fold, "seed {seed}, {n} points in generations");
        }
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
