//! Batched structure-of-arrays evaluation of the analytic pipeline.
//!
//! Every hot analysis — a dense sweep, a Monte-Carlo uncertainty run, corner
//! enumeration — evaluates Eqs. (1)–(11) at thousands of design points that
//! differ from a shared base input in only a few scalar parameters.
//! [`BatchPoints`] stores the *varied* parameters as columns
//! (structure-of-arrays) over one base [`RatInput`], and [`speedup_batch`],
//! [`predict_batch`] and [`solve_batch`] evaluate all points in loops over
//! those columns: Eq. (7) alone, speedup and computation utilization at the
//! base buffering, or the full report. What batching buys is one validation
//! scan per column instead of a `validate()` per point, and loops wide
//! enough for the explicit AVX2 lanes in `batch/simd.rs`.
//!
//! ## Bit-identity contract
//!
//! The scalar lane reads each point's terms from the decoded columns into
//! the same equation functions the per-input chain reads a [`RatInput`]
//! into ([`throughput::transfer_seconds`], `compute_seconds`, `predict`,
//! `ceiling`), so `speedup_batch(&points)[i]` is bit-identical to
//! `throughput::speedup(&points.materialize(i))` and `solve_batch` to the
//! per-input chain (pinned by `tests/batch_differential.rs` and
//! `tests/stage_differential.rs`). The AVX2 lanes transliterate that chain
//! with the same IEEE-754 operations per lane, in the same order, and are
//! checked against the scalar lane (the differential suites run with SIMD
//! on and off; `RAT_FORCE_SCALAR=1` pins the scalar lane at runtime).
//!
//! ## Error contract
//!
//! Invalid points error exactly as the scalar path does: the lowest-indexed
//! invalid point wins, and its error is produced by materializing that point
//! ([`BatchPoints::materialize`]) and running the real
//! [`RatInput::validate`] on it, so messages and field ordering are
//! byte-identical to the per-point pipeline.

use std::borrow::Cow;

#[cfg(target_arch = "x86_64")]
mod simd;

use crate::engine::{Engine, PointCost};
use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::{Bytes, Elements, Freq};
use crate::report::Report;
use crate::solve::stages::{self, BatchStagePlan};
use crate::sweep::{self, SweepParam};
use crate::telemetry::{self, Metric};
use crate::throughput::{self, ThroughputPrediction};

/// The historical fixed chunk size, kept as the canonical *seam unit*: the
/// differential suites pin bit-identity across `CHUNK`-aligned boundaries,
/// and single-threaded callers that want a fixed granularity still use it.
/// The batch drivers themselves now size chunks adaptively per engine — see
/// [`crate::engine::Engine::chunk_len`] — so a job always carries enough
/// points to amortize dispatch, whatever the point cost.
pub const CHUNK: usize = 1024;

/// A set of design points in structure-of-arrays form: one shared base input
/// plus a column of values per varied parameter.
///
/// Columns are applied **in push order**, with [`SweepParam::apply_into`]
/// semantics per point — order matters for [`SweepParam::AlphaBoth`], which
/// reads the current `alpha_write` as its scaling reference, exactly as
/// chained scalar applies would.
#[derive(Debug, Clone)]
pub struct BatchPoints<'a> {
    base: &'a RatInput,
    len: usize,
    columns: Vec<(SweepParam, Cow<'a, [f64]>)>,
}

impl<'a> BatchPoints<'a> {
    /// A batch of `len` points, all initially equal to `base`.
    pub fn new(base: &'a RatInput, len: usize) -> Self {
        BatchPoints {
            base,
            len,
            columns: Vec::new(),
        }
    }

    /// The shared base input.
    pub fn base(&self) -> &RatInput {
        self.base
    }

    /// Number of design points in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add a varied parameter: point `i` applies `values[i]`. Accepts an
    /// owned `Vec<f64>` or a borrowed `&[f64]` — chunked drivers hand the
    /// kernel a sub-slice of their value array directly, with no per-chunk
    /// copy. Panics if the column length does not match the batch length.
    pub fn push_column(
        &mut self,
        param: SweepParam,
        values: impl Into<Cow<'a, [f64]>>,
    ) -> &mut Self {
        let values = values.into();
        assert_eq!(
            values.len(),
            self.len,
            "column for {param:?} has {} values, batch has {} points",
            values.len(),
            self.len
        );
        self.columns.push((param, values));
        self
    }

    /// The columns in application order.
    pub fn columns(&self) -> &[(SweepParam, Cow<'a, [f64]>)] {
        &self.columns
    }

    /// Materialize point `i` as a standalone input: the base, cloned, with
    /// every column applied in order. This is the reference the kernels must
    /// match bit for bit. Fails where [`SweepParam::apply_into`] does, at
    /// the first column whose value does not apply.
    pub fn materialize(&self, i: usize) -> Result<RatInput, RatError> {
        let mut point = self.base.clone();
        for (param, values) in &self.columns {
            param.apply_into(&mut point, values[i])?;
        }
        Ok(point)
    }

    /// [`BatchPoints::materialize`] into a caller-owned scratch input:
    /// restores the scratch to the base point (reusing its allocations) and
    /// applies every column in order. Bit-identical to `materialize(i)` for
    /// every parameter field; only the `name` string is left as-is.
    pub fn materialize_into(&self, i: usize, scratch: &mut RatInput) -> Result<(), RatError> {
        scratch.copy_params_from(self.base);
        for (param, values) in &self.columns {
            param.apply_into(scratch, values[i])?;
        }
        Ok(())
    }

    /// Points `lo..hi` as a batch over the same base, borrowing every
    /// column's sub-slice.
    fn slice(&self, lo: usize, hi: usize) -> BatchPoints<'_> {
        BatchPoints {
            base: self.base,
            len: hi - lo,
            columns: self
                .columns
                .iter()
                .map(|(param, values)| (*param, Cow::Borrowed(&values[lo..hi])))
                .collect(),
        }
    }

    /// Which analytic stages vary across this batch, derived structurally
    /// from which fields the columns write (see
    /// [`stages::BatchStagePlan`]). A stage counts as varying when *any*
    /// column writes a field it reads, independent of the column's values.
    pub fn stage_plan(&self) -> BatchStagePlan {
        let mut comm = false;
        let mut comp = false;
        let mut iters = false;
        for (param, _) in &self.columns {
            match param {
                SweepParam::AlphaWrite | SweepParam::AlphaRead | SweepParam::AlphaBoth => {
                    comm = true;
                }
                SweepParam::Fclock | SweepParam::ThroughputProc | SweepParam::OpsPerElement => {
                    comp = true;
                }
                // elements_in feeds both the byte count and the op count.
                SweepParam::ElementsIn => {
                    comm = true;
                    comp = true;
                }
                SweepParam::Iterations => iters = true,
            }
        }
        // t_soft is a base constant: no column writes it.
        BatchStagePlan::from_inputs(comm, comp, iters, false)
    }
}

impl BatchStagePlan {
    /// Which stages' inputs differ between two whole inputs, compared bit
    /// for bit over exactly the fields each stage reads (`f64`s by
    /// `to_bits`). Fields no stage reads — the name, the buffering
    /// discipline — never dirty anything.
    pub fn between(prev: &RatInput, cur: &RatInput) -> Self {
        let differs = |a: f64, b: f64| a.to_bits() != b.to_bits();
        let (pd, cd) = (&prev.dataset, &cur.dataset);
        let comm = pd.elements_in != cd.elements_in
            || pd.elements_out != cd.elements_out
            || pd.bytes_per_element != cd.bytes_per_element
            || differs(prev.comm.alpha_write, cur.comm.alpha_write)
            || differs(prev.comm.alpha_read, cur.comm.alpha_read)
            || differs(
                prev.comm.ideal_bandwidth.bytes_per_sec(),
                cur.comm.ideal_bandwidth.bytes_per_sec(),
            );
        let comp = pd.elements_in != cd.elements_in
            || differs(prev.comp.ops_per_element, cur.comp.ops_per_element)
            || differs(prev.comp.throughput_proc, cur.comp.throughput_proc)
            || differs(prev.comp.fclock.hz(), cur.comp.fclock.hz());
        BatchStagePlan::from_inputs(
            comm,
            comp,
            prev.software.iterations != cur.software.iterations,
            differs(
                prev.software.t_soft.seconds(),
                cur.software.t_soft.seconds(),
            ),
        )
    }

    /// The stage dependencies: overlap reads both per-iteration stages and
    /// `iterations`; speedup reads the overlap stage's terms and `t_soft`.
    fn from_inputs(comm: bool, comp: bool, iterations: bool, t_soft: bool) -> Self {
        let overlap = comm || comp || iterations;
        BatchStagePlan {
            comm_varies: comm,
            comp_varies: comp,
            overlap_varies: overlap,
            speedup_varies: overlap || t_soft,
        }
    }
}

/// One decoded parameter field: either **uniform** across the batch (no
/// column writes it — the base value stands at every point) or **varied**
/// (a dense column of per-point values).
///
/// A uniform field is one scalar (one splat register on the AVX2 path), so
/// no lane broadcasts an untouched field. A varied `f64` field written by
/// direct-copy columns **borrows** the last such column with no copy; a
/// count field owns its rounded values ([`sweep::count`]), with 0 standing
/// for a value past `u64::MAX` so the validity scan flags its point.
enum Col<'p, T: Clone> {
    Uniform(T),
    Varied(Cow<'p, [T]>),
}

impl<T: Copy> Col<'_, T> {
    /// The value at point `i`.
    #[inline(always)]
    fn at(&self, i: usize) -> T {
        match self {
            Col::Uniform(v) => *v,
            Col::Varied(vals) => vals[i],
        }
    }

    /// The dense column when the field varies.
    fn varied(&self) -> Option<&[T]> {
        match self {
            Col::Uniform(_) => None,
            Col::Varied(vals) => Some(vals),
        }
    }
}

/// The mutable parameter fields, decoded to one [`Col`] view each.
struct Decoded<'p> {
    n: usize,
    elements_in: Col<'p, u64>,
    alpha_write: Col<'p, f64>,
    alpha_read: Col<'p, f64>,
    ops_per_element: Col<'p, f64>,
    throughput_proc: Col<'p, f64>,
    fclock_hz: Col<'p, f64>,
    iterations: Col<'p, u64>,
}

/// Decode the columns: a field is `Varied` exactly when some column writes
/// it, and then holds the fully-applied per-point values.
fn decode<'p>(points: &'p BatchPoints<'_>) -> Decoded<'p> {
    let base = points.base;
    let n = points.len;
    let last_direct = |want: SweepParam| -> Option<&'p [f64]> {
        points
            .columns
            .iter()
            .rev()
            .find(|(p, _)| *p == want)
            .map(|(_, c)| &c[..])
    };
    // A direct-copy column overwrites its field at every point, so the last
    // one *is* the decoded field, borrowed with no copy.
    let direct = |want: SweepParam, base_val: f64| -> Col<'p, f64> {
        match last_direct(want) {
            Some(col) => Col::Varied(Cow::Borrowed(col)),
            None => Col::Uniform(base_val),
        }
    };
    let fclock_hz = direct(SweepParam::Fclock, base.comp.fclock.hz());
    let ops_per_element = direct(SweepParam::OpsPerElement, base.comp.ops_per_element);
    let throughput_proc = direct(SweepParam::ThroughputProc, base.comp.throughput_proc);
    // `AlphaBoth` chains on the *current* per-point alphas (same semantics
    // as apply_into), so its presence forces a sequential replay of the
    // alpha-writing columns; otherwise the alphas are direct like the comp
    // fields.
    let chained = points
        .columns
        .iter()
        .any(|(p, _)| *p == SweepParam::AlphaBoth);
    let (alpha_write, alpha_read) = if chained {
        let mut aw = vec![base.comm.alpha_write; n];
        let mut ar = vec![base.comm.alpha_read; n];
        for (param, col) in &points.columns {
            let col: &[f64] = col;
            match param {
                SweepParam::AlphaWrite => aw.copy_from_slice(col),
                SweepParam::AlphaRead => ar.copy_from_slice(col),
                SweepParam::AlphaBoth => {
                    for (i, &v) in col.iter().enumerate() {
                        let factor = v / aw[i];
                        aw[i] = v;
                        ar[i] *= factor;
                    }
                }
                _ => {}
            }
        }
        (Col::Varied(Cow::Owned(aw)), Col::Varied(Cow::Owned(ar)))
    } else {
        (
            direct(SweepParam::AlphaWrite, base.comm.alpha_write),
            direct(SweepParam::AlphaRead, base.comm.alpha_read),
        )
    };
    let decode_u64 = |want: SweepParam, base_val: u64| -> Col<'p, u64> {
        let written = points.columns.iter().any(|(p, _)| *p == want);
        if !written {
            return Col::Uniform(base_val);
        }
        let mut vals = vec![base_val; n];
        for (param, col) in &points.columns {
            if *param == want {
                for (dst, &v) in vals.iter_mut().zip(&col[..]) {
                    *dst = sweep::count(v).unwrap_or(0);
                }
            }
        }
        Col::Varied(Cow::Owned(vals))
    };
    let elements_in = decode_u64(SweepParam::ElementsIn, base.dataset.elements_in);
    let iterations = decode_u64(SweepParam::Iterations, base.software.iterations);
    Decoded {
        n,
        elements_in,
        alpha_write,
        alpha_read,
        ops_per_element,
        throughput_proc,
        fclock_hz,
        iterations,
    }
}

/// Validity-scan block width. The inner pass over a block accumulates a
/// single `bad` flag branchlessly, which the autovectorizer turns into wide
/// compares; only a flagged block pays the exact index scan. 64 points keeps
/// the re-scan negligible while staying several vectors wide.
const SCAN_BLOCK: usize = 64;

/// The lowest index in `vals` where `ok` fails, block-wise: branch-free
/// accumulation per block, exact scan only inside the first bad block.
/// Equivalent to `vals.iter().position(|&v| !ok(v))`.
#[inline]
fn first_invalid<T: Copy>(vals: &[T], ok: impl Fn(T) -> bool) -> Option<usize> {
    for (b, block) in vals.chunks(SCAN_BLOCK).enumerate() {
        let mut any_bad = false;
        for &v in block {
            any_bad |= !ok(v);
        }
        if any_bad {
            for (j, &v) in block.iter().enumerate() {
                if !ok(v) {
                    return Some(b * SCAN_BLOCK + j);
                }
            }
        }
    }
    None
}

/// [`first_invalid`] for a rate column (`is_finite & > 0`), routed through
/// the AVX2 scan when the vector kernels are enabled — validation is on the
/// same hot path as the kernel itself, and the predicate is four ordered
/// compares per vector there.
fn first_invalid_rate(vals: &[f64]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() {
        // SAFETY: avx2_enabled() checked the feature at runtime.
        return unsafe { simd::first_invalid_rate(vals) };
    }
    first_invalid(vals, |r| r.is_finite() & (r > 0.0))
}

/// [`first_invalid`] for an alpha column (`is_finite & > 0 & <= 1`), with
/// the same AVX2 routing as [`first_invalid_rate`].
fn first_invalid_alpha(vals: &[f64]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() {
        // SAFETY: avx2_enabled() checked the feature at runtime.
        return unsafe { simd::first_invalid_alpha(vals) };
    }
    first_invalid(vals, |a| a.is_finite() & (a > 0.0) & (a <= 1.0))
}

/// Find the lowest-indexed point the scalar `validate()` would reject, and
/// return its exact error. The cheap predicates below are the *conjunction*
/// of every validate() check: uniform fields hold the base value at every
/// point and are checked once, and each varied field is scanned as a column
/// ([`first_invalid`]) — so a clean batch costs one pass over the varied
/// columns instead of a seven-way conjunction per point. Any flagged point
/// is re-validated through the real `RatInput::validate` so the error
/// message is byte-identical to the scalar path's.
fn first_error(points: &BatchPoints, d: &Decoded) -> Option<(usize, RatError)> {
    let base = points.base;
    let bpe = base.dataset.bytes_per_element;
    let bw = base.comm.ideal_bandwidth.bytes_per_sec();
    let t_soft = base.software.t_soft.seconds();
    // `validate()`'s two rules on `elements_in`: at least 1, and a byte
    // count that fits a u64.
    let elements_ok = |e: u64| (e >= 1) & e.checked_mul(bpe).is_some();
    // Non-short-circuiting `&` so the column scans compile branch-free: the
    // autovectorizer turns the three compares into wide predicates, where
    // `&&` would force a branch per point and serialize the scan.
    let alpha_ok = |a: f64| a.is_finite() & (a > 0.0) & (a <= 1.0);
    let rate_ok = |r: f64| r.is_finite() & (r > 0.0);
    let uniform_f = |col: &Col<f64>, ok: &dyn Fn(f64) -> bool| match col {
        Col::Uniform(v) => ok(*v),
        Col::Varied(_) => true, // scanned below
    };
    let uniform_ok = bpe >= 1
        && base.dataset.elements_out.checked_mul(bpe).is_some()
        && bw.is_finite()
        && bw > 0.0
        && t_soft.is_finite()
        && t_soft > 0.0
        && match &d.elements_in {
            Col::Uniform(e) => elements_ok(*e),
            Col::Varied(_) => true,
        }
        && uniform_f(&d.alpha_write, &alpha_ok)
        && uniform_f(&d.alpha_read, &alpha_ok)
        && uniform_f(&d.ops_per_element, &rate_ok)
        && uniform_f(&d.throughput_proc, &rate_ok)
        && uniform_f(&d.fclock_hz, &rate_ok)
        && match &d.iterations {
            Col::Uniform(it) => *it >= 1,
            Col::Varied(_) => true,
        };
    // The first index where any column's check fails is exactly the first
    // index the per-point conjunction would flag.
    let mut first_bad = if uniform_ok { usize::MAX } else { 0 };
    let mut note = |idx: Option<usize>| {
        if let Some(i) = idx {
            first_bad = first_bad.min(i);
        }
    };
    if let Some(e) = d.elements_in.varied() {
        note(first_invalid(e, elements_ok));
    }
    if let Some(a) = d.alpha_write.varied() {
        note(first_invalid_alpha(a));
    }
    if let Some(a) = d.alpha_read.varied() {
        note(first_invalid_alpha(a));
    }
    if let Some(r) = d.ops_per_element.varied() {
        note(first_invalid_rate(r));
    }
    if let Some(r) = d.throughput_proc.varied() {
        note(first_invalid_rate(r));
    }
    if let Some(r) = d.fclock_hz.varied() {
        note(first_invalid_rate(r));
    }
    if let Some(it) = d.iterations.varied() {
        note(first_invalid(it, |it| it >= 1));
    }
    if first_bad == usize::MAX {
        return None;
    }
    // Every point before `first_bad` passes all checks, hence validates.
    // Walk forward from the flag, materializing each point and running the
    // real validate(), so the error (and the winning index) is byte-identical
    // to the per-point path's, reusing one scratch input across the walk.
    let mut scratch = base.clone();
    for i in first_bad..points.len {
        if let Err(e) = points
            .materialize_into(i, &mut scratch)
            .and_then(|()| scratch.validate())
        {
            return Some((i, e));
        }
    }
    None
}

impl Decoded<'_> {
    /// Point `i`'s prediction under `buffering`: its Eqs. (2)–(4) terms,
    /// read from the columns into the kernels the per-input chain uses,
    /// through the one Eqs. (5)–(11) assembly.
    #[inline(always)]
    fn predict(&self, base: &RatInput, i: usize, buffering: Buffering) -> ThroughputPrediction {
        let elements = self.elements_in.at(i);
        let bw = base.comm.ideal_bandwidth;
        let bytes_in = Elements::new(elements) * Bytes::new(base.dataset.bytes_per_element);
        throughput::predict(
            throughput::transfer_seconds(bytes_in, self.alpha_write.at(i), bw),
            throughput::transfer_seconds(base.output_bytes(), self.alpha_read.at(i), bw),
            throughput::compute_seconds(
                elements,
                self.ops_per_element.at(i),
                Freq::from_hz(self.fclock_hz.at(i)),
                self.throughput_proc.at(i),
            ),
            self.iterations.at(i),
            base.software.t_soft,
            buffering,
        )
    }
}

fn eval_speedups(base: &RatInput, d: &Decoded) -> Vec<f64> {
    let mut out = vec![0.0_f64; d.n];
    // Runtime dispatch, mirroring the ChaCha8 bulk-draw pattern: the AVX2
    // kernel evaluates four lanes per iteration with per-lane IEEE-identical
    // operations (see `batch/simd.rs` for the bit-identity argument), the
    // scalar lane below is the always-compiled fallback and handles the
    // sub-vector tail. `RAT_FORCE_SCALAR=1` pins everything to the scalar
    // lane.
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() && d.n >= 4 {
        // SAFETY: AVX2 support was verified at runtime by `avx2_enabled`.
        let done = unsafe { simd::eval_speedups_avx2(base, d, &mut out) };
        eval_speedups_scalar(base, d, done, &mut out);
        return out;
    }
    eval_speedups_scalar(base, d, 0, &mut out);
    out
}

/// The scalar speedup lane over points `lo..out.len()`, writing each result
/// at its own index: Eq. (7) of each point's prediction at the base
/// buffering. This is the reference the SIMD lanes must match bit for bit,
/// and the tail loop behind them.
fn eval_speedups_scalar(base: &RatInput, d: &Decoded, lo: usize, out: &mut [f64]) {
    for (i, s) in out.iter_mut().enumerate().skip(lo) {
        *s = d.predict(base, i, base.buffering).speedup;
    }
}

/// Evaluate Eq. (7) for every point: `out[i]` is bit-identical to
/// `throughput::speedup(&points.materialize(i))`. On an invalid point, the
/// lowest-indexed point's exact `validate()` error is returned.
pub fn speedup_batch(points: &BatchPoints) -> Result<Vec<f64>, RatError> {
    speedup_batch_indexed(points).map_err(|(_, e)| e)
}

/// [`speedup_batch`], reporting *which* point failed — callers that map batch
/// indices back to their own domain (corner numbers, sample indices) need the
/// index to keep error attribution deterministic.
pub fn speedup_batch_indexed(points: &BatchPoints) -> Result<Vec<f64>, (usize, RatError)> {
    let d = checked_decode(points)?;
    Ok(eval_speedups(points.base, &d))
}

/// Evaluate the **full worksheet** for every point: `out[i]` is bit-identical
/// to the per-input chain on `points.materialize(i)` —
/// [`ThroughputPrediction::analyze`] at the point's buffering and at the
/// other one, and [`crate::solve::max_speedup`]. The numeric pipeline runs
/// as column loops; only the final `Report` assembly materializes per-point
/// inputs. `Worksheet::analyze` is this function on a batch of one.
pub fn solve_batch(points: &BatchPoints) -> Result<Vec<Report>, RatError> {
    let d = checked_decode(points).map_err(|(_, e)| e)?;
    let base = points.base;
    let alternate_buffering = match base.buffering {
        Buffering::Single => Buffering::Double,
        Buffering::Double => Buffering::Single,
    };
    let mut reports = Vec::with_capacity(points.len);
    for i in 0..points.len {
        let prediction = d.predict(base, i, base.buffering);
        reports.push(Report {
            speedup: prediction.speedup,
            throughput: prediction,
            alternate: d.predict(base, i, alternate_buffering),
            max_speedup: throughput::ceiling(
                prediction.t_comm,
                d.iterations.at(i),
                base.software.t_soft,
            ),
            input: points.materialize(i)?,
        });
    }
    Ok(reports)
}

/// The two numbers a search ranks a design point by: the speedup and the
/// computation utilization of its prediction at the base buffering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Eq. (7).
    pub speedup: f64,
    /// Eq. (8) or (10).
    pub util_comp: f64,
}

/// Evaluate only speedup and computation utilization at the base buffering
/// for every point: `out[i]` holds the bits of
/// `solve_batch(points)?[i].throughput`'s `speedup` and `util_comp`, with no
/// other prediction field, no alternate prediction, no ceiling and no
/// materialized input. This is what a search that ranks points by speedup
/// and utilization needs.
pub fn predict_batch(points: &BatchPoints) -> Result<Vec<Score>, RatError> {
    let d = checked_decode(points).map_err(|(_, e)| e)?;
    let base = points.base;
    Ok((0..points.len)
        .map(|i| {
            let p = d.predict(base, i, base.buffering);
            Score {
                speedup: p.speedup,
                util_comp: p.util_comp,
            }
        })
        .collect())
}

/// [`solve_batch`] with the points split into [`Engine::chunk_len`]-sized
/// chunks, each one [`solve_batch`] job on `engine`. Reports come back in
/// point order and the lowest-indexed invalid point wins error reporting
/// (the engine picks the lowest failing chunk, the kernel the lowest failing
/// point within it), so the output is identical at every thread count and
/// to one unchunked [`solve_batch`] call.
pub fn solve_batch_with(engine: &Engine, points: &BatchPoints) -> Result<Vec<Report>, RatError> {
    chunked(engine, points, PointCost::FullReport, solve_batch)
}

/// [`predict_batch`] chunked on `engine`, with the same ordering and error
/// contract as [`solve_batch_with`]. A point costs ~20 ns
/// ([`PointCost::Prediction`]), so a batch under 1,250 points, such as a
/// search generation's buffering partition, is one job the caller runs
/// inline, while a million-point batch still spreads across the pool.
pub fn predict_batch_with(engine: &Engine, points: &BatchPoints) -> Result<Vec<Score>, RatError> {
    chunked(engine, points, PointCost::Prediction, predict_batch)
}

/// Run `kernel` over `points` in [`Engine::chunk_len`]-sized chunks, one job
/// each, and concatenate the results in point order.
fn chunked<T: Send>(
    engine: &Engine,
    points: &BatchPoints,
    cost: PointCost,
    kernel: fn(&BatchPoints) -> Result<Vec<T>, RatError>,
) -> Result<Vec<T>, RatError> {
    let n = points.len;
    let chunk = engine.chunk_len(n, cost);
    let per_chunk = engine.try_run(n.div_ceil(chunk), |c| {
        let lo = c * chunk;
        kernel(&points.slice(lo, (lo + chunk).min(n)))
    })?;
    Ok(per_chunk.into_iter().flatten().collect())
}

/// Decode and validate a batch for the kernels, recording its points and
/// stage plan: the decoded columns, or the lowest-indexed invalid point and
/// its exact scalar error.
fn checked_decode<'p>(points: &'p BatchPoints<'_>) -> Result<Decoded<'p>, (usize, RatError)> {
    let d = decode(points);
    if let Some(bad) = first_error(points, &d) {
        return Err(bad);
    }
    telemetry::add(Metric::BatchPoints, points.len as u64);
    stages::record_batch(&points.stage_plan(), points.len as u64);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::params::pdf1d_example;

    /// The per-input chain's speedup: `validate()`, then Eq. (7).
    fn scalar_speedup(input: &RatInput) -> Result<f64, RatError> {
        input.validate()?;
        Ok(throughput::speedup(input))
    }

    const ALL_PARAMS: [SweepParam; 8] = [
        SweepParam::Fclock,
        SweepParam::AlphaWrite,
        SweepParam::AlphaRead,
        SweepParam::AlphaBoth,
        SweepParam::ThroughputProc,
        SweepParam::OpsPerElement,
        SweepParam::ElementsIn,
        SweepParam::Iterations,
    ];

    #[test]
    fn single_column_batches_match_scalar_bit_for_bit() {
        for buffering in [Buffering::Single, Buffering::Double] {
            let base = pdf1d_example().with_buffering(buffering);
            for param in ALL_PARAMS {
                let center = param.read(&base);
                let values: Vec<f64> = (0..97).map(|k| center * (0.5 + 0.02 * k as f64)).collect();
                let mut points = BatchPoints::new(&base, values.len());
                points.push_column(param, values);
                let batch = speedup_batch(&points).expect("all points valid");
                for (i, &got) in batch.iter().enumerate() {
                    let want = scalar_speedup(&points.materialize(i).unwrap())
                        .expect("scalar path agrees");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{param:?}/{buffering:?} point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn chained_alpha_columns_match_chained_scalar_applies() {
        let base = pdf1d_example();
        let n = 33;
        let mut points = BatchPoints::new(&base, n);
        points.push_column(
            SweepParam::AlphaWrite,
            (0..n).map(|k| 0.2 + 0.02 * k as f64).collect::<Vec<f64>>(),
        );
        points.push_column(
            SweepParam::AlphaBoth,
            (0..n).map(|k| 0.3 + 0.01 * k as f64).collect::<Vec<f64>>(),
        );
        let batch = speedup_batch(&points).expect("valid");
        for (i, &got) in batch.iter().enumerate() {
            let want = scalar_speedup(&points.materialize(i).unwrap()).expect("valid");
            assert_eq!(got.to_bits(), want.to_bits(), "point {i}");
        }
    }

    #[test]
    fn lowest_indexed_invalid_point_wins_with_the_scalar_error() {
        let base = pdf1d_example();
        let mut points = BatchPoints::new(&base, 5);
        // Points 2 and 4 push alpha_write out of (0, 1].
        points.push_column(SweepParam::AlphaWrite, vec![0.5, 0.6, 1.5, 0.7, -1.0]);
        let (index, err) = speedup_batch_indexed(&points).expect_err("point 2 invalid");
        assert_eq!(index, 2);
        let scalar_err =
            scalar_speedup(&points.materialize(2).unwrap()).expect_err("scalar rejects too");
        assert_eq!(err.to_string(), scalar_err.to_string());
    }

    #[test]
    fn solve_batch_matches_the_worksheet_pipeline() {
        for buffering in [Buffering::Single, Buffering::Double] {
            let base = pdf1d_example().with_buffering(buffering);
            let values = vec![75.0e6, 100.0e6, 150.0e6];
            let mut points = BatchPoints::new(&base, values.len());
            points.push_column(SweepParam::Fclock, values);
            let reports = solve_batch(&points).expect("valid");
            for (i, got) in reports.iter().enumerate() {
                let input = points.materialize(i).unwrap();
                let throughput = ThroughputPrediction::analyze(&input).expect("valid");
                let other = match buffering {
                    Buffering::Single => Buffering::Double,
                    Buffering::Double => Buffering::Single,
                };
                let want = Report {
                    speedup: throughput.speedup,
                    throughput,
                    alternate: ThroughputPrediction::analyze(&input.with_buffering(other))
                        .expect("valid"),
                    max_speedup: crate::solve::max_speedup(&input).expect("valid"),
                    input,
                };
                assert_eq!(got, &want, "{buffering:?} point {i}");
            }
        }
    }

    #[test]
    fn chunked_solve_matches_one_batch_at_every_thread_count() {
        let base = pdf1d_example();
        let n = 1000;
        let fclock: Vec<f64> = (0..n).map(|k| 50.0e6 + 1.0e5 * k as f64).collect();
        let alpha: Vec<f64> = (0..n).map(|k| 0.1 + 0.0009 * k as f64).collect();
        let mut points = BatchPoints::new(&base, n);
        points.push_column(SweepParam::Fclock, &fclock[..]);
        points.push_column(SweepParam::AlphaRead, &alpha[..]);
        let whole = solve_batch(&points).expect("valid");

        // Invalid points in two different chunks at every job count.
        let mut bad_alpha = alpha.clone();
        bad_alpha[700] = -1.0;
        bad_alpha[900] = 2.0;
        let mut bad = BatchPoints::new(&base, n);
        bad.push_column(SweepParam::Fclock, &fclock[..]);
        bad.push_column(SweepParam::AlphaRead, bad_alpha);
        let first = scalar_speedup(&bad.materialize(700).unwrap()).expect_err("invalid");
        let later = scalar_speedup(&bad.materialize(900).unwrap()).expect_err("invalid");
        assert_ne!(first.to_string(), later.to_string());

        for jobs in [1, 2, 8] {
            let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
            let chunked = solve_batch_with(&engine, &points).expect("valid");
            assert_eq!(chunked, whole, "jobs={jobs}");
            let err = solve_batch_with(&engine, &bad).expect_err("point 700 invalid");
            assert_eq!(err.to_string(), first.to_string(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_batch_is_legal() {
        let base = pdf1d_example();
        let points = BatchPoints::new(&base, 0);
        assert!(points.is_empty());
        assert_eq!(speedup_batch(&points).expect("empty ok"), Vec::<f64>::new());
        assert!(solve_batch(&points).expect("empty ok").is_empty());
    }

    #[test]
    fn stage_plan_marks_exactly_the_written_stages() {
        let base = pdf1d_example();
        let mut points = BatchPoints::new(&base, 3);
        points.push_column(SweepParam::Fclock, vec![75.0e6, 100.0e6, 150.0e6]);
        assert_eq!(
            points.stage_plan(),
            BatchStagePlan {
                comm_varies: false,
                comp_varies: true,
                overlap_varies: true,
                speedup_varies: true,
            }
        );
        let mut points = BatchPoints::new(&base, 2);
        points.push_column(SweepParam::AlphaRead, vec![0.5, 0.6]);
        let plan = points.stage_plan();
        assert!(plan.comm_varies && !plan.comp_varies && plan.overlap_varies);
        // elements_in feeds both sides of the model.
        let mut points = BatchPoints::new(&base, 2);
        points.push_column(SweepParam::ElementsIn, vec![256.0, 512.0]);
        let plan = points.stage_plan();
        assert!(plan.comm_varies && plan.comp_varies);
        // iterations alone leaves both per-iteration stages uniform.
        let mut points = BatchPoints::new(&base, 2);
        points.push_column(SweepParam::Iterations, vec![100.0, 200.0]);
        let plan = points.stage_plan();
        assert!(!plan.comm_varies && !plan.comp_varies && plan.overlap_varies);
        // No columns at all: everything uniform.
        let plan = BatchPoints::new(&base, 4).stage_plan();
        assert!(!plan.overlap_varies && !plan.speedup_varies);
    }

    #[test]
    fn borrowed_columns_match_owned_columns() {
        let base = pdf1d_example();
        let values: Vec<f64> = (0..40).map(|k| 60.0e6 + 2.0e6 * k as f64).collect();
        let mut owned = BatchPoints::new(&base, values.len());
        owned.push_column(SweepParam::Fclock, values.clone());
        let mut borrowed = BatchPoints::new(&base, values.len());
        borrowed.push_column(SweepParam::Fclock, &values[..]);
        assert_eq!(
            speedup_batch(&owned).expect("valid"),
            speedup_batch(&borrowed).expect("valid")
        );
        assert_eq!(
            solve_batch(&owned).expect("valid"),
            solve_batch(&borrowed).expect("valid")
        );
    }

    #[test]
    fn materialize_into_matches_materialize() {
        let base = pdf1d_example();
        let mut points = BatchPoints::new(&base, 4);
        points.push_column(SweepParam::AlphaWrite, vec![0.3, 0.5, 0.7, 0.9]);
        points.push_column(SweepParam::AlphaBoth, vec![0.4, 0.5, 0.6, 0.7]);
        let mut scratch = base.clone();
        for i in 0..4 {
            points.materialize_into(i, &mut scratch).unwrap();
            assert_eq!(scratch, points.materialize(i).unwrap(), "point {i}");
        }
    }

    #[test]
    fn invalid_base_constant_reports_point_zero() {
        let mut base = pdf1d_example();
        base.dataset.bytes_per_element = 0;
        let mut points = BatchPoints::new(&base, 3);
        points.push_column(SweepParam::Fclock, vec![1.0e8; 3]);
        let (index, err) = speedup_batch_indexed(&points).expect_err("base invalid");
        assert_eq!(index, 0);
        assert!(err.to_string().contains("bytes_per_element"), "{err}");
    }
}
