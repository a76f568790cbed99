//! Batched structure-of-arrays evaluation of the analytic pipeline.
//!
//! Every hot analysis — a dense sweep, a Monte-Carlo uncertainty run, corner
//! enumeration — evaluates Eqs. (1)–(11) at thousands of design points that
//! differ from a shared base input in only a few scalar parameters. The
//! scalar fast path ([`crate::solve::speedup_only`]) already strips the
//! per-point cost to a validate + a handful of float ops, but it still pays
//! per-point call overhead and gives the compiler a single point at a time.
//! [`BatchPoints`] stores the *varied* parameters as columns
//! (structure-of-arrays) over one base [`RatInput`], and [`speedup_batch`] /
//! [`solve_batch`] evaluate all points in tight loops over those columns.
//!
//! ## Bit-identity contract
//!
//! The kernels replicate the scalar expression chain operation for
//! operation — `bytes as f64 / (alpha * bw)`, `t_write + t_read`,
//! `elements as f64 * ops / (hz * tp)`, `iters as f64 * (t_comm + t_comp)`
//! (or `.max`), `t_soft / t_rc` — in the exact order the typed-quantity
//! operators execute them, so `speedup_batch(&points)[i]` is bit-identical
//! to `speedup_only(&points.materialize(i))` (pinned by the differential
//! suite in `tests/batch_differential.rs`). Rust never reassociates float
//! arithmetic, so a straight-line transcription is sufficient; what batching
//! buys is amortized validation, hoisted constants (the buffering `match`,
//! `bytes_per_element`, bandwidth, `t_soft`), and loops wide enough for the
//! explicit AVX2 lanes in `batch/simd.rs`, which perform the same IEEE-754
//! operations per lane and are therefore covered by the same contract (the
//! differential suite runs with SIMD forced on and off; `RAT_FORCE_SCALAR=1`
//! pins the scalar fallback at runtime).
//!
//! ## Error contract
//!
//! Invalid points error exactly as the scalar path does: the lowest-indexed
//! invalid point wins, and its error is produced by running the real
//! [`RatInput::validate`] on that materialized point, so messages and field
//! ordering are byte-identical to the per-point pipeline.

use std::borrow::Cow;

#[cfg(target_arch = "x86_64")]
mod simd;

use crate::engine::{Engine, PointCost};
use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::Seconds;
use crate::report::Report;
use crate::solve::stages::{self, BatchStagePlan};
use crate::sweep::SweepParam;
use crate::telemetry::{self, Metric};
use crate::throughput::ThroughputPrediction;

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
    /// match bit for bit.
    pub fn materialize(&self, i: usize) -> RatInput {
        let mut point = self.base.clone();
        for (param, values) in &self.columns {
            param.apply_into(&mut point, values[i]);
        }
        point
    }

    /// [`BatchPoints::materialize`] into a caller-owned scratch input:
    /// restores the scratch to the base point (reusing its allocations) and
    /// applies every column in order. Bit-identical to `materialize(i)` for
    /// every parameter field; only the `name` string is left as-is.
    pub fn materialize_into(&self, i: usize, scratch: &mut RatInput) {
        scratch.copy_params_from(self.base);
        for (param, values) in &self.columns {
            param.apply_into(scratch, values[i]);
        }
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
/// The split is what lets both kernels skip broadcast work entirely: the old
/// decoder materialized `vec![base; n]` for every untouched field, and at
/// SIMD speeds those allocations cost more than the math. A uniform field is
/// one scalar (one splat register on the AVX2 path); a varied field written
/// by direct-copy columns **borrows** the last such column with no copy.
enum ColF<'p> {
    Uniform(f64),
    Varied(Cow<'p, [f64]>),
}

impl ColF<'_> {
    /// The value at point `i` — bit-identical to indexing the broadcast
    /// column the old decoder built, since a uniform field held the same
    /// base value at every index.
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        match self {
            ColF::Uniform(v) => *v,
            ColF::Varied(vals) => vals[i],
        }
    }

    /// The dense column when the field varies.
    fn varied(&self) -> Option<&[f64]> {
        match self {
            ColF::Uniform(_) => None,
            ColF::Varied(vals) => Some(vals),
        }
    }
}

/// [`ColF`] for the integer fields (`elements_in`, `iterations`), which
/// transform their column values (round, clamp to `>= 1`) and so always own
/// their storage when varied.
enum ColU {
    Uniform(u64),
    Varied(Vec<u64>),
}

impl ColU {
    #[inline(always)]
    fn at(&self, i: usize) -> u64 {
        match self {
            ColU::Uniform(v) => *v,
            ColU::Varied(vals) => vals[i],
        }
    }

    fn varied(&self) -> Option<&[u64]> {
        match self {
            ColU::Uniform(_) => None,
            ColU::Varied(vals) => Some(vals),
        }
    }
}

/// The mutable parameter fields, decoded to one [`ColF`]/[`ColU`] view each.
struct Decoded<'p> {
    n: usize,
    elements_in: ColU,
    alpha_write: ColF<'p>,
    alpha_read: ColF<'p>,
    ops_per_element: ColF<'p>,
    throughput_proc: ColF<'p>,
    fclock_hz: ColF<'p>,
    iterations: ColU,
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
    let direct = |want: SweepParam, base_val: f64| -> ColF<'p> {
        match last_direct(want) {
            Some(col) => ColF::Varied(Cow::Borrowed(col)),
            None => ColF::Uniform(base_val),
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
        (ColF::Varied(Cow::Owned(aw)), ColF::Varied(Cow::Owned(ar)))
    } else {
        (
            direct(SweepParam::AlphaWrite, base.comm.alpha_write),
            direct(SweepParam::AlphaRead, base.comm.alpha_read),
        )
    };
    let decode_u64 = |want: SweepParam, base_val: u64| -> ColU {
        let written = points.columns.iter().any(|(p, _)| *p == want);
        if !written {
            return ColU::Uniform(base_val);
        }
        let mut vals = vec![base_val; n];
        for (param, col) in &points.columns {
            if *param == want {
                for (dst, &v) in vals.iter_mut().zip(&col[..]) {
                    *dst = v.round().max(1.0) as u64;
                }
            }
        }
        ColU::Varied(vals)
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
    let bw = base.comm.ideal_bandwidth.bytes_per_sec();
    let t_soft = base.software.t_soft.seconds();
    // Non-short-circuiting `&` so the column scans compile branch-free: the
    // autovectorizer turns the three compares into wide predicates, where
    // `&&` would force a branch per point and serialize the scan.
    let alpha_ok = |a: f64| a.is_finite() & (a > 0.0) & (a <= 1.0);
    let rate_ok = |r: f64| r.is_finite() & (r > 0.0);
    let uniform_f = |col: &ColF, ok: &dyn Fn(f64) -> bool| match col {
        ColF::Uniform(v) => ok(*v),
        ColF::Varied(_) => true, // scanned below
    };
    let uniform_ok = base.dataset.bytes_per_element >= 1
        && bw.is_finite()
        && bw > 0.0
        && t_soft.is_finite()
        && t_soft > 0.0
        && match &d.elements_in {
            ColU::Uniform(e) => *e >= 1,
            ColU::Varied(_) => true,
        }
        && uniform_f(&d.alpha_write, &alpha_ok)
        && uniform_f(&d.alpha_read, &alpha_ok)
        && uniform_f(&d.ops_per_element, &rate_ok)
        && uniform_f(&d.throughput_proc, &rate_ok)
        && uniform_f(&d.fclock_hz, &rate_ok)
        && match &d.iterations {
            ColU::Uniform(it) => *it >= 1,
            ColU::Varied(_) => true,
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
        note(first_invalid(e, |e| e >= 1));
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
    // Walk forward from the flag with the real validate() so the error (and
    // the winning index) is byte-identical to the scalar path's, reusing one
    // scratch input across the walk.
    let mut scratch = base.clone();
    for i in first_bad..points.len {
        points.materialize_into(i, &mut scratch);
        if let Err(e) = scratch.validate() {
            return Some((i, e));
        }
    }
    None
}

/// The per-point per-iteration time terms, in scalar expression order.
#[inline(always)]
fn point_terms(base: &RatInput, d: &Decoded, i: usize, bw: f64, bytes_out: u64) -> (f64, f64, f64) {
    let bytes_in = d.elements_in.at(i) * base.dataset.bytes_per_element;
    let t_write = bytes_in as f64 / (d.alpha_write.at(i) * bw);
    let t_read = bytes_out as f64 / (d.alpha_read.at(i) * bw);
    let t_comp = d.elements_in.at(i) as f64 * d.ops_per_element.at(i)
        / (d.fclock_hz.at(i) * d.throughput_proc.at(i));
    (t_write, t_read, t_comp)
}

fn eval_speedups(base: &RatInput, d: &Decoded, plan: &BatchStagePlan) -> Vec<f64> {
    let mut out = vec![0.0_f64; d.n];
    // Runtime dispatch, mirroring the ChaCha8 bulk-draw pattern: the AVX2
    // kernel evaluates four lanes per iteration with per-lane IEEE-identical
    // operations (see `batch/simd.rs` for the bit-identity argument), the
    // scalar loop below is the always-compiled fallback and handles the
    // sub-vector tail. `RAT_FORCE_SCALAR=1` pins everything to the scalar
    // path.
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() && d.n >= 4 {
        // SAFETY: AVX2 support was verified at runtime by `avx2_enabled`.
        let done = unsafe { simd::eval_speedups_avx2(base, d, plan, &mut out) };
        eval_speedups_scalar(base, d, plan, done, &mut out);
        return out;
    }
    eval_speedups_scalar(base, d, plan, 0, &mut out);
    out
}

/// The scalar speedup kernel over points `lo..out.len()`, writing each
/// result at its own index. This is the reference the SIMD lanes must match
/// bit for bit, and the tail loop behind them.
fn eval_speedups_scalar(
    base: &RatInput,
    d: &Decoded,
    plan: &BatchStagePlan,
    lo: usize,
    out: &mut [f64],
) {
    let bw = base.comm.ideal_bandwidth.bytes_per_sec();
    let bytes_out = base.dataset.elements_out * base.dataset.bytes_per_element;
    let t_soft = base.software.t_soft.seconds();
    // When no column writes a communication-stage input, the comm terms are
    // the same at every point: compute them once from the base (a uniform
    // field holds exactly the base value, so this is bit-identical to the
    // per-point expressions) and drop two divides from the inner loop. This
    // is the batched face of the comm-stage skip.
    if !plan.comm_varies {
        let bytes_in = base.dataset.elements_in * base.dataset.bytes_per_element;
        let t_write = bytes_in as f64 / (base.comm.alpha_write * bw);
        let t_read = bytes_out as f64 / (base.comm.alpha_read * bw);
        let t_comm = t_write + t_read;
        // A comm-uniform plan means no column writes `elements_in` (it is a
        // comm-stage input), so the per-point factor is one hoisted scalar.
        let elems = base.dataset.elements_in as f64;
        match base.buffering {
            Buffering::Single => {
                for (i, s) in out.iter_mut().enumerate().skip(lo) {
                    let t_comp = elems * d.ops_per_element.at(i)
                        / (d.fclock_hz.at(i) * d.throughput_proc.at(i));
                    let t_rc = d.iterations.at(i) as f64 * (t_comm + t_comp);
                    *s = t_soft / t_rc;
                }
            }
            Buffering::Double => {
                for (i, s) in out.iter_mut().enumerate().skip(lo) {
                    let t_comp = elems * d.ops_per_element.at(i)
                        / (d.fclock_hz.at(i) * d.throughput_proc.at(i));
                    let t_rc = d.iterations.at(i) as f64 * t_comm.max(t_comp);
                    *s = t_soft / t_rc;
                }
            }
        }
        return;
    }
    // The buffering discipline is a base property (no SweepParam varies it),
    // so the Eq. (5) / Eq. (6) choice hoists out of the loop entirely.
    match base.buffering {
        Buffering::Single => {
            for (i, s) in out.iter_mut().enumerate().skip(lo) {
                let (t_write, t_read, t_comp) = point_terms(base, d, i, bw, bytes_out);
                let t_comm = t_write + t_read;
                let t_rc = d.iterations.at(i) as f64 * (t_comm + t_comp);
                *s = t_soft / t_rc;
            }
        }
        Buffering::Double => {
            for (i, s) in out.iter_mut().enumerate().skip(lo) {
                let (t_write, t_read, t_comp) = point_terms(base, d, i, bw, bytes_out);
                let t_comm = t_write + t_read;
                let t_rc = d.iterations.at(i) as f64 * t_comm.max(t_comp);
                *s = t_soft / t_rc;
            }
        }
    }
}

/// Evaluate Eq. (7) for every point: `out[i]` is bit-identical to
/// `speedup_only(&points.materialize(i))`. On an invalid point, the
/// lowest-indexed point's exact scalar error is returned.
pub fn speedup_batch(points: &BatchPoints) -> Result<Vec<f64>, RatError> {
    speedup_batch_indexed(points).map_err(|(_, e)| e)
}

/// [`speedup_batch`], reporting *which* point failed — callers that map batch
/// indices back to their own domain (corner numbers, sample indices) need the
/// index to keep error attribution deterministic.
pub fn speedup_batch_indexed(points: &BatchPoints) -> Result<Vec<f64>, (usize, RatError)> {
    let plan = points.stage_plan();
    let d = decode(points);
    if let Some(bad) = first_error(points, &d) {
        return Err(bad);
    }
    telemetry::add(Metric::BatchPoints, points.len as u64);
    stages::record_batch(&plan, points.len as u64);
    Ok(eval_speedups(points.base, &d, &plan))
}

/// Evaluate the **full worksheet** for every point: `out[i]` is bit-identical
/// to `Worksheet::new(points.materialize(i)).analyze_monolithic()` — the
/// prediction at the point's buffering, the alternate-buffering prediction,
/// and the communication-bound ceiling. The numeric pipeline runs as column
/// loops; only the final `Report` assembly materializes per-point inputs.
/// `Worksheet::analyze` is this function on a batch of one.
pub fn solve_batch(points: &BatchPoints) -> Result<Vec<Report>, RatError> {
    let d = decode(points);
    if let Some((_, e)) = first_error(points, &d) {
        return Err(e);
    }
    telemetry::add(Metric::BatchPoints, points.len as u64);
    stages::record_batch(&points.stage_plan(), points.len as u64);
    let base = points.base;
    let bw = base.comm.ideal_bandwidth.bytes_per_sec();
    let bytes_out = base.dataset.elements_out * base.dataset.bytes_per_element;
    let t_soft = base.software.t_soft.seconds();
    let mut reports = Vec::with_capacity(points.len);
    for i in 0..points.len {
        let (t_write, t_read, t_comp) = point_terms(base, &d, i, bw, bytes_out);
        let t_comm = t_write + t_read;
        let iters = d.iterations.at(i) as f64;
        let single = prediction(
            Buffering::Single,
            t_write,
            t_read,
            t_comm,
            t_comp,
            iters,
            t_soft,
        );
        let double = prediction(
            Buffering::Double,
            t_write,
            t_read,
            t_comm,
            t_comp,
            iters,
            t_soft,
        );
        let (throughput, alternate) = match base.buffering {
            Buffering::Single => (single, double),
            Buffering::Double => (double, single),
        };
        let max_speedup = t_soft / (iters * t_comm);
        reports.push(Report {
            speedup: throughput.speedup,
            throughput,
            alternate,
            max_speedup,
            input: points.materialize(i),
        });
    }
    Ok(reports)
}

/// [`solve_batch`] with the points split into [`Engine::chunk_len`]-sized
/// chunks, each one [`solve_batch`] job on `engine`. Reports come back in
/// point order and the lowest-indexed invalid point wins error reporting
/// (the engine picks the lowest failing chunk, the kernel the lowest failing
/// point within it), so the output is identical at every thread count and
/// to one unchunked [`solve_batch`] call.
pub fn solve_batch_with(engine: &Engine, points: &BatchPoints) -> Result<Vec<Report>, RatError> {
    let n = points.len;
    let chunk = engine.chunk_len(n, PointCost::FullReport);
    let per_chunk = engine.try_run(n.div_ceil(chunk), |c| {
        let lo = c * chunk;
        solve_batch(&points.slice(lo, (lo + chunk).min(n)))
    })?;
    Ok(per_chunk.into_iter().flatten().collect())
}

/// Assemble one [`ThroughputPrediction`] from the shared per-iteration terms,
/// in the exact expression order of `ThroughputPrediction::analyze`.
fn prediction(
    buffering: Buffering,
    t_write: f64,
    t_read: f64,
    t_comm: f64,
    t_comp: f64,
    iters: f64,
    t_soft: f64,
) -> ThroughputPrediction {
    let (t_rc, util_comp, util_comm) = match buffering {
        Buffering::Single => (
            iters * (t_comm + t_comp),
            t_comp / (t_comm + t_comp),
            t_comm / (t_comm + t_comp),
        ),
        Buffering::Double => (
            iters * t_comm.max(t_comp),
            t_comp / t_comm.max(t_comp),
            t_comm / t_comm.max(t_comp),
        ),
    };
    ThroughputPrediction {
        t_write: Seconds::new(t_write),
        t_read: Seconds::new(t_read),
        t_comm: Seconds::new(t_comm),
        t_comp: Seconds::new(t_comp),
        t_rc: Seconds::new(t_rc),
        speedup: t_soft / t_rc,
        util_comm,
        util_comp,
        buffering,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::params::pdf1d_example;
    use crate::solve::speedup_only;
    use crate::worksheet::Worksheet;

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
                    let want = speedup_only(&points.materialize(i)).expect("scalar path agrees");
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
            let want = speedup_only(&points.materialize(i)).expect("valid");
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
        let scalar_err = speedup_only(&points.materialize(2)).expect_err("scalar rejects too");
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
                let want = Worksheet::new(points.materialize(i))
                    .analyze_monolithic()
                    .expect("worksheet agrees");
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
        let first = speedup_only(&bad.materialize(700)).expect_err("invalid");
        let later = speedup_only(&bad.materialize(900)).expect_err("invalid");
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
            points.materialize_into(i, &mut scratch);
            assert_eq!(scratch, points.materialize(i), "point {i}");
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
