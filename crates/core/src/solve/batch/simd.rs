//! AVX2 lanes for the batch speedup kernel.
//!
//! Four design points evaluate per iteration as one `f64x4` vector each for
//! `t_comp`, `t_comm`, `t_rc`, and the final speedup. The kernel is selected
//! at runtime ([`crate::simd::avx2_enabled`]) exactly like the ChaCha8 bulk
//! path in `vendor/rand_chacha`; the scalar lane in `batch.rs` stays the
//! always-compiled fallback and evaluates the sub-vector tail.
//!
//! ## Bit-identity argument
//!
//! Every output must equal the scalar lane bit for bit, so the vector code
//! is a transliteration of `throughput::predict`'s speedup, not a
//! re-derivation:
//!
//! - **Same operations, same order.** Each lane performs the identical
//!   IEEE-754 double-precision `mul`/`div`/`add` sequence as the scalar
//!   expression chain (`vmulpd`/`vdivpd`/`vaddpd` are per-lane exact by the
//!   standard). Nothing is reassociated and no reciprocal approximations are
//!   used.
//! - **No FMA contraction.** The intrinsics compile to exactly the named
//!   instructions; a separate `mul` then `add` can never fuse into one
//!   differently-rounded `vfmadd` the way optimizers may fuse scalar source.
//! - **Integer conversion parity.** `u64 → f64` happens lane-by-lane with
//!   the same `as f64` scalar conversion before the vector is formed, so
//!   rounding matches the scalar path by construction.
//! - **`max` semantics.** `f64::max` returns the non-NaN operand when one
//!   side is NaN, while `vmaxpd` returns its *second* operand; [`vmax`]
//!   rebuilds the scalar semantics exactly with a compare-and-blend. (A NaN
//!   can only arise here from `inf/inf` after extreme inputs overflow, but
//!   the kernel must not diverge even then.)

use super::{Col, Decoded};
use crate::params::{Buffering, RatInput};
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_div_pd,
    _mm256_loadu_pd, _mm256_max_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd,
    _mm256_setr_pd, _mm256_setzero_pd, _mm256_storeu_pd, _CMP_GT_OQ, _CMP_LE_OQ, _CMP_LT_OQ,
    _CMP_UNORD_Q,
};

/// A decoded `f64` field as vector lanes: a uniform field is one splat
/// register, a varied field loads four contiguous values per step. The
/// `Option` discriminant is loop-invariant, so the branch predicts (and
/// typically hoists) perfectly.
struct FLanes<'a> {
    splat: __m256d,
    values: Option<&'a [f64]>,
}

impl<'a> FLanes<'a> {
    #[target_feature(enable = "avx2")]
    unsafe fn new(col: &'a Col<'_, f64>) -> Self {
        match col {
            Col::Uniform(v) => FLanes {
                splat: _mm256_set1_pd(*v),
                values: None,
            },
            Col::Varied(vals) => FLanes {
                splat: _mm256_set1_pd(0.0),
                values: Some(vals),
            },
        }
    }

    /// Lanes `i..i+4`; caller guarantees `i + 4 <= len` for varied fields.
    #[inline(always)]
    unsafe fn load(&self, i: usize) -> __m256d {
        match self.values {
            Some(vals) => _mm256_loadu_pd(vals.as_ptr().add(i)),
            None => self.splat,
        }
    }
}

/// A decoded `u64` field pre-converted to `f64` lanes: uniform fields splat
/// the single scalar conversion, varied fields convert lane-by-lane with the
/// same `as f64` the scalar kernel applies.
struct ULanes<'a> {
    splat: __m256d,
    values: Option<&'a [u64]>,
}

impl<'a> ULanes<'a> {
    #[target_feature(enable = "avx2")]
    unsafe fn new(col: &'a Col<'_, u64>) -> Self {
        match col {
            Col::Uniform(v) => ULanes {
                splat: _mm256_set1_pd(*v as f64),
                values: None,
            },
            Col::Varied(vals) => ULanes {
                splat: _mm256_set1_pd(0.0),
                values: Some(vals),
            },
        }
    }

    #[inline(always)]
    unsafe fn load_f64(&self, i: usize) -> __m256d {
        match self.values {
            Some(v) => _mm256_setr_pd(
                v[i] as f64,
                v[i + 1] as f64,
                v[i + 2] as f64,
                v[i + 3] as f64,
            ),
            None => self.splat,
        }
    }
}

/// The validity scan behind `first_error`'s varied-column checks, four lanes
/// per compare. Equivalence with the scalar predicates is exact:
///
/// * `RATE` (`ALPHA = false`): scalar is `v.is_finite() & (v > 0.0)`, vector
///   is `(v > 0) & (v < +inf)` with ordered-quiet compares. A NaN lane fails
///   both ordered compares just as `is_finite` fails it; `+inf` fails
///   `v < +inf` just as `is_finite` does; every finite value agrees
///   trivially.
/// * `ALPHA` (`ALPHA = true`): scalar is `is_finite & (v > 0) & (v <= 1)`,
///   vector is `(v > 0) & (v <= 1)` — any non-finite value already fails one
///   of the ordered compares, so dropping the redundant finiteness test
///   changes nothing.
///
/// A flagged vector (or the tail) re-scans scalar so the *index* returned is
/// exactly the scalar scan's.
#[target_feature(enable = "avx2")]
unsafe fn first_invalid_range<const ALPHA: bool>(vals: &[f64]) -> Option<usize> {
    let zero = _mm256_setzero_pd();
    let hi = _mm256_set1_pd(if ALPHA { 1.0 } else { f64::INFINITY });
    let scalar_ok = |v: f64| {
        if ALPHA {
            v.is_finite() & (v > 0.0) & (v <= 1.0)
        } else {
            v.is_finite() & (v > 0.0)
        }
    };
    let n4 = vals.len() & !3;
    let mut i = 0usize;
    while i < n4 {
        let v = _mm256_loadu_pd(vals.as_ptr().add(i));
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(v, zero);
        let in_range = if ALPHA {
            _mm256_cmp_pd::<_CMP_LE_OQ>(v, hi)
        } else {
            _mm256_cmp_pd::<_CMP_LT_OQ>(v, hi)
        };
        if _mm256_movemask_pd(_mm256_and_pd(gt, in_range)) != 0b1111 {
            return (i..i + 4).find(|&j| !scalar_ok(vals[j]));
        }
        i += 4;
    }
    (n4..vals.len()).find(|&j| !scalar_ok(vals[j]))
}

/// First index failing `is_finite & (v > 0)`, or `None` if the column is
/// clean. # Safety: AVX2 must be supported at runtime.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn first_invalid_rate(vals: &[f64]) -> Option<usize> {
    first_invalid_range::<false>(vals)
}

/// First index failing `is_finite & (v > 0) & (v <= 1)`, or `None`.
/// # Safety: AVX2 must be supported at runtime.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn first_invalid_alpha(vals: &[f64]) -> Option<usize> {
    first_invalid_range::<true>(vals)
}

/// `f64::max` semantics on four lanes: where `b` is NaN take `a`, otherwise
/// `vmaxpd` already agrees with the scalar result bit for bit (non-NaN lanes
/// with `a > b` give `a`, all other ordered lanes give `b`, and `a`-is-NaN
/// lanes give `b` — exactly `a.max(b)`).
#[inline(always)]
unsafe fn vmax(a: __m256d, b: __m256d) -> __m256d {
    let m = _mm256_max_pd(a, b);
    let b_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(b, b);
    _mm256_blendv_pd(m, a, b_nan)
}

/// Evaluate speedups for as many leading whole vectors as possible, writing
/// `out[i]` for `i < returned`, and return how many points were covered (a
/// multiple of 4). The caller finishes `returned..n` on the scalar lane.
///
/// # Safety
/// AVX2 must be supported at runtime.
pub(super) unsafe fn eval_speedups_avx2(base: &RatInput, d: &Decoded, out: &mut [f64]) -> usize {
    // Unless a column writes a field the comm term reads, the term is the
    // same at every point and the kernel hoists it out of its loop.
    let comm_varies = d.elements_in.varied().is_some()
        || d.alpha_write.varied().is_some()
        || d.alpha_read.varied().is_some();
    match (comm_varies, base.buffering) {
        (false, Buffering::Single) => kernel::<false, false>(base, d, out),
        (false, Buffering::Double) => kernel::<false, true>(base, d, out),
        (true, Buffering::Single) => kernel::<true, false>(base, d, out),
        (true, Buffering::Double) => kernel::<true, true>(base, d, out),
    }
}

#[target_feature(enable = "avx2")]
unsafe fn kernel<const COMM_VARIES: bool, const DOUBLE: bool>(
    base: &RatInput,
    d: &Decoded,
    out: &mut [f64],
) -> usize {
    let n = out.len();
    let n4 = n & !3;
    let bw = base.comm.ideal_bandwidth.bytes_per_sec();
    let bpe = base.dataset.bytes_per_element;
    let bytes_out = base.dataset.elements_out * bpe;
    let t_soft = base.software.t_soft.seconds();

    let ops = FLanes::new(&d.ops_per_element);
    let tp = FLanes::new(&d.throughput_proc);
    let hz = FLanes::new(&d.fclock_hz);
    let aw = FLanes::new(&d.alpha_write);
    let ar = FLanes::new(&d.alpha_read);
    let iters = ULanes::new(&d.iterations);
    let elems = ULanes::new(&d.elements_in);
    // Varied elements also feed `bytes_in = elements_in * bytes_per_element`
    // (a u64 multiply *before* the f64 conversion, as in the scalar chain).
    let elems_raw = d.elements_in.varied();

    let bw_v = _mm256_set1_pd(bw);
    let t_soft_v = _mm256_set1_pd(t_soft);
    let bytes_out_v = _mm256_set1_pd(bytes_out as f64);
    // The comm-uniform kernel hoists the whole comm term, in exactly the
    // scalar lane's expressions; uniform-elements batches with varied
    // alphas hoist just the byte count. Only a uniform `elements_in` (the
    // base's, validated) has one.
    let bytes_in_u = match d.elements_in {
        Col::Uniform(e) => e * bpe,
        Col::Varied(_) => 0,
    };
    let t_write_u = bytes_in_u as f64 / (base.comm.alpha_write * bw);
    let t_read_u = bytes_out as f64 / (base.comm.alpha_read * bw);
    let t_comm_uv = _mm256_set1_pd(t_write_u + t_read_u);
    let bytes_in_uv = _mm256_set1_pd(bytes_in_u as f64);

    let mut i = 0;
    while i < n4 {
        let elems_f = elems.load_f64(i);
        let t_comm = if COMM_VARIES {
            let bytes_in = match elems_raw {
                Some(e) => _mm256_setr_pd(
                    (e[i] * bpe) as f64,
                    (e[i + 1] * bpe) as f64,
                    (e[i + 2] * bpe) as f64,
                    (e[i + 3] * bpe) as f64,
                ),
                None => bytes_in_uv,
            };
            let t_write = _mm256_div_pd(bytes_in, _mm256_mul_pd(aw.load(i), bw_v));
            let t_read = _mm256_div_pd(bytes_out_v, _mm256_mul_pd(ar.load(i), bw_v));
            _mm256_add_pd(t_write, t_read)
        } else {
            t_comm_uv
        };
        let t_comp = _mm256_div_pd(
            _mm256_mul_pd(elems_f, ops.load(i)),
            _mm256_mul_pd(hz.load(i), tp.load(i)),
        );
        let per_iter = if DOUBLE {
            vmax(t_comm, t_comp)
        } else {
            _mm256_add_pd(t_comm, t_comp)
        };
        let t_rc = _mm256_mul_pd(iters.load_f64(i), per_iter);
        let s = _mm256_div_pd(t_soft_v, t_rc);
        _mm256_storeu_pd(out.as_mut_ptr().add(i), s);
        i += 4;
    }
    n4
}

#[cfg(test)]
mod tests {
    use super::super::{decode, eval_speedups_scalar, BatchPoints};
    use crate::params::{pdf1d_example, Buffering};
    use crate::sweep::SweepParam;

    /// The AVX2 validity scans agree with the scalar predicates on every
    /// adversarial value, at every position (vector body and tail), for both
    /// predicate shapes.
    #[test]
    fn avx2_validity_scans_match_scalar_predicates() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let rate_ok = |v: f64| v.is_finite() & (v > 0.0);
        let alpha_ok = |v: f64| v.is_finite() & (v > 0.0) & (v <= 1.0);
        let bad_values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.0,
            1.0 + f64::EPSILON, // bad for alpha only
        ];
        for n in [1usize, 3, 4, 5, 8, 17, 64, 130] {
            for bad in bad_values {
                for at in [0, n / 2, n - 1] {
                    let mut vals = vec![0.5f64; n];
                    vals[at] = bad;
                    // SAFETY: feature checked above.
                    let (simd_rate, simd_alpha) = unsafe {
                        (
                            super::first_invalid_rate(&vals),
                            super::first_invalid_alpha(&vals),
                        )
                    };
                    assert_eq!(
                        simd_rate,
                        vals.iter().position(|&v| !rate_ok(v)),
                        "rate scan, n={n} bad={bad} at={at}"
                    );
                    assert_eq!(
                        simd_alpha,
                        vals.iter().position(|&v| !alpha_ok(v)),
                        "alpha scan, n={n} bad={bad} at={at}"
                    );
                }
            }
            // Clean, subnormal, and boundary-value columns return None/Some
            // exactly like the scalar predicates.
            let edge = vec![f64::MIN_POSITIVE / 2.0, 1.0, 0.25, f64::MAX];
            let take = edge.into_iter().cycle().take(n).collect::<Vec<_>>();
            let (simd_rate, simd_alpha) = unsafe {
                (
                    super::first_invalid_rate(&take),
                    super::first_invalid_alpha(&take),
                )
            };
            assert_eq!(simd_rate, take.iter().position(|&v| !rate_ok(v)));
            assert_eq!(simd_alpha, take.iter().position(|&v| !alpha_ok(v)));
        }
    }

    /// Environment-independent bit-identity: drive the AVX2 kernel and the
    /// scalar lane directly (no runtime dispatch involved) over every
    /// comm-hoist/buffering combination, including awkward tails.
    #[test]
    fn avx2_kernel_matches_scalar_kernel_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for buffering in [Buffering::Single, Buffering::Double] {
            let base = pdf1d_example().with_buffering(buffering);
            for params in [
                vec![SweepParam::Fclock],
                vec![SweepParam::AlphaWrite, SweepParam::ThroughputProc],
                vec![SweepParam::ElementsIn, SweepParam::Iterations],
                vec![SweepParam::AlphaBoth],
                vec![SweepParam::Iterations],
            ] {
                for n in [4usize, 5, 63, 64, 97, 256] {
                    let mut points = BatchPoints::new(&base, n);
                    for (which, &param) in params.iter().enumerate() {
                        let center = param.read(&base);
                        let values: Vec<f64> = (0..n)
                            .map(|k| center * (0.6 + 0.01 * (k + which) as f64))
                            .collect();
                        points.push_column(param, values);
                    }
                    let d = decode(&points);
                    let mut scalar = vec![0.0_f64; n];
                    eval_speedups_scalar(&base, &d, 0, &mut scalar);
                    let mut vector = vec![0.0_f64; n];
                    // SAFETY: AVX2 presence checked above.
                    let done = unsafe { super::eval_speedups_avx2(&base, &d, &mut vector) };
                    eval_speedups_scalar(&base, &d, done, &mut vector);
                    assert_eq!(done, n & !3);
                    for i in 0..n {
                        assert_eq!(
                            vector[i].to_bits(),
                            scalar[i].to_bits(),
                            "{params:?}/{buffering:?} n={n} point {i}"
                        );
                    }
                }
            }
        }
    }

    /// The NaN-exact blend in [`super::vmax`]: overflow a Double-buffered
    /// point into `inf/inf = NaN` territory and require the vector and
    /// scalar kernels to agree bit for bit even there.
    #[test]
    fn vmax_matches_scalar_max_on_nan_lanes() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut base = pdf1d_example().with_buffering(Buffering::Double);
        // Blow up t_comp to infinity: enormous ops per element over a tiny
        // clock leaves t_comp = inf, and inf.max(finite) exercises the
        // second-operand-NaN... path once t_soft / inf collapses.
        base.comp.ops_per_element = f64::MAX;
        base.comp.throughput_proc = f64::MIN_POSITIVE;
        let n = 8;
        let mut points = BatchPoints::new(&base, n);
        points.push_column(
            SweepParam::Fclock,
            (0..n)
                .map(|k| 1e-300 * (k + 1) as f64)
                .collect::<Vec<f64>>(),
        );
        let d = decode(&points);
        let mut scalar = vec![0.0_f64; n];
        eval_speedups_scalar(&base, &d, 0, &mut scalar);
        let mut vector = vec![0.0_f64; n];
        // SAFETY: AVX2 presence checked above.
        let done = unsafe { super::eval_speedups_avx2(&base, &d, &mut vector) };
        eval_speedups_scalar(&base, &d, done, &mut vector);
        for i in 0..n {
            assert_eq!(vector[i].to_bits(), scalar[i].to_bits(), "point {i}");
        }
    }
}
