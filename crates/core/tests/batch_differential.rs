//! Differential tests pinning the batched SoA kernels to the scalar path.
//!
//! The batch kernels exist purely for throughput; their contract is
//! **bit-identity** with the per-point path at every chunk size and thread
//! count. These tests are the contract's enforcement: property tests drive
//! random (input, parameter, values) triples through both paths and compare
//! `f64::to_bits`, and deterministic tests walk the chunk-boundary sizes
//! (1, CHUNK-1, CHUNK, CHUNK+1) across 1/2/8-thread engines. The
//! search's scoring kernel (`predict_batch`) is held to the `speedup` and
//! `util_comp` of the full reports' `throughput` the same way.

use proptest::prelude::*;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::solve::batch::{
    predict_batch, predict_batch_with, solve_batch, speedup_batch, speedup_batch_indexed,
    BatchPoints, Score, CHUNK,
};
use rat_core::sweep::{sweep_with, SweepParam};
use rat_core::throughput::{self, ThroughputPrediction};
use rat_core::uncertainty::{propagate_with, ParamRange};
use rat_core::{RatError, Worksheet};

/// The per-input chain's speedup: `validate()`, then Eq. (7).
fn scalar_speedup(input: &RatInput) -> Result<f64, RatError> {
    input.validate()?;
    Ok(throughput::speedup(input))
}

/// Strategy: a valid worksheet input across wide parameter ranges.
fn worksheet() -> impl Strategy<Value = RatInput> {
    (
        1u64..100_000,  // elements_in
        0u64..100_000,  // elements_out
        1u64..64,       // bytes per element
        1.0e8..1.0e10,  // ideal bandwidth
        0.01f64..1.0,   // alpha_write
        0.01f64..1.0,   // alpha_read
        1.0f64..1.0e6,  // ops per element
        0.1f64..1000.0, // throughput_proc
        1.0e7..1.0e9,   // fclock
        1.0e-3..1.0e4,  // t_soft
        1u64..10_000,   // iterations
        prop_oneof![Just(Buffering::Single), Just(Buffering::Double)],
    )
        .prop_map(
            |(ein, eout, bpe, bw, aw, ar, ops, tp, f, tsoft, iters, buffering)| RatInput {
                name: "prop".into(),
                dataset: DatasetParams {
                    elements_in: ein,
                    elements_out: eout,
                    bytes_per_element: bpe,
                },
                comm: CommParams {
                    ideal_bandwidth: Throughput::from_bytes_per_sec(bw),
                    alpha_write: aw,
                    alpha_read: ar,
                },
                comp: CompParams {
                    ops_per_element: ops,
                    throughput_proc: tp,
                    fclock: Freq::from_hz(f),
                },
                software: SoftwareParams {
                    t_soft: Seconds::new(tsoft),
                    iterations: iters,
                },
                buffering,
            },
        )
}

/// `param` paired with a vector of values that keep the varied input valid.
fn values_for(
    param: SweepParam,
    range: std::ops::Range<f64>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = (SweepParam, Vec<f64>)> {
    proptest::collection::vec(range, len).prop_map(move |v| (param, v))
}

/// Every `SweepParam` variant, paired with a strategy for values that keep
/// the varied input valid.
fn param_and_values(len: std::ops::Range<usize>) -> impl Strategy<Value = (SweepParam, Vec<f64>)> {
    prop_oneof![
        values_for(SweepParam::Fclock, 1.0e7..1.0e9, len.clone()),
        values_for(SweepParam::AlphaWrite, 0.01..1.0, len.clone()),
        values_for(SweepParam::AlphaRead, 0.01..1.0, len.clone()),
        values_for(SweepParam::AlphaBoth, 0.01..1.0, len.clone()),
        values_for(SweepParam::ThroughputProc, 0.1..1000.0, len.clone()),
        values_for(SweepParam::OpsPerElement, 1.0..1.0e6, len.clone()),
        values_for(SweepParam::ElementsIn, 1.0..1.0e5, len.clone()),
        values_for(SweepParam::Iterations, 1.0..1.0e4, len),
    ]
}

/// `AlphaBoth` applies its value to `alpha_write` and scales `alpha_read` by
/// the same factor, so an arbitrary value in (0, 1] can push `alpha_read`
/// past 1 when the base write alpha is small. Rescale the generated values
/// into the jointly valid range `(0, min(1, alpha_write/alpha_read)]`; other
/// parameters pass through untouched.
fn clamp_for(param: SweepParam, input: &RatInput, values: Vec<f64>) -> Vec<f64> {
    if param == SweepParam::AlphaBoth {
        let cap = (input.comm.alpha_write / input.comm.alpha_read).min(1.0);
        values.into_iter().map(|f| f * cap).collect()
    } else {
        values
    }
}

proptest! {
    /// `speedup_batch` returns exactly the bits the per-input chain produces
    /// on the materialized per-point inputs, for every parameter variant.
    #[test]
    fn batch_speedups_are_bit_identical_to_scalar(
        input in worksheet(),
        (param, values) in param_and_values(1..48usize),
    ) {
        let values = clamp_for(param, &input, values);
        let mut batch = BatchPoints::new(&input, values.len());
        batch.push_column(param, values.clone());
        let batched = speedup_batch(&batch).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let scalar = scalar_speedup(&param.apply(&input, v).unwrap()).unwrap();
            prop_assert_eq!(
                batched[i].to_bits(), scalar.to_bits(),
                "{:?} at value {} (index {})", param, v, i
            );
        }
    }

    /// Two stacked columns (the Monte-Carlo shape) apply in order and stay
    /// bit-identical to the chained scalar applies.
    #[test]
    fn stacked_columns_match_chained_scalar_applies(
        input in worksheet(),
        (pa, va) in param_and_values(1..16usize),
        (pb, _) in param_and_values(1usize..2),
    ) {
        let va = clamp_for(pa, &input, va);
        // pb's values shrink each point's current value by 0.6–0.9x, which
        // preserves validity for every variant (alphas stay in (0, 1],
        // counts round to >= 1, rates stay positive).
        let vb: Vec<f64> = va
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                pb.read(&pa.apply(&input, v).unwrap()) * (0.6 + 0.3 * (i as f64 / va.len() as f64))
            })
            .collect();
        let mut batch = BatchPoints::new(&input, va.len());
        batch.push_column(pa, va.clone());
        batch.push_column(pb, vb.clone());
        let batched = speedup_batch(&batch).unwrap();
        for i in 0..va.len() {
            let stepped = pb.apply(&pa.apply(&input, va[i]).unwrap(), vb[i]).unwrap();
            let scalar = scalar_speedup(&stepped).unwrap();
            prop_assert_eq!(
                batched[i].to_bits(), scalar.to_bits(),
                "{:?}+{:?} at index {}", pa, pb, i
            );
        }
    }

    /// The full `solve_batch` report equals the Worksheet pipeline's report.
    #[test]
    fn batch_reports_equal_worksheet_reports(
        input in worksheet(),
        (param, values) in param_and_values(1..12usize),
    ) {
        let values = clamp_for(param, &input, values);
        let mut batch = BatchPoints::new(&input, values.len());
        batch.push_column(param, values.clone());
        let reports = solve_batch(&batch).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let scalar = Worksheet::new(param.apply(&input, v).unwrap()).analyze().unwrap();
            prop_assert_eq!(&reports[i], &scalar, "{:?} at index {}", param, i);
        }
    }

    /// `predict_batch` returns exactly the bits of each full report's
    /// `throughput.speedup` and `throughput.util_comp`, for every parameter
    /// variant, one column or two.
    #[test]
    fn predictions_are_bit_identical_to_report_throughput(
        input in worksheet(),
        (pa, va) in param_and_values(1..48usize),
        (pb, _) in param_and_values(1usize..2),
        stacked in any::<bool>(),
    ) {
        let va = clamp_for(pa, &input, va);
        let mut batch = BatchPoints::new(&input, va.len());
        batch.push_column(pa, va.clone());
        if stacked {
            // Shrinks each point's current value, as in the stacked test.
            let vb: Vec<f64> = va.iter().map(|&v| pb.read(&pa.apply(&input, v).unwrap()) * 0.75).collect();
            batch.push_column(pb, vb);
        }
        let predictions = predict_batch(&batch).unwrap();
        let reports = solve_batch(&batch).unwrap();
        prop_assert_eq!(predictions.len(), reports.len());
        for (i, (p, r)) in predictions.iter().zip(&reports).enumerate() {
            prop_assert_eq!(score_bits(p), scored(&r.throughput), "{:?} at index {}", pa, i);
        }
    }

    /// An invalid point surfaces the same error message the scalar path
    /// produces, and the *first* (lowest-index) invalid point wins.
    #[test]
    fn batch_errors_match_scalar_errors_at_the_first_bad_point(
        input in worksheet(),
        prefix in 0usize..8,
        bad_alpha in 1.5f64..10.0,
    ) {
        let mut values: Vec<f64> = vec![0.5; prefix];
        values.push(bad_alpha); // out of (0, 1]
        values.push(7.0);       // also invalid, but later: must not win
        let mut batch = BatchPoints::new(&input, values.len());
        batch.push_column(SweepParam::AlphaWrite, values.clone());
        let got = speedup_batch(&batch).unwrap_err();
        let want = SweepParam::AlphaWrite
            .apply(&input, bad_alpha)
            .unwrap()
            .validate()
            .unwrap_err();
        prop_assert_eq!(got.to_string(), want.to_string());
    }
}

/// Every field of a prediction, floats as raw bits.
/// A score's bits: speedup, then util_comp.
fn score_bits(s: &Score) -> [u64; 2] {
    [s.speedup.to_bits(), s.util_comp.to_bits()]
}

/// The bits of the two prediction fields a score carries.
fn scored(p: &ThroughputPrediction) -> [u64; 2] {
    [p.speedup.to_bits(), p.util_comp.to_bits()]
}

/// The engines the thread-count sweeps run on: serial, 2-way, 8-way.
fn engines() -> Vec<Engine> {
    [1usize, 2, 8]
        .into_iter()
        .map(|j| Engine::new(EngineConfig::default().with_jobs(j)))
        .collect()
}

/// One representative design (the paper's 1-D PDF, Table 2).
fn pdf1d() -> RatInput {
    RatInput {
        name: "pdf1d".into(),
        dataset: DatasetParams {
            elements_in: 512,
            elements_out: 1,
            bytes_per_element: 4,
        },
        comm: CommParams {
            ideal_bandwidth: Throughput::from_bytes_per_sec(1.0e9),
            alpha_write: 0.37,
            alpha_read: 0.16,
        },
        comp: CompParams {
            ops_per_element: 768.0,
            throughput_proc: 20.0,
            fclock: Freq::from_mhz(150.0),
        },
        software: SoftwareParams {
            t_soft: Seconds::new(0.578),
            iterations: 400,
        },
        buffering: Buffering::Single,
    }
}

#[test]
fn sweep_is_bitwise_stable_across_chunk_seams_and_threads() {
    let input = pdf1d();
    for n in [1usize, CHUNK - 1, CHUNK, CHUNK + 1] {
        let values: Vec<f64> = (0..n)
            .map(|i| 5.0e7 + 2.0e8 * (i as f64 / n.max(2) as f64))
            .collect();
        let baseline = sweep_with(&Engine::sequential(), &input, SweepParam::Fclock, &values)
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert_eq!(baseline.points.len(), n);
        // Scalar ground truth at the seam indices and a mid point.
        for &i in &[0, n / 2, n - 1] {
            let scalar =
                scalar_speedup(&SweepParam::Fclock.apply(&input, values[i]).unwrap()).unwrap();
            assert_eq!(
                baseline.points[i].report.speedup.to_bits(),
                scalar.to_bits(),
                "n={n} index {i}"
            );
        }
        for engine in engines() {
            let swept = sweep_with(&engine, &input, SweepParam::Fclock, &values).unwrap();
            assert_eq!(baseline, swept, "n={n} at {} jobs", engine.config().jobs);
        }
    }
}

#[test]
fn uncertainty_is_bitwise_stable_across_chunk_seams_and_threads() {
    let input = pdf1d();
    let ranges = [
        ParamRange::new(SweepParam::Fclock, 7.5e7, 1.5e8),
        ParamRange::new(SweepParam::ThroughputProc, 16.0, 24.0),
    ];
    for samples in [1usize, CHUNK - 1, CHUNK, CHUNK + 1] {
        let baseline = propagate_with(&Engine::sequential(), &input, &ranges, samples, 7).unwrap();
        for engine in engines() {
            let report = propagate_with(&engine, &input, &ranges, samples, 7).unwrap();
            assert_eq!(
                baseline,
                report,
                "samples={samples} at {} jobs",
                engine.config().jobs
            );
        }
    }
}

#[test]
fn predictions_are_bitwise_stable_across_chunk_seams_and_threads() {
    for buffering in [Buffering::Single, Buffering::Double] {
        let input = pdf1d().with_buffering(buffering);
        for n in [1usize, CHUNK - 1, CHUNK, CHUNK + 1] {
            let fclock: Vec<f64> = (0..n)
                .map(|i| 5.0e7 + 2.0e8 * (i as f64 / n.max(2) as f64))
                .collect();
            let tp: Vec<f64> = (0..n).map(|i| 1.0 + (i % 97) as f64).collect();
            let mut batch = BatchPoints::new(&input, n);
            batch.push_column(SweepParam::Fclock, &fclock[..]);
            batch.push_column(SweepParam::ThroughputProc, &tp[..]);
            let want: Vec<_> = solve_batch(&batch)
                .unwrap()
                .iter()
                .map(|r| scored(&r.throughput))
                .collect();
            for engine in engines() {
                let got: Vec<_> = predict_batch_with(&engine, &batch)
                    .unwrap()
                    .iter()
                    .map(score_bits)
                    .collect();
                assert_eq!(
                    got,
                    want,
                    "{buffering:?} n={n} at {} jobs",
                    engine.config().jobs
                );
            }
        }
    }
}

/// The batch's verdict on `batch` against the per-input chain's: the first
/// point that fails to materialize or whose input fails `validate()`, with
/// its text, or every point's speedup bits.
fn assert_batch_matches_per_point(batch: &BatchPoints, ctx: &str) {
    let per_point = |i| batch.materialize(i).and_then(|p| scalar_speedup(&p));
    let want = (0..batch.len())
        .map(|i| per_point(i).map_err(|e| (i, e.to_string())))
        .collect::<Result<Vec<f64>, _>>();
    match (speedup_batch_indexed(batch), want) {
        (Ok(got), Ok(want)) => {
            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{ctx}");
        }
        (Err((index, err)), Err((want_index, want_text))) => {
            assert_eq!(
                (index, err.to_string()),
                (want_index, want_text.clone()),
                "{ctx}"
            );
            let full = solve_batch(batch).expect_err("solve_batch rejects it too");
            assert_eq!(full.to_string(), want_text, "{ctx}");
        }
        (got, want) => panic!("verdicts diverge, {ctx}: {got:?} vs {want:?}"),
    }
}

/// A count column holding a value that is not finite, negative or rounds
/// below 1 errs at that point with `validate()`'s own text; 0.5 rounds to 1
/// and is valid. Lengths and positions cross the AVX2 width and the 64-point
/// scan block.
#[test]
fn count_columns_error_like_validate_on_the_materialized_point() {
    let odd = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -3.0,
        -0.4,
        0.0,
        0.49,
        0.5,
    ];
    for buffering in [Buffering::Single, Buffering::Double] {
        let input = pdf1d().with_buffering(buffering);
        for param in [SweepParam::ElementsIn, SweepParam::Iterations] {
            for n in [1usize, 4, 7, 70] {
                for at in [0, n / 2, n - 1] {
                    for v in odd {
                        let mut values: Vec<f64> = (0..n).map(|k| 100.0 + k as f64).collect();
                        values[at] = v;
                        let mut batch = BatchPoints::new(&input, n);
                        batch.push_column(param, values);
                        let ctx = format!("{param:?} {buffering:?} n={n} value {v} at {at}");
                        assert_batch_matches_per_point(&batch, &ctx);
                        let verdict = speedup_batch_indexed(&batch).map(drop).map_err(|e| e.0);
                        let want = if v == 0.5 { Ok(()) } else { Err(at) };
                        assert_eq!(verdict, want, "{ctx}");
                    }
                }
            }
        }
        // The same values stacked under a second column.
        let values = odd.to_vec();
        let fclock: Vec<f64> = (0..odd.len()).map(|k| 1.0e8 + 1.0e6 * k as f64).collect();
        let mut batch = BatchPoints::new(&input, odd.len());
        batch.push_column(SweepParam::Fclock, fclock);
        batch.push_column(SweepParam::Iterations, values);
        assert_batch_matches_per_point(&batch, &format!("stacked {buffering:?}"));
    }
}

/// A varied `elements_in` column whose byte count crosses `u64::MAX` at
/// index k errs at k with `validate()`'s text, naming both fields; a base
/// whose own byte counts overflow errs at point 0.
#[test]
fn a_byte_count_past_u64_max_errs_at_its_point_with_the_validate_text() {
    let mut input = pdf1d();
    input.dataset.bytes_per_element = 1 << 32;
    let below = ((1u64 << 32) - 1) as f64;
    for k in [0usize, 1, 3, 4, 5, 64, 69] {
        let mut values = vec![below; 70];
        // A later point past `u64::MAX` elements must not win.
        values[69] = 1.0e30;
        values[k] = (1u64 << 32) as f64;
        let mut batch = BatchPoints::new(&input, values.len());
        batch.push_column(SweepParam::ElementsIn, values);
        let (index, err) = speedup_batch_indexed(&batch).expect_err("the byte count overflows");
        assert_eq!(index, k);
        let want = batch
            .materialize(k)
            .unwrap()
            .validate()
            .expect_err("validate rejects it");
        assert_eq!(err.to_string(), want.to_string());
        assert!(
            err.to_string().contains("elements_in * bytes_per_element"),
            "{err}"
        );
        assert_batch_matches_per_point(&batch, &format!("bound at {k}"));
    }
    // The base itself: one field at a time past the bound, with a column
    // that does not write it.
    for field in ["elements_in", "elements_out"] {
        let mut base = input.clone();
        match field {
            "elements_in" => base.dataset.elements_in = 1 << 32,
            _ => base.dataset.elements_out = 1 << 32,
        }
        let mut batch = BatchPoints::new(&base, 6);
        batch.push_column(SweepParam::Fclock, vec![1.0e8; 6]);
        let (index, err) = speedup_batch_indexed(&batch).expect_err("the base overflows");
        assert_eq!(index, 0, "{field}");
        assert!(
            err.to_string()
                .contains(&format!("{field} * bytes_per_element")),
            "{err}"
        );
        assert_batch_matches_per_point(&batch, field);
    }
    // A column that writes `elements_in` replaces an overflowing base value,
    // so every point is valid.
    let mut base = input.clone();
    base.dataset.elements_in = 1 << 32;
    let mut batch = BatchPoints::new(&base, 9);
    batch.push_column(SweepParam::ElementsIn, vec![below; 9]);
    assert!(speedup_batch(&batch).is_ok());
    assert_batch_matches_per_point(&batch, "base replaced");
}

/// A count column whose value rounds to 2^64 or more at index k errs at k
/// with the per-point text, which names the field and the value as given;
/// the largest f64 below 2^64 still fits and evaluates. At one point, a
/// count that does not fit wins over any other column's invalid value.
#[test]
fn a_count_past_u64_max_errs_at_its_point_with_the_per_point_text() {
    const BELOW_2_64: f64 = 18_446_744_073_709_549_568.0;
    let input = pdf1d();
    for param in [SweepParam::ElementsIn, SweepParam::Iterations] {
        for past in [18_446_744_073_709_551_616.0, 1.0e30, f64::MAX] {
            for n in [1usize, 4, 7, 70] {
                for k in [0, n / 2, n - 1] {
                    let mut values = vec![100.0; n];
                    values[k] = past;
                    if k + 1 < n {
                        values[n - 1] = 1.0e30; // also past, but later
                    }
                    let mut batch = BatchPoints::new(&input, n);
                    batch.push_column(param, values);
                    let ctx = format!("{param:?} {past:e} at {k} of {n}");
                    let (index, err) = speedup_batch_indexed(&batch).expect_err(&ctx);
                    assert_eq!(index, k, "{ctx}");
                    assert_eq!(
                        err.to_string(),
                        format!(
                            "invalid RAT parameter: {} = {past:e} does not fit a u64 count",
                            param.label()
                        ),
                        "{ctx}"
                    );
                    assert_batch_matches_per_point(&batch, &ctx);
                }
            }
        }
        // Stacked over a clock column that is invalid at the same point
        // and at an earlier one.
        for (bad_clock, want) in [(3, 3), (4, 4), (5, 4)] {
            let mut fclock = vec![1.0e8; 8];
            fclock[bad_clock] = -1.0;
            let mut counts = vec![100.0; 8];
            counts[4] = 1.0e30;
            let mut batch = BatchPoints::new(&input, 8);
            batch.push_column(SweepParam::Fclock, fclock);
            batch.push_column(param, counts);
            let ctx = format!("{param:?} stacked, bad clock at {bad_clock}");
            let (index, _) = speedup_batch_indexed(&batch).expect_err(&ctx);
            assert_eq!(index, want, "{ctx}");
            assert_batch_matches_per_point(&batch, &ctx);
        }
    }
    // The largest f64 below 2^64 is a count: as iterations it evaluates,
    // and as elements it evaluates once the byte count fits.
    let mut one_byte = input.clone();
    one_byte.dataset.bytes_per_element = 1;
    for (base, param) in [
        (&input, SweepParam::Iterations),
        (&one_byte, SweepParam::ElementsIn),
    ] {
        let mut batch = BatchPoints::new(base, 3);
        batch.push_column(param, vec![100.0, BELOW_2_64, 100.0]);
        let reports = solve_batch(&batch).expect("a count below 2^64 fits");
        assert_eq!(param.read(&reports[1].input), BELOW_2_64, "{param:?}");
        assert_batch_matches_per_point(&batch, &format!("{param:?} below 2^64"));
    }
}
