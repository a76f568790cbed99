//! Differential tests pinning the batch lane to the per-input typed chain.
//!
//! `Worksheet::analyze` is `solve_batch` on a batch of one, which reads each
//! point from decoded columns. The per-input chain reads the same equation
//! functions from `RatInput` fields: [`monolithic`] assembles a report from
//! `ThroughputPrediction::analyze` under both bufferings plus
//! `solve::max_speedup`. The contract is **bit-identity** between the two
//! and verbatim error parity. Property tests drive random worksheets through
//! both and compare `f64::to_bits`, and break one `RatInput::validate` rule
//! at a time to compare error text; deterministic tests walk chunk seams
//! across 1/2/8-thread engines; and stage-plan tests pin which stages a
//! single-axis sweep or a one-field edit leaves clean.

use proptest::prelude::*;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::report::Report;
use rat_core::solve::batch::{solve_batch, BatchPoints, CHUNK};
use rat_core::solve::stages::{BatchStagePlan, Stage};
use rat_core::sweep::{sweep_with, SweepParam};
use rat_core::throughput::ThroughputPrediction;
use rat_core::{solve, RatError, Worksheet};

/// The per-input chain in one function: the prediction at the input's
/// buffering and at the other one, and the communication-bound ceiling,
/// each through its own public entry point.
fn monolithic(input: &RatInput) -> Result<Report, RatError> {
    let throughput = ThroughputPrediction::analyze(input)?;
    let other = match input.buffering {
        Buffering::Single => Buffering::Double,
        Buffering::Double => Buffering::Single,
    };
    Ok(Report {
        speedup: throughput.speedup,
        throughput,
        alternate: ThroughputPrediction::analyze(&input.with_buffering(other))?,
        max_speedup: solve::max_speedup(input)?,
        input: input.clone(),
    })
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

/// The rules `RatInput::validate` checks, named by field in its check
/// order; each alpha appears twice, once per side of its `(0, 1]` range.
const VALIDATE_RULES: [&str; 12] = [
    "elements_in",
    "bytes_per_element",
    "ideal_bandwidth",
    "alpha_write",
    "alpha_write > 1",
    "alpha_read",
    "alpha_read > 1",
    "ops_per_element",
    "throughput_proc",
    "fclock",
    "t_soft",
    "iterations",
];

/// `input` with one rule broken: `bad` (non-positive or non-finite) for a
/// float field, `above_one` for an alpha's upper bound.
fn break_rule(input: &RatInput, rule: &str, bad: f64, above_one: f64) -> RatInput {
    let mut i = input.clone();
    match rule {
        "elements_in" => i.dataset.elements_in = 0,
        "bytes_per_element" => i.dataset.bytes_per_element = 0,
        "ideal_bandwidth" => i.comm.ideal_bandwidth = Throughput::from_bytes_per_sec(bad),
        "alpha_write" => i.comm.alpha_write = bad,
        "alpha_write > 1" => i.comm.alpha_write = above_one,
        "alpha_read" => i.comm.alpha_read = bad,
        "alpha_read > 1" => i.comm.alpha_read = above_one,
        "ops_per_element" => i.comp.ops_per_element = bad,
        "throughput_proc" => i.comp.throughput_proc = bad,
        "fclock" => i.comp.fclock = Freq::from_hz(bad),
        "t_soft" => i.software.t_soft = Seconds::new(bad),
        "iterations" => i.software.iterations = 0,
        other => unreachable!("no validate rule named {other}"),
    }
    i
}

proptest! {
    /// The single-point `analyze` returns exactly the bits the per-input
    /// chain produces.
    #[test]
    fn staged_analyze_is_bit_identical_to_monolithic(input in worksheet()) {
        let reference = monolithic(&input).unwrap();
        let staged = Worksheet::new(input).analyze().unwrap();
        prop_assert_eq!(
            staged.throughput.t_rc.seconds().to_bits(),
            reference.throughput.t_rc.seconds().to_bits(),
            "t_rc"
        );
        prop_assert_eq!(staged.speedup.to_bits(), reference.speedup.to_bits(), "speedup");
        prop_assert_eq!(
            staged.max_speedup.to_bits(),
            reference.max_speedup.to_bits(),
            "max_speedup"
        );
        prop_assert_eq!(staged, reference, "full report");
    }

    /// With any one validate rule broken, `analyze` fails with the very
    /// error the per-input chain returns — `validate()`'s own, which the
    /// CLI's exit-3 and serve's HTTP-400 chains render verbatim.
    #[test]
    fn analyze_errors_match_monolithic_for_every_validate_rule(
        input in worksheet(),
        bad in prop_oneof![
            Just(0.0),
            -1.0e9..0.0f64,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
        above_one in 1.5f64..1.0e3,
    ) {
        for rule in VALIDATE_RULES {
            let broken = break_rule(&input, rule, bad, above_one);
            let want = broken.validate().expect_err("the mutation breaks a rule");
            let mono = monolithic(&broken).expect_err("monolithic rejects it");
            let staged = Worksheet::new(broken).analyze().expect_err("analyze rejects the input");
            prop_assert_eq!(staged.to_string(), mono.to_string(), "{}", rule);
            prop_assert_eq!(&staged, &mono, "{}", rule);
            prop_assert_eq!(&staged, &want, "{}", rule);
        }
    }

    /// `solve_batch` over a single-axis compute sweep matches the per-input
    /// chain per point.
    #[test]
    fn staged_batch_is_bit_identical_to_monolithic(
        input in worksheet(),
        fclocks in proptest::collection::vec(1.0e7..1.0e9f64, 1..24),
    ) {
        let mut batch = BatchPoints::new(&input, fclocks.len());
        batch.push_column(SweepParam::Fclock, fclocks.as_slice());
        let reports = solve_batch(&batch).unwrap();
        for (i, &f) in fclocks.iter().enumerate() {
            let scalar = monolithic(&SweepParam::Fclock.apply(&input, f).unwrap()).unwrap();
            prop_assert_eq!(&reports[i], &scalar, "fclock {} (index {})", f, i);
        }
    }

    /// A varied-comm column: `solve_batch` must also match the per-input
    /// chain bit for bit.
    #[test]
    fn staged_batch_with_varied_comm_matches_monolithic(
        input in worksheet(),
        alphas in proptest::collection::vec(0.01..1.0f64, 1..24),
    ) {
        let mut batch = BatchPoints::new(&input, alphas.len());
        batch.push_column(SweepParam::AlphaWrite, alphas.as_slice());
        let reports = solve_batch(&batch).unwrap();
        for (i, &a) in alphas.iter().enumerate() {
            let scalar = monolithic(&SweepParam::AlphaWrite.apply(&input, a).unwrap()).unwrap();
            prop_assert_eq!(&reports[i], &scalar, "alpha_write {} (index {})", a, i);
        }
    }
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

/// Staged sweeps stay bit-identical to the per-input chain at every chunk
/// seam and thread count.
#[test]
fn staged_sweep_matches_monolithic_across_seams_and_threads() {
    let input = pdf1d();
    for n in [1usize, CHUNK - 1, CHUNK, CHUNK + 1] {
        let values: Vec<f64> = (0..n)
            .map(|i| 5.0e7 + 2.0e8 * (i as f64 / n.max(2) as f64))
            .collect();
        for engine in engines() {
            let swept = sweep_with(&engine, &input, SweepParam::Fclock, &values).unwrap();
            assert_eq!(swept.points.len(), n);
            for (i, p) in swept.points.iter().enumerate() {
                let scalar =
                    monolithic(&SweepParam::Fclock.apply(&input, values[i]).unwrap()).unwrap();
                assert_eq!(
                    p.report,
                    scalar,
                    "n={n} index {i} at {} jobs",
                    engine.config().jobs
                );
            }
        }
    }
}

/// The acceptance pin: a single-axis `fclock` sweep computes the comm stage
/// once and reuses it for every further point — the comp/overlap/speedup
/// stages recompute per point, the comm stage does not.
#[test]
fn fclock_sweep_computes_comm_once() {
    let input = pdf1d();
    let values = [75.0e6, 100.0e6, 150.0e6];
    let mut batch = BatchPoints::new(&input, values.len());
    batch.push_column(SweepParam::Fclock, values.as_slice());

    // Structurally: an fclock column leaves the comm stage clean.
    let plan = batch.stage_plan();
    assert!(!plan.comm_varies, "fclock must not dirty the comm stage");
    assert!(plan.comp_varies && plan.overlap_varies && plan.speedup_varies);

    // Counters: comm = 1 miss + 2 hits, the rest = 3 misses each.
    let c = plan.counters(3);
    assert_eq!(c.hits_for(Stage::Comm), 2, "comm hits");
    assert_eq!(c.misses_for(Stage::Comm), 1, "comm misses");
    assert_eq!(c.misses_for(Stage::Comp), 3, "comp misses");
    assert_eq!(c.misses_for(Stage::Overlap), 3, "overlap misses");
    assert_eq!(c.misses_for(Stage::Speedup), 3, "speedup misses");
    assert_eq!(c.total_hits(), 2);
    assert_eq!(c.total_misses(), 10);
}

/// Between two whole inputs, changing only the clock leaves the comm stage
/// clean and dirties the compute-dependent stages; fields no stage reads
/// dirty nothing.
#[test]
fn fclock_only_edit_leaves_comm_clean() {
    let base = pdf1d();
    let mut renamed = base.clone();
    renamed.name = "renamed".into();
    renamed.buffering = Buffering::Double;
    let clean = BatchStagePlan::between(&base, &renamed);
    assert!(Stage::ALL.iter().all(|&s| !clean.varies(s)), "{clean:?}");

    let mut faster = base.clone();
    faster.comp.fclock = Freq::from_mhz(200.0);
    let plan = BatchStagePlan::between(&base, &faster);
    assert!(!plan.varies(Stage::Comm), "comm must stay clean");
    assert!(plan.varies(Stage::Comp), "comp must recompute");
    assert!(plan.varies(Stage::Overlap));
    assert!(plan.varies(Stage::Speedup));
}

/// And the complement: changing only a comm parameter dirties comm (and the
/// downstream overlap/speedup stages) while the comp stage stays clean; a
/// `t_soft` edit dirties the speedup stage alone.
#[test]
fn alpha_only_edit_leaves_comp_clean() {
    let base = pdf1d();
    let mut tuned = base.clone();
    tuned.comm.alpha_write = 0.8;
    let plan = BatchStagePlan::between(&base, &tuned);
    assert!(plan.varies(Stage::Comm), "comm must recompute");
    assert!(!plan.varies(Stage::Comp), "comp must stay clean");
    assert!(plan.varies(Stage::Overlap), "overlap depends on t_comm");
    assert!(plan.varies(Stage::Speedup));

    let mut slower = base.clone();
    slower.software.t_soft = Seconds::new(1.0);
    let plan = BatchStagePlan::between(&base, &slower);
    let dirty: Vec<Stage> = Stage::ALL.into_iter().filter(|&s| plan.varies(s)).collect();
    assert_eq!(dirty, [Stage::Speedup]);
}
