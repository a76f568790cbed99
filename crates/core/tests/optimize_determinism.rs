//! The test wall for `rat optimize`: the guided search's determinism,
//! differential, and dominance contracts, plus golden front fixtures for
//! the paper's worksheets.
//!
//! * **Determinism** — the same seed produces a structurally *and*
//!   textually identical outcome at 1, 2, and 8 engine jobs. All random
//!   draws happen on the coordinator thread from `job_rng(seed, gen)`;
//!   candidate evaluation rides the chunk-seam-invariant batch kernels, so
//!   job count can only change scheduling, never arithmetic. CI runs this
//!   whole suite twice — default SIMD dispatch and `RAT_FORCE_SCALAR=1` —
//!   which extends the same byte-identity across the kernel axis (dispatch
//!   is resolved once per process, so the axis needs two processes).
//! * **Differential** — every front member's derived report is
//!   bit-identical to a scalar `Worksheet::analyze` of the same design point,
//!   and its derived Eq. (9)–(11) resource verdict passes.
//! * **Dominance and prefix stability** — the front is mutually
//!   non-dominated, and a search cut short after g generations has for its
//!   front the full front's members from those generations plus points the
//!   full front dominates.
//! * **Golden fronts** — the rendered Pareto front for the paper's 1-D PDF,
//!   2-D PDF, and MD worksheets (Tables 2–10) is pinned byte-for-byte, and
//!   for the two PDF worksheets so is every front member: generation,
//!   objective bits and name, in front order.

use proptest::prelude::*;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::optimize::{optimize, FrontPoint, OptimizeConfig, OptimizeOutcome, OptimizeSpace};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::worksheet::Worksheet;

/// Strategy: a valid worksheet across wide ranges. `throughput_proc` is
/// kept moderate so the derived search spaces mix feasible and infeasible
/// candidates instead of saturating one side.
fn worksheet() -> impl Strategy<Value = RatInput> {
    worksheet_up_to(100_000, 64)
}

/// Strategy: a worksheet whose buffers fit every catalog device's block RAM
/// even double-buffered (at most 4,095 elements of at most 7 bytes each
/// way), so nearly every derived search space has a front. Most of
/// [`worksheet`]'s buffers fit none.
fn small_worksheet() -> impl Strategy<Value = RatInput> {
    worksheet_up_to(4_096, 8)
}

/// [`worksheet`] with fewer than `elements` elements each way, of fewer
/// than `bytes` bytes each.
fn worksheet_up_to(elements: u64, bytes: u64) -> impl Strategy<Value = RatInput> {
    (
        1u64..elements, // elements_in
        0u64..elements, // elements_out
        1u64..bytes,    // bytes per element
        1.0e8..1.0e10,  // ideal bandwidth
        0.01f64..1.0,   // alpha_write
        0.01f64..1.0,   // alpha_read
        1.0f64..1.0e6,  // ops per element
        0.5f64..96.0,   // throughput_proc
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

/// The job counts the acceptance criteria pin.
fn engines() -> [Engine; 3] {
    [
        Engine::new(EngineConfig::default().with_jobs(1)),
        Engine::new(EngineConfig::default().with_jobs(2)),
        Engine::new(EngineConfig::default().with_jobs(8)),
    ]
}

/// A search budget small enough for property-test case counts but large
/// enough that chunking differs across the three job counts.
fn quick(seed: u64) -> OptimizeConfig {
    OptimizeConfig {
        seed,
        generations: 4,
        population: 48,
    }
}

/// A front member's identity: its generation, coordinates and objective
/// bits.
fn member(p: &FrontPoint) -> impl PartialEq {
    let o = &p.objectives;
    (
        p.generation,
        [p.fclock_hz, p.throughput_proc].map(f64::to_bits),
        p.buffering,
        p.device().name.clone(),
        p.precision,
        [o.speedup, o.util_comp, o.resource_frac].map(f64::to_bits),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed → structurally and textually identical outcome at 1, 2,
    /// and 8 jobs. Infeasible spaces must fail identically too.
    #[test]
    fn guided_search_is_job_count_invariant(
        input in worksheet(),
        seed in any::<u64>(),
    ) {
        let space = OptimizeSpace::around(input);
        let config = quick(seed);
        let [e1, e2, e8] = engines();
        let r1 = optimize(&e1, &space, &config);
        let r2 = optimize(&e2, &space, &config);
        let r8 = optimize(&e8, &space, &config);
        match (&r1, &r2, &r8) {
            (Ok(o1), Ok(o2), Ok(o8)) => {
                prop_assert_eq!(o1, o2, "outcome differs between 1 and 2 jobs");
                prop_assert_eq!(o2, o8, "outcome differs between 2 and 8 jobs");
                prop_assert_eq!(o1.render(), o8.render(), "rendered front drifted");
            }
            (Err(e1), Err(e2), Err(e8)) => {
                prop_assert_eq!(e1.to_string(), e2.to_string());
                prop_assert_eq!(e2.to_string(), e8.to_string());
            }
            _ => prop_assert!(
                false,
                "feasibility verdict differs across job counts: {:?} / {:?} / {:?}",
                r1.as_ref().map(|o| o.front.len()),
                r2.as_ref().map(|o| o.front.len()),
                r8.as_ref().map(|o| o.front.len()),
            ),
        }
    }

    /// Every front member replays bit-identically through the scalar
    /// worksheet pipeline and carries a passing resource verdict.
    #[test]
    fn front_members_replay_scalar_and_pass_the_resource_test(
        input in worksheet(),
        seed in any::<u64>(),
    ) {
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let space = OptimizeSpace::around(input);
        let Ok(out) = optimize(&engine, &space, &quick(seed)) else {
            return Ok(()); // all-infeasible space: nothing to replay
        };
        for p in &out.front {
            let report = p.report();
            let scalar = Worksheet::new(p.input()).analyze().unwrap();
            prop_assert_eq!(
                &scalar, &report,
                "front member diverged from scalar analyze"
            );
            prop_assert!(p.resources().fits, "infeasible point on the front");
            prop_assert_eq!(p.objectives.speedup, report.speedup);
        }
    }

    /// The front is mutually non-dominated, and generations are
    /// prefix-stable: generation g draws only from `job_rng(seed, g)` and
    /// adapts only on earlier generations, so a g-generation search
    /// evaluates exactly the first g generations of a longer one. Hence,
    /// for every g below the full search's G generations, each member of
    /// the full front from a generation before g is a member of the
    /// g-generation front, and each member of that front is a member of the
    /// full front or dominated by one (a tie would have the earlier point
    /// win in both searches). A g-generation search with no feasible point
    /// fails, so no full-front member comes from its generations.
    #[test]
    fn front_is_non_dominated_and_generations_are_prefix_stable(
        input in small_worksheet(),
        seed in any::<u64>(),
    ) {
        let engine = Engine::new(EngineConfig::default().with_jobs(2));
        let space = OptimizeSpace::around(input);
        let full = quick(seed);
        let prefix = |g| OptimizeConfig { generations: g, ..full };
        let Ok(out) = optimize(&engine, &space, &full) else {
            for g in 1..full.generations {
                prop_assert!(
                    optimize(&engine, &space, &prefix(g)).is_err(),
                    "{} generations succeeded where {} failed", g, full.generations
                );
            }
            return Ok(());
        };
        for (i, a) in out.front.iter().enumerate() {
            for (j, b) in out.front.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !a.objectives.dominates(&b.objectives),
                        "front member {} dominates front member {}", i, j
                    );
                }
            }
        }
        let members: Vec<_> = out.front.iter().map(member).collect();
        for g in 1..full.generations {
            let earlier = out.front.iter().filter(|p| p.generation < g);
            let Ok(short) = optimize(&engine, &space, &prefix(g)) else {
                prop_assert_eq!(earlier.count(), 0, "{} generations found nothing", g);
                continue;
            };
            let short_members: Vec<_> = short.front.iter().map(member).collect();
            for p in earlier {
                prop_assert!(
                    short_members.contains(&member(p)),
                    "{} generations: {} left the front", g, p.display_name()
                );
            }
            for (p, m) in short.front.iter().zip(&short_members) {
                prop_assert!(
                    members.contains(m)
                        || out.front.iter().any(|f| f.objectives.dominates(&p.objectives)),
                    "{} generations: {} is neither on the full front nor dominated by it",
                    g,
                    p.display_name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fronts for the paper's worksheets (Tables 2–10). The fixtures were
// produced by this very pipeline and pin the rendered report (top ten, the
// counts, the best point) plus, for the PDF worksheets, every front member:
// any change to the sampler, the kernels, the resource model, the front
// computation or the renderer shows up as a byte diff here. They must hold
// under `RAT_FORCE_SCALAR=1` as well — CI runs this suite under both
// dispatch modes.
// ---------------------------------------------------------------------------

fn golden_outcome(worksheet_toml: &str, generations: u32, population: usize) -> OptimizeOutcome {
    let input: RatInput = toml::from_str(worksheet_toml).expect("worksheet parses");
    let engine = Engine::new(EngineConfig::default().with_jobs(2));
    let space = OptimizeSpace::around(input);
    let config = OptimizeConfig {
        seed: 2007,
        generations,
        population,
    };
    optimize(&engine, &space, &config).expect("paper worksheet has a front")
}

fn golden(worksheet_toml: &str, fixture: &str) {
    let out = golden_outcome(worksheet_toml, 12, 128);
    assert_eq!(
        out.render().trim_end_matches('\n'),
        fixture.trim_end_matches('\n')
    );
}

/// Every front member, in front order, one line each: the generation that
/// first saw it, its three objectives' bits in hex (speedup, util_comp,
/// resource_frac) and its display name. `render()` shows only the top ten;
/// this pins set membership, which of several exactly tied points won (the
/// first seen), each member's generation, and the order.
fn golden_full(worksheet_toml: &str, generations: u32, population: usize, fixture: &str) {
    let out = golden_outcome(worksheet_toml, generations, population);
    let lines: Vec<String> = out
        .front
        .iter()
        .map(|p| {
            format!(
                "{} {:016x} {:016x} {:016x} {}",
                p.generation,
                p.objectives.speedup.to_bits(),
                p.objectives.util_comp.to_bits(),
                p.objectives.resource_frac.to_bits(),
                p.display_name()
            )
        })
        .collect();
    assert_eq!(lines.join("\n"), fixture.trim_end_matches('\n'));
}

#[test]
fn golden_front_pdf1d() {
    golden(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf1d.toml"
        )),
        include_str!("fixtures/optimize_front_pdf1d.txt"),
    );
}

#[test]
fn golden_front_pdf2d() {
    golden(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf2d.toml"
        )),
        include_str!("fixtures/optimize_front_pdf2d.txt"),
    );
}

#[test]
fn golden_full_front_pdf1d() {
    golden_full(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf1d.toml"
        )),
        12,
        128,
        include_str!("fixtures/optimize_front_full_pdf1d.txt"),
    );
}

#[test]
fn golden_full_front_pdf2d() {
    golden_full(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf2d.toml"
        )),
        12,
        128,
        include_str!("fixtures/optimize_front_full_pdf2d.txt"),
    );
}

// Every search above draws 12 × 128 candidates, and the benchmark draws
// 32 × 1024. At seven 64-bit words per candidate, both read whole groups
// of eight ChaCha blocks (64 words), so `fill_u64` makes all of their
// draws in its AVX2 pass. These three leave draws after the last group.

/// 6 × 37: 259 words per generation, so four groups and then a 3-word
/// partial block.
#[test]
fn golden_full_front_pdf1d_partial_block() {
    golden_full(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf1d.toml"
        )),
        6,
        37,
        include_str!("fixtures/optimize_front_full_pdf1d_6x37.txt"),
    );
}

/// 6 × 47: 329 words per generation, so five groups, one whole block and
/// one word.
#[test]
fn golden_full_front_pdf1d_block_and_partial_block() {
    golden_full(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf1d.toml"
        )),
        6,
        47,
        include_str!("fixtures/optimize_front_full_pdf1d_6x47.txt"),
    );
}

/// 3 × 3,000: 21,000 words per generation, read as 1,024, 1,024 and 952
/// candidates. A full read is 7,168 words, 112 whole groups, so every read
/// starts group-aligned with nothing buffered. The last read, 6,664 words,
/// is 104 groups and one whole block, so the stream ends at a block
/// boundary.
#[test]
fn golden_full_front_pdf2d_across_chunks() {
    golden_full(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf2d.toml"
        )),
        3,
        3000,
        include_str!("fixtures/optimize_front_full_pdf2d_3x3000.txt"),
    );
}

/// The MD worksheet's golden outcome is the *infeasible* verdict: its
/// full-dataset buffer (16384 × 36 B ≈ 576 KB each way) exceeds every
/// catalog device's block RAM under Eq. (10)'s whole-buffer model, so no
/// axis setting can rescue it — and the error message (pinned here byte
/// for byte) must say which knobs to widen.
#[test]
fn golden_front_md() {
    let toml_src = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../worksheets/md.toml"
    ));
    let input: RatInput = toml::from_str(toml_src).expect("worksheet parses");
    let engine = Engine::new(EngineConfig::default().with_jobs(2));
    let space = OptimizeSpace::around(input);
    let config = OptimizeConfig {
        seed: 2007,
        generations: 12,
        population: 128,
    };
    let err = optimize(&engine, &space, &config).unwrap_err();
    assert_eq!(
        err.to_string(),
        include_str!("fixtures/optimize_front_md.txt").trim_end_matches('\n')
    );
}
