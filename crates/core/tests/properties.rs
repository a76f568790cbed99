//! Property-based tests for the RAT equations and their extensions:
//! utilization identities, buffering dominance, solver round trips, sweep
//! apply/read laws, multi-FPGA scaling laws, and streaming consistency.

use proptest::prelude::*;
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::sweep::SweepParam;
use rat_core::{multifpga, solve, streaming, throughput, utilization};

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

proptest! {
    /// Every generated worksheet validates and yields positive, finite
    /// predictions.
    #[test]
    fn predictions_are_finite_and_positive(input in worksheet()) {
        prop_assert!(input.validate().is_ok());
        let p = rat_core::ThroughputPrediction::analyze(&input).unwrap();
        for v in [
            p.t_write.seconds(),
            p.t_read.seconds(),
            p.t_comm.seconds(),
            p.t_comp.seconds(),
            p.t_rc.seconds(),
            p.speedup,
        ] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
        prop_assert!(p.t_comm > Seconds::ZERO && p.t_comp > Seconds::ZERO);
        prop_assert!(p.t_rc > Seconds::ZERO && p.speedup > 0.0);
    }

    /// Single-buffered utilizations partition unity; double-buffered
    /// utilizations max out at 1 with the dominant term saturated.
    #[test]
    fn utilization_identities(input in worksheet()) {
        let comm = throughput::t_comm(&input);
        let comp = throughput::t_comp(&input);
        let (sb_c, sb_m) = (
            utilization::util_comp_single(comm, comp),
            utilization::util_comm_single(comm, comp),
        );
        prop_assert!((sb_c + sb_m - 1.0).abs() < 1e-12);
        let (db_c, db_m) = (
            utilization::util_comp_double(comm, comp),
            utilization::util_comm_double(comm, comp),
        );
        prop_assert!(db_c <= 1.0 + 1e-12 && db_m <= 1.0 + 1e-12);
        prop_assert!((db_c - 1.0).abs() < 1e-12 || (db_m - 1.0).abs() < 1e-12);
    }

    /// Eq. (6) never exceeds Eq. (5), and both respect
    /// `speedup * t_rc == t_soft`.
    #[test]
    fn buffering_dominance_and_eq7(input in worksheet()) {
        let sb = throughput::t_rc_single(&input);
        let db = throughput::t_rc_double(&input);
        prop_assert!(db <= sb * (1.0 + 1e-12));
        prop_assert!(sb <= 2.0 * db * (1.0 + 1e-12), "SB at most 2x DB");
        let s = throughput::speedup(&input);
        prop_assert!((s * throughput::t_rc(&input).seconds() - input.software.t_soft.seconds()).abs()
            / input.software.t_soft.seconds() < 1e-12);
    }

    /// All three inverse solvers round-trip for feasible targets.
    #[test]
    fn solvers_round_trip(input in worksheet(), frac in 0.05f64..0.9) {
        let wall = solve::max_speedup(&input).unwrap();
        let current = throughput::speedup(&input);
        // throughput_proc and fclock solvers: any target below the wall.
        let target = wall * frac;
        let req_tp = solve::required_throughput_proc(&input, target).unwrap();
        let mut tuned = input.clone();
        tuned.comp.throughput_proc = req_tp;
        prop_assert!((throughput::speedup(&tuned) - target).abs() / target < 1e-9);

        let req_f = solve::required_fclock(&input, target).unwrap();
        let mut clocked = input.clone();
        clocked.comp.fclock = req_f;
        prop_assert!((throughput::speedup(&clocked) - target).abs() / target < 1e-9);

        // Alpha solver: target below the compute-bound wall, scale <= 1/alpha.
        let comp_wall = input.software.t_soft
            / (input.software.iterations as f64 * throughput::t_comp(&input));
        let alpha_target = (current * 0.5).min(comp_wall * 0.5);
        if alpha_target > 0.0 {
            if let Ok(k) = solve::required_alpha_scale(&input, alpha_target) {
                let mut scaled = input.clone();
                scaled.comm.alpha_write = (scaled.comm.alpha_write * k).min(1.0);
                scaled.comm.alpha_read = (scaled.comm.alpha_read * k).min(1.0);
                // Only exact when no clamping occurred.
                if scaled.comm.alpha_write < 1.0 && scaled.comm.alpha_read < 1.0 {
                    prop_assert!(
                        (throughput::speedup(&scaled) - alpha_target).abs() / alpha_target
                            < 1e-9
                    );
                }
            }
        }
    }

    /// Targets beyond the wall are always infeasible; below it, feasible.
    #[test]
    fn wall_separates_feasibility(input in worksheet()) {
        let wall = solve::max_speedup(&input).unwrap();
        prop_assert!(solve::required_throughput_proc(&input, wall * 0.99).is_ok());
        prop_assert!(solve::required_throughput_proc(&input, wall * 1.01).is_err());
    }

    /// SweepParam::apply followed by read returns the applied value
    /// (to integer rounding for the count-valued parameters).
    #[test]
    fn sweep_apply_read_law(input in worksheet(), scale in 0.1f64..0.95) {
        for param in [
            SweepParam::Fclock,
            SweepParam::AlphaWrite,
            SweepParam::AlphaRead,
            SweepParam::ThroughputProc,
            SweepParam::OpsPerElement,
        ] {
            let target = param.read(&input) * scale;
            let applied = param.apply(&input, target).unwrap();
            prop_assert!((param.read(&applied) - target).abs() / target < 1e-12);
        }
        for param in [SweepParam::ElementsIn, SweepParam::Iterations] {
            let target = (param.read(&input) * scale).max(1.0);
            let applied = param.apply(&input, target).unwrap();
            prop_assert!((param.read(&applied) - target).abs() <= 0.5 + 1e-9);
        }
    }

    /// Multi-FPGA speedup is nondecreasing in device count, efficiency is in
    /// (0, 1] against the DB baseline, and the curve converges to the solver's
    /// communication wall.
    #[test]
    fn multifpga_scaling_laws(input in worksheet(), max_m in 2u32..24) {
        check_multifpga_scaling_laws(&input, max_m);
    }

    /// Streaming: the sustained rate is the min of channel and compute rates,
    /// total time is elements/rate, and streaming beats (or ties) the
    /// double-buffered batch model.
    #[test]
    fn streaming_consistency(input in worksheet()) {
        let s = streaming::analyze(&input, streaming::ChannelDuplex::Half).unwrap();
        prop_assert!((s.sustained_rate - s.channel_rate.min(s.compute_rate)).abs()
            / s.sustained_rate < 1e-12);
        let total = (input.dataset.elements_in * input.software.iterations) as f64;
        prop_assert!((s.t_stream.seconds() * s.sustained_rate - total).abs() / total < 1e-12);
        let db = throughput::t_rc_double(&input);
        prop_assert!(s.t_stream <= db * (1.0 + 1e-9),
            "streaming {} should not lose to batch DB {}", s.t_stream, db);
        // Full duplex never slower than half duplex.
        let f = streaming::analyze(&input, streaming::ChannelDuplex::Full).unwrap();
        prop_assert!(f.sustained_rate >= s.sustained_rate * (1.0 - 1e-12));
    }

    /// Sensitivity elasticities of fclock and alpha-both sum to 1 under
    /// single buffering (t_RC is 1-homogeneous in the two rates).
    #[test]
    fn elasticity_homogeneity(mut input in worksheet()) {
        check_elasticity_homogeneity(&mut input);
    }
}

/// Body of `multifpga_scaling_laws`, shared with the named regression test so
/// the replayed corpus case runs exactly the code the property does.
fn check_multifpga_scaling_laws(input: &RatInput, max_m: u32) {
    let curve = multifpga::scaling_curve(input, max_m).unwrap();
    for w in curve.points.windows(2) {
        assert!(w[1].speedup >= w[0].speedup * (1.0 - 1e-12));
    }
    for p in &curve.points {
        assert!(p.efficiency > 0.0 && p.efficiency <= 1.0 + 1e-12);
    }
    let wall = solve::max_speedup(input).unwrap();
    assert!(curve.points.last().unwrap().speedup <= wall * (1.0 + 1e-12));
    // At (and beyond) the computed saturation point, the curve sits on the
    // wall exactly. Extremely compute-bound corners can saturate past
    // u32::MAX devices; clamp and only assert the wall when reachable.
    let sat = multifpga::saturating_devices(input).unwrap();
    if let Some(past) = sat.checked_mul(2) {
        let at_wall = multifpga::analyze(input, past).unwrap();
        assert!(
            (at_wall.speedup - wall).abs() / wall < 1e-9,
            "at {past} devices: {} vs wall {wall}",
            at_wall.speedup
        );
    }
}

/// Body of `elasticity_homogeneity` (shared with the named regression test).
fn check_elasticity_homogeneity(input: &mut RatInput) {
    input.buffering = Buffering::Single;
    // Keep alphas step-safe (the elasticity probe nudges by ±1e-4).
    input.comm.alpha_write = input.comm.alpha_write.min(0.999);
    input.comm.alpha_read = input.comm.alpha_read.min(0.999);
    let ef = rat_core::sensitivity::elasticity(input, SweepParam::Fclock, 1e-4).unwrap();
    let ea = rat_core::sensitivity::elasticity(input, SweepParam::AlphaBoth, 1e-4).unwrap();
    assert!((ef + ea - 1.0).abs() < 1e-3, "ef {ef} + ea {ea} != 1");
}

/// Build the exact `RatInput` a shrunken corpus case recorded.
#[allow(clippy::too_many_arguments)]
fn corpus_input(
    ein: u64,
    eout: u64,
    bpe: u64,
    bw: f64,
    aw: f64,
    ar: f64,
    ops: f64,
    tp: f64,
    fclock: f64,
    t_soft: f64,
    iters: u64,
    buffering: Buffering,
) -> RatInput {
    RatInput {
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
            fclock: Freq::from_hz(fclock),
        },
        software: SoftwareParams {
            t_soft: Seconds::new(t_soft),
            iterations: iters,
        },
        buffering,
    }
}

/// Replays the shrunken case formerly recorded as `properties.proptest-regressions`
/// seed `1e9cac02…`: a one-element worksheet at the minimum alpha_write
/// (0.01) with throughput_proc = 0.1 — the elasticity probe's ±1e-4 nudge
/// once broke homogeneity at this corner. The corpus file is gone; this named
/// test keeps the case reviewable.
#[test]
fn regression_elasticity_homogeneity_at_minimum_alpha_corner() {
    let mut input = corpus_input(
        1,
        1,
        2,
        1.0e8,
        0.01,
        0.093_883_368_776_244_3,
        1.0,
        0.1,
        1.0e7,
        1.0e-3,
        1,
        Buffering::Single,
    );
    check_elasticity_homogeneity(&mut input);
}

/// Replays the shrunken case formerly recorded as `properties.proptest-regressions`
/// seed `818d5fa6…`: an extremely compute-bound worksheet (488k ops/element
/// at 0.1 ops/cycle) whose saturation point overflows practical device
/// counts, with `max_m = 2` — the wall-convergence assertion once fired here.
#[test]
fn regression_multifpga_scaling_when_saturation_is_unreachable() {
    let input = corpus_input(
        15_704,
        0,
        1,
        1.0e8,
        0.682_634_285_374_654_8,
        0.01,
        488_635.728_456_773_33,
        0.1,
        1.0e7,
        1.0e-3,
        1,
        Buffering::Single,
    );
    check_multifpga_scaling_laws(&input, 2);
}
