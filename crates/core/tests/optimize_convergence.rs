//! Convergence regression tests for the guided search: two seeded
//! synthetic landscapes whose optima are known in closed form from the
//! paper's own equations.
//!
//! * **Smooth** — on an oversized device every candidate is feasible and
//!   Eq. (7) speedup is monotone in both continuous axes (and in the
//!   buffering choice), so the optimum sits at the feasible corner
//!   `(fclock_hi, throughput_hi, Double)`. The sampler clamps Gaussian
//!   draws to the axis bounds, so the search must land on the corner
//!   *exactly* within the budgeted generations.
//! * **Infeasible ridge** — a Virtex-4 LX25 (48 DSP blocks) with a 32-bit
//!   multiplier (2 DSPs per lane) caps feasibility at 24 lanes: every
//!   candidate with `throughput_proc > 24` fails the Eq. (9) DSP test. The
//!   optimum sits *on* the ridge at `throughput_proc = 24`, strictly inside
//!   the searched range — the search has to converge against a cliff it
//!   can only approach from below, and must never report a point beyond it.
//!
//! Both landscapes are deterministic (fixed seed), so the assertions are
//! regressions, not statistics: any sampler change that slows convergence
//! past the budget fails loudly.

use fixedpoint::QFormat;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::resources::device::{stratix2_ep2s180, virtex4_lx25};
use rat_core::worksheet::Worksheet;

/// The paper's 1-D PDF design (Table 2) — the base worksheet under both
/// landscapes.
fn pdf1d_example() -> RatInput {
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

/// Closed-form optimum: the scalar pipeline evaluated at a known point.
fn speedup_at(fclock_hz: f64, throughput_proc: f64, buffering: Buffering) -> f64 {
    let mut input = pdf1d_example();
    input.comp.fclock = Freq::from_hz(fclock_hz);
    input.comp.throughput_proc = throughput_proc;
    input.buffering = buffering;
    Worksheet::new(input).analyze().unwrap().speedup
}

#[test]
fn smooth_landscape_converges_to_the_feasible_corner() {
    let mut space = OptimizeSpace::around(pdf1d_example());
    space.fclock_hz = (75.0e6, 150.0e6);
    space.throughput_proc = (1.0, 20.0);
    space.devices = vec![stratix2_ep2s180()];
    space.precisions = vec![QFormat::signed(0, 17).unwrap()];
    let config = OptimizeConfig {
        seed: 11,
        generations: 16,
        population: 256,
    };
    let engine = Engine::new(EngineConfig::default().with_jobs(2));
    let out = optimize(&engine, &space, &config).unwrap();

    let optimum = speedup_at(150.0e6, 20.0, Buffering::Double);
    let best = out.best();
    // Convergence within the budget: the corner is hit exactly (the
    // sampler clamps to the bounds, and the categorical weights must have
    // learned Double buffering).
    assert_eq!(best.fclock_hz, 150.0e6);
    assert_eq!(best.throughput_proc, 20.0);
    assert_eq!(best.buffering, Buffering::Double);
    assert_eq!(best.objectives.speedup, optimum);
    // And no reported point pretends to beat the closed-form optimum.
    for p in &out.front {
        assert!(p.objectives.speedup <= optimum);
        assert!(p.resources().fits);
    }
    // The oversized device makes the whole space feasible.
    assert_eq!(out.feasible_evals, out.evals);
}

#[test]
fn infeasible_ridge_converges_to_the_boundary_without_crossing_it() {
    let mut space = OptimizeSpace::around(pdf1d_example());
    space.fclock_hz = (100.0e6, 150.0e6);
    space.throughput_proc = (1.0, 40.0);
    space.devices = vec![virtex4_lx25()];
    // 32-bit multiplicands on 18-bit native multipliers: 2 DSPs per lane,
    // 48 DSP blocks on the LX25 → at most 24 lanes are feasible.
    space.precisions = vec![QFormat::signed(0, 31).unwrap()];
    let config = OptimizeConfig {
        seed: 11,
        generations: 24,
        population: 256,
    };
    let engine = Engine::new(EngineConfig::default().with_jobs(2));
    let out = optimize(&engine, &space, &config).unwrap();

    // The search really did collide with the ridge...
    assert!(
        out.feasible_evals < out.evals,
        "no candidate ever crossed the ridge: the landscape is miscalibrated"
    );
    // ...and never reported anything beyond it.
    for p in &out.front {
        assert!(p.resources().fits, "infeasible point on the front");
        assert!(
            p.throughput_proc <= 24.0,
            "front member crossed the DSP ridge: tp = {}",
            p.throughput_proc
        );
        assert!(p.estimate.dsp <= 48);
    }
    // Convergence: within 1% of the closed-form boundary optimum at
    // (150 MHz, 24 lanes, double buffering), without ever exceeding it.
    let optimum = speedup_at(150.0e6, 24.0, Buffering::Double);
    let best = out.best();
    assert!(
        best.objectives.speedup >= 0.99 * optimum,
        "search stalled below the ridge: best {} vs optimum {}",
        best.objectives.speedup,
        optimum
    );
    assert!(best.objectives.speedup <= optimum);
}
