//! Telemetry pins for the guided search: the `optimize.*` counters balance
//! with the work actually dispatched.
//!
//! The global collector is process-wide, so this file holds exactly one
//! test — nothing else in the binary can race the enable/drain window.

use rat_core::engine::Engine;
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::telemetry::{self, Metric};

/// The paper's 1-D PDF design (Table 2).
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

#[test]
fn optimize_counters_match_the_dispatched_work() {
    let engine = Engine::sequential();
    let space = OptimizeSpace::around(pdf1d_example());
    let config = OptimizeConfig {
        seed: 2007,
        generations: 6,
        population: 32,
    };
    let t = telemetry::global();
    t.enable();
    let out = optimize(&engine, &space, &config).unwrap();
    let profile = t.drain();
    assert_eq!(profile.metric(Metric::OptimizeGenerations), 6);
    assert_eq!(profile.metric(Metric::OptimizeEvals), 6 * 32);
    assert_eq!(
        profile.metric(Metric::OptimizeFrontSize),
        out.front.len() as u64
    );
    // The candidate evaluations really went through the batch kernels on
    // the engine: every candidate is one batched point and every chunk one
    // job. Front members derive their reports only when asked, so the
    // search solves nothing more.
    assert_eq!(profile.metric(Metric::BatchPoints), 6 * 32);
    let _ = out.best().report();
    assert_eq!(t.drain().metric(Metric::BatchPoints), 1);
    assert!(profile.metric(Metric::EngineJobs) >= 6);
    // The optimize span wrapped the run.
    assert!(profile.spans.iter().any(|s| s.path.starts_with("optimize")));
}
