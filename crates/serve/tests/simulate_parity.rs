//! `/v1/simulate` cold vs cached parity, and the daemon's telemetry
//! contract, in a test binary of its own.
//!
//! The pipeline counters `/metrics` prints live in the process-global
//! telemetry collector, which every in-process server shares. Another
//! server's requests in the same process would move them too, so this test
//! runs alone and checks exact deltas.

mod common;

use common::{get, metric_value, post, report_of};
use rat_core::telemetry;
use rat_serve::api;
use rat_serve::{ServeConfig, Server};

#[test]
fn simulate_parity_cold_vs_warm_with_cache_hits() {
    // /v1/simulate is the one endpoint that runs the cycle simulator; the
    // first request at a clock point renders fresh, the identical repeat is
    // served straight from the response cache — and the body must not
    // change by a byte either way.
    let handle = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let body = "{\"app\": \"sort\", \"mhz\": 147.0}";
    let (_, metrics0) = get(addr, "/metrics");
    let (s1, cold) = post(addr, "/v1/simulate", body);
    let (s2, warm) = post(addr, "/v1/simulate", body);
    assert_eq!((s1, s2), (200, 200), "{cold}");
    assert_eq!(cold, warm, "cached simulation drifted");
    let (_, metrics1) = get(addr, "/metrics");
    // The cold request simulated once and missed the response cache; the
    // warm one hit it. The counters are live: nothing drained them between
    // the two reads.
    for (name, moved) in [
        ("pipeline_sim_runs ", 1),
        ("pipeline_cache_response_misses ", 1),
        ("pipeline_cache_response_hits ", 1),
    ] {
        let before = metric_value(&metrics0, name).expect("exported");
        let after = metric_value(&metrics1, name).expect("exported");
        assert_eq!(after - before, moved, "{name}: {before} -> {after}");
    }
    // The report matches the in-process cached path.
    assert_eq!(
        report_of(&cold),
        api::simulate_report("sort", 147.0, Some(fpga_sim::SimCache::global())).unwrap()
    );
    handle.shutdown();
    // Serving turned span recording on at no point, so nothing recorded one.
    assert!(!telemetry::enabled(), "a server turned span recording on");
    assert!(
        telemetry::global().drain().spans.is_empty(),
        "a server recorded spans"
    );
}
