//! `/v1/simulate` cold vs cached parity, in a test binary of its own.
//!
//! The response-cache hit counter this test reads from `/metrics` flows
//! through the process-global telemetry collector, which every in-process
//! server's workers drain. Sharing a process with other servers would let a
//! concurrent test's server absorb the hit, so this test runs alone.

mod common;

use common::{get, metric_value, post, report_of};
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
    let hits0 = metric_value(&metrics0, "pipeline_cache_response_hits").unwrap();
    let (s1, cold) = post(addr, "/v1/simulate", body);
    let (s2, warm) = post(addr, "/v1/simulate", body);
    assert_eq!((s1, s2), (200, 200), "{cold}");
    assert_eq!(cold, warm, "cached simulation drifted");
    let (_, metrics1) = get(addr, "/metrics");
    let hits1 = metric_value(&metrics1, "pipeline_cache_response_hits").unwrap();
    assert!(
        hits1 > hits0,
        "warm request did not hit the response cache: {hits0} -> {hits1}"
    );
    // The report matches the in-process cached path.
    assert_eq!(
        report_of(&cold),
        api::simulate_report("sort", 147.0, Some(fpga_sim::SimCache::global())).unwrap()
    );
    handle.shutdown();
}
