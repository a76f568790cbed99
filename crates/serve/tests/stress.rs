//! Concurrency stress: N client threads hammer a warm server with mixed
//! analysis modes. Every response must be well-formed (no torn writes),
//! `cache.hits` must be monotonically non-decreasing across `/metrics`
//! samples, shard contention must be reported, the simulator cache must
//! hold the distinct simulation points, and shutdown must drain cleanly:
//! in-flight requests complete. A second test keeps a small response cache
//! evicting on every insert and checks every body it serves.
//!
//! Its tests run one at a time: every in-process server shares the
//! process-global telemetry collector's counters and the global `SimCache`,
//! so a concurrent server's requests would move the counts the first test
//! reads.

mod common;

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use common::{connect, get, metric_value, post, read_response, split_response};
use rat_core::engine::Engine;
use rat_core::telemetry::json::{self, Json};
use rat_serve::api::{self, escape_json};
use rat_serve::{ServeConfig, Server};

/// Hold for a test's whole run, so no two of this file's servers overlap.
fn exclusive() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const CLIENT_THREADS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;

/// `(path, body, expected mode)` for a representative mixed workload:
/// every analytic mode plus the simulator endpoint (the only one that
/// exercises the shared cache). Simulation points repeat across clients so
/// the cache sees concurrent hits on the same shards.
fn workload() -> Vec<(String, String, &'static str)> {
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    vec![
        (
            "/v1/solve".into(),
            format!("{{\"worksheet_toml\": \"{ws}\", \"target\": 8.0}}"),
            "solve",
        ),
        (
            "/v1/sweep".into(),
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"fclock\", \
                 \"values\": [75e6, 100e6, 150e6]}}"
            ),
            "sweep",
        ),
        (
            "/v1/sensitivity".into(),
            format!("{{\"worksheet_toml\": \"{ws}\"}}"),
            "sensitivity",
        ),
        (
            "/v1/uncertainty".into(),
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"samples\": 128, \"seed\": 7, \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}}]}}"
            ),
            "uncertainty",
        ),
        (
            "/v1/explore".into(),
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 4.0, \
                 \"fclocks\": [100e6, 150e6]}}"
            ),
            "explore",
        ),
        (
            "/v1/simulate".into(),
            "{\"app\": \"sort\", \"mhz\": 150.0}".into(),
            "simulate",
        ),
        (
            "/v1/simulate".into(),
            "{\"app\": \"pdf1d\", \"mhz\": 100.0}".into(),
            "simulate",
        ),
    ]
}

#[test]
fn mixed_load_is_torn_free_and_drains() {
    let _serial = exclusive();

    let handle = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let bodies = Arc::new(workload());
    let completed = Arc::new(AtomicU64::new(0));

    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let bodies = Arc::clone(&bodies);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let (path, body, mode) = &bodies[(t + i) % bodies.len()];
                    let (status, resp) = post(addr, path, body);
                    // A torn or interleaved response would fail one of
                    // these three ways: wrong status, unparsable JSON, or
                    // a mode that doesn't match the request.
                    assert_eq!(status, 200, "client {t} req {i} ({path}): {resp}");
                    let doc = json::parse(&resp)
                        .unwrap_or_else(|e| panic!("client {t} torn response ({e}): {resp}"));
                    assert_eq!(
                        doc.get("mode").and_then(Json::as_str),
                        Some(*mode),
                        "client {t} req {i} answered with the wrong mode: {resp}"
                    );
                    assert!(
                        doc.get("report").and_then(Json::as_str).is_some(),
                        "client {t} req {i} missing report: {resp}"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // While the load runs, sample /metrics: both the simulator cache's
    // hits and the response cache's hits must never go backwards, and
    // shard contention must be reported (the counter may legitimately stay
    // 0 on an uncontended run — presence is the contract).
    let mut last_hits = 0u64;
    let mut last_response_hits = 0u64;
    let mut contention_seen = false;
    let total = (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64;
    while completed.load(Ordering::Relaxed) < total {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let hits = metric_value(&body, "cache_hits ").expect("cache_hits exported");
        assert!(
            hits >= last_hits,
            "cache.hits went backwards: {last_hits} -> {hits}"
        );
        last_hits = hits;
        let response_hits = metric_value(&body, "pipeline_cache_response_hits")
            .expect("pipeline_cache_response_hits exported");
        assert!(
            response_hits >= last_response_hits,
            "cache.response.hits went backwards: {last_response_hits} -> {response_hits}"
        );
        last_response_hits = response_hits;
        contention_seen |= metric_value(&body, "cache_shard_contention ").is_some();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        contention_seen,
        "cache_shard_contention missing from /metrics"
    );
    for c in clients {
        c.join().expect("client thread panicked");
    }

    // Every client repeats the same seven bodies, so the response cache
    // must have served real hits by the end, and the simulator cache holds
    // at least the two distinct simulation points.
    let (_, body) = get(addr, "/metrics");
    let response_hits = metric_value(&body, "pipeline_cache_response_hits").unwrap();
    assert!(
        response_hits > 0,
        "repeated identical requests never hit the response cache"
    );
    let entries = metric_value(&body, "cache_entries ").expect("cache_entries exported");
    assert!(
        entries >= 2,
        "the simulator cache holds {entries} entries, expected >= 2"
    );

    // Clean drain: every accepted connection was answered, nothing was
    // dropped mid-flight, and the worker/acceptor threads are all joined by
    // the time shutdown() returns.
    let summary = handle.shutdown();
    assert!(
        summary.accepted >= total,
        "accepted {} < {total} issued",
        summary.accepted
    );
    assert_eq!(
        summary.ok + summary.errored + summary.rejected_busy,
        summary.accepted
    );
    assert!(
        summary.ok >= total,
        "some stress requests were not answered ok"
    );
}

#[test]
fn a_small_response_cache_evicts_and_serves_exact_bodies() {
    const CLIENTS: usize = 2;
    const REQUESTS_PER_CLIENT: usize = 1500;
    const BUDGET: usize = 64 << 10;
    let _serial = exclusive();
    let handle = Server::start(ServeConfig {
        workers: 2,
        response_cache_bytes: BUDGET,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    // Every request is new: a distinct clock per request, so each one
    // inserts into both tiers and, once the shards are full, evicts.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let engine = Engine::sequential();
                let mut conn = connect(addr);
                for i in 0..REQUESTS_PER_CLIENT {
                    // Above the mixed test's clocks, so neither test's
                    // simulations are the other's cache hits.
                    let mhz = 200.0 + (i * CLIENTS + c) as f64 / 8.0;
                    let body = format!("{{\"app\": \"sort\", \"mhz\": {mhz}}}");
                    conn.write_all(
                        format!(
                            "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    )
                    .expect("write request");
                    let raw = read_response(&mut conn);
                    let (status, got) = split_response(&raw);
                    let req = api::parse_mode_request("simulate", &body).unwrap();
                    let want = api::handle(&engine, &req, None).unwrap().to_json();
                    assert_eq!((status, got), (200, want), "client {c} at {mhz} MHz");
                    // The server recycles a connection after its request cap.
                    if raw.contains("\r\nConnection: close\r\n") {
                        conn = connect(addr);
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }

    // Occupancy comes from the cache itself, not from the telemetry hit
    // counters. Each tier holds at most its budget.
    let (_, metrics) = get(addr, "/metrics");
    let bytes = metric_value(&metrics, "response_cache_bytes ").expect("bytes exported");
    let entries = metric_value(&metrics, "response_cache_entries ").expect("entries exported");
    assert!(
        bytes <= 2 * BUDGET as u64,
        "{bytes} bytes over 2 x {BUDGET}"
    );
    assert!(entries > 0, "the cache kept nothing");
    handle.shutdown();
}
