//! The simulator cache's bound, end to end: a stream of `/v1/simulate`
//! requests at clocks never seen before fills the cache to its fixed cap and
//! no further, and every answer still equals an uncached run.
//!
//! The in-process soak drives `api::handle` against one `SimCache::new()`
//! at its real cap. The ignored release soak drives a `rat serve` process
//! until both of its caches are full, then as far again, and checks that
//! its peak RSS stops growing:
//!
//! ```sh
//! cargo build --release -p rat-cli
//! cargo test --release -p rat-serve --test cache_bounds -- --ignored
//! ```

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use common::{connect, get, metric_value, post, rat_binary, read_response, split_response};
use fpga_sim::cache::{SHARD_CAP, SHARD_COUNT};
use fpga_sim::SimCache;
use rat_core::engine::Engine;
use rat_serve::api;

/// The simulator cache's fixed cap, in entries.
const CAP: usize = SHARD_COUNT * SHARD_CAP;

const APPS: [&str; 4] = ["pdf1d", "pdf2d", "md", "sort"];

/// The `i`-th request's case study and clock: a new clock every request,
/// spread over 50–200 MHz by the golden ratio.
fn point(i: usize) -> (&'static str, f64) {
    let mhz = 50.0 + 150.0 * (i as f64 * 0.618_033_988_749_895).fract();
    (APPS[i % APPS.len()], mhz)
}

fn simulate_body(i: usize) -> String {
    let (app, mhz) = point(i);
    format!("{{\"app\": \"{app}\", \"mhz\": {mhz}}}")
}

#[test]
fn distinct_clock_simulates_fill_the_cache_to_its_cap_and_no_further() {
    let engine = Engine::sequential();
    let sims = SimCache::new();
    let requests = CAP + 1000;
    for i in 0..requests {
        let req = api::parse_mode_request("simulate", &simulate_body(i)).unwrap();
        let ok = api::handle(&engine, &req, Some(&sims)).unwrap();
        let entries = sims.stats().entries;
        assert!(
            entries <= CAP as u64,
            "request {i}: {entries} entries > cap {CAP}"
        );
        if i % 61 == 0 {
            let (app, mhz) = point(i);
            assert_eq!(
                ok.report,
                api::simulate_report(app, mhz, None).unwrap(),
                "request {i}: {app} at {mhz} MHz"
            );
        }
    }
    let stats = sims.stats();
    assert_eq!(stats.hits, 0, "every clock is new");
    assert_eq!(stats.misses, requests as u64);
    assert!(
        stats.entries > (CAP * 9 / 10) as u64,
        "{} entries after {requests} inserts: the cache should be nearly full",
        stats.entries
    );
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn vm_hwm_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Send requests `from..to` on one kept-alive connection, reconnecting
/// when the server recycles it.
fn send_simulates(addr: SocketAddr, from: usize, to: usize) {
    let mut conn = connect(addr);
    for i in from..to {
        let body = simulate_body(i);
        conn.write_all(
            format!(
                "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write request");
        let raw = read_response(&mut conn);
        assert_eq!(split_response(&raw).0, 200, "request {i}");
        if raw.contains("\r\nConnection: close\r\n") {
            conn = connect(addr);
        }
    }
}

/// A spawned daemon, killed if the test fails before it drains.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
#[ignore = "release soak of a real daemon; run with --release -- --ignored"]
fn a_daemon_fed_new_clocks_stops_growing_once_its_caches_are_full() {
    // Margin on the peak RSS over the second half. Past full, the peak
    // still settles once, by 2,160-2,164 KiB on a 2-vCPU x86-64 VM, then
    // stays flat over three more halves. That is not the caches' heap,
    // which churn does not grow (`cache_memory.rs` pins it): the same
    // requests in one process leave the live heap flat, and none holds
    // 100 KB of transient heap. An unbounded simulator cache grows ~11 MiB
    // over the same requests, and keeps growing.
    const MARGIN_KIB: u64 = 4 << 10;
    const BATCH: usize = 4096;

    // One worker: the requests come one at a time on one connection.
    let mut daemon = Daemon(
        Command::new(rat_binary())
            .args(["--jobs", "1", "serve", "--port", "0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rat serve (build it first: cargo build --release -p rat-cli)"),
    );
    let pid = daemon.0.id();
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("readiness line");
    let addr: SocketAddr = line
        .split("listening on http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no listen address in {line:?}"));

    // Fill: new clocks until the simulator cache is at its cap and the two
    // response-cache tiers hold 99% of their budgets. A shard that evicts
    // stays within one body of its budget, so at 99% every shard is full.
    let budget = rat_serve::ServeConfig::default().response_cache_bytes as u64;
    let mut sent = 0;
    loop {
        send_simulates(addr, sent, sent + BATCH);
        sent += BATCH;
        let (_, metrics) = get(addr, "/metrics");
        let entries = metric_value(&metrics, "cache_entries ").expect("cache_entries");
        let bytes = metric_value(&metrics, "response_cache_bytes ").expect("bytes");
        assert!(entries <= CAP as u64, "{entries} > {CAP}");
        if entries == CAP as u64 && bytes >= 2 * budget * 99 / 100 {
            break;
        }
        assert!(
            sent < 1 << 18,
            "caches not full after {sent} requests: {entries} entries, {bytes} bytes"
        );
    }
    let full = vm_hwm_kib(pid);

    // As many again: every request still inserts into, and evicts from,
    // both caches.
    send_simulates(addr, sent, 2 * sent);
    let after = vm_hwm_kib(pid);
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(
        metric_value(&metrics, "cache_entries "),
        Some(CAP as u64),
        "{metrics}"
    );

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(daemon.0.wait().expect("daemon exits").success());
    eprintln!("{sent} requests to fill: VmHWM {full} KiB; after {sent} more: {after} KiB");
    assert!(
        after <= full + MARGIN_KIB,
        "peak RSS grew from {full} to {after} KiB over {sent} requests past full"
    );
}
