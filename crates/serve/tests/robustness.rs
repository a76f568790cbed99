//! Protocol robustness: hostile and malformed traffic must map to the
//! documented status codes with a `caused by:`-style chain in the error
//! body, and the daemon must survive all of it — after every abuse case a
//! well-formed request still answers 200.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use common::{error_of, get, post, send_raw, split_response};
use rat_serve::api::escape_json;
use rat_serve::http::MAX_BODY_BYTES;
use rat_serve::{ServeConfig, Server, ServerHandle};

fn start() -> ServerHandle {
    Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn good_body() -> String {
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    format!("{{\"worksheet_toml\": \"{ws}\", \"target\": 8.0}}")
}

/// Assert the daemon still answers a well-formed request after an abuse.
fn still_alive(handle: &ServerHandle, after: &str) {
    let (status, resp) = post(handle.addr(), "/v1/solve", &good_body());
    assert_eq!(status, 200, "daemon unhealthy after {after}: {resp}");
}

#[test]
fn hostile_requests_map_to_documented_statuses_and_daemon_survives() {
    let handle = start();
    let addr = handle.addr();

    // Malformed JSON → 400 with the parse failure in the cause chain.
    let (status, body) = post(addr, "/v1/solve", "{\"worksheet_toml\": ");
    assert_eq!(status, 400, "{body}");
    let (error, causes) = error_of(&body);
    assert!(
        !error.is_empty() && !causes.is_empty(),
        "400 body lost its caused-by chain: {body}"
    );
    still_alive(&handle, "malformed JSON");

    // A body the request is not allowed to have: declared oversized → 413
    // from the headers alone, before any body bytes are read.
    let raw = format!(
        "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        2 * 1024 * 1024
    );
    let (status, body) = split_response(&send_raw(addr, &raw));
    assert_eq!(status, 413, "{body}");
    let (error, _) = error_of(&body);
    assert!(
        error.contains("exceeds") && error.contains("limit"),
        "413 error should name the body limit: {error}"
    );
    still_alive(&handle, "oversized body");

    // Unknown route → 404; wrong method on known routes → 405.
    let (status, body) = post(addr, "/v1/frobnicate", "{}");
    assert_eq!(status, 404, "{body}");
    let (status, body) = split_response(&send_raw(addr, "GET /v1/solve HTTP/1.1\r\n\r\n"));
    assert_eq!(status, 405, "{body}");
    let (status, body) = split_response(&send_raw(
        addr,
        "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    ));
    assert_eq!(status, 405, "{body}");
    still_alive(&handle, "bad routes");

    // Infeasible design under --strict semantics → 422 (the HTTP face of
    // CLI exit code 4), with the infeasibility in the cause chain.
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    let (status, body) = post(
        addr,
        "/v1/solve",
        &format!("{{\"worksheet_toml\": \"{ws}\", \"target\": 1e9, \"strict\": true}}"),
    );
    assert_eq!(status, 422, "{body}");
    let (_, causes) = error_of(&body);
    assert!(
        causes.iter().any(|c| c.contains("infeasible")),
        "422 causes should name the infeasibility: {body}"
    );
    still_alive(&handle, "infeasible strict solve");

    // A simulation-layer failure → 500 (the HTTP face of exit code 5).
    let (status, body) = post(addr, "/v1/simulate", "{\"app\": \"sort\", \"mhz\": 0.0}");
    assert_eq!(status, 500, "{body}");
    still_alive(&handle, "simulate at 0 MHz");

    // A worksheet that parses as TOML but fails quantity validation → 400.
    let bad_ws = escape_json(
        &toml::to_string(&{
            let mut input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
            input.comm.alpha_write = -0.5;
            input
        })
        .unwrap(),
    );
    let (status, body) = post(
        addr,
        "/v1/solve",
        &format!("{{\"worksheet_toml\": \"{bad_ws}\", \"target\": 2.0}}"),
    );
    assert_eq!(status, 400, "{body}");
    still_alive(&handle, "invalid worksheet quantities");

    // Mid-body disconnect: declare 100 bytes, send 10, hang up the write
    // half. The server must answer 400 (naming the short read), not die.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
        .unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let (status, body) = split_response(&resp);
    assert_eq!(status, 400, "{body}");
    let (error, causes) = error_of(&body);
    assert!(
        causes.iter().any(|c| c.contains("disconnected")),
        "mid-body disconnect should be named: {error} / {causes:?}"
    );
    still_alive(&handle, "mid-body disconnect");

    // Garbage that is not even HTTP.
    let (status, _) = split_response(&send_raw(addr, "\x01\x02\x03 nonsense\r\n\r\n"));
    assert_ne!(status, 200);
    still_alive(&handle, "non-HTTP garbage");

    let summary = handle.shutdown();
    assert!(
        summary.ok >= 8,
        "expected the still-alive probes among {summary:?}"
    );
}

/// A worksheet past the TOML entry cap is refused before the parser's
/// per-key duplicate scans grow quadratic: a ~900 KB body whose worksheet
/// holds 70k keys answers 400 promptly, naming the cap, and the daemon
/// stays up.
#[test]
fn worksheet_past_the_entry_cap_is_a_prompt_400() {
    let handle = start();
    let mut ws = toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap();
    for i in 0..70_000 {
        ws.push_str(&format!("k_{i} = 1\n"));
    }
    let body = format!(
        "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
        escape_json(&ws)
    );
    assert!(
        (850_000..MAX_BODY_BYTES).contains(&body.len()),
        "{} bytes",
        body.len()
    );
    let start = Instant::now();
    let (status, resp) = post(handle.addr(), "/v1/solve", &body);
    let elapsed = start.elapsed();
    assert_eq!(status, 400, "{resp}");
    let (_, causes) = error_of(&resp);
    assert!(
        causes.iter().any(|c| c.contains(&format!(
            "more than {} keys and table headers",
            toml::MAX_ENTRIES
        ))),
        "the 400 should name the cap: {resp}"
    );
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    still_alive(&handle, "a worksheet with 70k keys");
    handle.shutdown();
}

/// Bodies nested far past the parsers' depth caps are 400s naming the cap,
/// not a worker thread overflowing its stack and aborting the daemon: a
/// JSON body of 200k `[` then 200k `]`, and a worksheet holding an array
/// nested 200k deep. `/healthz` and a solve still answer afterwards.
#[test]
fn deeply_nested_bodies_are_a_400_and_the_daemon_lives() {
    let handle = start();
    let deep = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let (status, resp) = post(handle.addr(), "/v1/solve", &deep(200_000));
    assert_eq!(status, 400, "{resp}");
    let (_, causes) = error_of(&resp);
    let json_cap = format!(
        "deeper than {} levels",
        rat_core::telemetry::json::MAX_DEPTH
    );
    assert!(
        causes.iter().any(|c| c.contains(&json_cap)),
        "the 400 should name the cap: {resp}"
    );

    let mut ws = toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap();
    ws.push_str(&format!("x = {}\n", deep(200_000)));
    let body = format!(
        "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
        escape_json(&ws)
    );
    let (status, resp) = post(handle.addr(), "/v1/solve", &body);
    assert_eq!(status, 400, "{resp}");
    let (_, causes) = error_of(&resp);
    let toml_cap = format!("nested deeper than {} levels", toml::MAX_DEPTH);
    assert!(
        causes.iter().any(|c| c.contains(&toml_cap)),
        "the 400 should name the cap: {resp}"
    );

    let (status, resp) = get(handle.addr(), "/healthz");
    assert_eq!(status, 200, "{resp}");
    still_alive(&handle, "deeply nested bodies");
    handle.shutdown();
}

/// `/v1/optimize` edge shapes: degenerate ranges and bogus axis values are
/// 400s naming the field, an all-infeasible space is a 422 whose cause
/// chain names the resource test, and a legal single-candidate space still
/// answers 200 — all without hurting the daemon.
#[test]
fn optimize_spaces_map_to_the_documented_statuses() {
    let handle = start();
    let addr = handle.addr();
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());

    // Inverted (empty) range → 400 naming the field.
    let (status, body) = post(
        addr,
        "/v1/optimize",
        &format!("{{\"worksheet_toml\": \"{ws}\", \"fclock_range\": [2e8, 1e8]}}"),
    );
    assert_eq!(status, 400, "{body}");
    let (_, causes) = error_of(&body);
    assert!(
        causes.iter().any(|c| c.contains("fclock_range")),
        "empty range should name its field: {body}"
    );
    still_alive(&handle, "inverted fclock_range");

    // A device name outside the catalog → 400 naming `devices`.
    let (status, body) = post(
        addr,
        "/v1/optimize",
        &format!("{{\"worksheet_toml\": \"{ws}\", \"devices\": [\"asic9000\"]}}"),
    );
    assert_eq!(status, 400, "{body}");
    let (_, causes) = error_of(&body);
    assert!(
        causes.iter().any(|c| c.contains("devices")),
        "unknown device should name the `devices` field: {body}"
    );
    still_alive(&handle, "unknown device");

    // An evaluation budget beyond the documented cap → 400.
    let (status, body) = post(
        addr,
        "/v1/optimize",
        &format!(
            "{{\"worksheet_toml\": \"{ws}\", \
             \"generations\": 1000000, \"population\": 1000000}}"
        ),
    );
    assert_eq!(status, 400, "{body}");
    still_alive(&handle, "oversized eval budget");

    // All-infeasible space (32-bit lanes on an LX25 need 2 DSPs each, so
    // 30–40 lanes always exceed its 48 DSP blocks) → 422, the HTTP face of
    // CLI exit code 4, with the resource test in the cause chain.
    let (status, body) = post(
        addr,
        "/v1/optimize",
        &format!(
            "{{\"worksheet_toml\": \"{ws}\", \"seed\": 3, \
             \"generations\": 2, \"population\": 32, \
             \"devices\": [\"lx25\"], \"precision_bits\": [32], \
             \"throughput_range\": [30.0, 40.0]}}"
        ),
    );
    assert_eq!(status, 422, "{body}");
    let (_, causes) = error_of(&body);
    assert!(
        causes
            .iter()
            .any(|c| c.contains("infeasible") && c.contains("resource test")),
        "422 causes should name the failed resource test: {body}"
    );
    still_alive(&handle, "all-infeasible optimize space");

    // Input buffers of 2^32 + 10 and 2^32 - 1 BRAM18 blocks: the first
    // once wrapped to 10 blocks and answered 200 with a front, the second
    // overflowed the block sum in a debug worker. Both are infeasible.
    for elements_in in [1_236_950_584_128, 1_236_950_581_248] {
        let mut huge = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        huge.dataset.elements_in = elements_in;
        huge.dataset.bytes_per_element = 8;
        let huge = escape_json(&toml::to_string(&huge).unwrap());
        let (status, body) = post(
            addr,
            "/v1/optimize",
            &format!("{{\"worksheet_toml\": \"{huge}\"}}"),
        );
        assert_eq!(status, 422, "{elements_in}: {body}");
        still_alive(&handle, "a buffer past u32 block RAMs");
    }

    // A legal single-candidate space answers 200.
    let (status, body) = post(
        addr,
        "/v1/optimize",
        &format!(
            "{{\"worksheet_toml\": \"{ws}\", \"seed\": 3, \
             \"generations\": 1, \"population\": 1, \
             \"fclock_range\": [1.5e8, 1.5e8], \"throughput_range\": [20.0, 20.0], \
             \"bufferings\": [\"single\"], \"devices\": [\"ep2s180\"], \
             \"precision_bits\": [18]}}"
        ),
    );
    assert_eq!(status, 200, "{body}");

    let summary = handle.shutdown();
    assert!(
        summary.ok >= 7,
        "expected the still-alive probes: {summary:?}"
    );
}

/// Inputs that used to panic a worker thread: an inverted or non-finite
/// uncertainty range (the range check now lives in the core's
/// `propagate_with`) and a clock slow enough to overflow the simulator's
/// makespan (the shared clock check floors it at 1 MHz). Each answers with
/// its status, and the daemon keeps answering after every one.
#[test]
fn inverted_ranges_and_slow_clocks_answer_without_killing_a_worker() {
    let handle = start();
    let addr = handle.addr();
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    for (lo, hi) in [("2e8", "1e8"), ("-1e400", "1e8")] {
        let (status, body) = post(
            addr,
            "/v1/uncertainty",
            &format!(
                "{{\"worksheet_toml\": \"{ws}\", \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": {lo}, \"hi\": {hi}}}]}}"
            ),
        );
        assert_eq!(status, 400, "{body}");
        let (_, causes) = error_of(&body);
        assert!(
            causes.iter().any(|c| c.contains("ranges[0]")),
            "the 400 should name the range: {body}"
        );
        still_alive(&handle, &format!("uncertainty range [{lo}, {hi}]"));
    }

    let (status, body) = post(addr, "/v1/simulate", "{\"app\": \"sort\", \"mhz\": 1e-9}");
    assert_eq!(status, 500, "{body}");
    let (_, causes) = error_of(&body);
    assert!(
        causes.iter().any(|c| c.contains("[1, 1e6] MHz")),
        "the 500 should name the clock band: {body}"
    );
    still_alive(&handle, "simulate at 1e-9 MHz");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// Worksheets and sweeps the input rules reject: a per-iteration byte count
/// past `u64::MAX` (once wrapped to a confident wrong row, 200) and a swept
/// count that rounds below 1 (once evaluated at one element, 200). Each is a
/// 400 whose text names the field, as the CLI's exit 3 does.
#[test]
fn overflowing_byte_counts_and_counts_below_one_answer_400_naming_the_field() {
    let handle = start();
    let addr = handle.addr();
    let mut huge = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    huge.dataset.elements_in = 1 << 32;
    huge.dataset.bytes_per_element = 1 << 32;
    let huge = escape_json(&toml::to_string(&huge).unwrap());
    for (path, rest) in [
        ("/v1/solve", "\"target\": 8.0"),
        ("/v1/sweep", "\"param\": \"fclock\", \"values\": [1e8, 2e8]"),
    ] {
        let (status, body) = post(
            addr,
            path,
            &format!("{{\"worksheet_toml\": \"{huge}\", {rest}}}"),
        );
        assert_eq!(status, 400, "{path}: {body}");
        assert!(
            body.contains("elements_in * bytes_per_element"),
            "{path}: the 400 should name both fields: {body}"
        );
        still_alive(&handle, &format!("{path} past u64::MAX bytes"));
    }

    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    for values in ["[-3]", "[-3, 0, 512]"] {
        let (status, body) = post(
            addr,
            "/v1/sweep",
            &format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"elements-in\", \"values\": {values}}}"
            ),
        );
        assert_eq!(status, 400, "{values}: {body}");
        assert!(
            body.contains("elements_in must be at least 1"),
            "{values}: the 400 should name the field: {body}"
        );
        still_alive(&handle, &format!("elements-in sweep {values}"));
    }
    handle.shutdown();
}

#[test]
fn counts_past_u64_max_answer_400_naming_the_field() {
    let handle = start();
    let addr = handle.addr();
    let ws = escape_json(&toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap());
    for (path, rest, rule) in [
        (
            "/v1/sweep",
            "\"param\": \"iterations\", \"values\": [1e30]",
            "iterations = 1e30 does not fit a u64 count",
        ),
        (
            "/v1/uncertainty",
            "\"ranges\": [{\"param\": \"iterations\", \"lo\": 1e19, \"hi\": 1e30}]",
            "does not fit a u64 count",
        ),
    ] {
        let (status, body) = post(
            addr,
            path,
            &format!("{{\"worksheet_toml\": \"{ws}\", {rest}}}"),
        );
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains(rule), "{path}: {body}");
        assert!(body.contains("iterations = "), "{path}: {body}");
        still_alive(&handle, &format!("{path} past u64::MAX"));
    }
    handle.shutdown();
}

#[test]
fn full_queue_answers_503_busy_and_recovers() {
    // One worker, one queue slot, short request timeout: occupy the worker
    // with a connection that sends nothing, fill the single slot with a
    // second idle connection, and a third (complete) request must bounce
    // with 503 from the backpressure path — then, once the stalled
    // connections time out, service resumes.
    let handle = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    let hog_worker = TcpStream::connect(addr).unwrap(); // popped by the worker, stalls it
    std::thread::sleep(Duration::from_millis(60));
    let hog_queue = TcpStream::connect(addr).unwrap(); // sits in the only queue slot
    std::thread::sleep(Duration::from_millis(60));

    let (status, body) = post(addr, "/v1/solve", &good_body());
    assert_eq!(status, 503, "expected busy rejection: {body}");
    let (error, _) = error_of(&body);
    assert!(
        error.contains("capacity"),
        "503 should say the server is at capacity: {error}"
    );

    // The stalled connections are answered 408 when their deadline passes.
    for (name, mut hog) in [("worker hog", hog_worker), ("queue hog", hog_queue)] {
        hog.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut resp = String::new();
        hog.read_to_string(&mut resp).unwrap();
        let (status, _) = split_response(&resp);
        assert_eq!(status, 408, "{name} should time out with 408");
    }

    // Backpressure released: the same request now succeeds, and the
    // rejection is visible in both /metrics and the drain summary.
    let (status, _) = post(addr, "/v1/solve", &good_body());
    assert_eq!(status, 200);
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("serve_rejected_busy_total 1"),
        "busy rejection not counted:\n{metrics}"
    );
    let summary = handle.shutdown();
    assert_eq!(summary.rejected_busy, 1);
}
