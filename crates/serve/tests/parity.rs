//! The differential CLI↔serve parity suite — the correctness contract of
//! `rat serve`.
//!
//! For every analysis mode, the JSON body a **warm** server returns must be
//! byte-identical to what the **cold** path computes for the same inputs:
//! the in-process core pipeline (each mode's `rat_core` entry point and
//! renderer, called directly) and the spawned `rat` binary itself. Parity
//! is asserted at 1, 2, and 8 server workers, on cache-cold and cache-warm
//! requests, and for the seeded Monte-Carlo path (same seed → same
//! quantiles through the server). A failing request fails alike both ways:
//! the same exit code and status class, and the same error and causes.

mod common;

use std::process::Command;

use common::{error_of, post, rat_binary, report_of};
use proptest::prelude::*;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::params::{
    Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams,
};
use rat_core::quantity::{Freq, Seconds, Throughput};
use rat_core::sweep::SweepParam;
use rat_core::uncertainty::ParamRange;
use rat_serve::api::{self, escape_json, OptimizeSpec};
use rat_serve::{ServeConfig, Server, ServerHandle};

/// The worker counts the acceptance criteria pin.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn start(workers: usize) -> ServerHandle {
    Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// A reference engine configured exactly like a server worker's.
fn reference_engine() -> Engine {
    Engine::new(EngineConfig::default().with_jobs(1))
}

fn pdf1d() -> RatInput {
    rat_apps::pdf::pdf1d::rat_input(150.0e6)
}

fn ws_toml(input: &RatInput) -> String {
    toml::to_string(input).expect("worksheet serializes")
}

/// The optimize request this suite pins: tiny but non-trivial — enough
/// generations for the sampler to adapt, small enough to stay fast.
fn optimize_spec() -> OptimizeSpec {
    OptimizeSpec {
        seed: Some(7),
        generations: Some(4),
        population: Some(48),
        ..OptimizeSpec::default()
    }
}

/// The in-process non-strict solve report.
fn solve_reference(input: &RatInput, target: f64) -> String {
    api::solve_report_from_quad(input, target, &rat_core::solve::inverse_quad(input, target))
}

/// Request bodies for the six analysis modes on `input`, paired with the
/// in-process reference report each must match byte-for-byte.
fn mode_cases(input: &RatInput) -> Vec<(&'static str, String, String)> {
    let engine = reference_engine();
    let ws = escape_json(&ws_toml(input));
    let ranges = [ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6)];
    vec![
        (
            "/v1/solve",
            format!("{{\"worksheet_toml\": \"{ws}\", \"target\": 8.0}}"),
            solve_reference(input, 8.0),
        ),
        (
            "/v1/sweep",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"fclock\", \
                 \"values\": [75e6, 100e6, 150e6]}}"
            ),
            rat_core::sweep::sweep_with(
                &engine,
                input,
                SweepParam::Fclock,
                &[75.0e6, 100.0e6, 150.0e6],
            )
            .expect("sweep reference")
            .render(),
        ),
        (
            "/v1/uncertainty",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}}]}}"
            ),
            rat_core::uncertainty::propagate_with(
                &engine,
                input,
                &ranges,
                api::DEFAULT_MC_SAMPLES,
                engine.config().root_seed,
            )
            .expect("uncertainty reference")
            .render(),
        ),
        (
            "/v1/explore",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": 5.0, \
                 \"fclocks\": [100e6, 150e6]}}"
            ),
            api::explore_report(input, 5.0, Some(vec![100.0e6, 150.0e6]), None, None)
                .expect("explore reference"),
        ),
        (
            "/v1/sensitivity",
            format!("{{\"worksheet_toml\": \"{ws}\"}}"),
            rat_core::sensitivity::analyze_with(&engine, input)
                .expect("sensitivity reference")
                .render(),
        ),
        (
            "/v1/optimize",
            format!(
                "{{\"worksheet_toml\": \"{ws}\", \"seed\": 7, \
                 \"generations\": 4, \"population\": 48}}"
            ),
            api::optimize_report(&engine, input, &optimize_spec()).expect("optimize reference"),
        ),
    ]
}

#[test]
fn six_modes_byte_identical_at_1_2_8_workers_cold_and_warm() {
    let input = pdf1d();
    let cases = mode_cases(&input);
    for workers in WORKER_COUNTS {
        let handle = start(workers);
        let addr = handle.addr();
        for (path, body, reference) in &cases {
            // Cache-cold (first request of this mode on this server) ...
            let (status, cold) = post(addr, path, body);
            assert_eq!(status, 200, "{path} at {workers} workers: {cold}");
            assert_eq!(
                report_of(&cold),
                *reference,
                "{path} cold parity at {workers} workers"
            );
            // ... and cache-warm (every structure already resident) must be
            // byte-identical to each other and to the reference.
            let (status, warm) = post(addr, path, body);
            assert_eq!(status, 200);
            assert_eq!(
                cold, warm,
                "{path} warm response drifted at {workers} workers"
            );
        }
        handle.shutdown();
    }
}

#[test]
fn server_reports_match_cold_cli_stdout_for_every_mode() {
    // Spawn the real binary per mode and compare its stdout to the warm
    // server's report — the end-to-end version of the shared-renderer
    // argument. The CLI prints `{report}\n`, so stdout = report + newline.
    let input = pdf1d();
    let dir = std::env::temp_dir().join(format!("rat-serve-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ws_path = dir.join("ws.toml");
    std::fs::write(&ws_path, ws_toml(&input)).unwrap();
    let ws = ws_path.to_string_lossy().into_owned();

    let cli = |args: &[&str]| -> String {
        let out = Command::new(rat_binary())
            .args(args)
            .output()
            .expect("spawning the rat binary (build it with `cargo build -p rat-cli`)");
        assert!(
            out.status.success(),
            "rat {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    let handle = start(2);
    let addr = handle.addr();
    let serve = |path: &str, body: &str| -> String {
        let (status, resp) = post(addr, path, body);
        assert_eq!(status, 200, "{path}: {resp}");
        report_of(&resp)
    };
    let ws_json = escape_json(&ws_toml(&input));

    let pairs = [
        (
            cli(&["solve", &ws, "8"]),
            serve(
                "/v1/solve",
                &format!("{{\"worksheet_toml\": \"{ws_json}\", \"target\": 8.0}}"),
            ),
        ),
        (
            cli(&["solve", "--strict", &ws, "4"]),
            serve(
                "/v1/solve",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"target\": 4.0, \"strict\": true}}"
                ),
            ),
        ),
        (
            cli(&["sweep", &ws, "fclock", "75e6", "100e6", "150e6"]),
            serve(
                "/v1/sweep",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"param\": \"fclock\", \
                     \"values\": [75e6, 100e6, 150e6]}}"
                ),
            ),
        ),
        (
            cli(&["uncertainty", &ws, "fclock", "75e6", "150e6"]),
            serve(
                "/v1/uncertainty",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \
                     \"ranges\": [{{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}}]}}"
                ),
            ),
        ),
        (
            cli(&["explore", &ws, "5", "--fclocks", "100e6,150e6"]),
            serve(
                "/v1/explore",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"min_speedup\": 5.0, \
                     \"fclocks\": [100e6, 150e6]}}"
                ),
            ),
        ),
        (
            cli(&["sensitivity", &ws]),
            serve(
                "/v1/sensitivity",
                &format!("{{\"worksheet_toml\": \"{ws_json}\"}}"),
            ),
        ),
        (
            cli(&[
                "optimize",
                &ws,
                "--seed",
                "7",
                "--generations",
                "4",
                "--population",
                "48",
            ]),
            serve(
                "/v1/optimize",
                &format!(
                    "{{\"worksheet_toml\": \"{ws_json}\", \"seed\": 7, \
                     \"generations\": 4, \"population\": 48}}"
                ),
            ),
        ),
    ];
    handle.shutdown();
    for (i, (cli_stdout, server_report)) in pairs.iter().enumerate() {
        assert_eq!(
            *cli_stdout,
            format!("{server_report}\n"),
            "CLI stdout vs server report diverged for pair {i}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_name_past_the_bmp_sent_in_ascii_escapes_answers_as_the_cli_does() {
    // Python's `json.dumps` sends every non-ASCII character as a `\u`
    // escape, and one past the BMP as a surrogate pair.
    let mut input = pdf1d();
    input.name = "pdf 😀".into();
    let text = ws_toml(&input);
    let ascii: String = escape_json(&text)
        .chars()
        .map(|c| match c {
            c if c.is_ascii() => c.to_string(),
            c => c
                .encode_utf16(&mut [0; 2])
                .iter()
                .map(|unit| format!("\\u{unit:04x}"))
                .collect(),
        })
        .collect();
    assert!(ascii.contains("pdf \\ud83d\\ude00"), "{ascii}");

    let dir = std::env::temp_dir().join(format!("rat-serve-bmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ws_path = dir.join("ws.toml");
    std::fs::write(&ws_path, &text).unwrap();
    let ws = ws_path.to_string_lossy().into_owned();
    let handle = start(1);
    for (args, path, fields) in [
        (vec!["solve", &ws, "8"], "/v1/solve", ", \"target\": 8"),
        (
            vec!["explore", &ws, "5", "--fclocks", "100e6,150e6"],
            "/v1/explore",
            ", \"min_speedup\": 5, \"fclocks\": [100e6, 150e6]",
        ),
    ] {
        let out = Command::new(rat_binary())
            .args(&args)
            .output()
            .expect("spawning the rat binary (build it with `cargo build -p rat-cli`)");
        assert!(out.status.success(), "rat {args:?}");
        let body = format!("{{\"worksheet_toml\": \"{ascii}\"{fields}}}");
        let (status, resp) = post(handle.addr(), path, &body);
        assert_eq!(status, 200, "{path}: {resp}");
        let report = report_of(&resp);
        assert!(report.contains("pdf 😀"), "{report}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("{report}\n")
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// DESIGN.md §14: the HTTP status for each CLI exit code.
const EXIT_TO_STATUS: [(i32, u16); 4] = [(2, 400), (3, 400), (4, 422), (5, 500)];

#[test]
fn failing_requests_fail_alike_through_the_cli_and_the_server() {
    // One failing request per mode that can fail after the worksheet
    // loads, sent both ways. The CLI's exit code and the server's status
    // sit on the same row of the §14 table. For a pipeline failure the
    // CLI's `error:` line is the body's `error` and its `caused by:` lines
    // are `caused_by`; a usage error (exit 2) prints the 400's cause.
    let input = pdf1d();
    let dir = std::env::temp_dir().join(format!("rat-serve-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ws_path = dir.join("ws.toml");
    std::fs::write(&ws_path, ws_toml(&input)).unwrap();
    let ws = ws_path.to_string_lossy().into_owned();
    let ws_json = escape_json(&ws_toml(&input));
    let body = |fields: &str| format!("{{\"worksheet_toml\": \"{ws_json}\", {fields}}}");
    let cases = [
        (
            vec!["solve", "--strict", &ws, "1e9"],
            "/v1/solve",
            body("\"target\": 1e9, \"strict\": true"),
            4,
        ),
        (
            vec!["sweep", &ws, "fclock", "-1e8"],
            "/v1/sweep",
            body("\"param\": \"fclock\", \"values\": [-1e8]"),
            3,
        ),
        (
            vec!["uncertainty", &ws, "fclock", "2e8", "1e8"],
            "/v1/uncertainty",
            body("\"ranges\": [{\"param\": \"fclock\", \"lo\": 2e8, \"hi\": 1e8}]"),
            3,
        ),
        (
            vec!["explore", &ws, "-1"],
            "/v1/explore",
            body("\"min_speedup\": -1"),
            3,
        ),
        (
            vec!["optimize", &ws, "--generations", "0"],
            "/v1/optimize",
            body("\"generations\": 0"),
            3,
        ),
        (
            vec!["sweep", &ws, "fclock"],
            "/v1/sweep",
            body("\"param\": \"fclock\", \"values\": []"),
            2,
        ),
    ];
    let handle = start(2);
    for (args, path, body, exit) in &cases {
        let out = Command::new(rat_binary())
            .args(args)
            .output()
            .expect("spawning the rat binary (build it with `cargo build -p rat-cli`)");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert_eq!(out.status.code(), Some(*exit), "rat {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "rat {args:?} printed a report");
        let status = EXIT_TO_STATUS
            .iter()
            .find(|(code, _)| code == exit)
            .map(|&(_, status)| status);
        let (got, resp) = post(handle.addr(), path, body);
        assert_eq!(Some(got), status, "{path} for rat {args:?}: {resp}");

        let (error, causes) = error_of(&resp);
        let cli_error = stderr
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("error: "))
            .unwrap_or_else(|| panic!("no error line: {stderr}"));
        let cli_causes: Vec<&str> = stderr
            .lines()
            .filter_map(|l| l.strip_prefix("  caused by: "))
            .collect();
        if *exit == 2 {
            assert_eq!(vec![cli_error], causes, "rat {args:?} vs {resp}");
        } else {
            assert_eq!(cli_error, error, "rat {args:?} vs {resp}");
            assert_eq!(cli_causes, causes, "rat {args:?} vs {resp}");
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_mc_is_deterministic_through_the_server() {
    let input = pdf1d();
    let ws = escape_json(&ws_toml(&input));
    let body = format!(
        "{{\"worksheet_toml\": \"{ws}\", \"samples\": 2000, \"seed\": 42, \
         \"ranges\": [{{\"param\": \"alpha\", \"lo\": 0.5, \"hi\": 1.0}}]}}"
    );
    // Two different servers, different worker counts: the seed alone pins
    // the quantiles.
    let h1 = start(1);
    let (s1, r1) = post(h1.addr(), "/v1/uncertainty", &body);
    h1.shutdown();
    let h8 = start(8);
    let (s8, r8) = post(h8.addr(), "/v1/uncertainty", &body);
    let (s8b, r8b) = post(h8.addr(), "/v1/uncertainty", &body);
    h8.shutdown();
    assert_eq!((s1, s8, s8b), (200, 200, 200));
    assert_eq!(r1, r8, "seeded MC differs across server worker counts");
    assert_eq!(r8, r8b, "seeded MC differs across repeated requests");

    // And matches the in-process pipeline with the same seed.
    let engine = reference_engine();
    let ranges = [ParamRange::new(SweepParam::AlphaBoth, 0.5, 1.0)];
    let reference = rat_core::uncertainty::propagate_with(&engine, &input, &ranges, 2000, 42)
        .unwrap()
        .render();
    assert_eq!(report_of(&r1), reference);
}

#[test]
fn shutdown_drains_single_flight_waiters_with_full_responses() {
    // A herd of identical optimize requests: one leader computes, the rest
    // block on the single-flight slot. Shutting down mid-herd must still
    // hand every waiter the complete rendered body — no torn responses, no
    // resets — because drain waits for in-flight requests.
    let handle = start(8);
    let addr = handle.addr();
    let ws = escape_json(&ws_toml(&pdf1d()));
    let body = format!(
        "{{\"worksheet_toml\": \"{ws}\", \"seed\": 11, \
         \"generations\": 6, \"population\": 64}}"
    );
    let n = 6;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let body = body.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                post(addr, "/v1/optimize", &body)
            })
        })
        .collect();
    // Let the herd reach the workers (8 workers ≥ 6 requests, so all are
    // in flight at once), then pull the plug while they are computing.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let summary = handle.shutdown();
    let mut bodies = Vec::new();
    for t in threads {
        let (status, resp) = t.join().expect("waiter thread");
        assert_eq!(status, 200, "waiter got a torn response: {resp}");
        bodies.push(resp);
    }
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "single-flight waiters diverged");
    }
    let engine = reference_engine();
    let reference = api::optimize_report(
        &engine,
        &pdf1d(),
        &OptimizeSpec {
            seed: Some(11),
            generations: Some(6),
            population: Some(64),
            ..OptimizeSpec::default()
        },
    )
    .unwrap();
    assert_eq!(report_of(&bodies[0]), reference);
    assert!(summary.ok >= n as u64, "drain lost requests: {summary:?}");
}

// ---------------------------------------------------------------------------
// Property tests: random worksheets through the server vs the in-process
// scalar pipeline, bit for bit. Case counts are modest because every case
// boots requests against a live server; the deterministic tests above cover
// the worker-count matrix densely.
// ---------------------------------------------------------------------------

/// POST `body` twice and assert the cached repeat is byte-identical to the
/// cold render before returning the cold response. Every route under the
/// proptest goes through this, so cache parity is pinned across the whole
/// random-worksheet envelope, not just the handful of deterministic cases.
fn post_cold_and_cached(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let (status, cold) = post(addr, path, body);
    let (status_cached, cached) = post(addr, path, body);
    assert_eq!(
        (status, &cold),
        (status_cached, &cached),
        "cached response drifted from the cold render for {path}"
    );
    (status, cold)
}

/// Strategy: a valid worksheet input across wide parameter ranges (the same
/// envelope the batch-differential suite uses).
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every mode's server report equals the in-process report for random
    /// worksheets, at a randomly drawn worker count.
    #[test]
    fn random_worksheets_round_trip_bit_for_bit(
        input in worksheet(),
        target in 1.0f64..100.0,
        mc_seed in 0u64..1_000_000,
        workers in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let engine = reference_engine();
        let ws = escape_json(&ws_toml(&input));
        let handle = start(workers);
        let addr = handle.addr();

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/solve",
            &format!("{{\"worksheet_toml\": \"{ws}\", \"target\": {target}}}"),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(report_of(&resp), solve_reference(&input, target));

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/sweep",
            &format!(
                "{{\"worksheet_toml\": \"{ws}\", \"param\": \"throughput-proc\", \
                 \"values\": [0.5, 5.0, 50.0]}}"
            ),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(
            report_of(&resp),
            rat_core::sweep::sweep_with(
                &engine,
                &input,
                SweepParam::ThroughputProc,
                &[0.5, 5.0, 50.0]
            )
            .unwrap()
            .render()
        );

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/sensitivity",
            &format!("{{\"worksheet_toml\": \"{ws}\"}}"),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(
            report_of(&resp),
            rat_core::sensitivity::analyze_with(&engine, &input).unwrap().render()
        );

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/uncertainty",
            &format!(
                "{{\"worksheet_toml\": \"{ws}\", \"samples\": 64, \"seed\": {mc_seed}, \
                 \"ranges\": [{{\"param\": \"fclock\", \"lo\": 1e7, \"hi\": 1e9}}]}}"
            ),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        let ranges = [ParamRange::new(SweepParam::Fclock, 1.0e7, 1.0e9)];
        prop_assert_eq!(
            report_of(&resp),
            rat_core::uncertainty::propagate_with(&engine, &input, &ranges, 64, mc_seed)
                .unwrap()
                .render()
        );

        let (status, resp) = post_cold_and_cached(
            addr,
            "/v1/explore",
            &format!("{{\"worksheet_toml\": \"{ws}\", \"min_speedup\": {target}}}"),
        );
        prop_assert_eq!(status, 200, "{}", resp);
        prop_assert_eq!(
            report_of(&resp),
            api::explore_report(&input, target, None, None, None).unwrap()
        );

        handle.shutdown();
    }
}
