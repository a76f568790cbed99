//! End-to-end tests of the observability layer (`--metrics` / `--profile`):
//! the tree summary snapshot, the chrome-trace export's schema and nesting,
//! and the invariant that turning collection on never perturbs stdout.
//!
//! Everything here spawns the real binary: the global telemetry collector is
//! process-wide, so in-process tests would leak spans into each other.

use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

use rat_core::telemetry::json::{self, Json};

fn rat_binary() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("rat{}", std::env::consts::EXE_SUFFIX));
    p
}

fn worksheet(name: &str) -> String {
    format!("{}/worksheets/{name}.toml", env!("CARGO_MANIFEST_DIR"))
}

fn run_rat(args: &[&str]) -> (String, String) {
    let out = Command::new(rat_binary())
        .args(args)
        .output()
        .expect("spawning the rat binary (build it with `cargo build -p rat-cli`)");
    assert!(
        out.status.success(),
        "rat {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A scratch path under the target dir (kept out of the repo tree).
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rat-obs-{}-{name}", std::process::id()));
    p
}

// ---- tree-summary snapshot ------------------------------------------------

/// Replace the volatile `key=value` duration tokens (`total=`, `self=`,
/// `rate=`) with `key=_` so the snapshot pins structure, names, and counts
/// but not wall-clock times.
fn scrub(tree: &str) -> String {
    let mut out = String::new();
    for line in tree.lines() {
        let mut scrubbed = String::new();
        for (i, tok) in line.split_whitespace().enumerate() {
            if i > 0 {
                scrubbed.push(' ');
            }
            match tok.split_once('=') {
                Some((k @ ("total" | "self" | "rate"), _)) => {
                    scrubbed.push_str(k);
                    scrubbed.push_str("=_");
                }
                _ => scrubbed.push_str(tok),
            }
        }
        out.push_str(&scrubbed);
        out.push('\n');
    }
    out
}

/// The `--metrics` tree for a fixed three-point sweep is deterministic in
/// content once durations are scrubbed: same spans, same counts, same metric
/// values, at any thread count. The batched sweep dispatches one engine job
/// per 1024-point chunk, so three points are a single job whose kernel
/// reports its point count through the `batch.points` metric and its stage
/// hit/miss profile through the `stage.*` counters: an fclock-only sweep
/// computes the comm stage once (1 miss, 2 hits) while the clock-dependent
/// comp/overlap/speedup stages recompute at each of the three points.
#[test]
fn metrics_tree_snapshot_on_fixed_sweep() {
    let expected = "\
wall-clock profile:
rat.run count=1 total=_ self=_
sweep count=1 total=_ self=_
engine.batch count=1 total=_ self=_
engine.job count=1 total=_ self=_
metrics:
engine.jobs 1
engine.batches 1
batch.points 3
stage.hits 2
stage.misses 10
stage.comm.hits 2
stage.comm.misses 1
stage.comp.misses 3
stage.overlap.misses 3
stage.speedup.misses 3
";
    for jobs in ["1", "2", "8"] {
        let (_, stderr) = run_rat(&[
            "--metrics",
            "--jobs",
            jobs,
            "sweep",
            &worksheet("pdf1d"),
            "fclock",
            "75",
            "100",
            "150",
        ]);
        let tree_start = stderr
            .find("wall-clock profile:")
            .unwrap_or_else(|| panic!("no profile section in stderr:\n{stderr}"));
        assert_eq!(
            scrub(&stderr[tree_start..]),
            expected,
            "at --jobs {jobs}; raw stderr:\n{stderr}"
        );
    }
}

// ---- chrome-trace schema and nesting --------------------------------------

/// Parse and schema-check one profile: returns the `traceEvents` array after
/// validating the envelope and each event's required typed fields.
fn load_valid_profile(path: &std::path::Path) -> Vec<Json<'static>> {
    let text = std::fs::read_to_string(path).expect("profile file written");
    let root = json::parse(&text)
        .expect("profile is well-formed JSON")
        .into_owned();
    let obj = root.as_object().expect("top level is an object");
    assert!(
        obj.iter().any(|(k, _)| k == "displayTimeUnit"),
        "missing displayTimeUnit"
    );
    let metrics = obj
        .iter()
        .find(|(k, _)| k == "metrics")
        .map(|(_, v)| v)
        .expect("metrics object present");
    for (name, v) in metrics.as_object().expect("metrics is an object") {
        assert!(
            v.as_f64().is_some(),
            "metric {name} must be numeric, got {v:?}"
        );
    }
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents present")
        .as_array()
        .expect("traceEvents is an array")
        .clone();
    for e in &events {
        let ev = e.as_object().expect("event is an object");
        let field = |k: &str| {
            ev.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("event missing {k}: {ev:?}"))
        };
        assert_eq!(field("ph").as_str(), Some("X"), "only complete events");
        assert!(field("name").as_str().is_some());
        assert!(field("cat").as_str().is_some());
        for num in ["pid", "tid", "ts", "dur"] {
            let v = field(num).as_f64().expect("numeric field");
            assert!(v >= 0.0, "{num} must be nonnegative, got {v}");
        }
        assert!(field("args").as_object().is_some(), "args is an object");
    }
    events
}

fn event_str<'a>(e: &'a Json, key: &str) -> &'a str {
    e.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| v.as_str())
        .unwrap_or("")
}

fn event_num(e: &Json, key: &str) -> f64 {
    e.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(f64::NAN)
}

fn arg_str<'a>(e: &'a Json, key: &str) -> &'a str {
    e.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "args"))
        .and_then(|(_, v)| v.as_object())
        .and_then(|args| args.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| v.as_str())
        .unwrap_or("")
}

/// The acceptance-criteria check: the emitted chrome trace contains at least
/// one `engine.job` span nested (by path and by time) under the `rat.run`
/// span — at every engine thread count.
#[test]
fn profile_json_schema_and_engine_job_nesting() {
    for jobs in ["1", "2", "8"] {
        let path = scratch(&format!("nest-{jobs}.json"));
        run_rat(&[
            "--profile",
            path.to_str().expect("utf-8 path"),
            "--jobs",
            jobs,
            "sweep",
            &worksheet("pdf1d"),
            "fclock",
            "75",
            "100",
            "150",
        ]);
        let events = load_valid_profile(&path);
        std::fs::remove_file(&path).ok();

        let run = events
            .iter()
            .find(|e| event_str(e, "name") == "rat.run")
            .unwrap_or_else(|| panic!("no rat.run span at --jobs {jobs}"));
        let run_start = event_num(run, "ts");
        let run_end = run_start + event_num(run, "dur");
        let nested_jobs = events
            .iter()
            .filter(|e| event_str(e, "name") == "engine.job")
            .filter(|e| {
                let path = arg_str(e, "path");
                let start = event_num(e, "ts");
                let end = start + event_num(e, "dur");
                path.starts_with("rat.run/") && start >= run_start && end <= run_end
            })
            .count();
        assert!(
            nested_jobs >= 1,
            "no engine.job nested under rat.run at --jobs {jobs}"
        );
        // Every job names the phase that spawned it.
        for e in events
            .iter()
            .filter(|e| event_str(e, "name") == "engine.job")
        {
            assert_eq!(arg_str(e, "kind"), "sweep", "job kind carries the phase");
        }
    }
}

/// The simulator-side export is equally well-formed and lanes spans on the
/// simulated-time pid, one tid per resource.
#[test]
fn trace_csv_and_profile_share_no_pid() {
    let path = scratch("sim.json");
    run_rat(&[
        "--profile",
        path.to_str().expect("utf-8 path"),
        "trace",
        "pdf1d",
    ]);
    let events = load_valid_profile(&path);
    std::fs::remove_file(&path).ok();
    // Host spans only in this file (pid 1); the simulator bridge (pid 2) is
    // exercised via the library API in fpga-sim's unit tests. What matters
    // here: pids present are well-typed and rat.run exists.
    assert!(events.iter().any(|e| event_str(e, "name") == "rat.run"));
}

// ---- stdout invariance ----------------------------------------------------

/// Commands used by the invariance property: a mix of engine-parallel,
/// simulator-driven, and purely analytic paths.
const INVARIANCE_CASES: usize = 5;

fn invariance_args(case: usize, ws: &str) -> Vec<String> {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match case % INVARIANCE_CASES {
        0 => s(&["analyze", ws]),
        1 => s(&["sweep", ws, "fclock", "75", "100", "150"]),
        2 => s(&["solve", ws, "10"]),
        3 => s(&["sensitivity", ws]),
        _ => s(&["trace", "pdf1d"]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Enabling `--metrics` and `--profile` never changes stdout: collection
    /// writes only to stderr and the profile file.
    #[test]
    fn metrics_and_profile_never_change_stdout(case in 0usize..INVARIANCE_CASES) {
        let ws = worksheet("pdf1d");
        let plain_args = invariance_args(case, &ws);
        let plain: Vec<&str> = plain_args.iter().map(String::as_str).collect();
        let (stdout_plain, _) = run_rat(&plain);

        let path = scratch(&format!("inv-{case}.json"));
        let mut instrumented = vec![
            "--metrics".to_string(),
            "--profile".to_string(),
            path.to_str().expect("utf-8 path").to_string(),
        ];
        instrumented.extend(plain_args.iter().cloned());
        let inst: Vec<&str> = instrumented.iter().map(String::as_str).collect();
        let (stdout_inst, stderr_inst) = run_rat(&inst);
        prop_assert!(path.exists(), "profile file written");
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(
            &stdout_plain,
            &stdout_inst,
            "stdout changed under --metrics/--profile for {:?}",
            plain
        );
        prop_assert!(
            stderr_inst.contains("wall-clock profile:"),
            "metrics tree missing from stderr: {}",
            stderr_inst
        );
    }
}
