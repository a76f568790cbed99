//! True end-to-end tests of the `rat` binary: spawn the compiled executable
//! against the shipped worksheets and inspect stdout/exit codes, the way a
//! user's shell would.

use std::process::Command;

/// The `rat` binary Cargo builds for this package's integration tests.
/// Living in `rat-cli` is what makes `cargo test` build it: the other
/// suites that spawn `target/<profile>/rat` rely on that too.
fn rat_binary() -> &'static str {
    env!("CARGO_BIN_EXE_rat")
}

fn worksheet(name: &str) -> String {
    format!(
        "{}/../../worksheets/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run_rat(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = run_rat_env(args, &[]);
    (stdout, stderr, code == 0)
}

/// Spawn the binary with extra environment variables, returning the exact
/// exit code (the CLI's error taxonomy maps failure classes to distinct
/// codes; see DESIGN.md §10).
fn run_rat_env(args: &[&str], env: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(rat_binary());
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawning the rat binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("rat exited with a code"),
    )
}

#[test]
fn analyze_shipped_pdf1d_worksheet() {
    let (stdout, stderr, ok) = run_rat(&["analyze", &worksheet("pdf1d")]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("10.6"),
        "missing Table-3 speedup:\n{stdout}"
    );
    assert!(stdout.contains("computation-bound"), "{stdout}");
}

#[test]
fn solve_on_shipped_md_worksheet_recovers_the_tuning() {
    let (stdout, _, ok) = run_rat(&["solve", &worksheet("md"), "10.7"]);
    assert!(ok);
    // §5.2's tuned value: ~50 ops/cycle.
    assert!(
        stdout.contains("required throughput_proc: 50.0 ops/cycle"),
        "{stdout}"
    );
}

#[test]
fn unknown_command_fails_with_usage_hint() {
    let (_, stderr, ok) = run_rat(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn missing_worksheet_is_a_clean_error() {
    let (_, stderr, ok) = run_rat(&["analyze", "/nonexistent/path.toml"]);
    assert!(!ok);
    assert!(stderr.contains("reading"), "{stderr}");
}

#[test]
fn help_exits_zero() {
    let (stdout, _, ok) = run_rat(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

// ---- exit-code taxonomy: one test per failure class, each asserting the
// ---- `caused by:` source chain renders so the user sees both the CLI
// ---- context and the underlying model error.

#[test]
fn infeasible_strict_solve_exits_4_with_cause_chain() {
    // No design reaches a billionfold speedup: communication alone exceeds
    // the per-iteration budget, so `solve --strict` must fail infeasible.
    let (stdout, stderr, code) =
        run_rat_env(&["solve", "--strict", &worksheet("pdf1d"), "1e9"], &[]);
    assert_eq!(code, 4, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("error: solving"), "{stderr}");
    assert!(stderr.contains("caused by: infeasible:"), "{stderr}");
    // Without --strict the same target renders inline and exits 0.
    let (stdout, _, code) = run_rat_env(&["solve", &worksheet("pdf1d"), "1e9"], &[]);
    assert_eq!(code, 0);
    assert!(stdout.contains("infeasible"), "{stdout}");
}

#[test]
fn undecodable_worksheet_exits_3_with_the_decoder_message() {
    // A quantity the worksheet decoder cannot read fails before validation,
    // with the decoder's field path in the one stderr line.
    let dir = std::env::temp_dir().join(format!("rat-cli-decode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parsecs.toml");
    let text = std::fs::read_to_string(worksheet("pdf1d")).unwrap();
    let bad = text.replace("fclock = 150000000.0", "fclock = \"150 parsecs\"");
    assert_ne!(text, bad, "the edit must hit");
    std::fs::write(&path, bad).unwrap();
    let path = path.to_string_lossy();
    let (stdout, stderr, code) = run_rat_env(&["analyze", &path], &[]);
    assert_eq!(code, 3, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(
        stderr,
        format!(
            "error: parsing {path}: TOML parse error: \
             comp: fclock: unknown frequency unit `parsecs` in `150 parsecs`\n"
        )
    );
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn deeply_nested_worksheets_exit_3_naming_the_cap() {
    // Nesting far past the TOML parser's caps is a parse error (exit 3),
    // not a stack overflow (exit 134): an array 200k levels deep, and a
    // table header of 300k dotted parts.
    let dir = std::env::temp_dir().join(format!("rat-cli-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = std::fs::read_to_string(worksheet("pdf1d")).unwrap();
    let cases = [
        (
            "array.toml",
            format!("{text}x = {}{}\n", "[".repeat(200_000), "]".repeat(200_000)),
            format!("nested deeper than {} levels", toml::MAX_DEPTH),
        ),
        (
            "header.toml",
            format!("{text}[{}]\n", vec!["a"; 300_000].join(".")),
            format!("more than {} parts in a dotted key", toml::MAX_DEPTH),
        ),
    ];
    for (name, body, cap) in cases {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let (stdout, stderr, code) = run_rat_env(&["analyze", &path.to_string_lossy()], &[]);
        assert_eq!(code, 3, "{name}: stdout: {stdout}\nstderr: {stderr}");
        assert!(stderr.contains(&cap), "{name}: {stderr}");
        assert!(stdout.is_empty(), "{name}: {stdout}");
    }
}

#[test]
fn buffers_past_u32_block_rams_are_infeasible_not_wrapped() {
    // 8-byte elements in 2304-byte BRAM18 blocks. 2^32 + 10 blocks once
    // wrapped to 10 and fitted a Virtex-5 (exit 0 with a front); 2^32 - 1
    // overflowed the sum with the output buffer's block (a debug panic).
    let dir = std::env::temp_dir().join(format!("rat-cli-bram-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = std::fs::read_to_string(worksheet("pdf1d")).unwrap();
    for elements_in in ["1236950584128", "1236950581248"] {
        let huge = text
            .replace("elements_in = 512", &format!("elements_in = {elements_in}"))
            .replace("bytes_per_element = 4", "bytes_per_element = 8");
        let path = dir.join(format!("bram-{elements_in}.toml"));
        std::fs::write(&path, huge).unwrap();
        let (stdout, stderr, code) = run_rat_env(&["optimize", &path.to_string_lossy()], &[]);
        assert_eq!(code, 4, "{elements_in}: stdout: {stdout}\nstderr: {stderr}");
        assert!(stderr.contains("no feasible design point"), "{stderr}");
        assert!(stdout.is_empty(), "{elements_in}: {stdout}");
    }
}

#[test]
fn byte_counts_past_u64_max_exit_3_naming_both_fields() {
    // 2^32 elements of 2^32 bytes once wrapped the write term's byte count
    // to 0 in release (exit 0 with t_comm the read term alone) and panicked
    // in debug.
    let dir = std::env::temp_dir().join(format!("rat-cli-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = std::fs::read_to_string(worksheet("pdf1d"))
        .unwrap()
        .replace("bytes_per_element = 4", "bytes_per_element = 4294967296");
    for (field, from) in [
        ("elements_in", "elements_in = 512"),
        ("elements_out", "elements_out = 1"),
    ] {
        let path = dir.join(format!("{field}.toml"));
        let to = format!("{field} = 4294967296");
        std::fs::write(&path, text.replace(from, &to)).unwrap();
        let path = path.to_string_lossy();
        for args in [
            vec!["analyze", &*path],
            vec!["sweep", &*path, "fclock", "1e8", "2e8"],
            vec!["streaming", &*path],
        ] {
            let (stdout, stderr, code) = run_rat_env(&args, &[]);
            assert_eq!(code, 3, "rat {args:?}: stdout: {stdout}\nstderr: {stderr}");
            assert!(
                stderr.contains(&format!("{field} * bytes_per_element")),
                "rat {args:?}: {stderr}"
            );
            assert!(stdout.is_empty(), "rat {args:?}: {stdout}");
        }
    }
}

#[test]
fn swept_counts_that_are_not_finite_or_round_below_one_exit_3() {
    // Each of these was once evaluated at a count of 1 (or u64::MAX for
    // `inf` iterations) and printed a row with exit 0.
    let ws = worksheet("pdf1d");
    for (param, value, rule) in [
        ("elements-in", "nan", "elements_in must be at least 1"),
        ("elements-in", "-3", "elements_in must be at least 1"),
        ("elements-in", "0.4", "elements_in must be at least 1"),
        ("iterations", "inf", "iterations must be at least 1"),
    ] {
        let args = ["sweep", &ws, param, value, "512"];
        let (stdout, stderr, code) = run_rat_env(&args, &[]);
        assert_eq!(code, 3, "rat {args:?}: {stderr}");
        assert!(stderr.contains(rule), "rat {args:?}: {stderr}");
        assert!(stdout.is_empty(), "rat {args:?}: {stdout}");
    }
    // 0.5 rounds to one element, as it always did.
    let (stdout, stderr, code) = run_rat_env(&["sweep", &ws, "elements-in", "0.5"], &[]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("0.500000"), "{stdout}");
}

#[test]
fn swept_and_sampled_counts_past_u64_max_exit_3_naming_the_value() {
    // Each was once evaluated at u64::MAX iterations (exit 0), or failed
    // naming 18446744073709551615 elements instead of the value given.
    let ws = worksheet("pdf1d");
    for (args, rule) in [
        (
            vec!["sweep", &*ws, "iterations", "1e30"],
            "iterations = 1e30 does not fit a u64 count",
        ),
        (
            vec!["sweep", &*ws, "elements-in", "1e30"],
            "elements_in = 1e30 does not fit a u64 count",
        ),
        (
            vec!["uncertainty", &*ws, "iterations", "1e19", "1e30"],
            "does not fit a u64 count",
        ),
    ] {
        let (stdout, stderr, code) = run_rat_env(&args, &[]);
        assert_eq!(code, 3, "rat {args:?}: {stderr}");
        assert!(stderr.contains(rule), "rat {args:?}: {stderr}");
        assert!(
            stderr.contains(args[2].replace('-', "_").as_str()),
            "{stderr}"
        );
        assert!(!stderr.contains("18446744073709551615"), "{stderr}");
        assert!(stdout.is_empty(), "rat {args:?}: {stdout}");
    }
    // The largest f64 below 2^64 is still a count.
    let (stdout, stderr, code) =
        run_rat_env(&["sweep", &ws, "iterations", "18446744073709549568"], &[]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("18446744073709549568.000000"), "{stdout}");
}

#[test]
fn simulation_failure_exits_5_with_cause_chain() {
    // A zero clock is user input the simulator rejects; the CLI must report
    // what it was doing (context) plus the simulator's reason (cause).
    let (_, stderr, code) = run_rat_env(&["trace", "pdf1d", "--mhz", "0"], &[]);
    assert_eq!(code, 5, "stderr: {stderr}");
    assert!(stderr.contains("error: simulating pdf1d"), "{stderr}");
    assert!(stderr.contains("caused by: simulation failed:"), "{stderr}");
}

#[test]
fn inverted_ranges_and_slow_clocks_exit_with_their_class_not_a_panic() {
    // Each of these once panicked (exit 101): an inverted or non-finite
    // uncertainty range is an invalid quantity (exit 3) naming the range,
    // and a clock below the simulator's 1 MHz floor a simulation failure
    // (exit 5).
    let ws = worksheet("pdf1d");
    let cases: [(&[&str], i32, &str); 4] = [
        (
            &["uncertainty", &ws, "fclock", "2e8", "1e8"],
            3,
            "ranges[0]",
        ),
        (
            &["uncertainty", &ws, "fclock", "-1e400", "1e8"],
            3,
            "ranges[0]",
        ),
        (
            &["uncertainty", &ws, "fclock", "NaN", "1e8"],
            3,
            "ranges[0]",
        ),
        (&["trace", "sort", "--mhz", "1e-9"], 5, "[1, 1e6] MHz"),
    ];
    for (args, exit, named) in cases {
        let (stdout, stderr, code) = run_rat_env(args, &[]);
        assert_eq!(code, exit, "rat {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "rat {args:?}: {stderr}");
        assert!(stderr.contains(named), "rat {args:?}: {stderr}");
        assert!(stdout.is_empty(), "rat {args:?}: {stdout}");
    }
}

#[test]
fn closed_stdout_is_a_quiet_success() {
    // The reader goes away before the report is written, as in
    // `rat trace sort --csv | head -1`. The CSV (~170 KB) outgrows a pipe's
    // buffer, so the write meets the closed pipe however the two processes
    // are scheduled: exit 0, nothing on stderr, no panic.
    let mut child = Command::new(rat_binary())
        .args(["trace", "sort", "--csv"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning the rat binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for rat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn the_cache_path_variable_is_ignored() {
    // The simulator cache lives in memory only, so a path that cannot be
    // written neither fails the run (it once exited 6) nor changes stdout.
    let args = ["reproduce", "all", "--fast"];
    let (plain, stderr, code) = run_rat_env(&args, &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let (stdout, stderr, code) = run_rat_env(
        &args,
        &[("RAT_SIM_CACHE", "/nonexistent-rat-dir/cache.tsv")],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(stdout, plain);
    assert!(
        stderr.contains("sim cache: 0 hit(s), 3 miss(es)"),
        "{stderr}"
    );
}

#[test]
fn the_removed_cache_flag_is_a_usage_error() {
    let (stdout, stderr, code) = run_rat_env(&["--no-cache", "analyze", &worksheet("pdf1d")], &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown command '--no-cache'"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn serve_rejects_the_telemetry_flags_before_binding() {
    // A daemon records no spans and exports its counters at GET /metrics,
    // so `--metrics` and `--profile` would only trace it until exit. The
    // address is a documentation-range IP no interface holds, so a serve
    // that got past the flags would fail to bind and exit 6.
    let profile = std::env::temp_dir().join(format!("rat-serve-{}.json", std::process::id()));
    let profile = profile.to_str().expect("utf-8 temp path");
    let with_eq = format!("--profile={profile}");
    let serve = ["serve", "--addr", "192.0.2.1", "--port", "0"];
    for flags in [
        vec!["--metrics"],
        vec!["--profile", profile],
        vec![with_eq.as_str()],
    ] {
        for before in [true, false] {
            let args: Vec<&str> = if before {
                flags.iter().chain(&serve).copied().collect()
            } else {
                serve.iter().chain(&flags).copied().collect()
            };
            let (stdout, stderr, code) = run_rat_env(&args, &[]);
            assert_eq!(code, 2, "{args:?}: {stderr}");
            assert!(stderr.contains("GET /metrics"), "{args:?}: {stderr}");
            assert!(!stderr.contains("binding"), "{args:?}: {stderr}");
            assert!(stdout.is_empty(), "{args:?}: {stdout}");
        }
    }
    assert!(!std::path::Path::new(profile).exists(), "{profile} written");
}

#[test]
fn trace_mhz_override_is_reflected_in_output() {
    let (stdout, _, code) = run_rat_env(&["trace", "pdf1d", "--mhz", "100"], &[]);
    assert_eq!(code, 0);
    assert!(stdout.contains("simulated at 100 MHz"), "{stdout}");
}

#[test]
fn searches_past_the_size_caps_are_usage_errors_not_aborts() {
    // Each of these once panicked ("capacity overflow", exit 101) or
    // aborted on an allocation failure (exit 134): the caps the daemon
    // answers 400 with were checked only in its JSON parser.
    let ws = worksheet("pdf1d");
    let clocks = vec!["1e8"; 30_000].join(",");
    let throughputs = vec!["1"; 60_000].join(",");
    let cases: [(Vec<&str>, &str); 3] = [
        (
            vec![
                "optimize",
                &ws,
                "--generations",
                "1",
                "--population",
                "1152921504606846976",
            ],
            "generations x population is 1152921504606846976 evaluations; at most 1000000",
        ),
        (
            vec![
                "optimize",
                &ws,
                "--generations",
                "1",
                "--population",
                "1000000000000",
            ],
            "generations x population is 1000000000000 evaluations; at most 1000000",
        ),
        (
            vec![
                "explore",
                &ws,
                "2",
                "--fclocks",
                &clocks,
                "--throughput-procs",
                &throughputs,
            ],
            "design space has 3600000000 corners; at most 1000000",
        ),
    ];
    for (args, cause) in cases {
        let (stdout, stderr, code) = run_rat_env(&args, &[]);
        assert_eq!(code, 2, "{}: stderr: {stderr}", args[0]);
        assert!(stderr.contains(cause), "{}: {stderr}", args[0]);
        assert!(stdout.is_empty(), "{}: {stdout}", args[0]);
    }
}

#[test]
fn arguments_a_command_does_not_take_are_usage_errors() {
    // Each of these once ran and exited 0, ignoring the argument it did
    // not take, so a mistyped flag printed the wrong output.
    let ws = worksheet("pdf1d");
    let cases: [(&[&str], &str); 9] = [
        (
            &["analyze", &ws, "--bogus"],
            "unknown analyze flag '--bogus'",
        ),
        (
            &["trace", "sort", "--bogus"],
            "unknown trace flag '--bogus'",
        ),
        (
            &["reproduce", "table1", "--fast", "--bogus"],
            "unknown reproduce flag '--bogus'",
        ),
        (&["devices", "extra"], "unexpected devices argument 'extra'"),
        (
            &["microbench", "nallatech", "extra"],
            "unexpected microbench argument 'extra'",
        ),
        (
            &["breakeven", &ws, "5", "3", "extra"],
            "unexpected breakeven argument 'extra'",
        ),
        (
            &["multi-fpga", &ws, "4", "extra"],
            "unexpected multi-fpga argument 'extra'",
        ),
        (
            &["streaming", &ws, "full", "extra"],
            "unexpected streaming argument 'extra'",
        ),
        (
            &["example-worksheet", "extra"],
            "unexpected example-worksheet argument 'extra'",
        ),
    ];
    for (args, named) in cases {
        let (stdout, stderr, code) = run_rat_env(args, &[]);
        assert_eq!(code, 2, "rat {args:?}: {stderr}");
        assert!(stderr.contains(named), "rat {args:?}: {stderr}");
        assert!(stdout.is_empty(), "rat {args:?}: {stdout}");
        // Without the extra argument the same command succeeds.
        let (_, stderr, code) = run_rat_env(&args[..args.len() - 1], &[]);
        assert_eq!(code, 0, "rat {:?}: {stderr}", &args[..args.len() - 1]);
    }
}

#[test]
fn device_counts_outside_one_to_the_cap_exit_3() {
    // 0 once analyzed one device, and a huge count built a row per device
    // before printing (10,000,000 peaked at 1.69 GiB).
    let ws = worksheet("pdf1d");
    for (count, named) in [
        ("0", "device count must be at least 1"),
        ("65537", "device count 65537 exceeds the cap of 65536"),
        (
            "4294967295",
            "device count 4294967295 exceeds the cap of 65536",
        ),
    ] {
        let (stdout, stderr, code) = run_rat_env(&["multi-fpga", &ws, count], &[]);
        assert_eq!(code, 3, "{count}: {stderr}");
        assert!(stderr.contains(named), "{count}: {stderr}");
        assert!(stdout.is_empty(), "{count}: {stdout}");
    }
    let (stdout, stderr, code) = run_rat_env(&["multi-fpga", &ws, "65536"], &[]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("65536"), "{} bytes of stdout", stdout.len());
}
