//! Golden test for the `rat bench --json` shape: the live report and every
//! checked-in `BENCH_<pr>.json` evidence file must satisfy the same schema,
//! versioned by `schema_version`. Adding scenarios or ratios is allowed
//! (evidence files grow PR over PR); renaming, retyping, or removing a field
//! is what the version pin exists to catch.

use rat_bench::hotbench::{self, SCHEMA_VERSION};
use rat_core::telemetry::json::{self, Json};

/// Validate one bench report document against the schema its declared
/// `schema_version` names; returns the scenario names for content checks.
/// v1 evidence (PRs 1..=7) has no `host` block; v2 requires one, recording
/// the CPU features and toolchain the numbers were measured with.
fn assert_bench_schema(doc: &Json, what: &str) -> Vec<String> {
    let version =
        doc.get("schema_version")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{what}: missing numeric schema_version")) as u64;
    assert!(
        (1..=SCHEMA_VERSION).contains(&version),
        "{what}: schema version {version} unknown (current is {SCHEMA_VERSION})"
    );
    assert!(
        matches!(doc.get("quick"), Some(Json::Bool(_))),
        "{what}: quick must be a bool"
    );
    if version >= 2 {
        let host = doc
            .get("host")
            .unwrap_or_else(|| panic!("{what}: v2 requires a host block"));
        let cores = host
            .get("logical_cores")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{what}: host.logical_cores numeric"));
        assert!(cores >= 1.0, "{what}: host.logical_cores >= 1");
        for flag in ["avx2", "fma"] {
            assert!(
                matches!(host.get(flag), Some(Json::Bool(_))),
                "{what}: host.{flag} must be a bool"
            );
        }
        let rustc = host
            .get("rustc")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{what}: host.rustc is a string"));
        assert!(!rustc.is_empty(), "{what}: host.rustc nonempty");
    } else {
        assert!(
            doc.get("host").is_none(),
            "{what}: v1 evidence predates the host block; bump schema_version"
        );
    }

    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{what}: scenarios array"));
    assert!(!scenarios.is_empty(), "{what}: at least one scenario");
    let mut names = Vec::new();
    for s in scenarios {
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{what}: scenario name is a string: {s:?}"));
        for field in ["work", "reps", "total_ns", "ns_per_rep"] {
            let v = s
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{what}: scenario {name} missing numeric {field}"));
            assert!(v >= 0.0, "{what}: {name}.{field} nonnegative");
        }
        // ns_per_rep is derived; it must agree with total_ns / reps.
        let total = s.get("total_ns").and_then(Json::as_f64).unwrap();
        let reps = s.get("reps").and_then(Json::as_f64).unwrap().max(1.0);
        let per_rep = s.get("ns_per_rep").and_then(Json::as_f64).unwrap();
        assert!(
            (per_rep - (total / reps).trunc()).abs() <= 1.0,
            "{what}: {name} ns_per_rep {per_rep} inconsistent with total {total} / reps {reps}"
        );
        names.push(name.to_string());
    }

    let ratios = doc
        .get("ratios")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{what}: ratios array"));
    assert!(!ratios.is_empty(), "{what}: at least one ratio");
    for r in ratios {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{what}: ratio name is a string: {r:?}"));
        let speedup = r
            .get("speedup")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{what}: ratio {name} missing numeric speedup"));
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "{what}: ratio {name} speedup {speedup} must be finite and positive"
        );
    }
    // The optional serve block (present once `rat bench --serve` evidence is
    // recorded): all-numeric, with the derived warm-vs-cold ratio agreeing
    // with its operands. v3 grows the block with the keep-alive transport
    // and response-cache evidence; older evidence predates those fields.
    if let Some(serve) = doc.get("serve") {
        let mut fields = vec![
            "requests",
            "rps",
            "p50_us",
            "p99_us",
            "p999_us",
            "warm_solve_p50_us",
            "cold_cli_solve_p50_us",
            "warm_vs_cold",
        ];
        if version >= 3 {
            fields.extend([
                "close_requests",
                "close_rps",
                "keepalive_vs_close_rps",
                "reuse_ratio",
                "connect_p50_us",
                "warm_uncached_p50_us",
                "warm_cached_p50_us",
                "warm_cached_speedup",
            ]);
        }
        for field in fields {
            let v = serve
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{what}: serve block missing numeric {field}"));
            assert!(
                v.is_finite() && v >= 0.0,
                "{what}: serve.{field} = {v} must be finite and nonnegative"
            );
        }
        let warm = serve
            .get("warm_solve_p50_us")
            .and_then(Json::as_f64)
            .unwrap();
        let cold = serve
            .get("cold_cli_solve_p50_us")
            .and_then(Json::as_f64)
            .unwrap();
        let ratio = serve.get("warm_vs_cold").and_then(Json::as_f64).unwrap();
        let derived = cold / warm.max(1.0);
        assert!(
            (ratio - derived).abs() <= 0.01 * derived.max(1.0),
            "{what}: serve.warm_vs_cold {ratio} inconsistent with cold {cold} / warm {warm}"
        );
        if version >= 3 {
            // The two new derived ratios must agree with their operands, and
            // the reuse ratio is a fraction by definition.
            let rps = serve.get("rps").and_then(Json::as_f64).unwrap();
            let close_rps = serve.get("close_rps").and_then(Json::as_f64).unwrap();
            let ka = serve
                .get("keepalive_vs_close_rps")
                .and_then(Json::as_f64)
                .unwrap();
            let derived = rps / close_rps.max(1e-9);
            assert!(
                (ka - derived).abs() <= 0.01 * derived.max(1.0),
                "{what}: serve.keepalive_vs_close_rps {ka} inconsistent with \
                 rps {rps} / close_rps {close_rps}"
            );
            let uncached = serve
                .get("warm_uncached_p50_us")
                .and_then(Json::as_f64)
                .unwrap();
            let cached = serve
                .get("warm_cached_p50_us")
                .and_then(Json::as_f64)
                .unwrap();
            let speedup = serve
                .get("warm_cached_speedup")
                .and_then(Json::as_f64)
                .unwrap();
            let derived = uncached / cached.max(1.0);
            assert!(
                (speedup - derived).abs() <= 0.01 * derived.max(1.0),
                "{what}: serve.warm_cached_speedup {speedup} inconsistent with \
                 uncached {uncached} / cached {cached}"
            );
            let reuse = serve.get("reuse_ratio").and_then(Json::as_f64).unwrap();
            assert!(
                (0.0..=1.0).contains(&reuse),
                "{what}: serve.reuse_ratio {reuse} must be a fraction"
            );
        }
    }

    names
}

#[test]
fn live_quick_report_satisfies_the_schema() {
    let report = hotbench::run(true);
    let text = report.to_json();
    let doc = json::parse(&text).expect("to_json emits valid JSON");
    // A freshly generated report always carries the *current* schema version
    // (and therefore, per the validator, the host provenance block).
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_f64),
        Some(SCHEMA_VERSION as f64),
        "live report must declare the current schema version"
    );
    let names = assert_bench_schema(&doc, "live quick report");
    for required in [
        "execute_summary_fast_forward",
        "execute_summary_telemetry_enabled",
        "uncertainty_scalar",
        "explore_two_phase",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "live report missing scenario {required}"
        );
    }
}

/// Every `BENCH_*.json` evidence file at the repo root parses and satisfies
/// the schema its `schema_version` declares.
#[test]
fn checked_in_bench_evidence_satisfies_the_schema() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut found = 0usize;
    for entry in std::fs::read_dir(root).expect("repo root readable") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).expect("evidence file readable");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: bad JSON: {e}"));
        let names = assert_bench_schema(&doc, &name);
        assert!(
            names.iter().any(|n| n == "execute_summary_fast_forward"),
            "{name}: evidence must include the acceptance-criteria summary scenario"
        );
        // Serve evidence starts at PR 6; from there every evidence file must
        // carry the serve block (the fields are validated above).
        let pr: u64 = name[6..name.len() - 5].parse().unwrap_or(0);
        if pr >= 6 {
            assert!(
                doc.get("serve").is_some(),
                "{name}: evidence from PR {pr} must include the serve block"
            );
        }
        found += 1;
    }
    assert!(found >= 1, "no BENCH_*.json evidence files found at {root}");
}
