//! Performance-regression gate over the checked-in bench evidence.
//!
//! CI's release job runs this (`cargo test --release -p rat-bench --test
//! perf_gate -- --ignored`): it produces a live `rat bench --quick --json`
//! report in-process and fails if any ratio that the newest `BENCH_<pr>.json`
//! evidence file also records has collapsed. The gate is deliberately loose —
//! quick sizes on shared CI runners are noisy — so it only catches a fast
//! path actually dying, not ordinary jitter:
//!
//! * size-stable ratios (the scalar-vs-batch uncertainty, kernel, explore,
//!   and telemetry families) must stay above **0.5×** their checked-in value;
//! * size-dependent ratios (listed in [`ABSOLUTE_FLOORS`] with the reason)
//!   sit below their full-size evidence at quick sizes by construction, so
//!   each is gated against an absolute floor chosen between its quick-size
//!   value and what a dead fast path would produce.

use rat_bench::hotbench;
use rat_core::telemetry::json::{self, Json};

/// Ratios whose value scales with problem size, gated by an absolute floor
/// rather than relative to the full-size evidence: fast-forward wins grow
/// with simulated iteration count (quick ~50×, full ~600×; a dead fast path
/// ~1×), and the clone-per-sample comparison amortizes the batch pipeline's
/// fixed cost over the sample count (quick ~2–4×, full ~5×; a dead batch
/// path ~0.3×).
const ABSOLUTE_FLOORS: [(&str, f64); 3] = [
    ("execute_summary_fast_forward_vs_exhaustive", 10.0),
    ("execute_summary_fast_forward_vs_full_trace", 10.0),
    ("uncertainty_batch_vs_clone_per_sample", 1.1),
];

const RELATIVE_FLOOR: f64 = 0.5;

/// The newest `BENCH_<pr>.json` at the repo root (highest PR number), parsed.
fn newest_evidence() -> (String, Json<'static>) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut newest: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(root).expect("repo root readable") {
        let name = entry
            .expect("dir entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        let Some(pr) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if newest.as_ref().is_none_or(|(best, _)| pr > *best) {
            newest = Some((pr, name));
        }
    }
    let (_, name) = newest.expect("at least one BENCH_<pr>.json evidence file");
    let text = std::fs::read_to_string(format!("{root}/{name}")).expect("evidence readable");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: bad JSON: {e}"));
    (name, doc.into_owned())
}

/// Ratio name → speedup from a bench report document.
fn ratios_of(doc: &Json) -> Vec<(String, f64)> {
    doc.get("ratios")
        .and_then(Json::as_array)
        .expect("ratios array")
        .iter()
        .map(|r| {
            let name = r.get("name").and_then(Json::as_str).expect("ratio name");
            let speedup = r
                .get("speedup")
                .and_then(Json::as_f64)
                .expect("ratio speedup");
            (name.to_string(), speedup)
        })
        .collect()
}

/// The serve acceptance criterion, pinned against the *checked-in* evidence
/// (no live timing, so this one is not `--ignored`): the newest evidence
/// file that records a serve block must show the warm server answering a
/// cached solve at least 10× faster at p50 than a cold CLI invocation.
#[test]
fn serve_evidence_shows_warm_server_at_least_10x_cold_cli() {
    let (name, doc) = newest_evidence();
    let serve = doc.get("serve").unwrap_or_else(|| {
        panic!("{name}: newest evidence has no serve block — run `rat bench --serve --json`")
    });
    let ratio = serve
        .get("warm_vs_cold")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name}: serve block missing warm_vs_cold"));
    assert!(
        ratio >= 10.0,
        "{name}: warm-server cached solve is only {ratio:.1}x a cold CLI run (need >= 10x)"
    );
}

/// The keep-alive transport acceptance criterion, pinned against the
/// checked-in evidence: the full serving path (persistent connections +
/// response cache + coalescing) must sustain at least 3x the throughput of
/// the close-per-request, cache-disabled baseline on the same mixed
/// duplicate-heavy workload.
#[test]
fn serve_evidence_shows_keepalive_at_least_3x_close_per_request() {
    let (name, doc) = newest_evidence();
    let Some(serve) = doc.get("serve") else {
        panic!("{name}: newest evidence has no serve block — run `rat bench --serve --json`")
    };
    let Some(ratio) = serve.get("keepalive_vs_close_rps").and_then(Json::as_f64) else {
        panic!(
            "{name}: serve block predates keepalive_vs_close_rps (schema v3) — \
             regenerate with `rat bench --serve --json`"
        )
    };
    assert!(
        ratio >= 3.0,
        "{name}: keep-alive serving is only {ratio:.2}x the close-per-request \
         baseline (need >= 3x)"
    );
    // The transport claim is only meaningful if connections were actually
    // reused; a broken keep-alive loop shows up here as a near-zero ratio.
    let reuse = serve
        .get("reuse_ratio")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name}: serve block missing reuse_ratio"));
    assert!(
        reuse >= 0.9,
        "{name}: keep-alive phase reused only {reuse:.3} of its requests' connections"
    );
}

/// The response-cache acceptance criterion, pinned against the checked-in
/// evidence: a repeated identical request on a warm connection must answer
/// at least 5x faster at p50 from the response cache than the uncached
/// recompute-every-time path.
#[test]
fn serve_evidence_shows_cached_repeats_at_least_5x_uncached() {
    let (name, doc) = newest_evidence();
    let Some(serve) = doc.get("serve") else {
        panic!("{name}: newest evidence has no serve block — run `rat bench --serve --json`")
    };
    let Some(ratio) = serve.get("warm_cached_speedup").and_then(Json::as_f64) else {
        panic!(
            "{name}: serve block predates warm_cached_speedup (schema v3) — \
             regenerate with `rat bench --serve --json`"
        )
    };
    assert!(
        ratio >= 5.0,
        "{name}: cached repeated requests are only {ratio:.2}x the uncached \
         path at p50 (need >= 5x)"
    );
}

/// The stage-graph acceptance criterion, pinned against the checked-in
/// evidence: a single-axis sweep through the staged kernel (comm terms
/// hoisted by the stage plan) must run at least 1.5x the eager per-point
/// comm recomputation it replaced.
#[test]
fn staged_sweep_evidence_shows_at_least_1_5x_over_eager() {
    let (name, doc) = newest_evidence();
    let ratios = ratios_of(&doc);
    let (_, speedup) = ratios
        .iter()
        .find(|(n, _)| n == "sweep_staged_vs_eager")
        .unwrap_or_else(|| {
            panic!(
                "{name}: evidence records no sweep_staged_vs_eager ratio — \
                 regenerate with `rat bench --serve --json`"
            )
        });
    assert!(
        *speedup >= 1.5,
        "{name}: staged sweep kernel is only {speedup:.2}x the eager baseline (need >= 1.5x)"
    );
}

/// The host block of the newest evidence file: (logical_cores, avx2). The
/// scaling and kernel gates are host-aware, so evidence without provenance
/// (schema v1) cannot be gated — regenerate it.
fn evidence_host(name: &str, doc: &Json) -> (u64, bool) {
    let host = doc.get("host").unwrap_or_else(|| {
        panic!("{name}: evidence has no host block — regenerate with `rat bench --serve --json`")
    });
    let cores = host
        .get("logical_cores")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name}: host.logical_cores missing")) as u64;
    let avx2 = matches!(host.get("avx2"), Some(Json::Bool(true)));
    (cores, avx2)
}

/// The job-scaling acceptance criterion, pinned against the checked-in
/// evidence: the Monte-Carlo uncertainty pipeline at 8 jobs vs 1 job.
///
/// The floor is tiered by the *recorded* core count, because the ratio is a
/// property of the machine the evidence was measured on, not of the code
/// alone. The issue's 3x target applies on hosts with >= 8 logical cores; on
/// the 1-core container this repo is grown in, true parallel speedup is
/// physically impossible, so the gate instead pins what the engine *can*
/// deliver there: 7 oversubscribed workers on a warm pool must cost almost
/// nothing (>= 0.75x, i.e. at most ~33% dispatch/context-switch overhead).
/// A collapsed dispatch path (per-job spawn, serialized collection) lands
/// well below every tier.
#[test]
fn job_scaling_evidence_meets_the_host_tiered_floor() {
    let (name, doc) = newest_evidence();
    let (cores, _) = evidence_host(&name, &doc);
    let ratios = ratios_of(&doc);
    let (_, speedup) = ratios
        .iter()
        .find(|(n, _)| n == "uncertainty_batch_scaling_8_vs_1")
        .unwrap_or_else(|| panic!("{name}: evidence records no uncertainty_batch_scaling_8_vs_1"));
    let floor = match cores {
        0..=1 => 0.75,
        2..=3 => 1.3,
        4..=7 => 2.0,
        _ => 3.0,
    };
    assert!(
        *speedup >= floor,
        "{name}: 8-job scaling is {speedup:.2}x on a {cores}-core host (floor {floor}x)"
    );
}

/// The SIMD-kernel acceptance criterion, pinned against the checked-in
/// evidence: the batched analytic speedup kernel vs the per-point scalar
/// driver. On an AVX2 host the vector path must carry the ratio to >= 6x;
/// without AVX2 the always-compiled scalar batch path still owes >= 3x from
/// decode hoisting and column reuse alone (BENCH_7 measured 3.74x pre-SIMD).
#[test]
fn kernel_evidence_meets_the_simd_floor() {
    let (name, doc) = newest_evidence();
    let (_, avx2) = evidence_host(&name, &doc);
    let ratios = ratios_of(&doc);
    let (_, speedup) = ratios
        .iter()
        .find(|(n, _)| n == "speedup_kernel_batch_vs_scalar")
        .unwrap_or_else(|| panic!("{name}: evidence records no speedup_kernel_batch_vs_scalar"));
    let floor = if avx2 { 6.0 } else { 3.0 };
    assert!(
        *speedup >= floor,
        "{name}: batch kernel is {speedup:.2}x scalar (avx2={avx2}, floor {floor}x)"
    );
}

/// The guided-search acceptance criterion, pinned against the checked-in
/// evidence (counts and model outputs, not wall time, so this one is not
/// `--ignored`): the cross-entropy `rat optimize` search must land within
/// 1% of the optimum an exhaustive `explore` grid finds over the same axes,
/// while spending at most a tenth of the evaluations.
#[test]
fn guided_search_evidence_matches_exhaustive_within_1pct_at_a_tenth_of_the_evals() {
    let (name, doc) = newest_evidence();
    let ratios = ratios_of(&doc);
    let (_, quality) = ratios
        .iter()
        .find(|(n, _)| n == "optimize_guided_quality_vs_exhaustive")
        .unwrap_or_else(|| {
            panic!(
                "{name}: evidence records no optimize_guided_quality_vs_exhaustive ratio — \
                 regenerate with `rat bench --serve --json`"
            )
        });
    assert!(
        *quality >= 0.99,
        "{name}: guided search reaches only {quality:.4}x the exhaustive optimum (need >= 0.99)"
    );
    // A quality ratio meaningfully above 1 would mean the \"exhaustive\"
    // grid missed the optimum — the baseline itself would be broken.
    assert!(
        *quality <= 1.0 + 1e-9,
        "{name}: guided search beat the exhaustive grid ({quality:.4}x) — grid too coarse"
    );
    let (_, budget) = ratios
        .iter()
        .find(|(n, _)| n == "optimize_eval_budget_exhaustive_vs_guided")
        .unwrap_or_else(|| {
            panic!("{name}: evidence records no optimize_eval_budget_exhaustive_vs_guided ratio")
        });
    assert!(
        *budget >= 10.0,
        "{name}: guided search used more than a tenth of the exhaustive budget \
         ({budget:.2} grid evals per guided eval, need >= 10)"
    );
}

#[test]
#[ignore = "perf gate: timing-sensitive; CI's release job runs it with --ignored"]
fn live_ratios_have_not_collapsed_against_checked_in_evidence() {
    let (evidence_name, evidence) = newest_evidence();
    let reference = ratios_of(&evidence);
    let live_report = hotbench::run(true);
    let live_text = live_report.to_json();
    let live = json::parse(&live_text).expect("live report JSON");
    let live = ratios_of(&live);

    let mut failures = Vec::new();
    let mut gated = 0usize;
    for (name, want) in &reference {
        let Some((_, got)) = live.iter().find(|(n, _)| n == name) else {
            // Evidence from an older PR may record ratios the current bench
            // no longer derives; renames are caught by the schema test.
            continue;
        };
        gated += 1;
        let floor = ABSOLUTE_FLOORS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| *f);
        if let Some(floor) = floor {
            if *got < floor {
                failures.push(format!(
                    "{name}: live {got:.2}x below absolute floor {floor}x"
                ));
            }
        } else if *got < RELATIVE_FLOOR * want {
            failures.push(format!(
                "{name}: live {got:.2}x below {RELATIVE_FLOOR} x checked-in {want:.2}x \
                 ({evidence_name})"
            ));
        }
    }
    assert!(
        gated >= 5,
        "gate compared only {gated} ratios — evidence or bench changed shape"
    );
    assert!(
        failures.is_empty(),
        "performance regression(s) detected:\n{}",
        failures.join("\n")
    );
}
