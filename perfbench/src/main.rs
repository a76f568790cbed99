//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --rat <path to release rat> --work <scratch dir>`
//!
//! Normally started through `perfbench/run.py`, which builds both binaries
//! first. Prints human-readable lines, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use rat_core::telemetry::Metric as Counter;
use rat_perfbench::client::metric;
use rat_perfbench::replay::{self, DesignTrace, ServeSizes, ServeTrace};
use rat_perfbench::{design, host, result_json, serve, stats, Metric, WORKLOADS};

/// Ops timed by a serve replay, and ops per telemetry on/off pass; the
/// cache budget is the daemon's.
fn serve_sizes(measured: u64, telemetry_ops: u64) -> ServeSizes {
    ServeSizes {
        budget: serve::cache_budget_bytes(),
        measured,
        telemetry_ops,
    }
}
/// design_search ops replayed in-process (half optimize, half explore).
const DESIGN_REPLAY: u64 = 24;

const SERVE_UNIQUE: &str = "serve_unique";
const SERVE_HOT: &str = "serve_hot";
const DESIGN_SEARCH: &str = "design_search";

/// Every per-layer metric in `BENCHMARK.json` order: name, unit, and the
/// workloads whose replay it is read from. A traced run of one of those
/// workloads reports its own replay's value; any other run reports the
/// first home's. An empty list marks the closure metrics, which are always
/// the run's own workload.
const PER_LAYER: [(&str, &str, &[&str]); 43] = [
    ("http.read_us", "us", &[SERVE_HOT]),
    ("http.write_us", "us", &[SERVE_HOT]),
    ("keys.raw_us", "us", &[SERVE_HOT]),
    ("keys.canonical_us", "us", &[SERVE_UNIQUE]),
    ("respcache.lookup_us", "us", &[SERVE_HOT]),
    ("respcache.fill_us", "us", &[SERVE_UNIQUE]),
    ("respcache.raw_hit_ratio", "ratio", &[SERVE_HOT]),
    (
        "respcache.canonical_hit_ratio",
        "ratio",
        &[SERVE_HOT, SERVE_UNIQUE],
    ),
    ("respcache.hits", "count", &[SERVE_HOT]),
    ("respcache.misses", "count", &[SERVE_UNIQUE]),
    ("respcache.mb", "MiB", &[SERVE_UNIQUE]),
    ("json.parse_us", "us", &[SERVE_UNIQUE]),
    ("worksheet.parse_us", "us", &[SERVE_UNIQUE]),
    ("api.compute_us.solve", "us", &[SERVE_UNIQUE]),
    ("api.compute_us.sweep", "us", &[SERVE_UNIQUE]),
    ("api.compute_us.sensitivity", "us", &[SERVE_UNIQUE]),
    ("api.compute_us.uncertainty", "us", &[SERVE_UNIQUE]),
    ("api.compute_us.explore", "us", &[SERVE_UNIQUE]),
    ("api.compute_us.simulate", "us", &[SERVE_UNIQUE]),
    ("api.render_us", "us", &[SERVE_UNIQUE]),
    ("coalesce.solve_us", "us", &[SERVE_UNIQUE]),
    ("coalesce.requests_per_batch", "count", &[SERVE_UNIQUE]),
    ("queue.high_water", "count", &[SERVE_UNIQUE, SERVE_HOT]),
    ("telemetry.overhead_us", "us", &[SERVE_UNIQUE, SERVE_HOT]),
    ("sim.us_per_run", "us", &[SERVE_UNIQUE]),
    ("sim.ns_per_event", "ns", &[SERVE_UNIQUE]),
    ("sim.events", "count", &[SERVE_UNIQUE]),
    ("simcache.entries", "count", &[SERVE_UNIQUE]),
    ("optimize.us", "us", &[DESIGN_SEARCH]),
    ("optimize.fold_us", "us", &[DESIGN_SEARCH]),
    ("optimize.evals", "count", &[DESIGN_SEARCH]),
    ("optimize.front_size", "count", &[DESIGN_SEARCH]),
    ("explore.us_per_corner", "us", &[DESIGN_SEARCH]),
    ("stage.hit_ratio", "ratio", &[DESIGN_SEARCH, SERVE_UNIQUE]),
    ("stage.hits", "count", &[DESIGN_SEARCH, SERVE_UNIQUE]),
    ("stage.misses", "count", &[DESIGN_SEARCH, SERVE_UNIQUE]),
    ("engine.jobs", "count", &[DESIGN_SEARCH]),
    ("engine.dispatch_us", "us", &[DESIGN_SEARCH]),
    ("batch.ns_per_point", "ns", &[DESIGN_SEARCH]),
    ("cli.overhead_us", "us", &[DESIGN_SEARCH]),
    ("layers.sum_us", "us", &[]),
    ("layers.cpu_us_per_op", "us", &[]),
    ("layers.unattributed_us", "us", &[]),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rat: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rat = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--rat" => rat = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        rat: rat.ok_or("--rat is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    if !args.rat.is_file() {
        return Err(format!("no rat binary at {}", args.rat.display()));
    }
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let before = host::reading();
    let (e2e, cli_runs) = match args.workload.as_str() {
        "serve_unique" => (
            serve::run(&args.rat, args.seed, args.seconds, false),
            Vec::new(),
        ),
        "serve_hot" => (
            serve::run(&args.rat, args.seed, args.seconds, true),
            Vec::new(),
        ),
        _ => match design::run(&args.rat, &args.work, args.seed, args.seconds) {
            Ok((e, runs)) => (Ok(e), runs),
            Err(e) => (Err(e), Vec::new()),
        },
    };
    let e2e = e2e.map_err(|e| format!("{}: {e}", args.workload))?;
    let after = host::reading();

    for note in &e2e.notes {
        println!("{note}");
    }
    println!(
        "host: steal ticks {} -> {} (+{}), calibration loop {:.2} ms -> {:.2} ms",
        before.steal_ticks,
        after.steal_ticks,
        after.steal_ticks.saturating_sub(before.steal_ticks),
        before.calibration_ms,
        after.calibration_ms
    );
    println!(
        "ops: attempted {}, ok {}, failed {}, window {:.3} s",
        e2e.attempted, e2e.ok, e2e.failed, e2e.wall_s
    );
    let rates: Vec<f64> = e2e.slices.iter().map(|s| s.ok as f64 / s.wall_s).collect();
    println!(
        "slices: {} of the window; ops/s min {:.1} median {:.1} max {:.1}; whole window {:.1} ops/s, {:.2} us CPU/op",
        rates.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&rates),
        rates.iter().copied().fold(0.0, f64::max),
        e2e.ok as f64 / e2e.wall_s,
        if e2e.ok > 0 { e2e.cpu_s * 1e6 / e2e.ok as f64 } else { 0.0 }
    );
    println!(
        "slice ops/s: {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(err) = &e2e.first_error {
        println!("first failure: {err}");
    }
    let end_to_end = e2e.metrics();
    for (name, value, unit) in &end_to_end {
        println!("e2e {name:<16} {value:>14.4} {unit}");
    }
    let sorted = e2e.sorted_latencies();
    match stats::tail(&sorted) {
        Some((label, ns, beyond)) => println!(
            "tail latency {label} {:.1} us ({beyond} of {} samples beyond it; not an end-to-end metric)",
            ns as f64 / 1e3,
            sorted.len()
        ),
        None => println!("tail latency: fewer than 100 samples"),
    }
    if let Some(text) = &e2e.metrics_text {
        println!(
            "daemon /metrics: queue high water {}, coalesced batches {}, coalesced requests {}, \
             response-cache hits {}, misses {}",
            metric(text, "serve_queue_depth_high_water").unwrap_or(0.0),
            metric(text, "pipeline_coalesce_batches").unwrap_or(0.0),
            metric(text, "pipeline_coalesce_requests").unwrap_or(0.0),
            metric(text, "pipeline_cache_response_hits").unwrap_or(0.0),
            metric(text, "pipeline_cache_response_misses").unwrap_or(0.0),
        );
    }

    let e2e_correct = e2e.failed == 0 && e2e.ok > 0;
    if !args.trace {
        return Ok(result_json(
            e2e_correct,
            e2e.attempted,
            e2e.failed,
            &end_to_end,
        ));
    }

    // Every layer is replayed in every traced run, so each per-layer metric
    // is a fresh measurement on its home workload's ops.
    let mut layers: BTreeMap<&str, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut replayed = 0;
    let mut mismatches = 0;
    for w in WORKLOADS {
        let own = (w == args.workload).then_some(&e2e);
        let (values, ops, bad, first) = if w == DESIGN_SEARCH {
            let cli = if own.is_some() {
                cli_runs
                    .iter()
                    .map(|r| (r.stdout.clone(), r.wall_ns))
                    .collect()
            } else {
                design::first_ops(&args.rat, &args.work, args.seed, DESIGN_REPLAY)
                    .map_err(|e| format!("design_search CLI ops: {e}"))?
            };
            let t = replay::design(args.seed, DESIGN_REPLAY, &cli)?;
            println!(
                "replay {w}: {} ops ({} optimize, {} explore), {} paired with CLI runs",
                t.ops,
                t.optimize_ops,
                t.explore_ops,
                t.cli_overhead_us.len()
            );
            (design_layers(&t), t.ops, t.mismatches, t.first_mismatch)
        } else {
            let t = if w == SERVE_HOT {
                replay::serve_hot(args.seed, serve_sizes(100_000, 50_000))?
            } else {
                replay::serve_unique(args.seed, serve_sizes(20_000, 2_000))?
            };
            println!(
                "replay {w}: {} warm-up ops, {} timed ops, response cache {:.1} MiB in {} entries",
                t.warmup_ops,
                t.measured,
                t.cache_bytes as f64 / (1 << 20) as f64,
                t.cache_entries
            );
            let text = own.and_then(|e| e.metrics_text.as_deref()).unwrap_or("");
            (
                serve_layers(&t, text),
                t.measured,
                t.mismatches,
                t.first_mismatch,
            )
        };
        if let Some(m) = first {
            println!("replay {w}: first mismatch: {m}");
        }
        replayed += ops;
        mismatches += bad;
        layers.insert(w, values);
    }

    let own = &layers[args.workload.as_str()];
    let sum = own.get("layers.sum_us").copied().unwrap_or(0.0);
    let cpu = e2e.cpu_us_per_op();
    let per_layer: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, homes)| {
            let value = match name {
                "layers.sum_us" => sum,
                "layers.cpu_us_per_op" => cpu,
                "layers.unattributed_us" => cpu - sum,
                _ => layers[home(homes, &args.workload)]
                    .get(name)
                    .copied()
                    .unwrap_or(0.0),
            };
            (name, value, unit)
        })
        .collect();
    for ((name, value, unit), (_, _, homes)) in per_layer.iter().zip(PER_LAYER) {
        let home = home(homes, &args.workload);
        println!("layer {name:<30} {value:>14.4} {unit:<6} [{home}]");
    }
    println!(
        "closure ({}): layers sum {sum:.2} us/op vs e2e cpu_us_per_op {cpu:.2} us/op; \
         unattributed {:.2} us/op ({:.1}% of cpu: syscalls, wake-ups, process start)",
        args.workload,
        cpu - sum,
        if cpu > 0.0 {
            (cpu - sum) / cpu * 100.0
        } else {
            0.0
        }
    );
    Ok(result_json(
        e2e_correct && mismatches == 0,
        e2e.attempted + replayed,
        e2e.failed + mismatches,
        &per_layer,
    ))
}

/// The workload a per-layer metric is read from in a run of `workload`.
fn home<'a>(homes: &[&'a str], workload: &'a str) -> &'a str {
    match homes.first() {
        Some(first) if !homes.contains(&workload) => first,
        _ => workload,
    }
}

/// Per-layer values of a serve replay; `/metrics` figures come from `text`,
/// the daemon of this run's end-to-end window (empty for other workloads).
fn serve_layers(t: &ServeTrace, text: &str) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, f64> = t
        .layers
        .iter()
        .map(|(name, acc)| (*name, acc.us()))
        .collect();
    let m = |name: &str| metric(text, name).unwrap_or(0.0);
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let runs = t.counts.get(Counter::SimRuns) as f64;
    let events = t.counts.get(Counter::SimEvents) as f64;
    let (hits, misses) = (
        t.counts.get(Counter::StageHits) as f64,
        t.counts.get(Counter::StageMisses) as f64,
    );
    values.extend([
        ("respcache.raw_hit_ratio", t.raw_hit_ratio),
        ("respcache.canonical_hit_ratio", t.canonical_hit_ratio),
        (
            "respcache.hits",
            t.counts.get(Counter::ResponseCacheHits) as f64,
        ),
        (
            "respcache.misses",
            t.counts.get(Counter::ResponseCacheMisses) as f64,
        ),
        ("respcache.mb", t.cache_bytes as f64 / (1 << 20) as f64),
        (
            "coalesce.requests_per_batch",
            per(
                m("pipeline_coalesce_requests"),
                m("pipeline_coalesce_batches"),
            ),
        ),
        ("queue.high_water", m("serve_queue_depth_high_water")),
        ("telemetry.overhead_us", t.telemetry_overhead_us),
        ("sim.us_per_run", per(t.simulate_ns as f64, runs) / 1e3),
        ("sim.ns_per_event", per(t.simulate_ns as f64, events)),
        ("sim.events", events),
        ("simcache.entries", t.simcache_entries as f64),
        ("stage.hit_ratio", per(hits, hits + misses)),
        ("stage.hits", hits),
        ("stage.misses", misses),
        ("engine.jobs", t.counts.get(Counter::EngineJobs) as f64),
        ("layers.sum_us", t.layer_sum_us),
    ]);
    values
}

fn design_layers(t: &DesignTrace) -> BTreeMap<&'static str, f64> {
    let overhead = if t.cli_overhead_us.is_empty() {
        0.0
    } else {
        t.cli_overhead_us.iter().sum::<f64>() / t.cli_overhead_us.len() as f64
    };
    BTreeMap::from([
        ("optimize.us", t.optimize_us),
        ("optimize.fold_us", t.fold_us),
        ("optimize.evals", t.evals_per_op),
        ("optimize.front_size", t.front_per_op),
        ("explore.us_per_corner", t.explore_us_per_corner),
        ("stage.hit_ratio", t.stage_hit_ratio),
        ("stage.hits", t.counts.get(Counter::StageHits) as f64),
        ("stage.misses", t.counts.get(Counter::StageMisses) as f64),
        ("engine.jobs", t.counts.get(Counter::EngineJobs) as f64),
        ("engine.dispatch_us", t.dispatch_us),
        ("batch.ns_per_point", t.batch_ns_per_point),
        ("cli.overhead_us", overhead),
        ("layers.sum_us", t.library_us),
    ])
}
