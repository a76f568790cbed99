//! Hot-path micro-benchmarks behind `rat bench`.
//!
//! Each scenario times one of the hot paths this workspace optimizes —
//! fast-forwarded summary simulation, trace-free sinks, and the batched SoA
//! sweep/Monte-Carlo kernels — next to the exhaustive, scalar, or cloning
//! baseline it replaced. The baselines reproduce the unoptimized code paths exactly
//! (full event-by-event simulation, one input clone per sample, one full
//! report per corner), so the reported ratios are the real win, not a straw
//! man. `rat bench --json` emits the machine-readable form checked in as
//! `BENCH_<pr>.json` evidence.

use std::time::{Duration, Instant};

use fpga_sim::{catalog, AppRun, BufferMode, FastForward, Platform, TabulatedKernel};
use rand::distributions::{Distribution, Uniform};
use rat_core::engine::{job_rng, Engine, EngineConfig};
use rat_core::explore::{explore, DesignSpace};
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{Buffering, RatInput};
use rat_core::quantity::Freq;
use rat_core::resources::device::stratix2_ep2s180;
use rat_core::solve::batch::{speedup_batch, BatchPoints, CHUNK as BATCH_CHUNK};
use rat_core::sweep::SweepParam;
use rat_core::table::TextTable;
use rat_core::uncertainty::{propagate, propagate_with, ParamRange};
use rat_core::worksheet::Worksheet;

/// One timed scenario.
#[derive(Debug, Clone)]
pub struct BenchScenario {
    /// Machine-friendly scenario identifier.
    pub name: &'static str,
    /// Problem size (simulated iterations, Monte-Carlo samples, or corners).
    pub work: u64,
    /// Number of repetitions timed.
    pub reps: u32,
    /// Total wall time across all repetitions.
    pub total: Duration,
}

impl BenchScenario {
    /// Mean wall time per repetition, in nanoseconds.
    pub fn ns_per_rep(&self) -> u128 {
        self.total.as_nanos() / u128::from(self.reps.max(1))
    }
}

/// A fast-path/baseline speedup derived from two scenarios.
#[derive(Debug, Clone)]
pub struct BenchRatio {
    /// What is being compared.
    pub name: &'static str,
    /// Baseline wall time divided by fast-path wall time (per repetition).
    pub speedup: f64,
}

/// Version of the JSON shape emitted by [`BenchReport::to_json`]. Bump when
/// a field is renamed, retyped, or removed, or a required top-level block is
/// added — adding scenarios, ratios, or the optional `serve` block is not a
/// schema change. Checked-in `BENCH_<pr>.json` evidence files carry the
/// version they were produced with and are validated against *that* shape.
///
/// - **v1**: `schema_version`, `quick`, `scenarios[]`, `ratios[]`, optional
///   `serve{}`.
/// - **v2**: adds the required `host{}` provenance block (logical cores,
///   avx2/fma feature flags, rustc version) so perf gates can scale their
///   floors to the machine that produced the evidence.
/// - **v3**: the `serve{}` block grows the keep-alive transport and response
///   cache evidence: `close_requests`, `close_rps`,
///   `keepalive_vs_close_rps`, `reuse_ratio`, `connect_p50_us`,
///   `warm_uncached_p50_us`, `warm_cached_p50_us`, `warm_cached_speedup`.
pub const SCHEMA_VERSION: u64 = 3;

/// Provenance of a benchmark run: the hardware capabilities and compiler
/// that produced the numbers. Evidence without this context is ambiguous —
/// a flat `uncertainty_batch_scaling_8_vs_1` means a regression on an
/// 8-core host and is expected on a 1-core one, and kernel ratios depend on
/// whether the AVX2 path could run at all.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPU count visible to the process.
    pub logical_cores: u64,
    /// Whether AVX2 was detected (the batch kernels' SIMD path).
    pub avx2: bool,
    /// Whether FMA was detected (recorded for provenance; the kernels avoid
    /// FMA contraction for bit-identity, see DESIGN.md §16).
    pub fma: bool,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
}

impl HostInfo {
    /// Detect the current host.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        HostInfo {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            avx2,
            fma,
            rustc: env!("RAT_BENCH_RUSTC").to_string(),
        }
    }
}

/// Server-side load-generation results, attached by `rat bench --serve`.
/// Plain data here (the measuring code lives in `rat-serve`, which depends
/// on nothing in this crate) so the report can serialize it without a
/// dependency cycle. All latencies in microseconds.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Mixed-mode keep-alive requests completed against the warm server.
    pub requests: u64,
    /// Mixed-mode keep-alive throughput, requests per second.
    pub rps: f64,
    /// Close-per-request baseline requests (response cache disabled).
    pub close_requests: u64,
    /// Close-per-request baseline throughput, requests per second.
    pub close_rps: f64,
    /// `rps / close_rps` — the serving-path overhaul's throughput ratio,
    /// gated ≥ 3x by the perf gate.
    pub keepalive_vs_close_rps: f64,
    /// Fraction of keep-alive requests that reused an existing connection.
    pub reuse_ratio: f64,
    /// Median `connect()` time across the load phases.
    pub connect_p50_us: f64,
    /// Mixed-mode median latency.
    pub p50_us: f64,
    /// Mixed-mode 99th-percentile latency.
    pub p99_us: f64,
    /// Mixed-mode 99.9th-percentile latency.
    pub p999_us: f64,
    /// p50 of one identical request repeated against the uncached server.
    pub warm_uncached_p50_us: f64,
    /// p50 of the same repeated request served from the response cache.
    pub warm_cached_p50_us: f64,
    /// `warm_uncached_p50_us / warm_cached_p50_us` — gated ≥ 5x.
    pub warm_cached_speedup: f64,
    /// p50 of a cached `solve` against the warm server.
    pub warm_solve_p50_us: f64,
    /// p50 of a cold `rat solve` process invocation.
    pub cold_cli_solve_p50_us: f64,
    /// Cold-CLI p50 over warm-server p50 — the resident-service speedup the
    /// perf gate pins at ≥ 10x.
    pub warm_vs_cold: f64,
}

/// The full benchmark outcome: every scenario plus the derived ratios.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether the reduced `--quick` problem sizes were used.
    pub quick: bool,
    /// The machine and compiler that produced these numbers.
    pub host: HostInfo,
    /// All timed scenarios, in execution order.
    pub scenarios: Vec<BenchScenario>,
    /// Fast-vs-baseline ratios, in presentation order.
    pub ratios: Vec<BenchRatio>,
    /// Server load-generation results when `--serve` ran, else `None`.
    pub serve: Option<ServeBench>,
}

impl BenchReport {
    /// Render a human-readable summary table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title(if self.quick {
                "Hot-path benchmarks (quick sizes — ratios not meaningful)".to_string()
            } else {
                "Hot-path benchmarks".to_string()
            })
            .header(["Scenario", "work", "reps", "ns/rep"]);
        for s in &self.scenarios {
            t.row([
                s.name.to_string(),
                s.work.to_string(),
                s.reps.to_string(),
                s.ns_per_rep().to_string(),
            ]);
        }
        let mut out = t.render();
        for r in &self.ratios {
            out.push_str(&format!("{}: {:.2}x\n", r.name, r.speedup));
        }
        out.push_str(&format!(
            "host: {} logical cores, avx2={}, fma={}, {}\n",
            self.host.logical_cores, self.host.avx2, self.host.fma, self.host.rustc
        ));
        if let Some(s) = &self.serve {
            out.push_str(&format!(
                "serve: {} keep-alive requests at {:.0} req/s; p50 {:.0} us | p99 {:.0} us | p999 {:.0} us\n\
                 serve_keepalive_vs_close_rps: {:.1}x ({:.0} req/s keep-alive vs {:.0} req/s close, reuse {:.3}, connect p50 {:.0} us)\n\
                 serve_warm_cached_speedup: {:.1}x ({:.0} us uncached vs {:.0} us cached)\n\
                 serve_warm_solve_vs_cold_cli: {:.1}x ({:.0} us warm vs {:.0} us cold)\n",
                s.requests,
                s.rps,
                s.p50_us,
                s.p99_us,
                s.p999_us,
                s.keepalive_vs_close_rps,
                s.rps,
                s.close_rps,
                s.reuse_ratio,
                s.connect_p50_us,
                s.warm_cached_speedup,
                s.warm_uncached_p50_us,
                s.warm_cached_p50_us,
                s.warm_vs_cold,
                s.warm_solve_p50_us,
                s.cold_cli_solve_p50_us,
            ));
        }
        out
    }

    /// Render as JSON (hand-rolled; every field is numeric, boolean, or a
    /// known-safe identifier — the one free-form string, the rustc version,
    /// is sanitized of quotes and backslashes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        let rustc: String = self
            .host
            .rustc
            .chars()
            .filter(|c| *c != '"' && *c != '\\')
            .collect();
        out.push_str(&format!(
            "  \"host\": {{\"logical_cores\": {}, \"avx2\": {}, \"fma\": {}, \"rustc\": \"{}\"}},\n",
            self.host.logical_cores, self.host.avx2, self.host.fma, rustc
        ));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"work\": {}, \"reps\": {}, \"total_ns\": {}, \"ns_per_rep\": {}}}{comma}\n",
                s.name,
                s.work,
                s.reps,
                s.total.as_nanos(),
                s.ns_per_rep()
            ));
        }
        out.push_str("  ],\n  \"ratios\": [\n");
        for (i, r) in self.ratios.iter().enumerate() {
            let comma = if i + 1 < self.ratios.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"speedup\": {:.2}}}{comma}\n",
                r.name, r.speedup
            ));
        }
        out.push_str("  ]");
        if let Some(s) = &self.serve {
            out.push_str(&format!(
                ",\n  \"serve\": {{\n    \"requests\": {}, \"rps\": {:.1},\n    \
                 \"close_requests\": {}, \"close_rps\": {:.1},\n    \
                 \"keepalive_vs_close_rps\": {:.2},\n    \
                 \"reuse_ratio\": {:.4}, \"connect_p50_us\": {:.1},\n    \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1},\n    \
                 \"warm_uncached_p50_us\": {:.1}, \"warm_cached_p50_us\": {:.1},\n    \
                 \"warm_cached_speedup\": {:.2},\n    \
                 \"warm_solve_p50_us\": {:.1}, \"cold_cli_solve_p50_us\": {:.1},\n    \
                 \"warm_vs_cold\": {:.2}\n  }}",
                s.requests,
                s.rps,
                s.close_requests,
                s.close_rps,
                s.keepalive_vs_close_rps,
                s.reuse_ratio,
                s.connect_p50_us,
                s.p50_us,
                s.p99_us,
                s.p999_us,
                s.warm_uncached_p50_us,
                s.warm_cached_p50_us,
                s.warm_cached_speedup,
                s.warm_solve_p50_us,
                s.cold_cli_solve_p50_us,
                s.warm_vs_cold,
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Time `reps` calls of `f`, three rounds, keeping the fastest round —
/// min-of-k discards one-off scheduler noise, which on a busy machine can
/// dwarf the effect being measured.
fn time<R>(reps: u32, mut f: impl FnMut() -> R) -> Duration {
    let mut best: Option<Duration> = None;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        best = Some(best.map_or(elapsed, |b| b.min(elapsed)));
    }
    best.expect("at least one round")
}

/// The pre-batching Monte-Carlo pipeline, preserved in full as the scalar
/// baseline: samples evaluated in 1024-sample chunks, each drawing from its
/// own `job_rng(seed, j)` stream, restoring a scratch input, applying the
/// sampled parameters in place, and computing the speedup per point — then
/// the same mean/variance/order-statistic summary `propagate` computes. Its
/// output is bit-identical to `propagate`'s; only the per-point evaluation
/// strategy (scalar loop vs SoA batch kernel) differs.
fn uncertainty_scalar_chunked_baseline(
    engine: &Engine,
    input: &RatInput,
    ranges: &[ParamRange],
    samples: usize,
    seed: u64,
) -> (f64, f64) {
    const CHUNK: usize = 1024;
    let dists: Vec<(SweepParam, Uniform<f64>)> = ranges
        .iter()
        .map(|r| (r.param, Uniform::new_inclusive(r.lo, r.hi)))
        .collect();
    let chunks = samples.div_ceil(CHUNK);
    let per_chunk = engine
        .try_run(chunks, |c| {
            let lo = c * CHUNK;
            let hi = (lo + CHUNK).min(samples);
            let mut scratch = input.clone();
            let mut out = Vec::with_capacity(hi - lo);
            for j in lo..hi {
                let mut rng = job_rng(seed, j as u64);
                scratch.copy_params_from(input);
                for (param, dist) in &dists {
                    param.apply_into(&mut scratch, dist.sample(&mut rng))?;
                }
                scratch.validate()?;
                out.push(rat_core::throughput::speedup(&scratch));
            }
            Ok::<_, rat_core::RatError>(out)
        })
        .expect("bench ranges are valid");
    let mut speedups: Vec<f64> = Vec::with_capacity(samples);
    for chunk in &per_chunk {
        speedups.extend_from_slice(chunk);
    }
    let n = speedups.len();
    let mean = speedups.iter().sum::<f64>() / n as f64;
    let var = speedups.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
    let mut pick = |q: f64| {
        let k = (((n - 1) as f64) * q).round() as usize;
        *speedups.select_nth_unstable_by(k, f64::total_cmp).1
    };
    let (_p5, _p50, _p95) = (pick(0.05), pick(0.50), pick(0.95));
    (mean, var.sqrt())
}

/// The unoptimized Monte-Carlo pipeline, preserved in full as a baseline:
/// one engine job per sample, one input clone per parameter application,
/// full validation per draw, then the same sort and summary statistics
/// `propagate` computes. Its output is bit-identical to `propagate`'s — only
/// the cost differs.
fn uncertainty_cloning_baseline(
    engine: &Engine,
    input: &RatInput,
    ranges: &[ParamRange],
    samples: usize,
    seed: u64,
) -> (f64, f64) {
    let dists: Vec<(SweepParam, Uniform<f64>)> = ranges
        .iter()
        .map(|r| (r.param, Uniform::new_inclusive(r.lo, r.hi)))
        .collect();
    let mut speedups = engine
        .try_run(samples, |j| {
            let mut rng = job_rng(seed, j as u64);
            let mut candidate = input.clone();
            for (param, dist) in &dists {
                candidate = param.apply(&candidate, dist.sample(&mut rng))?;
            }
            candidate.validate()?;
            Ok::<_, rat_core::RatError>(rat_core::throughput::speedup(&candidate))
        })
        .expect("bench ranges are valid");
    speedups.sort_by(f64::total_cmp);
    let n = speedups.len();
    let mean = speedups.iter().sum::<f64>() / n as f64;
    let var = speedups.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
    (mean, var.sqrt())
}

/// The unoptimized exploration loop, preserved as a baseline: every corner
/// gets a cloned, name-formatted input and a full report, pass or fail.
fn explore_eager_baseline(space: &DesignSpace, min_speedup: f64) -> usize {
    let mut passing = 0usize;
    for corner in space.corners() {
        let report = Worksheet::new(corner).analyze().expect("valid corner");
        if report.speedup >= min_speedup {
            passing += 1;
        }
    }
    passing
}

/// Run every scenario and compute the ratios. `quick` shrinks problem sizes
/// and repetition counts so debug-mode test runs stay fast; quick ratios are
/// reported but not meaningful.
pub fn run(quick: bool) -> BenchReport {
    let (iters, samples, reps_sim, reps_mc, reps_explore) = if quick {
        (300u64, 100usize, 2u32, 1u32, 5u32)
    } else {
        (10_000u64, 10_000usize, 30u32, 5u32, 200u32)
    };
    // The fast-forwarded summary finishes in microseconds, so it (and its
    // telemetry-enabled twin) need far more repetitions than the
    // millisecond-scale scenarios for a stable per-rep figure.
    let reps_sim_fast = if quick { 20u32 } else { 3_000u32 };

    // Scenario family 1: the 10k-iteration double-buffered summary run the
    // acceptance criteria name — fast-forward + NullSink vs the exhaustive
    // event-by-event simulation vs the full-trace measurement.
    let spec = catalog::nallatech_h101();
    let kernel = TabulatedKernel::uniform("bench-k", 20_000, iters as usize);
    let run = AppRun::builder()
        .iterations(iters)
        .elements_per_iter(512)
        .input_bytes_per_iter(2048)
        .output_bytes_per_iter(1024)
        .buffer_mode(BufferMode::Double)
        .build();
    let fclock = Freq::from_mhz(150.0);
    let fast = Platform::new(spec.clone());
    let slow = Platform::new(spec.clone()).with_fast_forward(FastForward::Off);

    // The summary path finishes in microseconds, so the very first timed
    // scenario would otherwise absorb process cold-start (page faults,
    // frequency ramp) that dwarfs the effect measured. Warm it untimed.
    for _ in 0..5 {
        std::hint::black_box(fast.execute_summary(&kernel, &run, fclock, None).unwrap());
    }
    let t_summary_ff = time(reps_sim_fast, || {
        fast.execute_summary(&kernel, &run, fclock, None).unwrap()
    });
    let t_summary_exh = time(reps_sim, || {
        slow.execute_summary(&kernel, &run, fclock, None).unwrap()
    });
    let t_full_trace = time(reps_sim.div_ceil(4), || {
        fast.execute(&kernel, &run, fclock).unwrap()
    });

    // Scenario family 2: the 10k-sample Monte-Carlo run — the batched SoA
    // path inside `propagate` vs the pre-batching chunked scalar loop and
    // the clone-per-sample baseline, all on the sequential engine, then the
    // batched path again across a 1/2/4/8-worker ladder. All variants
    // produce bit-identical reports; only the evaluation strategy differs.
    let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    let ranges = [
        ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6),
        ParamRange::new(SweepParam::ThroughputProc, 16.0, 24.0),
    ];
    let sequential = Engine::sequential();
    let t_mc_scalar = time(reps_mc, || {
        uncertainty_scalar_chunked_baseline(&sequential, &input, &ranges, samples, 7)
    });
    let t_mc_cloning = time(reps_mc, || {
        uncertainty_cloning_baseline(&sequential, &input, &ranges, samples, 7)
    });
    let t_mc_batch = time(reps_mc, || propagate(&input, &ranges, samples, 7).unwrap());
    let jobs_ladder = [1usize, 2, 4, 8];
    let t_mc_batch_jobs: Vec<Duration> = jobs_ladder
        .iter()
        .map(|&jobs| {
            let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
            time(reps_mc, || {
                propagate_with(&engine, &input, &ranges, samples, 7).unwrap()
            })
        })
        .collect();

    // Scenario family 2a: the SoA kernel in isolation — one CHUNK-point
    // batch through `speedup_batch` vs the same points through the scalar
    // scratch-and-apply loop. This is the pure per-point win, free of RNG
    // draws and statistics.
    let kernel_points: Vec<f64> = (0..BATCH_CHUNK)
        .map(|i| 75.0e6 + 75.0e6 * (i as f64 / BATCH_CHUNK as f64))
        .collect();
    let reps_kernel = if quick { 20u32 } else { 2_000u32 };
    let t_kernel_batch = time(reps_kernel, || {
        // Borrow the column, as every chunked driver does — cloning here
        // would charge an 8 KiB alloc+memcpy to a kernel that no caller
        // pays for.
        let mut batch = BatchPoints::new(&input, kernel_points.len());
        batch.push_column(SweepParam::Fclock, kernel_points.as_slice());
        speedup_batch(&batch).unwrap()
    });
    let t_kernel_scalar = time(reps_kernel, || {
        let mut scratch = input.clone();
        let mut acc = 0.0;
        for &v in &kernel_points {
            scratch.copy_params_from(&input);
            SweepParam::Fclock.apply_into(&mut scratch, v).unwrap();
            scratch.validate().unwrap();
            acc += rat_core::throughput::speedup(&scratch);
        }
        acc
    });

    // Scenario family 2c: the staged sweep kernel. A single-axis fclock
    // sweep's stage plan proves the communication terms uniform, so the
    // kernel hoists both comm divides out of the point loop (the batched
    // face of the comm-stage skip). The baseline is the pre-stage-graph
    // eager kernel — forced here by adding a broadcast `alpha_write` column
    // at the base value, which marks the comm stage varied and sends the
    // same `speedup_batch` call down the general per-point loop exactly as
    // every sweep ran before the stage plan existed. Outputs are
    // bit-identical; only the per-point arithmetic differs.
    let sweep_points: Vec<f64> = (0..BATCH_CHUNK)
        .map(|i| 75.0e6 + 75.0e6 * (i as f64 / BATCH_CHUNK as f64))
        .collect();
    let alpha_broadcast = vec![input.comm.alpha_write; BATCH_CHUNK];
    let t_sweep_staged = time(reps_kernel, || {
        let mut batch = BatchPoints::new(&input, sweep_points.len());
        batch.push_column(SweepParam::Fclock, sweep_points.as_slice());
        speedup_batch(&batch).unwrap()
    });
    let t_sweep_eager = time(reps_kernel, || {
        let mut batch = BatchPoints::new(&input, sweep_points.len());
        batch.push_column(SweepParam::Fclock, sweep_points.as_slice());
        batch.push_column(SweepParam::AlphaWrite, alpha_broadcast.as_slice());
        speedup_batch(&batch).unwrap()
    });

    // Scenario family 2b: the observability layer's cost on the same summary
    // run — identical work with span recording enabled next to
    // `execute_summary_fast_forward`, whose path records no spans (one
    // relaxed atomic load per run, plus one relaxed atomic per counter
    // call, which both paths pay). The *disabled* path's overhead vs
    // pre-instrumentation builds is tracked across the checked-in
    // BENCH_*.json files on that same scenario; see DESIGN.md §12.
    let tel = rat_core::telemetry::global();
    let was_enabled = tel.is_enabled();
    if !was_enabled {
        tel.enable();
    }
    let t_summary_tel = time(reps_sim_fast, || {
        fast.execute_summary(&kernel, &run, fclock, None).unwrap()
    });
    if !was_enabled {
        // Discard the spans this scenario recorded so a later `--metrics`
        // drain in the same process doesn't include bench noise.
        tel.disable();
        let _ = tel.drain();
    }

    // Scenario family 3: design-space exploration — two-phase gating with the
    // scalar speedup vs a full named report per corner.
    let space = DesignSpace {
        base: input.clone(),
        fclocks: vec![75.0e6, 100.0e6, 150.0e6],
        throughput_procs: vec![10.0, 20.0, 24.0],
        bufferings: vec![Buffering::Single, Buffering::Double],
    };
    let corners = space.size() as u64;
    let t_explore_two_phase = time(reps_explore, || explore(&space, 10.0).unwrap());
    let t_explore_eager = time(reps_explore, || explore_eager_baseline(&space, 10.0));

    // Scenario family 4: the guided cross-entropy search vs an exhaustive
    // grid over the same axes — the `rat optimize` acceptance comparison.
    // The space pins an oversized device (Stratix-II EP2S180) so the
    // resource gate never truncates the achievable optimum, making the
    // exhaustive `explore` grid (which has no resource gate) a fair
    // baseline. The derived ratios record search *quality* (guided best /
    // exhaustive best, gated >= 0.99) and the evaluation *budget*
    // (exhaustive grid size / guided evals, gated >= 10) — both read from
    // the checked-in evidence by the non-ignored perf gate.
    let (opt_gens, opt_pop, grid_fclocks, grid_tps) = if quick {
        (4u32, 32usize, 16usize, 40usize)
    } else {
        (12u32, 128usize, 128usize, 64usize)
    };
    let reps_opt = if quick { 2u32 } else { 20u32 };
    let opt_space = OptimizeSpace {
        base: input.clone(),
        fclock_hz: (75.0e6, 150.0e6),
        throughput_proc: (1.0, 20.0),
        bufferings: vec![Buffering::Single, Buffering::Double],
        devices: vec![stratix2_ep2s180()],
        precisions: Vec::new(),
    };
    let opt_config = OptimizeConfig {
        seed: 2007,
        generations: opt_gens,
        population: opt_pop,
    };
    let linspace = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * (i as f64) / ((n - 1) as f64))
            .collect()
    };
    let grid_space = DesignSpace {
        base: input.clone(),
        fclocks: linspace(75.0e6, 150.0e6, grid_fclocks),
        throughput_procs: linspace(1.0, 20.0, grid_tps),
        bufferings: vec![Buffering::Single, Buffering::Double],
    };
    let guided_evals = u64::from(opt_gens) * opt_pop as u64;
    let grid_evals = grid_space.size() as u64;
    let opt_engine = Engine::new(EngineConfig::default().with_jobs(1));
    let t_opt_guided = time(reps_opt, || {
        optimize(&opt_engine, &opt_space, &opt_config).unwrap()
    });
    let t_opt_grid = time(reps_opt, || explore(&grid_space, 1.0e-6).unwrap());
    let guided_best = optimize(&opt_engine, &opt_space, &opt_config)
        .expect("bench space has a front")
        .best()
        .objectives
        .speedup;
    let grid_best = explore(&grid_space, 1.0e-6)
        .expect("bench grid explores")
        .top
        .first()
        .map_or(f64::NEG_INFINITY, |r| r.speedup);

    let scenarios = vec![
        BenchScenario {
            name: "execute_summary_fast_forward",
            work: iters,
            reps: reps_sim_fast,
            total: t_summary_ff,
        },
        BenchScenario {
            name: "execute_summary_exhaustive",
            work: iters,
            reps: reps_sim,
            total: t_summary_exh,
        },
        BenchScenario {
            name: "execute_full_trace",
            work: iters,
            reps: reps_sim.div_ceil(4),
            total: t_full_trace,
        },
        BenchScenario {
            name: "uncertainty_scalar",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_scalar,
        },
        BenchScenario {
            name: "uncertainty_clone_per_sample",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_cloning,
        },
        BenchScenario {
            name: "uncertainty_batch",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_batch,
        },
        BenchScenario {
            name: "uncertainty_batch_jobs1",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_batch_jobs[0],
        },
        BenchScenario {
            name: "uncertainty_batch_jobs2",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_batch_jobs[1],
        },
        BenchScenario {
            name: "uncertainty_batch_jobs4",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_batch_jobs[2],
        },
        BenchScenario {
            name: "uncertainty_batch_jobs8",
            work: samples as u64,
            reps: reps_mc,
            total: t_mc_batch_jobs[3],
        },
        BenchScenario {
            name: "speedup_kernel_batch",
            work: BATCH_CHUNK as u64,
            reps: reps_kernel,
            total: t_kernel_batch,
        },
        BenchScenario {
            name: "speedup_kernel_scalar",
            work: BATCH_CHUNK as u64,
            reps: reps_kernel,
            total: t_kernel_scalar,
        },
        BenchScenario {
            name: "sweep_kernel_staged",
            work: BATCH_CHUNK as u64,
            reps: reps_kernel,
            total: t_sweep_staged,
        },
        BenchScenario {
            name: "sweep_kernel_eager_comm",
            work: BATCH_CHUNK as u64,
            reps: reps_kernel,
            total: t_sweep_eager,
        },
        BenchScenario {
            name: "execute_summary_telemetry_enabled",
            work: iters,
            reps: reps_sim_fast,
            total: t_summary_tel,
        },
        BenchScenario {
            name: "explore_two_phase",
            work: corners,
            reps: reps_explore,
            total: t_explore_two_phase,
        },
        BenchScenario {
            name: "explore_eager",
            work: corners,
            reps: reps_explore,
            total: t_explore_eager,
        },
        BenchScenario {
            name: "optimize_guided",
            work: guided_evals,
            reps: reps_opt,
            total: t_opt_guided,
        },
        BenchScenario {
            name: "optimize_exhaustive_grid",
            work: grid_evals,
            reps: reps_opt,
            total: t_opt_grid,
        },
    ];
    let per_rep = |name: &str| {
        scenarios
            .iter()
            .find(|s| s.name == name)
            .expect("scenario exists")
            .ns_per_rep() as f64
    };
    let ratios = vec![
        BenchRatio {
            name: "execute_summary_fast_forward_vs_exhaustive",
            speedup: per_rep("execute_summary_exhaustive")
                / per_rep("execute_summary_fast_forward"),
        },
        BenchRatio {
            name: "execute_summary_fast_forward_vs_full_trace",
            speedup: per_rep("execute_full_trace") / per_rep("execute_summary_fast_forward"),
        },
        BenchRatio {
            // The batched SoA path vs the pre-batching chunked scalar loop,
            // both serial: the per-point win from bulk RNG draws and the
            // columnar kernel.
            name: "uncertainty_batch_vs_scalar",
            speedup: per_rep("uncertainty_scalar") / per_rep("uncertainty_batch"),
        },
        BenchRatio {
            name: "uncertainty_batch_vs_clone_per_sample",
            speedup: per_rep("uncertainty_clone_per_sample") / per_rep("uncertainty_batch"),
        },
        BenchRatio {
            // The acceptance ratio: the live 8-worker batched path vs the
            // old serial scalar pipeline — what a CLI user on the default
            // engine gains over the pre-batching release.
            name: "uncertainty_parallel_vs_serial_8_jobs",
            speedup: per_rep("uncertainty_scalar") / per_rep("uncertainty_batch_jobs8"),
        },
        BenchRatio {
            // Pure thread scaling of the batched path on this host (bounded
            // by the machine's core count; 1.0 on a single-core runner).
            name: "uncertainty_batch_scaling_8_vs_1",
            speedup: per_rep("uncertainty_batch_jobs1") / per_rep("uncertainty_batch_jobs8"),
        },
        BenchRatio {
            name: "speedup_kernel_batch_vs_scalar",
            speedup: per_rep("speedup_kernel_scalar") / per_rep("speedup_kernel_batch"),
        },
        BenchRatio {
            // The stage-graph acceptance ratio: a single-axis sweep through
            // the staged kernel vs the eager per-point comm recomputation it
            // replaced. The perf gate pins this at >= 1.5x.
            name: "sweep_staged_vs_eager",
            speedup: per_rep("sweep_kernel_eager_comm") / per_rep("sweep_kernel_staged"),
        },
        BenchRatio {
            name: "explore_two_phase_vs_eager",
            speedup: per_rep("explore_eager") / per_rep("explore_two_phase"),
        },
        BenchRatio {
            // >1 means enabling collection costs wall time; near 1 means the
            // spans around the summary run are cheap relative to the work.
            name: "execute_summary_telemetry_enabled_vs_disabled",
            speedup: per_rep("execute_summary_telemetry_enabled")
                / per_rep("execute_summary_fast_forward"),
        },
        BenchRatio {
            // Search quality, not wall time: the guided search's best
            // speedup over the exhaustive grid's. The perf gate pins this
            // at >= 0.99 on the full-size evidence.
            name: "optimize_guided_quality_vs_exhaustive",
            speedup: guided_best / grid_best,
        },
        BenchRatio {
            // Evaluation budget, not wall time: grid evaluations per guided
            // evaluation. The perf gate pins this at >= 10 (the guided
            // search spends at most a tenth of the exhaustive budget).
            name: "optimize_eval_budget_exhaustive_vs_guided",
            speedup: grid_evals as f64 / guided_evals as f64,
        },
    ];
    BenchReport {
        quick,
        host: HostInfo::detect(),
        scenarios,
        ratios,
        serve: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_reports_every_scenario_and_ratio() {
        let r = run(true);
        assert!(r.quick);
        assert_eq!(r.scenarios.len(), 19);
        assert_eq!(r.ratios.len(), 12);
        for s in &r.scenarios {
            assert!(s.reps > 0, "{}", s.name);
        }
        let json = r.to_json();
        assert!(json.contains("\"execute_summary_fast_forward\""), "{json}");
        assert!(json.contains("\"ns_per_rep\""), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
        // The v2 host provenance block is always present and well-formed.
        assert!(json.contains("\"host\": {\"logical_cores\": "), "{json}");
        assert!(json.contains("\"avx2\": "), "{json}");
        assert!(json.contains("\"fma\": "), "{json}");
        assert!(json.contains("\"rustc\": \"rustc "), "{json}");
        assert!(r.host.logical_cores >= 1);
        let text = r.render();
        assert!(text.contains("uncertainty_scalar"), "{text}");
        assert!(text.contains("logical cores"), "{text}");
        // Without --serve the optional block is absent entirely.
        assert!(!json.contains("\"serve\""), "{json}");
    }

    #[test]
    fn serve_block_serializes_when_attached() {
        let mut r = run(true);
        r.serve = Some(ServeBench {
            requests: 1000,
            rps: 12_000.0,
            close_requests: 1000,
            close_rps: 3_000.0,
            keepalive_vs_close_rps: 4.0,
            reuse_ratio: 0.996,
            connect_p50_us: 45.0,
            p50_us: 80.0,
            p99_us: 400.0,
            p999_us: 900.0,
            warm_uncached_p50_us: 700.0,
            warm_cached_p50_us: 70.0,
            warm_cached_speedup: 10.0,
            warm_solve_p50_us: 60.0,
            cold_cli_solve_p50_us: 9_000.0,
            warm_vs_cold: 150.0,
        });
        let json = r.to_json();
        assert!(json.contains("\"serve\": {"), "{json}");
        assert!(json.contains("\"warm_vs_cold\": 150.00"), "{json}");
        assert!(json.contains("\"p999_us\": 900.0"), "{json}");
        assert!(json.contains("\"keepalive_vs_close_rps\": 4.00"), "{json}");
        assert!(json.contains("\"reuse_ratio\": 0.9960"), "{json}");
        assert!(json.contains("\"connect_p50_us\": 45.0"), "{json}");
        assert!(json.contains("\"warm_cached_speedup\": 10.00"), "{json}");
        let text = r.render();
        assert!(
            text.contains("serve_warm_solve_vs_cold_cli: 150.0x"),
            "{text}"
        );
        assert!(
            text.contains("serve_keepalive_vs_close_rps: 4.0x"),
            "{text}"
        );
        assert!(text.contains("serve_warm_cached_speedup: 10.0x"), "{text}");
    }
}
