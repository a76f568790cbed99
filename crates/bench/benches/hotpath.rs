//! Hot-path benchmarks: the fast paths this workspace ships against the
//! baselines they replaced.
//!
//! Six families, mirroring `rat bench`:
//!
//! * steady-state fast-forward + trace-free sinks on `execute_summary`,
//!   against the exhaustive event-by-event simulation and the full-trace
//!   measurement;
//! * the batched Monte-Carlo pipeline in `uncertainty::propagate`, against
//!   a clone-per-sample baseline;
//! * the SoA `speedup_batch` kernel against a reuse-one-scratch scalar loop
//!   over the same points;
//! * `propagate_with` across 1/2/4/8-job engines (thread-scaling curve);
//! * pure engine dispatch overhead: 64 empty jobs across the same job
//!   ladder, isolating pool wake/claim/collect cost from kernel work;
//! * two-phase design-space exploration, against eager per-corner reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fpga_sim::catalog;
use fpga_sim::kernel::TabulatedKernel;
use fpga_sim::platform::{AppRun, BufferMode, FastForward, Platform};
use rat_core::engine::{Engine, EngineConfig};
use rat_core::explore::{explore, DesignSpace};
use rat_core::params::Buffering;
use rat_core::quantity::Freq;
use rat_core::solve::batch::{speedup_batch, BatchPoints};
use rat_core::sweep::SweepParam;
use rat_core::uncertainty::{propagate, propagate_with, ParamRange};
use rat_core::worksheet::Worksheet;

fn bench_summary_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath-summary");
    for &iters in &[1_000u64, 10_000] {
        let kernel = TabulatedKernel::uniform("k", 20_000, iters as usize);
        let run = AppRun::builder()
            .iterations(iters)
            .elements_per_iter(512)
            .input_bytes_per_iter(2048)
            .output_bytes_per_iter(1024)
            .buffer_mode(BufferMode::Double)
            .build();
        let fclock = Freq::from_mhz(150.0);
        let fast = Platform::new(catalog::nallatech_h101());
        let slow = Platform::new(catalog::nallatech_h101()).with_fast_forward(FastForward::Off);
        g.throughput(Throughput::Elements(iters));
        g.bench_with_input(BenchmarkId::new("fast_forward", iters), &iters, |b, _| {
            b.iter(|| black_box(fast.execute_summary(&kernel, &run, fclock, None).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("exhaustive", iters), &iters, |b, _| {
            b.iter(|| black_box(slow.execute_summary(&kernel, &run, fclock, None).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("full_trace", iters), &iters, |b, _| {
            b.iter(|| black_box(fast.execute(&kernel, &run, fclock).unwrap()))
        });
    }
    g.finish();
}

fn bench_uncertainty_paths(c: &mut Criterion) {
    let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    let ranges = [
        ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6),
        ParamRange::new(SweepParam::ThroughputProc, 16.0, 24.0),
    ];
    let mut g = c.benchmark_group("hotpath-uncertainty");
    for &samples in &[1_000usize, 10_000] {
        g.throughput(Throughput::Elements(samples as u64));
        g.bench_with_input(BenchmarkId::new("scalar", samples), &samples, |b, &n| {
            b.iter(|| black_box(propagate(&input, &ranges, n, 7).unwrap()))
        });
        g.bench_with_input(
            BenchmarkId::new("clone_per_sample", samples),
            &samples,
            |b, &n| {
                // The pre-optimization pipeline, reproduced in full: one
                // engine job per sample, one input clone per parameter
                // application, then the stable sort and summary statistics
                // the old implementation computed — kept inline so the
                // comparison survives refactors of the library path.
                b.iter(|| {
                    use rand::distributions::{Distribution, Uniform};
                    let dists: Vec<(SweepParam, Uniform<f64>)> = ranges
                        .iter()
                        .map(|r| (r.param, Uniform::new_inclusive(r.lo, r.hi)))
                        .collect();
                    let mut speedups = rat_core::engine::Engine::sequential()
                        .try_run(n, |j| {
                            let mut rng = rat_core::engine::job_rng(7, j as u64);
                            let mut candidate = input.clone();
                            for (param, dist) in &dists {
                                candidate = param.apply(&candidate, dist.sample(&mut rng))?;
                            }
                            candidate.validate()?;
                            Ok::<_, rat_core::RatError>(rat_core::throughput::speedup(&candidate))
                        })
                        .unwrap();
                    speedups.sort_by(f64::total_cmp);
                    let mean = speedups.iter().sum::<f64>() / n as f64;
                    black_box(mean)
                })
            },
        );
    }
    g.finish();
}

fn bench_batch_kernel(c: &mut Criterion) {
    let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    let mut g = c.benchmark_group("hotpath-batch-kernel");
    for &n in &[256usize, 1024] {
        let values: Vec<f64> = (0..n)
            .map(|i| 75.0e6 + (150.0e6 - 75.0e6) * (i as f64 / n as f64))
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
            b.iter(|| {
                let mut points = BatchPoints::new(&input, values.len());
                points.push_column(SweepParam::Fclock, values.clone());
                black_box(speedup_batch(&points).unwrap())
            })
        });
        g.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                let mut scratch = input.clone();
                let out: Vec<f64> = values
                    .iter()
                    .map(|&v| {
                        scratch.copy_params_from(&input);
                        SweepParam::Fclock.apply_into(&mut scratch, v).unwrap();
                        scratch.validate().unwrap();
                        rat_core::throughput::speedup(&scratch)
                    })
                    .collect();
                black_box(out)
            })
        });
    }
    g.finish();
}

fn bench_uncertainty_scaling(c: &mut Criterion) {
    let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    let ranges = [
        ParamRange::new(SweepParam::Fclock, 75.0e6, 150.0e6),
        ParamRange::new(SweepParam::ThroughputProc, 16.0, 24.0),
    ];
    let samples = 10_000usize;
    let mut g = c.benchmark_group("hotpath-uncertainty-scaling");
    g.throughput(Throughput::Elements(samples as u64));
    for &jobs in &[1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, _| {
            b.iter(|| black_box(propagate_with(&engine, &input, &ranges, samples, 7).unwrap()))
        });
    }
    g.finish();
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    // Pure engine dispatch cost, isolated from kernel work: 64 empty jobs
    // through a warm pool at each job count. With barrier-free indexed
    // collection this should stay flat-ish in the job count; a per-batch
    // spawn or an ordered collection barrier shows up here immediately.
    let mut g = c.benchmark_group("hotpath-dispatch-overhead");
    g.throughput(Throughput::Elements(64));
    for &jobs in &[1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, _| {
            b.iter(|| black_box(engine.run(64, |i| i)))
        });
    }
    g.finish();
}

fn bench_explore_paths(c: &mut Criterion) {
    let space = DesignSpace {
        base: rat_apps::pdf::pdf1d::rat_input(150.0e6),
        fclocks: vec![75.0e6, 100.0e6, 150.0e6],
        throughput_procs: vec![10.0, 20.0, 24.0],
        bufferings: vec![Buffering::Single, Buffering::Double],
    };
    let mut g = c.benchmark_group("hotpath-explore");
    g.throughput(Throughput::Elements(space.size() as u64));
    g.bench_function("two_phase", |b| {
        b.iter(|| black_box(explore(&space, 10.0).unwrap()))
    });
    g.bench_function("eager", |b| {
        b.iter(|| {
            let mut passing = 0usize;
            for corner in space.corners() {
                if Worksheet::new(corner).analyze().unwrap().speedup >= 10.0 {
                    passing += 1;
                }
            }
            black_box(passing)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_summary_paths,
    bench_uncertainty_paths,
    bench_batch_kernel,
    bench_uncertainty_scaling,
    bench_dispatch_overhead,
    bench_explore_paths
);
criterion_main!(benches);
