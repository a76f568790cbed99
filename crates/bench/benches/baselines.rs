//! Software-baseline benchmarks: the CPU side of every speedup claim.
//!
//! The paper's `t_soft` figures came from C on a 3.2 GHz Xeon (PDF) and a
//! 2.2 GHz Opteron (MD). These benches time this workspace's Rust baselines —
//! sequential, and parallel as jobs on the analysis engine's worker pool —
//! so a user can recompute RAT speedups against their own machine instead of
//! 2007 hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rat_apps::datagen;
use rat_apps::md::forces::{compute_forces, compute_forces_parallel, LjParams};
use rat_apps::md::system::System;
use rat_apps::pdf::parzen;
use rat_apps::pdf::{bin_centers, BANDWIDTH};

fn bench_pdf1d(c: &mut Criterion) {
    let bins = bin_centers();
    let mut g = c.benchmark_group("baseline-pdf1d");
    for &n in &[512usize, 4096, 16384] {
        let samples = datagen::bimodal_samples(n, 1000 + n as u64);
        g.throughput(Throughput::Elements((n * bins.len()) as u64));
        g.bench_with_input(BenchmarkId::new("sequential", n), &samples, |b, s| {
            b.iter(|| black_box(parzen::estimate_1d(s, &bins, BANDWIDTH)))
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &samples, |b, s| {
            b.iter(|| black_box(parzen::estimate_1d_parallel(s, &bins, BANDWIDTH)))
        });
    }
    g.finish();
}

fn bench_pdf1d_fullscale_block(c: &mut Criterion) {
    // One hardware iteration's worth of work: 512 elements x 256 bins.
    let samples = datagen::bimodal_samples(512, 77);
    let bins = bin_centers();
    let mut g = c.benchmark_group("baseline-pdf1d-block");
    g.throughput(Throughput::Elements(512 * 256));
    g.bench_function("one_iteration_block", |b| {
        let mut est = parzen::StreamingEstimator1d::new(bins.clone(), BANDWIDTH);
        b.iter(|| {
            est.process_block(black_box(&samples));
        })
    });
    g.finish();
}

fn bench_pdf2d(c: &mut Criterion) {
    let bins: Vec<f64> = (0..64).map(|i| i as f64 / 32.0 - 1.0).collect();
    let mut g = c.benchmark_group("baseline-pdf2d");
    g.sample_size(20);
    for &n in &[128usize, 1024] {
        let samples = datagen::bimodal_samples_2d(n, 2000 + n as u64);
        g.throughput(Throughput::Elements((n * bins.len() * bins.len()) as u64));
        g.bench_with_input(BenchmarkId::new("sequential", n), &samples, |b, s| {
            b.iter(|| black_box(parzen::estimate_2d(s, &bins, &bins, BANDWIDTH)))
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &samples, |b, s| {
            b.iter(|| black_box(parzen::estimate_2d_parallel(s, &bins, &bins, BANDWIDTH)))
        });
    }
    g.finish();
}

fn bench_md(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline-md-forces");
    g.sample_size(10);
    for &n in &[1024usize, 4096] {
        let system = System::random(n, 1.0, 3000 + n as u64);
        let params = LjParams {
            epsilon: 1.0e-4,
            sigma: 0.05,
            cutoff: 0.2,
        };
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("sequential", n), &system, |b, s| {
            b.iter(|| black_box(compute_forces(s, &params)))
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &system, |b, s| {
            b.iter(|| black_box(compute_forces_parallel(s, &params)))
        });
    }
    g.finish();
}

fn bench_md_neighbor_count(c: &mut Criterion) {
    // The data-dependent quantity behind Table 9.
    let mut g = c.benchmark_group("baseline-md-neighbors");
    g.sample_size(10);
    for &n in &[2048usize, 8192] {
        let system = System::random(n, 1.0, 4000 + n as u64);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("cell_list", n), &system, |b, s| {
            b.iter(|| {
                black_box(rat_apps::md::cell_list::neighbor_counts(
                    &s.positions,
                    1.0,
                    rat_apps::md::CUTOFF,
                ))
            })
        });
    }
    g.finish();
}

fn bench_sort(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    use rat_apps::sort::baseline::{merge_sort, merge_sort_parallel, sort_blocks};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let keys: Vec<u32> = (0..262_144).map(|_| rng.gen()).collect();
    let mut g = c.benchmark_group("baseline-sort");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("merge_sort", |b| {
        b.iter(|| {
            let mut v = keys.clone();
            merge_sort(&mut v);
            black_box(v)
        })
    });
    g.bench_function("merge_sort_parallel", |b| {
        b.iter(|| {
            let mut v = keys.clone();
            merge_sort_parallel(&mut v);
            black_box(v)
        })
    });
    g.bench_function("sort_blocks_4096", |b| {
        b.iter(|| {
            let mut v = keys.clone();
            sort_blocks(&mut v, 4096);
            black_box(v)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pdf1d,
    bench_pdf1d_fullscale_block,
    bench_pdf2d,
    bench_md,
    bench_md_neighbor_count,
    bench_sort
);
criterion_main!(benches);
