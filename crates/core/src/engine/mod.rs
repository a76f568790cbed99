//! The parallel analysis engine.
//!
//! Every higher-level RAT analysis — a parameter sweep, a sensitivity scan,
//! Monte-Carlo uncertainty propagation, a multi-FPGA scaling study, a
//! `reproduce` artifact batch — decomposes into **independent jobs**: each
//! takes an index, computes in isolation, and yields one result. The engine
//! runs those jobs on a fixed-size thread pool and reassembles results in job
//! order, under two hard guarantees:
//!
//! 1. **Thread-count invariance.** Output is bit-identical at any `jobs`
//!    setting, including 1. Jobs never share mutable state, results are
//!    ordered by job index (not completion), and randomized jobs draw from
//!    per-job RNG streams ([`job_rng`]) derived from `(root_seed, index)` —
//!    never from a stream consumed in scheduling order.
//! 2. **Memoized simulation.** Jobs that execute the platform simulator do so
//!    through `fpga_sim`'s process-wide `SimCache`: a content hash of the
//!    full run spec keys a cache, so repeated sweep points and re-rendered
//!    artifacts cost a hash lookup instead of a discrete-event simulation.
//!    `rat --no-cache` switches that cache off for the whole process.

mod config;
mod counters;
mod pool;
mod stream;

pub use config::EngineConfig;
pub use counters::{EngineCounters, EngineStats};
pub use stream::{job_rng, job_rng_first_draws, FIRST_BLOCK_DRAWS};

use crate::telemetry::{self, ArgValue, Metric};
use pool::WorkerPool;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Upper bound on resident worker threads, whatever `jobs` says: beyond this
/// the batch drivers are bound by memory bandwidth, not thread count, and a
/// runaway `--jobs` must not exhaust the process's thread quota.
const MAX_THREADS: usize = 256;

/// Minimum estimated work per dispatched job, in nanoseconds. Calibrated
/// against the dispatch-overhead Criterion ladder (`hotpath.rs`): one empty
/// job costs on the order of a microsecond of claim/wake/telemetry overhead,
/// so a ~25 µs floor keeps that under a few percent.
pub const MIN_JOB_NANOS: u64 = 25_000;

/// Upper bound on points per chunk, whatever the division says: bounds
/// per-chunk scratch (decoded columns, RNG draw blocks) and keeps the claim
/// loop granular enough to balance uneven progress.
pub const MAX_CHUNK_POINTS: usize = 16_384;

/// How many chunks each worker should see on average; a little
/// oversubscription lets the atomic claim loop absorb scheduling jitter.
const CHUNKS_PER_WORKER: usize = 4;

/// Calibrated per-point evaluation cost classes for [`Engine::chunk_len`].
///
/// The values are coarse nanosecond estimates measured on the `rat bench`
/// scenarios (see BENCH_8.json); they only need to be right within a factor
/// of a few, since they feed a clamp, not a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointCost {
    /// One Monte-Carlo sample on the batched uncertainty path: a handful of
    /// RNG draws plus one lane of the speedup kernel (~tens of ns).
    McSample,
    /// One full solve/report materialization on the sweep and break-even
    /// paths: validation, both bufferings, report assembly (~hundreds of ns).
    FullReport,
}

impl PointCost {
    fn nanos(self) -> u64 {
        match self {
            PointCost::McSample => 50,
            PointCost::FullReport => 300,
        }
    }
}

/// A job-graph executor: runs batches of independent indexed jobs on a
/// resident worker pool, deterministically.
///
/// The pool is spawned lazily on the first parallel batch and stays warm for
/// the engine's lifetime, so long-lived holders (`rat serve` workers, the
/// `rat watch` re-render loop) pay thread startup once, not once per
/// analysis phase. Results are written into a pre-sized buffer by job index
/// — order is a property of the layout, so collection needs no ordered
/// barrier (see [`engine::pool`](self)).
pub struct Engine {
    config: EngineConfig,
    pool: WorkerPool,
    counters: EngineCounters,
}

impl Engine {
    /// Build an engine with `config.jobs` worker threads (0 = one per
    /// hardware thread).
    pub fn new(config: EngineConfig) -> Self {
        let threads = match config.jobs {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n.min(MAX_THREADS),
        };
        Engine {
            config,
            pool: WorkerPool::new(threads),
            counters: EngineCounters::default(),
        }
    }

    /// A single-threaded engine — the reference schedule every other thread
    /// count must reproduce bit-for-bit.
    pub fn sequential() -> Self {
        Self::new(EngineConfig::default().with_jobs(1))
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The number of worker threads jobs actually run on (the submitting
    /// thread included — it participates in every batch).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The number of points one job should cover when an analysis splits
    /// `total` points into indexed chunks for this engine.
    ///
    /// Replaces the old fixed 1024-point chunk: the size adapts so that each
    /// job carries at least [`MIN_JOB_NANOS`] of estimated work (from the
    /// calibrated per-point `cost`) — below that quantum, dispatch overhead
    /// eats the parallel win — while still cutting the batch into a few
    /// chunks per thread so the claim loop can balance load. The result
    /// depends only on `total`, the configured thread count, and compile-time
    /// constants, never on runtime timing, so chunk seams are deterministic;
    /// and since every batch kernel is bit-identical across chunk seams
    /// (pinned by the differential suites), outputs do not depend on the
    /// chunk size at all.
    pub fn chunk_len(&self, total: usize, cost: PointCost) -> usize {
        let workers = self.threads();
        if total == 0 {
            return 1;
        }
        if workers <= 1 {
            return total.min(MAX_CHUNK_POINTS);
        }
        // A few chunks per worker keeps the tail short without shrinking
        // jobs below the dispatch-amortizing quantum.
        let target = total.div_ceil(workers * CHUNKS_PER_WORKER);
        let min_points = (MIN_JOB_NANOS / cost.nanos()).max(1) as usize;
        target.clamp(min_points.min(total), MAX_CHUNK_POINTS).max(1)
    }

    /// Run jobs `0..n` and collect their results in job order.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let started = Instant::now();
        let counters = &self.counters;
        // Capture the caller's span path once so `engine.job` spans recorded
        // on pool worker threads nest under the phase that spawned the batch
        // (sweep, uncertainty, ...) instead of floating at top level.
        let collect = telemetry::enabled();
        // The job kind is the phase that spawned the batch (sweep,
        // uncertainty, ...) — the innermost span open *before* the batch span
        // itself is pushed.
        let kind = telemetry::global()
            .current_path_prefix()
            .trim_end_matches('/')
            .rsplit('/')
            .next()
            .filter(|s| !s.is_empty())
            .unwrap_or("adhoc")
            .to_string();
        let batch_span = if collect {
            Some(telemetry::span_args(
                "engine.batch",
                vec![("jobs", ArgValue::U64(n as u64))],
            ))
        } else {
            None
        };
        let parent = telemetry::global().current_path_prefix();
        let timed = |i: usize| {
            let job_started = Instant::now();
            // Re-root only on detached pool threads: when a job runs inline
            // on the spawning thread (jobs = 1), its span already nests
            // under the batch span via that thread's local stack, and
            // installing the prefix would double the path.
            let _prefix = if collect && telemetry::global().current_path_prefix().is_empty() {
                Some(telemetry::global().scoped_prefix(&parent))
            } else {
                None
            };
            let _span = if collect {
                Some(telemetry::span_args(
                    "engine.job",
                    vec![
                        ("job", ArgValue::U64(i as u64)),
                        ("kind", ArgValue::Str(kind.clone())),
                    ],
                ))
            } else {
                None
            };
            let out = f(i);
            counters.record_job(job_started.elapsed());
            out
        };
        let results = self.pool.run_indexed(n, timed);
        if collect {
            telemetry::add(Metric::EngineJobs, n as u64);
            telemetry::add(Metric::EngineBatches, 1);
        }
        drop(batch_span);
        self.counters.record_batch(started.elapsed());
        results
    }

    /// Run jobs `0..n`, each with its own deterministic RNG stream derived
    /// from the engine's root seed and the job index.
    pub fn run_seeded<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, ChaCha8Rng) -> T + Sync,
    {
        let root = self.config.root_seed;
        self.run(n, |i| f(i, job_rng(root, i as u64)))
    }

    /// Run fallible jobs `0..n`; all jobs execute, then the lowest-indexed
    /// error (if any) is returned. Taking the first error *by job index* —
    /// not by completion time — keeps error reporting as deterministic as
    /// results.
    pub fn try_run<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        self.run(n, f).into_iter().collect()
    }

    /// Work executed by this engine so far.
    pub fn stats(&self) -> EngineStats {
        self.counters.snapshot()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn run_preserves_job_order_at_any_thread_count() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [1, 2, 8] {
            let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
            assert_eq!(engine.run(100, |i| i * i), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn seeded_jobs_are_thread_count_invariant() {
        let reference: Vec<u64> =
            Engine::sequential().run_seeded(64, |_, mut rng| rng.gen::<u64>());
        for jobs in [2, 8] {
            let engine = Engine::new(EngineConfig::default().with_jobs(jobs));
            let draws: Vec<u64> = engine.run_seeded(64, |_, mut rng| rng.gen::<u64>());
            assert_eq!(draws, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn root_seed_changes_every_stream() {
        let a: Vec<u64> = Engine::new(EngineConfig::default().with_root_seed(1))
            .run_seeded(16, |_, mut rng| rng.gen());
        let b: Vec<u64> = Engine::new(EngineConfig::default().with_root_seed(2))
            .run_seeded(16, |_, mut rng| rng.gen());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn try_run_returns_lowest_indexed_error() {
        let engine = Engine::new(EngineConfig::default().with_jobs(8));
        let r: Result<Vec<usize>, usize> =
            engine.try_run(100, |i| if i % 30 == 29 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(29));
        let ok: Result<Vec<usize>, usize> = engine.try_run(10, Ok);
        assert_eq!(ok, Ok((0..10).collect()));
    }

    #[test]
    fn counters_track_jobs_and_batches() {
        let engine = Engine::sequential();
        engine.run(5, |i| i);
        engine.run(3, |i| i);
        let stats = engine.stats();
        assert_eq!(stats.jobs_run, 8);
        assert_eq!(stats.batches, 2);
        assert!(stats.cpu <= stats.wall + std::time::Duration::from_millis(50));
    }

    #[test]
    fn zero_jobs_means_hardware_parallelism() {
        let engine = Engine::default();
        assert!(engine.threads() >= 1);
        assert_eq!(engine.run(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_stays_warm_across_batches() {
        // Many consecutive batches on one engine must all succeed on the
        // same resident pool (spawned once, reused, joined on drop).
        let engine = Engine::new(EngineConfig::default().with_jobs(4));
        for round in 0..20 {
            let out = engine.run(33, move |i| i * round);
            assert_eq!(out, (0..33).map(|i| i * round).collect::<Vec<_>>());
        }
        assert_eq!(engine.stats().batches, 20);
    }

    #[test]
    fn chunk_len_adapts_to_thread_count_and_cost() {
        let seq = Engine::sequential();
        // Sequential engines take one chunk (up to the scratch cap): there
        // is nobody to balance against.
        assert_eq!(seq.chunk_len(10_000, PointCost::McSample), 10_000);
        assert_eq!(
            seq.chunk_len(100_000, PointCost::McSample),
            MAX_CHUNK_POINTS
        );

        let par = Engine::new(EngineConfig::default().with_jobs(8));
        let mc = par.chunk_len(10_000, PointCost::McSample);
        // At least the dispatch-amortizing quantum, at most the cap.
        assert!(mc >= (MIN_JOB_NANOS / 50) as usize, "chunk {mc} too small");
        assert!(mc <= MAX_CHUNK_POINTS);
        // Costlier points justify smaller chunks.
        assert!(par.chunk_len(10_000, PointCost::FullReport) <= mc);
        // Degenerate totals stay well-formed.
        assert_eq!(par.chunk_len(0, PointCost::McSample), 1);
        assert_eq!(par.chunk_len(3, PointCost::McSample), 3);
    }

    /// The exact clamp arithmetic of [`Engine::chunk_len`], pinned per cost
    /// class: `target = ceil(total / (threads × 4))` clamped between the
    /// ≥25 µs dispatch quantum (`MIN_JOB_NANOS / cost`) and the scratch cap.
    #[test]
    fn chunk_len_floors_chunks_at_the_dispatch_quantum() {
        let par = Engine::new(EngineConfig::default().with_jobs(8));

        // Cost-class floors: 25 µs buys 500 MC samples (50 ns each) but
        // only 83 full reports (300 ns each).
        assert_eq!((MIN_JOB_NANOS / PointCost::McSample.nanos()) as usize, 500);
        assert_eq!((MIN_JOB_NANOS / PointCost::FullReport.nanos()) as usize, 83);

        // 10 000 points on 8 threads: the raw target ceil(10000/32) = 313
        // is below the MC floor (500) but above the full-report floor (83).
        assert_eq!(par.chunk_len(10_000, PointCost::McSample), 500);
        assert_eq!(par.chunk_len(10_000, PointCost::FullReport), 313);

        // Enough points that the raw target clears the floor untouched...
        assert_eq!(par.chunk_len(100_000, PointCost::McSample), 3125);
        // ...and so many that the scratch cap takes over.
        assert_eq!(
            par.chunk_len(1_000_000, PointCost::McSample),
            MAX_CHUNK_POINTS
        );
        assert_eq!(
            par.chunk_len(1_000_000, PointCost::FullReport),
            MAX_CHUNK_POINTS
        );

        // A batch smaller than the floor is one chunk, not zero: the floor
        // relaxes to `total` so tiny batches stay a single dispatch.
        assert_eq!(par.chunk_len(400, PointCost::McSample), 400);
        assert_eq!(par.chunk_len(82, PointCost::FullReport), 82);
        // Just past the floor it splits: 84 points go as 83 + 1.
        assert_eq!(par.chunk_len(84, PointCost::FullReport), 83);

        // One-point batches are one one-point chunk at every cost class
        // and thread count.
        for engine in [
            Engine::sequential(),
            Engine::new(EngineConfig::default().with_jobs(2)),
            Engine::new(EngineConfig::default().with_jobs(8)),
        ] {
            for cost in [PointCost::McSample, PointCost::FullReport] {
                assert_eq!(engine.chunk_len(1, cost), 1);
            }
        }

        // Fewer threads → proportionally larger chunks (2 threads × 4
        // chunks each): ceil(10000/8) = 1250 clears both floors.
        let two = Engine::new(EngineConfig::default().with_jobs(2));
        assert_eq!(two.chunk_len(10_000, PointCost::McSample), 1250);
        assert_eq!(two.chunk_len(10_000, PointCost::FullReport), 1250);
    }
}
