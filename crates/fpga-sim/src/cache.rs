//! Memoization of platform executions.
//!
//! `reproduce`'s tables render several artifacts off one case-study design,
//! and `rat serve` may be asked for one `/v1/simulate` point many times. A
//! [`SimCache`] keyed by [`crate::digest::run_key`] makes each distinct run
//! cost one simulation.
//!
//! The cached value is a [`SimSummary`] — the scalar measurements every
//! analysis consumes — not a full [`Measurement`]: the execution
//! [`crate::trace::Trace`] is per-event and only wanted when a caller
//! explicitly asks to see a schedule, which goes through
//! [`crate::platform::Platform::execute`] uncached.
//!
//! The store is sharded [`SHARD_COUNT`] ways by the top bits of the run
//! key's [`rat_core::clock::spread`]. Each shard is a `Mutex` over a
//! [`rat_core::clock::Clock`] of at most [`SHARD_CAP`] summaries, so a
//! stream of new points stops growing the cache once it is full, and
//! [`CacheStats::shard_contention`] counts the try-locks that collided.
//!
//! The cache lives in memory only and dies with its process, so a simulator
//! change can never be masked by a stale result.

use crate::platform::Measurement;
use crate::time::SimTime;
use rat_core::clock::{self, Clock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};

/// The scalar results of one platform execution — [`Measurement`] minus the
/// per-event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSummary {
    /// End-to-end execution time (makespan), the paper's measured `t_RC`.
    pub total: SimTime,
    /// Blocking channel occupancy (the paper's "actual" `t_comm`).
    pub comm_busy: SimTime,
    /// Channel occupancy of streamed (compute-overlapped) outputs.
    pub streamed_comm: SimTime,
    /// FPGA kernel occupancy (the paper's "actual" `t_comp`).
    pub compute_busy: SimTime,
    /// Host overhead not attributed to comm or comp.
    pub host_overhead: SimTime,
    /// Iterations executed.
    pub iterations: u64,
}

impl SimSummary {
    /// Mean blocking communication time per iteration.
    pub fn comm_per_iter(&self) -> SimTime {
        SimTime::from_ps(self.comm_busy.as_ps() / self.iterations)
    }

    /// Mean computation time per iteration.
    pub fn comp_per_iter(&self) -> SimTime {
        SimTime::from_ps(self.compute_busy.as_ps() / self.iterations)
    }

    /// Fraction of the makespan the channel was (blockingly) busy.
    pub fn channel_utilization(&self) -> f64 {
        self.comm_busy.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Fraction of the makespan the compute fabric was busy.
    pub fn compute_utilization(&self) -> f64 {
        self.compute_busy.as_secs_f64() / self.total.as_secs_f64()
    }
}

impl From<&Measurement> for SimSummary {
    fn from(m: &Measurement) -> Self {
        SimSummary {
            total: m.total,
            comm_busy: m.comm_busy,
            streamed_comm: m.streamed_comm,
            compute_busy: m.compute_busy,
            host_overhead: m.host_overhead,
            iterations: m.iterations,
        }
    }
}

/// Cache hit/miss counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a simulation.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Times a shard try-lock collided with a concurrent holder and had to
    /// fall back to a blocking acquire.
    pub shard_contention: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Number of independently locked shards in a [`SimCache`]: wide enough
/// that 8 workers rarely collide on one (each collision is transient), and
/// a power of two so the shard index is the spread key's top bits.
pub const SHARD_COUNT: usize = 16;

/// Most summaries one shard holds: 8,192 in a cache, far above the 3 runs
/// `reproduce all` looks up, and 640 KiB of heap once full, 80 bytes an
/// entry, which churn does not grow (DESIGN.md §13).
pub const SHARD_CAP: usize = 512;

/// The shard a key belongs to: the top bits of [`clock::spread`], the
/// response cache's picker too. The digest's own bits need not spread.
fn shard_of(key: u128) -> usize {
    (clock::spread(key) >> (u64::BITS - SHARD_COUNT.ilog2())) as usize
}

/// A concurrent, content-addressed store of simulation results, sharded
/// [`SHARD_COUNT`] ways and bounded at [`SHARD_CAP`] entries a shard.
pub struct SimCache {
    shards: [Mutex<Clock<SimSummary>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    shard_contention: AtomicU64,
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> Self {
        SimCache {
            // Every summary weighs 1, so a shard's budget is its entry cap.
            shards: std::array::from_fn(|_| Mutex::new(Clock::new(SHARD_CAP, |_| 1))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_contention: AtomicU64::new(0),
        }
    }

    /// The process-wide cache.
    pub fn global() -> &'static SimCache {
        static GLOBAL: OnceLock<SimCache> = OnceLock::new();
        GLOBAL.get_or_init(SimCache::new)
    }

    /// Lock a key's shard, counting a contended try-lock.
    fn shard(&self, key: u128) -> MutexGuard<'_, Clock<SimSummary>> {
        let shard = &self.shards[shard_of(key)];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.shard_contention.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("cache shard poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }

    /// Look up a run key, counting the outcome.
    pub fn lookup(&self, key: u128) -> Option<SimSummary> {
        let found = self.shard(key).get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a result.
    pub fn insert(&self, key: u128, summary: SimSummary) {
        self.shard(key).put(key, summary);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            shard_contention: self.shard_contention.load(Ordering::Relaxed),
        }
    }

    /// Zero the hit/miss/contention counters (entries are kept). Lets a
    /// caller measure one analysis pass in isolation.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.shard_contention.store(0, Ordering::Relaxed);
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::digest::run_key;
    use crate::kernel::TabulatedKernel;
    use crate::platform::{AppRun, Platform};
    use rat_core::quantity::Freq;

    const F150: Freq = Freq::from_hz(150.0e6);

    fn sample_run() -> AppRun {
        AppRun::builder()
            .iterations(8)
            .elements_per_iter(512)
            .input_bytes_per_iter(2048)
            .output_bytes_per_iter(1024)
            .build()
    }

    fn sample_summary(ps: u64) -> SimSummary {
        SimSummary {
            total: SimTime::from_ps(ps),
            comm_busy: SimTime::from_ps(ps / 2),
            streamed_comm: SimTime::ZERO,
            compute_busy: SimTime::from_ps(ps / 3),
            host_overhead: SimTime::ZERO,
            iterations: 4,
        }
    }

    #[test]
    fn identical_specs_share_a_key_and_hit() {
        let cache = SimCache::new();
        let kernel = TabulatedKernel::uniform("k", 100, 8);
        let a = run_key(&catalog::nallatech_h101(), &kernel, &sample_run(), F150);
        let b = run_key(&catalog::nallatech_h101(), &kernel, &sample_run(), F150);
        assert_eq!(a, b);

        assert_eq!(cache.lookup(a), None);
        cache.insert(a, sample_summary(1000));
        assert_eq!(cache.lookup(b), Some(sample_summary(1000)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_calibration_constant_separates_keys() {
        // Satellite requirement: PCI-X setup latency +1 ns must produce a
        // different key — a stale result for a perturbed platform would
        // silently corrupt every downstream analysis.
        let cache = SimCache::new();
        let kernel = TabulatedKernel::uniform("k", 100, 8);
        let base = catalog::nallatech_h101();
        let mut bumped = catalog::nallatech_h101();
        bumped.interconnect.setup_write += SimTime::from_ns(1);

        let kb = run_key(&base, &kernel, &sample_run(), F150);
        let kp = run_key(&bumped, &kernel, &sample_run(), F150);
        assert_ne!(kb, kp);

        cache.insert(kb, sample_summary(1000));
        assert_eq!(cache.lookup(kp), None, "perturbed platform must miss");
        assert_eq!(cache.lookup(kb), Some(sample_summary(1000)));
    }

    #[test]
    fn cached_summary_matches_direct_execution() {
        let platform = Platform::new(catalog::nallatech_h101());
        let kernel = TabulatedKernel::uniform("k", 20_000, 8);
        let run = sample_run();
        let cache = SimCache::new();

        let cold = platform
            .execute_summary(&kernel, &run, F150, Some(&cache))
            .unwrap();
        let warm = platform
            .execute_summary(&kernel, &run, F150, Some(&cache))
            .unwrap();
        let direct = SimSummary::from(&platform.execute(&kernel, &run, F150).unwrap());
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn keys_spread_across_shards_and_uncontended_locks_count_nothing() {
        let cache = SimCache::new();
        let keys = SHARD_COUNT as u128 * 64;
        for k in 0..keys {
            cache.insert(k, sample_summary(1 + k as u64));
            assert_eq!(cache.lookup(k), Some(sample_summary(1 + k as u64)));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, keys as u64);
        assert_eq!(stats.shard_contention, 0, "single-thread never contends");
        // Consecutive digests share all but their low bits, yet every shard
        // gets about its 64 of the 1,024 keys.
        for s in 0..SHARD_COUNT {
            let held = (0..keys).filter(|k| super::shard_of(*k) == s).count();
            assert!((48..=80).contains(&held), "shard {s} holds {held}");
        }
    }

    #[test]
    fn sharded_cache_survives_concurrent_hammering() {
        let cache = std::sync::Arc::new(SimCache::new());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = u128::from(t * 1000 + i);
                        cache.insert(key, sample_summary(i + 1));
                        assert_eq!(cache.lookup(key), Some(sample_summary(i + 1)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 8 * 200);
        assert_eq!(cache.stats().hits, 8 * 200);
    }

    #[test]
    fn summary_helpers_match_measurement_semantics() {
        let s = SimSummary {
            total: SimTime::from_ns(450),
            comm_busy: SimTime::from_ns(150),
            streamed_comm: SimTime::ZERO,
            compute_busy: SimTime::from_ns(300),
            host_overhead: SimTime::ZERO,
            iterations: 3,
        };
        assert_eq!(s.comm_per_iter(), SimTime::from_ns(50));
        assert_eq!(s.comp_per_iter(), SimTime::from_ns(100));
        assert!((s.channel_utilization() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.compute_utilization() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_zeroes_the_counters_and_keeps_the_entries() {
        let cache = SimCache::new();
        cache.insert(1, sample_summary(10));
        cache.lookup(1);
        cache.lookup(2);
        cache.reset_stats();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 1));
    }

    const CAP: u64 = (SHARD_COUNT * SHARD_CAP) as u64;

    #[test]
    fn concurrent_inserts_never_take_the_cache_past_its_cap() {
        let cache = std::sync::Arc::new(SimCache::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..CAP {
                        let key = (u128::from(t) << 64) | u128::from(i);
                        cache.insert(key, sample_summary(i + 1));
                        let entries = cache.stats().entries;
                        assert!(entries <= CAP, "thread {t}, insert {i}: {entries} > {CAP}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The 4 x CAP keys spread over the shards, so every shard filled.
        assert_eq!(cache.stats().entries, CAP);
    }
}
