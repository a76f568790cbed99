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
//! The store is sharded [`SHARD_COUNT`] ways by the low bits of the 128-bit
//! run key, uniform by construction. Each shard is a `Mutex` over a
//! [`rat_core::clock::Clock`] of at most [`SHARD_CAP`] summaries, so a
//! stream of new points stops growing the cache once it is full, and
//! [`CacheStats::shard_contention`] counts the try-locks that collided.
//!
//! By default the cache lives in memory only, so tests stay hermetic and a
//! simulator change can never be masked by stale results on disk. The CLI
//! opts into persistence with [`SimCache::persist_at`] (or the
//! `RAT_SIM_CACHE` environment variable). Persistence is write-behind: a
//! dirty counter batches inserts and snapshots the resident set to a TSV
//! file every [`FLUSH_INTERVAL`] inserts, on [`SimCache::flush`], and on
//! drop — always via an atomic temp-file rename, so a concurrent reader
//! never sees a torn file.

use crate::platform::Measurement;
use crate::time::SimTime;
use rat_core::clock::Clock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// a power of two so the shard index is a mask of the key's low bits.
pub const SHARD_COUNT: usize = 16;

/// Most summaries one shard holds: 8,192 in a cache, far above the 3 runs
/// `reproduce all` looks up, and 2.8 MiB of heap once full (DESIGN.md §13).
pub const SHARD_CAP: usize = 512;

/// Inserts between write-behind snapshots of a persistent cache: n inserts
/// rewrite the TSV about `n / FLUSH_INTERVAL` times, not n.
pub const FLUSH_INTERVAL: u64 = 64;

/// The shard a key belongs to: low bits of the 128-bit digest, which are
/// uniformly distributed by construction.
fn shard_of(key: u128) -> usize {
    (key as usize) & (SHARD_COUNT - 1)
}

/// A concurrent, content-addressed store of simulation results, sharded
/// [`SHARD_COUNT`] ways and bounded at [`SHARD_CAP`] entries a shard.
pub struct SimCache {
    shards: [Mutex<Clock<SimSummary>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    shard_contention: AtomicU64,
    /// Inserts not yet reflected in the on-disk snapshot; only a persistent
    /// cache counts them.
    dirty: AtomicU64,
    enabled: AtomicBool,
    /// The snapshot path, set once by [`SimCache::persist_at`]; its mutex
    /// serializes flushers.
    disk: OnceLock<Mutex<PathBuf>>,
}

impl SimCache {
    /// An empty, enabled, in-memory cache.
    pub fn new() -> Self {
        SimCache {
            // Every summary weighs 1, so a shard's budget is its entry cap.
            shards: std::array::from_fn(|_| Mutex::new(Clock::new(SHARD_CAP, |_| 1))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_contention: AtomicU64::new(0),
            dirty: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            disk: OnceLock::new(),
        }
    }

    /// The process-wide cache.
    ///
    /// Honors `RAT_SIM_CACHE` on first access: `off`/`0` disables the cache,
    /// any other non-empty value is a path to persist it at.
    pub fn global() -> &'static SimCache {
        static GLOBAL: OnceLock<SimCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cache = SimCache::new();
            match std::env::var("RAT_SIM_CACHE") {
                Ok(v) if v == "off" || v == "0" => cache.set_enabled(false),
                Ok(v) if !v.is_empty() => cache.persist_at(PathBuf::from(v)),
                _ => {}
            }
            cache
        })
    }

    /// Turn lookups and inserts on or off. Disabling does not drop stored
    /// entries; re-enabling sees them again.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the cache currently answers lookups.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Persist the cache at `path`, the first path it is given: load what a
    /// previous process left there (CLOCK keeps at most the cap), and
    /// snapshot the resident set back every [`FLUSH_INTERVAL`] inserts and
    /// on [`flush`](Self::flush)/drop. Unreadable or malformed files are
    /// ignored — the cache is an accelerator, never a correctness dependency.
    pub fn persist_at(&self, path: PathBuf) {
        for (k, v) in read_tsv(&path).unwrap_or_default() {
            self.shard(k).put(k, v);
        }
        let _ = self.disk.set(Mutex::new(path));
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

    /// Look up a run key, counting the outcome. Disabled caches miss silently
    /// without counting.
    pub fn lookup(&self, key: u128) -> Option<SimSummary> {
        if !self.is_enabled() {
            return None;
        }
        let found = self.shard(key).get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a result. No-op when disabled. Persistent caches batch the disk
    /// write: the snapshot happens every [`FLUSH_INTERVAL`] inserts, not per
    /// insert.
    pub fn insert(&self, key: u128, summary: SimSummary) {
        if !self.is_enabled() {
            return;
        }
        self.shard(key).put(key, summary);
        // One increment per insert; the flusher swaps the counter back to
        // zero, so racing inserts at most flush once each past the threshold.
        if self.disk.get().is_some()
            && self.dirty.fetch_add(1, Ordering::Relaxed) + 1 >= FLUSH_INTERVAL
        {
            self.flush();
        }
    }

    /// Write any batched inserts of a persistent cache to disk now. A no-op
    /// for in-memory caches or when nothing is dirty. Failure to write is a
    /// lost optimization, not an error.
    pub fn flush(&self) {
        let Some(disk) = self.disk.get() else {
            return;
        };
        // The disk mutex serializes concurrent flushers; dirty is swapped to
        // zero under it so each batch is written exactly once.
        let path = disk.lock().expect("cache mutex poisoned");
        if self.dirty.swap(0, Ordering::Relaxed) == 0 {
            return;
        }
        let mut rows: Vec<(u128, SimSummary)> = Vec::new();
        for shard in &self.shards {
            let clock = shard.lock().expect("cache shard poisoned");
            rows.extend(clock.iter().map(|(k, v)| (k, *v)));
        }
        let _ = write_tsv(&path, &rows);
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

impl Drop for SimCache {
    /// Flush batched inserts so a persistent cache never loses the tail of a
    /// run. The process-global cache is never dropped — the CLI flushes it
    /// explicitly before exit.
    fn drop(&mut self) {
        self.flush();
    }
}

// Disk format: one `key_hex \t total \t comm \t streamed \t comp \t host \t
// iters` row per entry, all times in integer picoseconds. Human-greppable and
// trivially versioned by the schema salt already folded into every key.
fn write_tsv(path: &Path, rows: &[(u128, SimSummary)]) -> std::io::Result<()> {
    let mut body = String::with_capacity(rows.len() * 64);
    for (k, s) in rows {
        body.push_str(&format!(
            "{:032x}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            k,
            s.total.as_ps(),
            s.comm_busy.as_ps(),
            s.streamed_comm.as_ps(),
            s.compute_busy.as_ps(),
            s.host_overhead.as_ps(),
            s.iterations,
        ));
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

fn read_tsv(path: &Path) -> Option<Vec<(u128, SimSummary)>> {
    let body = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in body.lines() {
        let mut f = line.split('\t');
        let key = u128::from_str_radix(f.next()?, 16).ok()?;
        let mut ps = || f.next()?.parse::<u64>().ok();
        let summary = SimSummary {
            total: SimTime::from_ps(ps()?),
            comm_busy: SimTime::from_ps(ps()?),
            streamed_comm: SimTime::from_ps(ps()?),
            compute_busy: SimTime::from_ps(ps()?),
            host_overhead: SimTime::from_ps(ps()?),
            iterations: ps()?,
        };
        rows.push((key, summary));
    }
    Some(rows)
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
    fn disabled_cache_neither_hits_nor_counts() {
        let cache = SimCache::new();
        cache.insert(1, sample_summary(10));
        cache.set_enabled(false);
        assert_eq!(cache.lookup(1), None);
        cache.insert(2, sample_summary(20));
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        // Entries survive a disable/enable cycle.
        cache.set_enabled(true);
        assert_eq!(cache.lookup(1), Some(sample_summary(10)));
        assert_eq!(cache.lookup(2), None);
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
    fn persistence_round_trips_through_tsv() {
        let dir = std::env::temp_dir().join(format!("rat-sim-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let first = SimCache::new();
        first.persist_at(path.clone());
        first.insert(0xABCD, sample_summary(777));
        first.insert(0x1234, sample_summary(888));
        // Writes are batched now: nothing reaches disk until a flush.
        assert!(!path.exists(), "write-behind must not write per insert");
        first.flush();

        let second = SimCache::new();
        second.persist_at(path.clone());
        assert_eq!(second.lookup(0xABCD), Some(sample_summary(777)));
        assert_eq!(second.lookup(0x1234), Some(sample_summary(888)));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn drop_flushes_pending_inserts() {
        let dir = std::env::temp_dir().join(format!("rat-sim-cache-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        {
            let cache = SimCache::new();
            cache.persist_at(path.clone());
            cache.insert(0xFEED, sample_summary(111));
            assert!(!path.exists());
        } // drop flushes

        let reader = SimCache::new();
        reader.persist_at(path.clone());
        assert_eq!(reader.lookup(0xFEED), Some(sample_summary(111)));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn interval_flush_bounds_write_amplification() {
        let dir = std::env::temp_dir().join(format!("rat-sim-cache-amp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);

        let cache = SimCache::new();
        cache.persist_at(path.clone());
        for k in 0..FLUSH_INTERVAL - 1 {
            cache.insert(u128::from(k), sample_summary(k + 1));
        }
        assert!(!path.exists(), "below the interval nothing is written");
        cache.insert(
            u128::from(FLUSH_INTERVAL - 1),
            sample_summary(FLUSH_INTERVAL),
        );
        assert!(
            path.exists(),
            "the interval-th insert triggers the snapshot"
        );
        let rows = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rows.lines().count() as u64, FLUSH_INTERVAL);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn keys_spread_across_shards_and_uncontended_locks_count_nothing() {
        let cache = SimCache::new();
        for k in 0..(SHARD_COUNT as u128 * 4) {
            cache.insert(k, sample_summary(1 + k as u64));
            assert_eq!(cache.lookup(k), Some(sample_summary(1 + k as u64)));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, SHARD_COUNT as u64 * 4);
        assert_eq!(stats.shard_contention, 0, "single-thread never contends");
        // Consecutive digests land in consecutive shards (low-bit mask), so
        // every shard holds exactly 4 of the 64 keys.
        for s in 0..SHARD_COUNT {
            let held = (0..SHARD_COUNT as u128 * 4)
                .filter(|k| super::shard_of(*k) == s)
                .count();
            assert_eq!(held, 4);
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
    fn malformed_cache_file_is_ignored() {
        let dir = std::env::temp_dir().join(format!("rat-sim-cache-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        std::fs::write(&path, "not\ta\tcache\n").unwrap();

        let cache = SimCache::new();
        cache.persist_at(path.clone());
        assert_eq!(cache.stats().entries, 0);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
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

    #[test]
    fn in_memory_inserts_never_head_for_the_disk() {
        // An in-memory cache has no snapshot to batch toward: were inserts
        // counted, every one past the interval would take the flush path.
        let cache = SimCache::new();
        for k in 0..200u64 {
            cache.insert(u128::from(k), sample_summary(k + 1));
        }
        assert_eq!(cache.dirty.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stats().entries, 200);
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
        // Low bits spread the 4 x CAP keys evenly, so every shard filled.
        assert_eq!(cache.stats().entries, CAP);
    }

    #[test]
    fn an_oversized_tsv_loads_and_flushes_at_most_the_cap() {
        let dir = std::env::temp_dir().join(format!("rat-sim-cache-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let rows: Vec<(u128, SimSummary)> = (0..2 * CAP)
            .map(|k| (u128::from(k), sample_summary(k + 1)))
            .collect();
        write_tsv(&path, &rows).unwrap();

        let cache = SimCache::new();
        cache.persist_at(path.clone());
        assert_eq!(cache.stats().entries, CAP);
        cache.insert(u128::from(2 * CAP), sample_summary(1));
        cache.flush();
        let flushed = read_tsv(&path).unwrap();
        assert_eq!(flushed.len() as u64, CAP);
        // The snapshot is the resident set, the newest insert included.
        for (k, v) in flushed {
            assert_eq!(cache.lookup(k), Some(v));
        }
        assert_eq!(cache.lookup(u128::from(2 * CAP)), Some(sample_summary(1)));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
