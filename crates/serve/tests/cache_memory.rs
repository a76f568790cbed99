//! Memory pins for the two caches a daemon keeps full: the heap each holds,
//! counted per thread by this binary's allocator.
//!
//! Both caches are filled on the calling thread, so that thread's count is
//! the whole heap a cache holds. A cache's entries share one CLOCK map per
//! shard (`rat_core::clock::Clock`): a ring of slots in sweep order and a
//! table of 8-byte cells indexing it, which churn at a steady entry count
//! never grows. Each bound is the measured figure plus a stated margin. The
//! map each replaced, a `HashMap` of values and marks beside a queue of
//! keys, held several times the bytes and doubled its buckets once under
//! churn.
//!
//! ```sh
//! cargo test --release -p rat-serve --test cache_memory
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fpga_sim::cache::{SHARD_CAP, SHARD_COUNT};
use fpga_sim::{SimCache, SimSummary, SimTime};
use rat_serve::respcache::{Lookup, ResponseCache};

thread_local! {
    /// Bytes this thread has allocated and not yet freed. Memory freed on
    /// another thread than the one that allocated it skews both threads'
    /// counts, so each test keeps its cache on one thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking the calling thread's live heap bytes.
struct Tracking;

fn grow(bytes: isize) {
    // A const-initialized `Cell` has no destructor, so the slot is never
    // torn down; `try_with` only guards the case anyway.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; tracking
// touches only a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// This thread's live heap bytes.
fn live() -> usize {
    usize::try_from(LIVE.with(Cell::get)).expect("a thread frees no more than it allocated")
}

/// SplitMix64, so a key and length sequence is fixed by its seed.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A full simulator cache: 16 shards of 512 summaries, each a ring of 512
/// 64-byte slots and a table of 1,024 8-byte cells, 40,960 bytes a shard
/// and 655,360 in all (80 bytes an entry), from the fill on. The map it
/// replaced held 1,458,432 bytes when it first filled, 1,589,504 once it had
/// evicted as many, and 2,916,608 after the million more. The bound leaves
/// 10%.
#[test]
fn a_full_simulator_cache_holds_the_same_bytes_under_churn() {
    const CAP: u64 = (SHARD_COUNT * SHARD_CAP) as u64;
    const BOUND: usize = 720_000;
    let summary = SimSummary {
        total: SimTime::from_ps(1000),
        comm_busy: SimTime::from_ps(500),
        streamed_comm: SimTime::ZERO,
        compute_busy: SimTime::from_ps(300),
        host_overhead: SimTime::ZERO,
        iterations: 4,
    };
    let before = live();
    let cache = SimCache::new();
    let mut inserted = 0u128;
    let mut insert = |n: u128| {
        for key in inserted..inserted + n {
            cache.insert(key, summary);
        }
        inserted += n;
    };
    while cache.stats().entries < CAP {
        insert(1);
    }
    let full = live() - before;
    // Evict the first 8,192 entries, then a million more.
    insert(u128::from(CAP));
    let settled = live() - before;
    insert(1_000_000);
    let after = live() - before;
    eprintln!("simulator cache: {full} bytes full, {settled} settled, {after} after churn");
    assert_eq!(cache.stats().entries, CAP);
    assert_eq!(
        after, settled,
        "a full cache's heap must not move under churn"
    );
    assert!(settled <= BOUND, "{settled} heap bytes (bound {BOUND})");
}

/// What a stored body costs beside its text: its `Arc`'s counts and its
/// `String` header.
const BODY_HEADER: usize = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<String>();

/// Heap bytes a response cache holds beyond its bodies, per stored entry.
/// Every body the test stores is its own allocation, of exactly its length,
/// so the bodies take the charged bytes plus one header an entry.
fn non_body_bytes_per_entry(cache: &ResponseCache, held: usize) -> f64 {
    let stats = cache.stats();
    let bodies = stats.bytes + stats.entries * BODY_HEADER;
    (held - bodies) as f64 / stats.entries as f64
}

/// A response cache at the default 16 MiB a tier, filled with bodies of
/// 100–599 bytes: ~3,000 a shard, each shard a ring of 4,096 24-byte slots
/// and a table of 4,096 8-byte cells, 44.1 bytes an entry full and 43.7
/// after churn. The map it replaced held 67.5 bytes an entry when it first filled
/// and 111.9 once churn doubled its buckets. The bound leaves ~25%.
#[test]
fn a_full_response_cache_spends_little_beside_its_bodies() {
    const BOUND: f64 = 55.0;
    let budget = rat_serve::ServeConfig::default().response_cache_bytes;
    // The telemetry collector the cache counts into is process-global:
    // set it up before counting.
    let _ = rat_core::telemetry::global();
    let before = live();
    let cache = ResponseCache::new(budget);
    let mut next = splitmix(0x5eed);
    let mut serve = |requests: usize| {
        for _ in 0..requests {
            let mut key = || (u128::from(next()) << 64) | u128::from(next());
            let (canonical, raw) = (key(), key());
            let len = 100 + (next() % 500) as usize;
            match cache.begin(canonical) {
                Lookup::Miss(guard) => guard.complete(Arc::new("c".repeat(len))),
                Lookup::Hit(_) => panic!("every key is new"),
            }
            cache.alias_raw(raw, &Arc::new("r".repeat(len)));
        }
    };
    // Fill until both tiers hold 99% of their budgets: a shard that evicts
    // stays within one body of its budget, so then every shard is full.
    let mut requests = 0;
    while cache.stats().bytes < 2 * budget * 99 / 100 {
        serve(1024);
        requests += 1024;
    }
    let full = non_body_bytes_per_entry(&cache, live() - before);
    // Three times as many again: every shard evicts all it held.
    serve(3 * requests);
    let churned = non_body_bytes_per_entry(&cache, live() - before);
    let stats = cache.stats();
    eprintln!(
        "response cache: {} entries, {} body bytes; {full:.1} non-body bytes an entry \
         full, {churned:.1} after {} more requests",
        stats.entries,
        stats.bytes,
        3 * requests
    );
    assert!(
        full <= BOUND,
        "{full:.1} bytes an entry when full (bound {BOUND})"
    );
    assert!(
        churned <= BOUND,
        "{churned:.1} bytes an entry after churn (bound {BOUND})"
    );
}
