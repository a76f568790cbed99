//! Content-addressed cache of fully rendered response bodies, with
//! single-flight deduplication.
//!
//! Storage is sharded 16 ways like the simulation cache, so concurrent
//! workers rarely contend on one lock. Each shard maps a 128-bit request
//! digest (see [`crate::keys`]) to either a ready body or a *flight*: a
//! marker that some worker is already computing this exact response.
//! Arrivals that find a flight block on its condvar instead of recomputing —
//! under a thundering herd of identical requests, exactly one computation
//! runs and every waiter gets the leader's bytes, which are byte-identical
//! to a fresh render because they *are* the leader's fresh render.
//!
//! A second, cheaper tier keys the byte-exact `(route, body)` pair so a
//! repeated identical request skips JSON and TOML parsing entirely; it is an
//! alias onto the canonical entry's body, filled in after the canonical key
//! is known.
//!
//! Both tiers evict by CLOCK ([`rat_core::clock::Clock`]) under a per-shard
//! budget of body bytes. Flights live in a map of their own beside the
//! ready bodies, so eviction never sees one — a leader must always find its
//! own marker to complete. If a leader fails (error response) or panics,
//! its guard's `Drop` clears the flight and wakes all waiters to retry, so
//! a poisoned request cannot wedge the cache.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use rat_core::clock::{self, Clock};
use rat_core::telemetry::{self, Metric};

const SHARD_COUNT: usize = 16;

/// One in-flight computation; waiters sleep on `cv` until the leader
/// completes (body published) or fails (retry signal).
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<String>),
    Failed,
}

struct Shard {
    ready: Clock<Arc<String>>,
    flights: HashMap<u128, Arc<Flight>>,
}

/// What [`ResponseCache::begin`] resolved to.
pub enum Lookup {
    /// A ready body — serve it as-is.
    Hit(Arc<String>),
    /// This caller is the leader: compute the response, then call
    /// [`FlightGuard::complete`] (or drop the guard on failure).
    Miss(FlightGuard),
}

/// Leadership token for one cache fill. Dropping it without completing
/// marks the flight failed and wakes waiters to retry.
pub struct FlightGuard {
    cache: Arc<ResponseCache>,
    key: u128,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard {
    /// Publish the rendered body: waiters wake with it, and it becomes a
    /// ready entry (unless it alone exceeds the shard budget, in which case
    /// waiters still get it but nothing is stored).
    pub fn complete(mut self, body: Arc<String>) {
        self.completed = true;
        {
            let mut st = self.flight.state.lock().expect("flight lock poisoned");
            *st = FlightState::Done(Arc::clone(&body));
        }
        self.flight.cv.notify_all();

        let mut sh = self.cache.shard(self.key);
        if sh.flights.remove(&self.key).is_some() {
            sh.ready.put(self.key, body);
        }
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // Leader failed: clear the marker and signal retry.
        self.cache.shard(self.key).flights.remove(&self.key);
        let mut st = self.flight.state.lock().expect("flight lock poisoned");
        *st = FlightState::Failed;
        drop(st);
        self.flight.cv.notify_all();
    }
}

/// A key's shard: the top bits of [`clock::spread`]. FNV-1a digests of
/// similar requests can share their top bits (the canonical keys of
/// `/v1/simulate` clocks on a 1/64 MHz grid share all four), so the digest
/// is spread first.
fn shard_of(key: u128) -> usize {
    (clock::spread(key) >> (u64::BITS - SHARD_COUNT.ilog2())) as usize
}

/// Point-in-time occupancy, for `/metrics` rendering and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseCacheStats {
    /// Ready entries across both tiers.
    pub entries: usize,
    /// Bytes held by ready bodies across both tiers.
    pub bytes: usize,
}

/// The serving layer's rendered-response cache. One per server.
pub struct ResponseCache {
    shards: [Mutex<Shard>; SHARD_COUNT],
    raw_shards: [Mutex<Clock<Arc<String>>>; SHARD_COUNT],
}

impl ResponseCache {
    /// A cache splitting `total_budget_bytes` evenly across 16 shards of the
    /// canonical tier, and the same again across 16 shards of the raw alias
    /// tier. Each tier charges every body it holds its full `len()`; a body
    /// both tiers hold is one allocation, kept alive until both drop it.
    pub fn new(total_budget_bytes: usize) -> Arc<Self> {
        let budget = (total_budget_bytes / SHARD_COUNT).max(1);
        let ready = || Clock::new(budget, |body: &Arc<String>| body.len());
        Arc::new(ResponseCache {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    ready: ready(),
                    flights: HashMap::new(),
                })
            }),
            raw_shards: std::array::from_fn(|_| Mutex::new(ready())),
        })
    }

    fn shard(&self, key: u128) -> MutexGuard<'_, Shard> {
        self.shards[shard_of(key)]
            .lock()
            .expect("response cache shard poisoned")
    }

    fn raw_shard(&self, raw_key: u128) -> MutexGuard<'_, Clock<Arc<String>>> {
        self.raw_shards[shard_of(raw_key)]
            .lock()
            .expect("raw response shard poisoned")
    }

    /// Byte-exact fast tier: a hit skips request parsing entirely.
    pub fn lookup_raw(&self, raw_key: u128) -> Option<Arc<String>> {
        let hit = self.raw_shard(raw_key).get(raw_key).cloned();
        if hit.is_some() {
            telemetry::add(Metric::ResponseCacheHits, 1);
        }
        hit
    }

    /// Alias the byte-exact request onto a body the canonical tier settled.
    pub fn alias_raw(&self, raw_key: u128, body: &Arc<String>) {
        self.raw_shard(raw_key).put(raw_key, Arc::clone(body));
    }

    /// Resolve a canonical key: a ready hit, a wait on someone else's
    /// flight (counted, then resolved to their body), or leadership of a
    /// new flight.
    pub fn begin(self: &Arc<Self>, key: u128) -> Lookup {
        loop {
            let flight = {
                let mut sh = self.shard(key);
                if let Some(body) = sh.ready.get(key).cloned() {
                    telemetry::add(Metric::ResponseCacheHits, 1);
                    return Lookup::Hit(body);
                }
                match sh.flights.entry(key) {
                    Entry::Occupied(e) => Arc::clone(e.get()),
                    Entry::Vacant(e) => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            cv: Condvar::new(),
                        });
                        e.insert(Arc::clone(&flight));
                        telemetry::add(Metric::ResponseCacheMisses, 1);
                        return Lookup::Miss(FlightGuard {
                            cache: Arc::clone(self),
                            key,
                            flight,
                            completed: false,
                        });
                    }
                }
            };

            // Wait outside the shard lock: flights block only their own key.
            telemetry::add(Metric::ResponseCacheInflightWaits, 1);
            let mut st = flight.state.lock().expect("flight lock poisoned");
            loop {
                match &*st {
                    FlightState::Pending => {
                        st = flight.cv.wait(st).expect("flight lock poisoned");
                    }
                    FlightState::Done(body) => {
                        telemetry::add(Metric::ResponseCacheHits, 1);
                        return Lookup::Hit(Arc::clone(body));
                    }
                    FlightState::Failed => break, // retry; may become leader
                }
            }
        }
    }

    /// Occupancy across both tiers.
    pub fn stats(&self) -> ResponseCacheStats {
        let mut stats = ResponseCacheStats::default();
        let mut add = |ready: &Clock<Arc<String>>| {
            stats.entries += ready.len();
            stats.bytes += ready.weight();
        };
        for sh in &self.shards {
            add(&sh.lock().expect("response cache shard poisoned").ready);
        }
        for sh in &self.raw_shards {
            add(&sh.lock().expect("raw response shard poisoned"));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn miss_then_hit_round_trips_the_exact_bytes() {
        let cache = ResponseCache::new(1 << 20);
        match cache.begin(7) {
            Lookup::Miss(guard) => guard.complete(body("the rendered response")),
            Lookup::Hit(_) => panic!("empty cache cannot hit"),
        }
        match cache.begin(7) {
            Lookup::Hit(b) => assert_eq!(*b, "the rendered response"),
            Lookup::Miss(_) => panic!("completed entry must hit"),
        }
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_flight_runs_one_leader_for_a_herd() {
        let cache = ResponseCache::new(1 << 20);
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    barrier.wait();
                    match cache.begin(99) {
                        Lookup::Miss(guard) => {
                            leaders.fetch_add(1, Ordering::Relaxed);
                            // Give waiters time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            guard.complete(body("only once"));
                            "only once".to_string()
                        }
                        Lookup::Hit(b) => (*b).clone(),
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), "only once");
        }
        assert_eq!(leaders.load(Ordering::Relaxed), 1, "exactly one leader");
    }

    #[test]
    fn failed_leader_wakes_waiters_into_retry() {
        let cache = ResponseCache::new(1 << 20);
        let guard = match cache.begin(5) {
            Lookup::Miss(g) => g,
            Lookup::Hit(_) => unreachable!(),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin(5) {
                // After the leader's failure the waiter retries and becomes
                // the new leader.
                Lookup::Miss(g) => {
                    g.complete(body("second try"));
                    true
                }
                Lookup::Hit(_) => false,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(guard); // leader fails without completing
        assert!(waiter.join().unwrap(), "waiter should retry as leader");
        match cache.begin(5) {
            Lookup::Hit(b) => assert_eq!(*b, "second try"),
            Lookup::Miss(_) => panic!("retry should have filled the entry"),
        }
    }

    /// The first three keys that share a shard, so a test can fill one.
    fn one_shard_keys() -> [u128; 3] {
        let mut keys = (0..).filter(|&k| shard_of(k) == shard_of(0));
        std::array::from_fn(|_| keys.next().expect("keys are unbounded"))
    }

    #[test]
    fn lru_evicts_oldest_ready_entries_under_byte_pressure() {
        // Budget of 64 bytes per shard; three 30-byte bodies on one shard
        // must evict the least recently used.
        let cache = ResponseCache::new(64 * SHARD_COUNT);
        let [a, b, c] = one_shard_keys();
        for key in [a, b] {
            match cache.begin(key) {
                Lookup::Miss(g) => g.complete(body(&"x".repeat(30))),
                Lookup::Hit(_) => panic!(),
            }
        }
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(cache.begin(a), Lookup::Hit(_)));
        match cache.begin(c) {
            Lookup::Miss(g) => g.complete(body(&"x".repeat(30))),
            Lookup::Hit(_) => panic!(),
        }
        assert!(
            matches!(cache.begin(a), Lookup::Hit(_)),
            "recently touched entry survives"
        );
        assert!(
            matches!(cache.begin(b), Lookup::Miss(_)),
            "LRU entry was evicted"
        );
    }

    #[test]
    fn grid_clock_simulates_spread_over_every_shard() {
        // `/v1/simulate` bodies at clocks on a 1/64 MHz grid: their raw
        // FNV-1a digests share their top bits, and the canonical keys all
        // fell in one shard when the shard was the digest's top 4 bits.
        let (seed, jobs) = (
            rat_core::engine::EngineConfig::default().root_seed,
            crate::ServeConfig::default().engine_jobs,
        );
        let n = 100_000;
        let mut held = [0usize; SHARD_COUNT];
        for k in 0..n {
            let req = crate::api::ApiRequest::Simulate {
                app: "pdf1d".into(),
                mhz: 50.0 + k as f64 / 64.0,
            };
            held[shard_of(crate::keys::request_key(&req, seed, jobs))] += 1;
        }
        for (shard, &count) in held.iter().enumerate() {
            let share = 100.0 * count as f64 / n as f64;
            assert!(
                (share - 100.0 / SHARD_COUNT as f64).abs() <= 1.0,
                "shard {shard} holds {share:.2}% of the keys: {held:?}"
            );
        }
    }

    #[test]
    fn ready_sets_keep_their_invariants_under_random_traffic() {
        // SplitMix64, so the sequence is fixed by the seed.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let budget = 256;
        let cache = ResponseCache::new(budget * SHARD_COUNT);
        // A few hundred keys spread over every shard of both tiers.
        let keys: Vec<u128> = (0..300)
            .map(|_| (u128::from(next()) << 64) | u128::from(next()))
            .collect();
        for step in 0..24_000 {
            let key = keys[next() as usize % keys.len()];
            // 1..=300 bytes: some bodies exceed the shard budget on their own.
            let len = 1 + next() as usize % 300;
            match next() % 3 {
                0 => cache.alias_raw(key, &body(&"r".repeat(len))),
                1 => {
                    if let Some(b) = cache.lookup_raw(key) {
                        assert!(b.len() <= budget);
                    }
                }
                _ => match cache.begin(key) {
                    Lookup::Miss(guard) => guard.complete(body(&"c".repeat(len))),
                    Lookup::Hit(b) => assert!(b.len() <= budget),
                },
            }
            // The map's own invariants are `rat_core::clock`'s tests; here,
            // no flight leaks, every shard fits its budget, and the stats
            // are the shards' sum.
            let mut total = (0, 0);
            let mut add = |ready: &Clock<Arc<String>>| {
                assert!(ready.weight() <= budget, "step {step}");
                total.0 += ready.len();
                total.1 += ready.weight();
            };
            for sh in &cache.shards {
                let sh = sh.lock().unwrap();
                assert!(sh.flights.is_empty(), "step {step}: a flight leaked");
                add(&sh.ready);
            }
            for sh in &cache.raw_shards {
                add(&sh.lock().unwrap());
            }
            let stats = cache.stats();
            assert_eq!((stats.entries, stats.bytes), total, "step {step}");
        }
    }

    #[test]
    fn raw_tier_aliases_without_double_charging_entries() {
        let cache = ResponseCache::new(1 << 20);
        assert!(cache.lookup_raw(11).is_none());
        let b = body("aliased");
        cache.alias_raw(11, &b);
        assert_eq!(*cache.lookup_raw(11).unwrap(), "aliased");
    }

    #[test]
    fn oversized_bodies_are_served_but_not_stored() {
        let cache = ResponseCache::new(16); // 1 byte per shard
        match cache.begin(3) {
            Lookup::Miss(g) => g.complete(body("way too big for the budget")),
            Lookup::Hit(_) => panic!(),
        }
        assert!(matches!(cache.begin(3), Lookup::Miss(_)));
        assert_eq!(cache.stats().bytes, 0);

        // Nor does one evict what its shard already holds, in either tier.
        let cache = ResponseCache::new(64 * SHARD_COUNT);
        let (small, big) = (body(&"s".repeat(30)), body(&"b".repeat(65)));
        let [first, second, _] = one_shard_keys();
        for (key, b) in [(first, &small), (second, &big)] {
            match cache.begin(key) {
                Lookup::Miss(g) => g.complete(Arc::clone(b)),
                Lookup::Hit(_) => panic!(),
            }
            cache.alias_raw(key, b);
        }
        assert!(matches!(cache.begin(first), Lookup::Hit(_)));
        assert!(cache.lookup_raw(first).is_some());
        assert_eq!(cache.stats().bytes, 2 * small.len());
    }
}
