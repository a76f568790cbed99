//! CLOCK (second-chance) eviction under a weight budget: the one eviction
//! policy in the workspace. The response cache weighs a body by its bytes;
//! the simulator cache weighs every summary 1, so its budget is an entry cap.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Values keyed by 128-bit digests, holding at most `budget` weight. A hit
/// marks its entry. An insert that takes the weight over budget walks the
/// queue from the front, sending each marked entry to the back unmarked and
/// evicting the first unmarked one. A lookup is O(1) and an insert
/// amortized O(1), since each requeue was paid for by the hit that set its
/// mark.
pub struct Clock<V> {
    /// Each value with its used mark, set by a hit since the last sweep.
    map: HashMap<u128, (V, bool)>,
    /// Every key of `map` exactly once, in sweep order.
    queue: VecDeque<u128>,
    /// Sum of the stored values' weights.
    weight: usize,
    budget: usize,
    weigh: fn(&V) -> usize,
}

impl<V> Clock<V> {
    /// An empty map holding at most `budget`, charging each value
    /// `weigh(value)`.
    pub fn new(budget: usize, weigh: fn(&V) -> usize) -> Self {
        Clock {
            map: HashMap::new(),
            queue: VecDeque::new(),
            weight: 0,
            budget,
            weigh,
        }
    }

    /// The value under `key`, marked used.
    pub fn get(&mut self, key: u128) -> Option<&V> {
        let (value, used) = self.map.get_mut(&key)?;
        *used = true;
        Some(value)
    }

    /// Store `value` (or mark the entry already under `key` used), then
    /// evict until the weight fits the budget. A value heavier than the
    /// whole budget is not stored.
    pub fn put(&mut self, key: u128, value: V) {
        let weight = (self.weigh)(&value);
        if weight > self.budget {
            return;
        }
        match self.map.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().1 = true,
            Entry::Vacant(e) => {
                e.insert((value, false));
                self.queue.push_back(key);
                self.weight += weight;
            }
        }
        while self.weight > self.budget {
            let key = self
                .queue
                .pop_front()
                .expect("stored weight belongs to queued keys");
            let Entry::Occupied(mut entry) = self.map.entry(key) else {
                unreachable!("queued key is stored");
            };
            if std::mem::take(&mut entry.get_mut().1) {
                self.queue.push_back(key);
            } else {
                self.weight -= (self.weigh)(&entry.remove().0);
            }
        }
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the stored values' weights.
    pub fn weight(&self) -> usize {
        self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn body(len: usize) -> Arc<String> {
        Arc::new("x".repeat(len))
    }

    fn bytes(body: &Arc<String>) -> usize {
        body.len()
    }

    fn one(_: &u64) -> usize {
        1
    }

    #[test]
    fn a_hit_entry_gets_a_second_chance() {
        let mut clock = Clock::new(90, bytes);
        for key in [1, 2, 3] {
            clock.put(key, body(30));
        }
        assert!(clock.get(1).is_some());
        clock.put(4, body(30));
        assert!(clock.map.contains_key(&1), "the hit entry survives");
        assert!(
            !clock.map.contains_key(&2),
            "the oldest unmarked entry goes"
        );
        assert_eq!(clock.queue, [3, 4, 1], "the survivor went to the back");
        assert!(!clock.map[&1].1, "and lost its mark on the way");
    }

    #[test]
    fn entry_weights_make_the_budget_an_entry_cap() {
        let mut clock = Clock::new(3, one);
        assert!(clock.is_empty());
        for key in 0..10u64 {
            clock.put(u128::from(key), key);
            assert!(clock.len() <= 3);
        }
        let kept: Vec<u64> = (0..10).filter_map(|k| clock.get(k).copied()).collect();
        assert_eq!(kept, [7, 8, 9]);
        assert_eq!(clock.weight(), 3);
        // A repeated key keeps its first value and only gains a mark.
        clock.put(9, 0);
        assert_eq!(clock.get(9), Some(&9));
        assert_eq!(clock.len(), 3);
    }

    #[test]
    fn a_value_over_the_whole_budget_is_not_stored_and_evicts_nothing() {
        let mut clock = Clock::new(64, bytes);
        clock.put(1, body(30));
        clock.put(2, body(65));
        assert!(clock.get(2).is_none());
        assert!(clock.get(1).is_some());
        assert_eq!((clock.len(), clock.weight()), (1, 30));
    }

    /// Check one map's invariants: the weight is the stored values' sum and
    /// within the budget, and the queue holds each stored key exactly once.
    fn check<V>(clock: &Clock<V>) {
        let stored: usize = clock.map.values().map(|(v, _)| (clock.weigh)(v)).sum();
        assert_eq!(clock.weight, stored, "weight must be the stored sum");
        assert!(
            clock.weight <= clock.budget,
            "{} > {}",
            clock.weight,
            clock.budget
        );
        let mut queued: Vec<u128> = clock.queue.iter().copied().collect();
        let mut keys: Vec<u128> = clock.map.keys().copied().collect();
        queued.sort_unstable();
        keys.sort_unstable();
        assert_eq!(queued, keys, "the queue must hold each stored key once");
    }

    /// Random gets and puts over a few hundred keys, checking the
    /// invariants after every step. `value` turns a drawn length into the
    /// value to store.
    fn random_traffic<V>(mut clock: Clock<V>, value: impl Fn(usize) -> V) {
        // SplitMix64, so the sequence is fixed by the seed.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let keys: Vec<u128> = (0..300)
            .map(|_| (u128::from(next()) << 64) | u128::from(next()))
            .collect();
        let (weigh, budget) = (clock.weigh, clock.budget);
        for _ in 0..8_000 {
            let key = keys[next() as usize % keys.len()];
            // 1..=300: some byte-weighted values exceed the budget alone.
            let len = 1 + next() as usize % 300;
            if next() % 2 == 0 {
                clock.put(key, value(len));
            } else if let Some(v) = clock.get(key) {
                assert!(weigh(v) <= budget);
            }
            check(&clock);
        }
    }

    #[test]
    fn byte_weights_keep_the_invariants_under_random_traffic() {
        random_traffic(Clock::new(256, bytes), body);
    }

    #[test]
    fn entry_weights_keep_the_invariants_under_random_traffic() {
        random_traffic(Clock::new(40, one), |len| len as u64);
    }
}
