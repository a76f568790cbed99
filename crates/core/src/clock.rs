//! CLOCK (second-chance) eviction under a weight budget: the one eviction
//! policy in the workspace. The response cache weighs a body by its bytes;
//! the simulator cache weighs every summary 1, so its budget is an entry cap.
//! Both caches pick a key's shard by [`spread`].

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::BuildHasher;

/// The low 31 bits of a table cell: its slot's sequence number. Sequence
/// numbers count modulo `SEQ` (2³¹ − 1), so none is `SEQ` itself and no
/// stored cell, marked or not, equals `EMPTY`.
const SEQ: u32 = (1 << 31) - 1;
/// Bit 31 of a table cell: the entry's CLOCK mark, set by a hit since the
/// last sweep.
const MARK: u64 = 1 << 31;
/// A table cell that indexes no slot.
const EMPTY: u64 = u64::MAX;
/// The cells in a new map's table.
const MIN_CELLS: usize = 8;

/// A 128-bit digest folded to 64 bits and mixed by splitmix64's finalizer,
/// so every output bit depends on every input bit. Both caches shard by its
/// top bits. It is unseeded, so a key lands in the same shard on every run.
pub fn spread(key: u128) -> u64 {
    crate::engine::mix((key >> 64) as u64 ^ key as u64)
}

/// One stored entry. The key is two words because a `u128` would align the
/// slot to 16 bytes: a response body's slot is 24 bytes, not 32.
struct Slot<V> {
    key: [u64; 2],
    value: V,
}

fn split(key: u128) -> [u64; 2] {
    [(key >> 64) as u64, key as u64]
}

fn join(key: [u64; 2]) -> u128 {
    (u128::from(key[0]) << 64) | u128::from(key[1])
}

/// The unmarked cell of the slot numbered `seq`, whose key hashes to
/// `hash`.
fn pack(hash: u64, seq: u32) -> u64 {
    hash << 32 | u64::from(seq)
}

/// The sequence number a table cell holds.
fn seq_of(cell: u64) -> u32 {
    cell as u32 & SEQ
}

/// Values keyed by 128-bit digests, holding at most `budget` weight. A hit
/// marks its entry. An insert that takes the weight over budget walks the
/// entries in sweep order from the front, sending each marked entry to the
/// back unmarked and evicting the first unmarked one. A lookup is O(1) and
/// an insert amortized O(1), since each requeue was paid for by the hit that
/// set its mark.
///
/// An entry costs its slot in a ring and an 8-byte cell or two in the table
/// that indexes the ring. The table is open addressing with linear probing
/// and backward-shift deletion, keyed by the per-process random hasher a
/// `HashMap` would use (request bodies come from clients, so probe chains
/// must not be computable offline). A cell's high half is the low 32 bits
/// of its key's hash and its low half the slot's sequence number and the
/// mark, so a probe reads a slot only when the hashes match, and deletion
/// and growth find a cell's home without reading its slot. The table doubles only when an
/// insert would take it past 7/8 full, so churn at a steady entry count
/// never grows it.
pub struct Clock<V> {
    /// The entries in sweep order. The slot at position `i` has sequence
    /// number `base + i`, modulo `SEQ`.
    slots: VecDeque<Slot<V>>,
    /// The sequence number of `slots[0]`.
    base: u32,
    /// A power-of-two number of cells: `EMPTY`, or a key's hash, mark and
    /// slot number, found by probing forward from the hash's home.
    table: Vec<u64>,
    hasher: RandomState,
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
            slots: VecDeque::new(),
            base: 0,
            table: vec![EMPTY; MIN_CELLS],
            hasher: RandomState::new(),
            weight: 0,
            budget,
            weigh,
        }
    }

    /// The value under `key`, marked used.
    pub fn get(&mut self, key: u128) -> Option<&V> {
        let (cell, at) = self.find(self.hasher.hash_one(key), key)?;
        self.table[cell] |= MARK;
        Some(&self.slots[at].value)
    }

    /// Store `value` (or mark the entry already under `key` used), then
    /// evict until the weight fits the budget. A value heavier than the
    /// whole budget is not stored.
    pub fn put(&mut self, key: u128, value: V) {
        let weight = (self.weigh)(&value);
        if weight > self.budget {
            return;
        }
        let hash = self.hasher.hash_one(key);
        if let Some((cell, _)) = self.find(hash, key) {
            self.table[cell] |= MARK;
            return;
        }
        self.weight += weight;
        // The new entry joins the back unmarked. It is appended just before
        // the sweep first sends an entry behind it, or once the sweep ends:
        // the order appending it first would give, without growing a full
        // ring for an insert that evicts.
        let mut new = Some(Slot {
            key: split(key),
            value,
        });
        while self.weight > self.budget {
            let front_hash = self.hasher.hash_one(join(
                self.slots
                    .front()
                    .expect("stored weight belongs to queued keys")
                    .key,
            ));
            let mut cell = self.cell_of(front_hash, self.base);
            if self.table[cell] & MARK == 0 {
                let gone = self.pop_front();
                self.remove_cell(cell);
                self.weight -= (self.weigh)(&gone.value);
                continue;
            }
            if let Some(slot) = new.take() {
                self.push_back(hash, slot);
                // The push may have grown the table.
                cell = self.cell_of(front_hash, self.base);
            }
            let again = self.pop_front();
            self.table[cell] = pack(front_hash, self.seq_at(self.slots.len()));
            self.slots.push_back(again);
        }
        if let Some(slot) = new {
            self.push_back(hash, slot);
        }
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sum of the stored values' weights.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The sequence number of the slot at position `at`.
    fn seq_at(&self, at: usize) -> u32 {
        ((u64::from(self.base) + at as u64) % u64::from(SEQ)) as u32
    }

    /// The position of the slot with sequence number `seq`.
    fn position(&self, seq: u32) -> usize {
        ((u64::from(seq) + u64::from(SEQ) - u64::from(self.base)) % u64::from(SEQ)) as usize
    }

    /// The table index a probe for `hash` starts at: its low bits, which a
    /// cell keeps.
    fn home(&self, hash: u64) -> usize {
        hash as u32 as usize & (self.table.len() - 1)
    }

    /// The table index of `key`'s cell and the position of its slot.
    fn find(&self, hash: u64, key: u128) -> Option<(usize, usize)> {
        let (mask, key, tag) = (self.table.len() - 1, split(key), pack(hash, 0) >> 32);
        let mut cell = self.home(hash);
        while self.table[cell] != EMPTY {
            if self.table[cell] >> 32 == tag {
                let at = self.position(seq_of(self.table[cell]));
                if self.slots[at].key == key {
                    return Some((cell, at));
                }
            }
            cell = (cell + 1) & mask;
        }
        None
    }

    /// The table index of the cell of the stored slot numbered `seq`, whose
    /// key hashes to `hash`.
    fn cell_of(&self, hash: u64, seq: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut cell = self.home(hash);
        while seq_of(self.table[cell]) != seq {
            assert_ne!(self.table[cell], EMPTY, "a stored slot has a cell");
            cell = (cell + 1) & mask;
        }
        cell
    }

    /// Write `value`, a cell for `hash`, into the first empty cell of the
    /// hash's probe sequence.
    fn place(&mut self, hash: u64, value: u64) {
        let mask = self.table.len() - 1;
        let mut cell = self.home(hash);
        while self.table[cell] != EMPTY {
            cell = (cell + 1) & mask;
        }
        self.table[cell] = value;
    }

    /// Empty `hole`, then shift each later cell of its run back into the
    /// hole left behind when its probe sequence passes through it, so every
    /// stored key stays reachable without tombstones.
    fn remove_cell(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut cell = (hole + 1) & mask;
        while self.table[cell] != EMPTY {
            let home = self.home(self.table[cell] >> 32);
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.table[hole] = self.table[cell];
                hole = cell;
            }
            cell = (cell + 1) & mask;
        }
        self.table[hole] = EMPTY;
    }

    /// Append `slot`, whose key hashes to `hash`, unmarked.
    fn push_back(&mut self, hash: u64, slot: Slot<V>) {
        if (self.slots.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        let seq = self.seq_at(self.slots.len());
        self.slots.push_back(slot);
        self.place(hash, pack(hash, seq));
    }

    /// Take the front slot off the ring. Its cell still holds its number.
    fn pop_front(&mut self) -> Slot<V> {
        let slot = self.slots.pop_front().expect("a front slot to take");
        self.base = self.seq_at(1);
        slot
    }

    /// Double the table and index every stored cell again, marks kept.
    fn grow(&mut self) {
        let cells = 2 * self.table.len();
        // 7/8 of 2^31 cells keeps every stored slot's number distinct.
        assert!(cells <= 1 << 31, "a CLOCK table of {cells} cells");
        let old = std::mem::replace(&mut self.table, vec![EMPTY; cells]);
        for cell in old.into_iter().filter(|&c| c != EMPTY) {
            self.place(cell >> 32, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
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

    /// The stored keys in sweep order, each with its mark.
    fn order<V>(clock: &Clock<V>) -> Vec<(u128, bool)> {
        let marks: HashMap<u32, bool> = clock
            .table
            .iter()
            .filter(|&&c| c != EMPTY)
            .map(|&c| (seq_of(c), c & MARK != 0))
            .collect();
        clock
            .slots
            .iter()
            .enumerate()
            .map(|(at, slot)| (join(slot.key), marks[&clock.seq_at(at)]))
            .collect()
    }

    #[test]
    fn a_hit_entry_gets_a_second_chance() {
        let mut clock = Clock::new(90, bytes);
        for key in [1, 2, 3] {
            clock.put(key, body(30));
        }
        assert!(clock.get(1).is_some());
        clock.put(4, body(30));
        assert_eq!(
            order(&clock),
            [(3, false), (4, false), (1, false)],
            "the oldest unmarked entry went; the hit entry went to the back \
             and lost its mark on the way"
        );
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

    #[test]
    fn a_sweep_that_requeues_every_entry_evicts_the_new_one() {
        // All three marked: each goes behind the new entry, which then
        // reaches the front unmarked and is the one evicted.
        let mut clock = Clock::new(90, bytes);
        for key in [1, 2, 3] {
            clock.put(key, body(30));
            clock.get(key);
        }
        clock.put(4, body(30));
        assert_eq!(order(&clock), [(1, false), (2, false), (3, false)]);
        assert_eq!(clock.weight(), 90);
    }

    /// The map this one replaced: a `HashMap` of values and marks, plus a
    /// queue holding each stored key once in sweep order. The differential
    /// tests below hold the new map to its every answer.
    struct Reference<V> {
        map: HashMap<u128, (V, bool)>,
        queue: VecDeque<u128>,
        weight: usize,
        budget: usize,
        weigh: fn(&V) -> usize,
    }

    impl<V> Reference<V> {
        fn new(budget: usize, weigh: fn(&V) -> usize) -> Self {
            Reference {
                map: HashMap::new(),
                queue: VecDeque::new(),
                weight: 0,
                budget,
                weigh,
            }
        }

        fn get(&mut self, key: u128) -> Option<&V> {
            let (value, used) = self.map.get_mut(&key)?;
            *used = true;
            Some(value)
        }

        fn put(&mut self, key: u128, value: V) {
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
                let key = self.queue.pop_front().expect("queued");
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

        fn order(&self) -> Vec<(u128, bool)> {
            self.queue.iter().map(|k| (*k, self.map[k].1)).collect()
        }
    }

    /// The longest probe sequence any stored key needs, in cells.
    fn longest_probe<V>(clock: &Clock<V>) -> usize {
        let mask = clock.table.len() - 1;
        (0..clock.table.len())
            .filter(|&cell| clock.table[cell] != EMPTY)
            .map(|cell| {
                let home = clock.home(clock.table[cell] >> 32);
                (cell.wrapping_sub(home) & mask) + 1
            })
            .max()
            .unwrap_or(0)
    }

    /// Check one map's invariants: the weight is the stored values' sum and
    /// within the budget; the table is a power of two at most 7/8 full and
    /// holds exactly one cell per slot, each carrying its key's hash and
    /// reachable from its home without crossing an empty cell.
    fn check<V>(clock: &Clock<V>) {
        let stored: usize = clock.slots.iter().map(|s| (clock.weigh)(&s.value)).sum();
        assert_eq!(clock.weight, stored, "weight must be the stored sum");
        assert!(
            clock.weight <= clock.budget,
            "{} > {}",
            clock.weight,
            clock.budget
        );
        let cells = clock.table.len();
        assert!(cells.is_power_of_two() && cells >= MIN_CELLS);
        assert!(clock.len() * 8 <= cells * 7, "{} in {cells}", clock.len());
        let mut numbers: Vec<u32> = clock
            .table
            .iter()
            .filter(|&&c| c != EMPTY)
            .map(|&c| seq_of(c))
            .collect();
        numbers.sort_unstable();
        let mut expected: Vec<u32> = (0..clock.len()).map(|at| clock.seq_at(at)).collect();
        expected.sort_unstable();
        assert_eq!(numbers, expected, "one cell per slot");
        for (at, slot) in clock.slots.iter().enumerate() {
            let hash = clock.hasher.hash_one(join(slot.key));
            let (cell, found) = clock
                .find(hash, join(slot.key))
                .expect("every slot is reachable");
            assert_eq!(found, at);
            assert_eq!(clock.table[cell] & !MARK, pack(hash, clock.seq_at(at)));
        }
    }

    /// SplitMix64, so a sequence is fixed by its seed.
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

    /// Random gets and puts over a few hundred keys, applied to `clock` and
    /// to the reference map alike. After every step, each get must answer
    /// the same, the two must hold the same entries in the same sweep order
    /// with the same marks, and `clock` must keep its invariants. `value`
    /// turns a drawn length into the value to store.
    fn random_traffic<V: PartialEq + std::fmt::Debug>(
        mut clock: Clock<V>,
        value: impl Fn(usize) -> V,
    ) -> Clock<V> {
        let mut next = splitmix(0x5eed);
        let keys: Vec<u128> = (0..300)
            .map(|_| (u128::from(next()) << 64) | u128::from(next()))
            .collect();
        let mut reference = Reference::new(clock.budget, clock.weigh);
        for step in 0..8_000 {
            let key = keys[next() as usize % keys.len()];
            // 1..=300: some byte-weighted values exceed the budget alone.
            let len = 1 + next() as usize % 300;
            if next().is_multiple_of(2) {
                clock.put(key, value(len));
                reference.put(key, value(len));
            } else {
                assert_eq!(clock.get(key), reference.get(key), "step {step}");
            }
            assert_eq!(clock.len(), reference.map.len(), "step {step}");
            assert_eq!(clock.weight(), reference.weight, "step {step}");
            assert_eq!(order(&clock), reference.order(), "step {step}");
            check(&clock);
        }
        clock
    }

    #[test]
    fn byte_weights_keep_the_invariants_under_random_traffic() {
        random_traffic(Clock::new(256, bytes), body);
    }

    #[test]
    fn entry_weights_keep_the_invariants_under_random_traffic() {
        random_traffic(Clock::new(40, one), |len| len as u64);
    }

    #[test]
    fn sequence_numbers_wrap_without_losing_an_entry() {
        for start in [SEQ - 1, SEQ - 300] {
            let mut clock = Clock::new(40, one);
            clock.base = start;
            let clock = random_traffic(clock, |len| len as u64);
            assert!(clock.base < start, "base {} never wrapped", clock.base);
        }
        let mut clock = Clock::new(256, bytes);
        clock.base = SEQ - 1;
        random_traffic(clock, body);
    }

    #[test]
    fn patterned_keys_keep_probes_short() {
        // 4,096 keys sharing their low 64 bits, then 4,096 multiples of
        // 2^64: a table indexed by the key's own low bits would put each
        // set on one home and probe up to 4,096 cells. Hashed, at this load
        // (4,096 in 8,192 cells), the longest probe read 12-41 cells over
        // 120 fills; the bound leaves room for the random hasher's tail.
        const KEYS: u128 = 4096;
        let patterns: [fn(u128) -> u128; 2] = [|k| (k << 64) | 0x5eed, |k| k << 64];
        for pattern in patterns {
            let mut clock = Clock::new(KEYS as usize, one);
            for k in 0..KEYS {
                clock.put(pattern(k), 0);
            }
            assert_eq!(clock.len(), 4096);
            assert_eq!(clock.table.len(), 8192);
            assert!((0..KEYS).all(|k| clock.get(pattern(k)).is_some()));
            let longest = longest_probe(&clock);
            assert!(longest <= 128, "longest probe {longest} cells");
            // Churn through as many new keys again: every put evicts one.
            for k in KEYS..2 * KEYS {
                clock.put(pattern(k), 0);
            }
            assert_eq!(clock.table.len(), 8192, "churn never grows the table");
            let longest = longest_probe(&clock);
            assert!(longest <= 128, "longest probe {longest} cells after churn");
            check(&clock);
        }
    }

    #[test]
    fn spread_moves_every_top_bit() {
        // Keys differing only in their low bits, as consecutive grid
        // points' digests may: the top 4 bits still take all 16 values,
        // each for about 1/16 of the keys.
        let mut shards = [0u32; 16];
        for k in 0..16_000u128 {
            shards[(spread(k) >> 60) as usize] += 1;
        }
        assert!(
            shards.iter().all(|&n| (800..1200).contains(&n)),
            "{shards:?}"
        );
        // Unseeded: splitmix64's first output from state 0, in every run.
        assert_eq!(spread(0), 0xe220_a839_7b1d_cdaf);
    }
}
