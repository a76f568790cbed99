//! Deterministic discrete-event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: fires at `time`, carrying a payload `T`.
struct Scheduled<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
// Ties break by insertion order (seq), making the simulation deterministic.
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

/// A discrete-event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were scheduled,
/// so a simulation run is a pure function of its inputs.
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// An empty queue at time zero with storage pre-sized for `n` pending
    /// events. A simulation that knows its peak event population (e.g.
    /// [`crate::platform::AppRun::peak_pending_events`]) allocates once
    /// instead of regrowing the heap mid-run.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The current simulation time (the fire time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Panics if `at` is in the past — an event scheduled before `now` would
    /// violate causality.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} before current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            payload,
        });
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: T) {
        self.schedule(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing the simulation clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let ev = self.heap.pop()?;
        debug_assert!(
            ev.time >= self.now,
            "event queue produced a time regression"
        );
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Advance the clock by `offset` and shift every pending event by the same
    /// amount, mapping each payload through `f`. Relative fire times and the
    /// FIFO tie-break order are preserved exactly (the shift is uniform and
    /// sequence numbers are kept), so the future of the simulation is the
    /// same schedule translated by `offset`. This is the primitive behind
    /// steady-state fast-forward.
    pub fn jump(&mut self, offset: SimTime, mut f: impl FnMut(T) -> T) {
        self.now += offset;
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .map(|s| Scheduled {
                time: s.time + offset,
                seq: s.seq,
                payload: f(s.payload),
            })
            .collect();
    }

    /// Pending events as `(fire_time, &payload)` in pop order (time, then FIFO
    /// sequence), without disturbing the queue. O(n log n); used to fingerprint
    /// the scheduler state when hunting a steady-state period.
    pub fn pending_in_order(&self) -> Vec<(SimTime, &T)> {
        let mut pending: Vec<&Scheduled<T>> = self.heap.iter().collect();
        pending.sort_by(|a, b| a.time.cmp(&b.time).then(a.seq.cmp(&b.seq)));
        pending.into_iter().map(|s| (s.time, &s.payload)).collect()
    }

    /// Whether any events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1);
        q.pop();
        q.schedule_after(SimTime::from_ns(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn jump_shifts_times_and_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..4 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_ns(3), 99);
        q.jump(SimTime::from_ns(100), |p| p);
        assert_eq!(q.now(), SimTime::from_ns(100));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_ns(103), 99),
                (SimTime::from_ns(105), 0),
                (SimTime::from_ns(105), 1),
                (SimTime::from_ns(105), 2),
                (SimTime::from_ns(105), 3),
            ]
        );
    }

    #[test]
    fn jump_maps_payloads() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), 10);
        q.schedule(SimTime::from_ns(2), 20);
        q.jump(SimTime::from_ns(10), |p| p + 1);
        let payloads: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(payloads, vec![11, 21]);
    }

    #[test]
    fn pending_in_order_is_non_destructive_and_sorted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(9), "z");
        q.schedule(SimTime::from_ns(4), "x");
        q.schedule(SimTime::from_ns(4), "y");
        let view: Vec<_> = q
            .pending_in_order()
            .into_iter()
            .map(|(t, p)| (t, *p))
            .collect();
        assert_eq!(
            view,
            vec![
                (SimTime::from_ns(4), "x"),
                (SimTime::from_ns(4), "y"),
                (SimTime::from_ns(9), "z"),
            ]
        );
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn with_capacity_presizes_storage() {
        let q: EventQueue<()> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
