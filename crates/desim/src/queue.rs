//! The event queue at the heart of each discrete-event engine.
//!
//! Events are ordered by time, with a tie-break key breaking ties:
//! insertion order (a monotonically increasing sequence number) for
//! [`EventQueue::schedule`], or a caller-supplied key for
//! [`EventQueue::schedule_keyed`]. Deterministic tie-breaking matters:
//! several threadlets frequently become ready at the same picosecond,
//! and FIFO semantics at downstream resources depend on a stable pop
//! order.
//!
//! The store is one binary min-heap over `(time, key)`. Sharded engines
//! keep one queue per nodelet, and each holds only a few to a few dozen
//! pending events at a pop, so a heap's `O(log n)` sift over one
//! contiguous allocation beats bucketed structures tuned for one dense
//! queue (EXPERIMENTS.md, "Event queue").

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered queue of events of type `E`.
///
/// `E` carries whatever payload an engine needs (usually a thread id plus
/// a small action tag). Events pop in `(time, key)` order; unkeyed
/// events at equal times pop in insertion order.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Time,
    key: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the simulation clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `n` pending events, so the
    /// steady-state population never reallocates mid-run.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event (the engine's "now").
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics (debug builds) if `at` is in the past — schedule-in-the-past
    /// is always an engine bug.
    pub fn schedule(&mut self, at: Time, event: E) {
        let key = self.seq;
        self.seq += 1;
        self.schedule_keyed(at, key, event);
    }

    /// Schedule `event` at `at` under a caller-supplied tie-break `key`
    /// instead of the queue's internal insertion counter.
    ///
    /// Sharded engines use this to make pop order a pure function of the
    /// event population: when every event carries an intrinsic key (for
    /// example `source_shard << 40 | per_source_sequence`), the order
    /// `(at, key)` does not depend on which worker inserted first, so a
    /// run merged from several queues reproduces the single-queue order
    /// exactly. Callers are responsible for key uniqueness per time; the
    /// internal counter is left untouched, so `schedule` and
    /// `schedule_keyed` should not be mixed on one queue.
    ///
    /// # Panics
    /// Panics (debug builds) if `at` is in the past.
    #[inline]
    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        self.heap.push(Reverse(Entry { at, key, event }));
    }

    /// Pop the earliest event together with its tie-break key, advancing
    /// the clock to its time.
    ///
    /// The companion of [`EventQueue::schedule_keyed`]: sharded engines
    /// need the key back to merge several queues into one global
    /// `(time, key)` order.
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time ran backwards");
        self.now = entry.at;
        Some((entry.at, entry.key, entry.event))
    }

    /// Time and tie-break key of the earliest pending event, if any.
    ///
    /// Peeking leaves the queue untouched, so it still accepts events
    /// earlier than the peeked one (a sharded engine peeks past its
    /// epoch horizon, then delivers mailbox events that sort before
    /// what it saw).
    #[inline]
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.key))
    }

    /// Pop the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_keyed().map(|(at, _, event)| (at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(5), "c");
        q.schedule(Time::from_ns(1), "a");
        q.schedule(Time::from_ns(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn equal_times_pop_fifo_when_interleaved_with_pops() {
        // FIFO must hold even when new equal-time events arrive while
        // that time is being drained.
        let mut q = EventQueue::new();
        let t = Time::from_ns(7);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn far_future_events_interleave_with_near_ones() {
        let far = Time::from_ms(1);
        let mut q = EventQueue::new();
        q.schedule(far * 10, 3);
        q.schedule(Time::from_ps(1), 1);
        q.schedule(far * 2, 2);
        q.schedule(far * 10, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), 0);
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.peek_key(), Some((Time::from_ns(10), 0)));
        q.pop().unwrap();
        assert_eq!(q.now(), Time::from_ns(10));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(Time::from_ns(1), 0);
        q.schedule(Time::from_ns(2), 0);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keyed_pop_order_is_time_then_key() {
        let mut q = EventQueue::with_capacity(8);
        // Keys arrive out of order; pops must follow (time, key), not
        // insertion order.
        q.schedule_keyed(Time::from_ns(5), 7, "d");
        q.schedule_keyed(Time::from_ns(5), 2, "c");
        q.schedule_keyed(Time::from_ns(1), 9, "b");
        q.schedule_keyed(Time::from_ns(1), 1, "a");
        assert_eq!(q.peek_key(), Some((Time::from_ns(1), 1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_keyed())
            .map(|(_, k, e)| (k, e))
            .collect();
        assert_eq!(
            order,
            vec![(1, "a"), (9, "b"), (2, "c"), (7, "d")],
            "keyed order diverged"
        );
        assert_eq!(q.now(), Time::from_ns(5));
    }

    #[test]
    fn peek_key_sees_the_earliest_event_without_popping() {
        let mut q = EventQueue::new();
        q.schedule_keyed(Time::from_ms(3), 11, ());
        assert_eq!(q.peek_key(), Some((Time::from_ms(3), 11)));
        q.schedule_keyed(Time::from_ns(40), 4, ());
        assert_eq!(q.peek_key(), Some((Time::from_ns(40), 4)));
        // Peeking must not disturb the pop order.
        assert_eq!(q.pop_keyed().map(|(_, k, _)| k), Some(4));
        assert_eq!(q.pop_keyed().map(|(_, k, _)| k), Some(11));
        assert!(q.pop_keyed().is_none());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), ());
        q.pop();
        q.schedule(Time::from_ns(5), ());
    }
}
