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
//! **Ordering contract.** Events pop in ascending `(time, key)` order.
//! Keys are unique per time (the insertion counter by construction,
//! caller keys by the caller's promise), so the pop sequence is a pure
//! function of the scheduled set: any correct min-heap yields the same
//! sequence, and swapping the heap's shape never moves a report byte.
//!
//! **Why a hand-written heap.** Sharded engines keep one queue per
//! nodelet, and each holds only a few to a few dozen pending events at
//! a pop, so a heap's `O(log n)` sift over one contiguous allocation
//! beats bucketed structures tuned for one dense queue (EXPERIMENTS.md,
//! "Event queue"). At those depths the constant factors of
//! `std::collections::BinaryHeap` dominate: its pop sifts the hole to
//! the bottom and back up (Floyd's method, which pays off only for deep
//! heaps with expensive compares), and every compare is a two-field
//! tuple compare through `Ord`. This heap moves the hole down only as
//! far as the moving entry belongs, with one integer compare per child
//! and a branch-free pick of the smaller child. It is binary by
//! measurement: a 4-ary variant ran about 1% slower on the benchmark's
//! `engine` points, where its shorter paths save less than scanning
//! four children costs.
//!
//! **Packed keys.** Each entry carries its order as one `u128`,
//! `k = time_ps << 64 | key`, so `(time, key)` order is plain unsigned
//! integer order and both halves unpack exactly. Every `u64` time
//! (including [`Time::MAX`]) and every `u64` key packs without loss.
//!
//! **`E: Copy`.** Events are small plain values (an arena handle and a
//! tag in the Emu engine), so sifting moves entries by copying them
//! into and out of a hole, in safe code, with no swaps or drops.

use crate::time::Time;

/// A time-ordered queue of events of type `E`.
///
/// `E` carries whatever payload an engine needs (usually a thread id plus
/// a small action tag). Events pop in `(time, key)` order; unkeyed
/// events at equal times pop in insertion order.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Implicit binary min-heap on `Entry::k`: the children of slot `i`
    /// are `2i + 1` and `2i + 2`.
    heap: Vec<Entry<E>>,
    seq: u64,
    now: Time,
}

#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    /// `time_ps << 64 | key`: the entry's whole sort order.
    k: u128,
    event: E,
}

#[inline]
fn pack(at: Time, key: u64) -> u128 {
    (at.ps() as u128) << 64 | key as u128
}

#[inline]
fn unpack(k: u128) -> (Time, u64) {
    (Time::from_ps((k >> 64) as u64), k as u64)
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue with the simulation clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `n` pending events, so the
    /// steady-state population never reallocates mid-run.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
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
        let new = Entry {
            k: pack(at, key),
            event,
        };
        self.heap.push(new);
        let h = &mut self.heap[..];
        // Sift up: move the hole from the new leaf towards the root past
        // every parent that sorts after the new entry.
        let mut hole = h.len() - 1;
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if h[parent].k <= new.k {
                break;
            }
            h[hole] = h[parent];
            hole = parent;
        }
        h[hole] = new;
    }

    /// Pop the earliest event together with its tie-break key, advancing
    /// the clock to its time.
    ///
    /// The companion of [`EventQueue::schedule_keyed`]: sharded engines
    /// need the key back to merge several queues into one global
    /// `(time, key)` order.
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.refill_root(last);
                top
            }
            None => last,
        };
        let (at, key) = unpack(top.k);
        debug_assert!(at >= self.now, "time ran backwards");
        self.now = at;
        Some((at, key, top.event))
    }

    /// Put `moving` (the former last leaf) into the hole the popped root
    /// left: walk the hole down to the smaller child while that child
    /// sorts before `moving`.
    #[inline]
    fn refill_root(&mut self, moving: Entry<E>) {
        let h = &mut self.heap[..];
        let n = h.len();
        let mut hole = 0;
        let mut first = 1;
        while first + 1 < n {
            // The smaller child by adding the compare's outcome, not by
            // branching on it: the outcome is a coin flip, and LLVM keeps
            // this form branch-free where a select becomes a jump.
            let child = first + usize::from(h[first + 1].k < h[first].k);
            if moving.k <= h[child].k {
                break;
            }
            h[hole] = h[child];
            hole = child;
            first = 2 * hole + 1;
        }
        // A lone last child (the heap's length is even).
        if first + 1 == n && h[first].k < moving.k {
            h[hole] = h[first];
            hole = first;
        }
        h[hole] = moving;
    }

    /// Time and tie-break key of the earliest pending event, if any.
    ///
    /// Peeking leaves the queue untouched, so it still accepts events
    /// earlier than the peeked one (a sharded engine peeks past its
    /// epoch horizon, then delivers mailbox events that sort before
    /// what it saw).
    #[inline]
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.heap.first().map(|e| unpack(e.k))
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

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

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

    /// An [`EventQueue`] run in lockstep with a sorted-vector oracle:
    /// after every operation, pops, peeks and lengths must agree.
    struct Lockstep {
        q: EventQueue<u64>,
        /// Pending `(time, key, id)`, sorted descending so the next pop
        /// is at the back.
        oracle: Vec<(Time, u64, u64)>,
        keyed: bool,
        next_id: u64,
    }

    impl Lockstep {
        fn new(keyed: bool) -> Self {
            Lockstep {
                q: EventQueue::new(),
                oracle: Vec::new(),
                keyed,
                next_id: 0,
            }
        }

        /// Schedule one event at `at`: under `key` when keyed, else
        /// under the queue's insertion counter (which equals the id).
        fn schedule(&mut self, at: Time, key: u64) {
            let id = self.next_id;
            self.next_id += 1;
            let key = if self.keyed {
                self.q.schedule_keyed(at, key, id);
                key
            } else {
                self.q.schedule(at, id);
                id
            };
            let i = self.oracle.partition_point(|&(t, k, _)| (t, k) > (at, key));
            self.oracle.insert(i, (at, key, id));
            self.check();
        }

        /// Schedule one event at most 3 ps after now (so times tie
        /// often) under a unique, scrambled key.
        fn schedule_soon(&mut self, rng: &mut Rng64) {
            let at = self.q.now() + Time::from_ps(rng.gen_below(4));
            let key = rng.gen_below(8) << 32 | self.next_id;
            self.schedule(at, key);
        }

        fn pop(&mut self) {
            assert_eq!(self.q.pop_keyed(), self.oracle.pop(), "pop diverged");
            self.check();
        }

        fn drain(&mut self) {
            while !self.oracle.is_empty() {
                self.pop();
            }
            assert!(self.q.is_empty() && self.q.pop_keyed().is_none());
        }

        fn check(&self) {
            assert_eq!(self.q.len(), self.oracle.len(), "length diverged");
            let next = self.oracle.last().map(|&(t, k, _)| (t, k));
            assert_eq!(self.q.peek_key(), next, "peek diverged");
        }
    }

    #[test]
    fn times_at_and_next_to_time_max_pack_exactly() {
        let max = Time::MAX.ps();
        for keyed in [false, true] {
            let mut l = Lockstep::new(keyed);
            for (ps, key) in [
                (max, 5),
                (max - 1, 0),
                (0, u64::MAX),
                (max, 0),
                (1, 1 << 63),
                (max - 1, u64::MAX),
                (max, u64::MAX),
            ] {
                l.schedule(Time::from_ps(ps), key);
            }
            l.drain();
            assert_eq!(l.q.now(), Time::MAX);
        }
    }

    #[test]
    fn extreme_keys_sort_within_a_time_and_below_the_next() {
        // A key's top bit and a key of all ones must neither spill into
        // the time half of the packed order nor wrap below key 0.
        let t = Time::from_ns(3);
        let next = t + Time::from_ps(1);
        let mut l = Lockstep::new(true);
        for (at, key) in [
            (next, 0),
            (t, u64::MAX),
            (t, 1 << 63),
            (t, 0),
            (next, 1 << 63),
            (t, (1 << 63) - 1),
            (Time::MAX, u64::MAX),
            (Time::MAX, 0),
            (next, u64::MAX),
            (t, 1),
        ] {
            l.schedule(at, key);
        }
        l.drain();
    }

    #[test]
    fn equal_times_order_by_shard_key_namespace() {
        // Sharded engines key events `(shard + 1) << 40 | seq`, with
        // pre-run spawns in namespace 0; at one time, events pop by
        // namespace, then by sequence, whatever the arrival order.
        let mut rng = Rng64::new(0x5A4D);
        let mut keys: Vec<u64> = (0..=64u64)
            .flat_map(|ns| (0..4).map(move |seq| ns << 40 | seq))
            .collect();
        rng.shuffle(&mut keys);
        let mut l = Lockstep::new(true);
        for (i, &key) in keys.iter().enumerate() {
            l.schedule(Time::from_ns(10 + i as u64 % 2), key);
        }
        for _ in 0..keys.len() / 2 {
            l.pop();
        }
        // Later sends from every namespace land at the second time while
        // it is draining.
        for ns in 0..=64u64 {
            l.schedule(Time::from_ns(11), ns << 40 | 4);
        }
        l.drain();
    }

    #[test]
    fn populations_at_every_level_boundary_match_sorted_oracle() {
        let mut rng = Rng64::new(0x1EAF);
        for level in 0..=4 {
            let full = 1usize << level;
            for pending in [full - 1, full, full + 1] {
                for keyed in [false, true] {
                    let mut l = Lockstep::new(keyed);
                    for _ in 0..pending {
                        l.schedule_soon(&mut rng);
                    }
                    // Hold the population at the boundary: every pop
                    // refills the root from the last leaf, every push
                    // opens the next leaf.
                    for _ in 0..=pending {
                        l.pop();
                        l.schedule_soon(&mut rng);
                    }
                    l.schedule_soon(&mut rng);
                    l.pop();
                    l.drain();
                }
            }
        }
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
