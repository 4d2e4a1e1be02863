//! The synchronization point of conservative parallel discrete-event
//! simulation.
//!
//! A conservative PDES run shards the simulated machine across a fixed
//! worker pool and advances time in *epochs*: windows of simulated time
//! no wider than the minimum cross-shard latency (the *lookahead*).
//! Within an epoch every worker drains its own event queue without
//! synchronization — conservatism guarantees no other shard can inject
//! an event into the window. Workers agree on each window at an
//! [`EpochGate`]: a phased aggregate-and-decide point that costs a
//! single atomic round trip per window. Every worker publishes its
//! window digest (event count, next timestamp, flag bits), bumps one
//! shared commitment counter, and reads back the identical global
//! digest, which also carries the decision for the next window.
//! Windows in which nobody posted cross-shard mail ([`GATE_DIRTY`])
//! commit through the gate alone, with no delivery pass — the common
//! all-local case.
//!
//! Cross-shard mail is the engine's business: it moves mail between
//! workers on either side of a crossing, and its determinism comes from
//! keying every event with an intrinsic `(time, key)` pair (see
//! [`EventQueue::schedule_keyed`](crate::EventQueue::schedule_keyed)),
//! so delivered mail is re-sorted into the destination queue by key
//! whatever order it arrived in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Spin iterations before a waiter yields the CPU.
const SPIN_FAST: u32 = 64;
/// Total spin+yield iterations before a waiter parks in the kernel.
/// A hot gate crossing completes in well under this budget; only a
/// genuine straggler (preempted worker, oversubscribed host) pushes
/// waiters past it.
const SPIN_PARK: u32 = 4096;

/// Pads a value to a cache line so the gate's hot commitment counter
/// shares its line with no other field.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Pad<T>(T);

/// Flag bit in an [`EpochGate`] digest: the worker hit an error.
pub const GATE_ERROR: u64 = 1;
/// Flag bit in an [`EpochGate`] digest: the worker posted cross-shard
/// mail this window (the window is *dirty* and needs a delivery pass).
pub const GATE_DIRTY: u64 = 2;

/// The aggregated digest every worker reads back from an
/// [`EpochGate::sync`]: identical on all workers for a given round, so
/// each can take the same scheduling decision without a leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateView {
    /// Sum of all workers' `events` contributions.
    pub events: u64,
    /// Minimum of all workers' `next_ps` proposals (`None` when every
    /// worker reported none — all queues idle).
    pub next_ps: Option<u64>,
    /// OR of all workers' flag words ([`GATE_ERROR`] | [`GATE_DIRTY`]).
    pub flags: u64,
}

impl GateView {
    /// Whether any worker raised [`GATE_ERROR`].
    pub fn any_error(&self) -> bool {
        self.flags & GATE_ERROR != 0
    }

    /// Whether any worker raised [`GATE_DIRTY`].
    pub fn any_dirty(&self) -> bool {
        self.flags & GATE_DIRTY != 0
    }
}

/// Per-worker, per-parity digest slot. Plain relaxed stores; the
/// commitment counter's AcqRel read-modify-write chain is the only
/// happens-before edge readers need.
#[derive(Debug, Default)]
struct GateSlot {
    events: AtomicU64,
    next_ps: AtomicU64,
    flags: AtomicU64,
}

/// A phased publish-and-aggregate point: the synchronization cost of a
/// *fused* epoch window.
///
/// Where a plain barrier costs two crossings per window (one to
/// separate post from drain, one to agree on the next window), the gate
/// costs a single shared `fetch_add` plus a bounded wait: each worker
/// stores its window digest into its own slot, bumps the commitment
/// counter, waits for the counter to reach `(round + 1) × workers`, and
/// then reads all slots — every worker computes the identical
/// [`GateView`] and can take the identical decision with no leader and
/// no second crossing.
///
/// Slots are double-buffered by round parity: a worker can only write
/// its round-`r + 2` slot after every worker has committed round
/// `r + 1`, which in turn requires every worker to have finished
/// reading round `r` — so a slot is never overwritten while a reader
/// still needs it.
///
/// Waiters spin briefly, yield, then park; the worker whose commit
/// completes a round takes the lock and notifies, so parked waiters
/// always wake.
#[derive(Debug)]
pub struct EpochGate {
    workers: usize,
    /// `slots[worker * 2 + (round & 1)]`.
    slots: Vec<GateSlot>,
    commit: Pad<AtomicU64>,
    lock: Mutex<()>,
    cv: Condvar,
    parks: AtomicU64,
}

impl EpochGate {
    /// A gate for `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a gate needs at least one worker");
        EpochGate {
            workers,
            slots: std::iter::repeat_with(GateSlot::default)
                .take(workers * 2)
                .collect(),
            commit: Pad(AtomicU64::new(0)),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            parks: AtomicU64::new(0),
        }
    }

    /// Publish this worker's digest for `round`, wait for every worker
    /// to do the same, and return the aggregate. `round` must advance
    /// by exactly one per call per worker, in lockstep across workers
    /// (every worker's `round` sequence is identical — which the
    /// identical returned [`GateView`]s make self-sustaining).
    pub fn sync(
        &self,
        worker: usize,
        round: u64,
        events: u64,
        next_ps: Option<u64>,
        flags: u64,
    ) -> GateView {
        let parity = (round & 1) as usize;
        let slot = &self.slots[worker * 2 + parity];
        slot.events.store(events, Ordering::Relaxed);
        slot.next_ps
            .store(next_ps.unwrap_or(u64::MAX), Ordering::Relaxed);
        slot.flags.store(flags, Ordering::Relaxed);

        let target = (round + 1) * self.workers as u64;
        let prev = self.commit.0.fetch_add(1, Ordering::AcqRel);
        if prev + 1 == target {
            // This commit completed the round: wake any parked waiter.
            // Taking the lock orders the wake after any waiter's
            // check-then-wait, closing the missed-notify window.
            let guard = self.lock.lock().expect("gate lock poisoned");
            drop(guard);
            self.cv.notify_all();
        } else {
            let mut spins = 0u32;
            while self.commit.0.load(Ordering::Acquire) < target {
                spins += 1;
                if spins < SPIN_FAST {
                    std::hint::spin_loop();
                } else if spins < SPIN_PARK {
                    std::thread::yield_now();
                } else {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    let mut guard = self.lock.lock().expect("gate lock poisoned");
                    while self.commit.0.load(Ordering::Acquire) < target {
                        guard = self.cv.wait(guard).expect("gate lock poisoned");
                    }
                    break;
                }
            }
        }

        // Every worker has committed `round`; their relaxed slot stores
        // happen-before our Acquire of the commit counter (the AcqRel
        // RMW chain forms one release sequence).
        let mut view = GateView {
            events: 0,
            next_ps: None,
            flags: 0,
        };
        let mut min_next = u64::MAX;
        for w in 0..self.workers {
            let s = &self.slots[w * 2 + parity];
            view.events += s.events.load(Ordering::Relaxed);
            min_next = min_next.min(s.next_ps.load(Ordering::Relaxed));
            view.flags |= s.flags.load(Ordering::Relaxed);
        }
        if min_next != u64::MAX {
            view.next_ps = Some(min_next);
        }
        view
    }

    /// How many syncs fell through the spin budget and parked in the
    /// kernel. Diagnostic only (relaxed counter).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn gate_aggregates_identically_on_every_worker() {
        const W: usize = 4;
        let gate = EpochGate::new(W);
        let views: Vec<Mutex<Vec<GateView>>> = std::iter::repeat_with(|| Mutex::new(Vec::new()))
            .take(W)
            .collect();
        std::thread::scope(|s| {
            for me in 0..W {
                let gate = &gate;
                let views = &views;
                s.spawn(move || {
                    for round in 0..64u64 {
                        let next = if me == (round as usize) % W {
                            None
                        } else {
                            Some(1000 * round + me as u64)
                        };
                        let flags = if me == 0 && round % 3 == 0 {
                            GATE_DIRTY
                        } else {
                            0
                        };
                        let v = gate.sync(me, round, me as u64 + round, next, flags);
                        views[me].lock().unwrap().push(v);
                    }
                });
            }
        });
        let first = views[0].lock().unwrap().clone();
        assert_eq!(first.len(), 64);
        for (round, v) in first.iter().enumerate() {
            let round = round as u64;
            let expect_events: u64 = (0..W as u64).map(|w| w + round).sum();
            assert_eq!(v.events, expect_events);
            let expect_next = (0..W as u64)
                .filter(|&w| w != round % W as u64)
                .map(|w| 1000 * round + w)
                .min();
            assert_eq!(v.next_ps, expect_next);
            assert_eq!(v.any_dirty(), round.is_multiple_of(3));
            assert!(!v.any_error());
        }
        for other in &views[1..] {
            assert_eq!(*other.lock().unwrap(), first, "gate views diverged");
        }
    }

    #[test]
    fn gate_single_worker_is_a_passthrough() {
        let gate = EpochGate::new(1);
        for round in 0..5 {
            let v = gate.sync(0, round, 7, Some(round * 10), GATE_ERROR);
            assert_eq!(v.events, 7);
            assert_eq!(v.next_ps, Some(round * 10));
            assert!(v.any_error());
        }
    }

    #[test]
    fn gate_parked_waiter_wakes_on_straggler_commit() {
        let gate = EpochGate::new(2);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for me in 0..2usize {
                let gate = &gate;
                s.spawn(move || {
                    for round in 0..3u64 {
                        if me == 1 {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        let v = gate.sync(me, round, 1, None, 0);
                        assert_eq!(v.events, 2);
                    }
                });
            }
        });
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(
            gate.parks() >= 1,
            "prompt worker should park while the straggler sleeps (parks = {})",
            gate.parks()
        );
    }
}
