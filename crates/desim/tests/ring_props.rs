//! Seeded cross-thread property tests for the SPSC exchange fabric.
//!
//! The engine's determinism story leans on two `EdgeRings` guarantees:
//! every posted message is delivered exactly once, and delivery order
//! (which is intentionally unspecified across rings and spills) can be
//! re-established by sorting on an intrinsic key. These properties are
//! exercised here under real thread interleavings — random worker
//! counts, random per-window fan-out, rings sized small enough that the
//! overflow spill path is constantly hot.

use desim::pdes::GATE_DIRTY;
use desim::{EdgeRings, EpochGate};
use std::sync::Barrier;
use test_support::cases;

/// One message: `(key, src, dst)` where `key` is globally unique so a
/// sort recovers a canonical order and duplicates are detectable.
type Msg = (u64, usize, usize);

#[test]
fn every_message_is_delivered_exactly_once_in_key_order() {
    cases(24, 0x51C0, |case, rng| {
        let workers = 2 + rng.gen_below(7) as usize; // 2..=8
        let windows = 1 + rng.gen_below(6) as usize;
        // Tiny capacities keep the spill path hot in about half the
        // cases; larger ones exercise the pure ring path.
        let capacity = 1 << rng.gen_below(5); // 1..16 (min-clamped to 2)
        let rings: EdgeRings<Msg> = EdgeRings::new(workers, capacity);
        let barrier = Barrier::new(workers);

        // Pre-plan every worker's sends so expectations are computable
        // without cross-thread coordination: sends[w][window] is a list
        // of (key, dst). Keys are unique by construction.
        let mut sends: Vec<Vec<Vec<(u64, usize)>>> = vec![vec![Vec::new(); windows]; workers];
        let mut key = case << 32;
        for (src, per_window) in sends.iter_mut().enumerate() {
            for batch in per_window.iter_mut() {
                let n = rng.gen_below(2 * capacity as u64 + 4);
                for _ in 0..n {
                    let dst = rng.gen_below(workers as u64) as usize;
                    if dst != src {
                        batch.push((key, dst));
                        key += 1;
                    }
                }
            }
        }

        let received: Vec<std::sync::Mutex<Vec<Msg>>> = std::iter::repeat_with(Default::default)
            .take(workers)
            .collect();
        std::thread::scope(|s| {
            for (me, my_sends) in sends.iter().enumerate() {
                let rings = &rings;
                let barrier = &barrier;
                let received = &received;
                s.spawn(move || {
                    for batch in my_sends {
                        for &(key, dst) in batch {
                            rings.post(me, dst, [(key, me, dst)]);
                        }
                        rings.publish_from(me);
                        barrier.wait();
                        rings.drain_into(me, &mut received[me].lock().unwrap());
                        barrier.wait();
                    }
                });
            }
        });

        let mut got: Vec<Msg> = Vec::new();
        for (dst, inbox) in received.iter().enumerate() {
            for &msg in inbox.lock().unwrap().iter() {
                assert_eq!(msg.2, dst, "case {case}: message routed to wrong worker");
                got.push(msg);
            }
        }
        got.sort_unstable();
        let mut expect: Vec<Msg> = sends
            .iter()
            .enumerate()
            .flat_map(|(src, per_window)| {
                per_window
                    .iter()
                    .flatten()
                    .map(move |&(key, dst)| (key, src, dst))
            })
            .collect();
        expect.sort_unstable();
        assert_eq!(
            got, expect,
            "case {case}: delivery was not exactly-once (workers={workers}, \
             capacity={capacity}, windows={windows})"
        );
    });
}

#[test]
fn overflow_spill_preserves_every_message_and_counts_them() {
    // Deterministic two-worker overflow: capacity-2 rings, bursts far
    // past capacity. drain_into's return value is what the engine feeds
    // its mailbox depth high-water mark, so it must count ring + spill.
    let rings: EdgeRings<Msg> = EdgeRings::new(2, 2);
    let barrier = Barrier::new(2);
    let counts: [std::sync::Mutex<Vec<usize>>; 2] = Default::default();
    let inboxes: [std::sync::Mutex<Vec<Msg>>; 2] = Default::default();
    const BURSTS: [usize; 3] = [7, 0, 13];
    std::thread::scope(|s| {
        for me in 0..2usize {
            let rings = &rings;
            let barrier = &barrier;
            let counts = &counts;
            let inboxes = &inboxes;
            s.spawn(move || {
                let mut key = me as u64 * 1000;
                for burst in BURSTS {
                    let dst = 1 - me;
                    for _ in 0..burst {
                        rings.post(me, dst, [(key, me, dst)]);
                        key += 1;
                    }
                    rings.publish_from(me);
                    barrier.wait();
                    let inbox = &mut inboxes[me].lock().unwrap();
                    let taken = rings.drain_into(me, inbox);
                    counts[me].lock().unwrap().push(taken);
                    barrier.wait();
                }
            });
        }
    });
    for me in 0..2 {
        assert_eq!(
            *counts[me].lock().unwrap(),
            BURSTS.to_vec(),
            "per-window drain counts must see through the spill"
        );
        let mut got: Vec<u64> = inboxes[me].lock().unwrap().iter().map(|m| m.0).collect();
        got.sort_unstable();
        let base = (1 - me) as u64 * 1000;
        let expect: Vec<u64> = (base..base + BURSTS.iter().sum::<usize>() as u64).collect();
        assert_eq!(got, expect, "spill lost or duplicated a message");
    }
}

#[test]
fn gate_views_stay_identical_under_random_digests() {
    cases(16, 0x6A7E, |case, rng| {
        let workers = 2 + rng.gen_below(7) as usize; // 2..=8
        let rounds = 8 + rng.gen_below(24);
        // Pre-draw every worker's per-round digest inputs.
        let digests: Vec<Vec<(u64, Option<u64>, u64)>> = (0..workers)
            .map(|_| {
                (0..rounds)
                    .map(|_| {
                        let events = rng.gen_below(100);
                        let next = if rng.gen_below(4) == 0 {
                            None
                        } else {
                            Some(rng.gen_below(1 << 40))
                        };
                        let flags = if rng.gen_below(5) == 0 { GATE_DIRTY } else { 0 };
                        (events, next, flags)
                    })
                    .collect()
            })
            .collect();

        let gate = EpochGate::new(workers);
        let views: Vec<std::sync::Mutex<Vec<desim::GateView>>> =
            std::iter::repeat_with(Default::default)
                .take(workers)
                .collect();
        std::thread::scope(|s| {
            for (me, mine) in digests.iter().enumerate() {
                let gate = &gate;
                let views = &views;
                s.spawn(move || {
                    for (round, &(events, next, flags)) in mine.iter().enumerate() {
                        let v = gate.sync(me, round as u64, events, next, flags);
                        views[me].lock().unwrap().push(v);
                    }
                });
            }
        });

        let first = views[0].lock().unwrap().clone();
        for (round, view) in first.iter().enumerate() {
            let expect_events: u64 = digests.iter().map(|d| d[round].0).sum();
            let expect_next = digests.iter().filter_map(|d| d[round].1).min();
            assert_eq!(view.events, expect_events, "case {case} round {round}");
            assert_eq!(view.next_ps, expect_next, "case {case} round {round}");
        }
        for other in &views[1..] {
            assert_eq!(
                *other.lock().unwrap(),
                first,
                "case {case}: workers disagreed on a gate view"
            );
        }
    });
}
