//! Seeded cross-thread property test for the epoch gate.
//!
//! The engine's threaded scheduler lets every worker take the same
//! scheduling decision with no leader because every worker reads back
//! the same [`EpochGate`] view each round. That property is exercised
//! here under real thread interleavings: random worker counts, random
//! round counts and random per-worker digests. That every cross-shard
//! message is delivered exactly once is checked in the engine, by the
//! audit's `pdes-mailbox-conservation` rule and by its worker-count
//! equality tests.

use desim::pdes::GATE_DIRTY;
use desim::EpochGate;
use test_support::cases;

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
