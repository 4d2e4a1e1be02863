//! Seeded chaos: poison requests (worker panics), deadline-doomed
//! runs, and queue-full rejections thrown at one live pool, all in a
//! single scenario. The acceptance bar: zero lost or corrupted
//! responses — every accepted request is answered exactly once, every
//! successful report is byte-identical to a direct cold run of the
//! same spec, and the pool's conservation counters reconcile exactly.

use desim::rng::{rng_from_seed, trial_seed};
use simd::exec::{execute, WarmSlot};
use simd::pool::{Pool, PoolConfig, Reject, Stat};
use simd::proto::{report_slice, Chaos, RunRequest, Spec};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

fn stream_spec(elems: u64) -> Spec {
    Spec::Stream {
        preset: "chick".into(),
        elems,
        threads: 8,
        kernel: "add".into(),
        strategy: "serial".into(),
        single_nodelet: true,
        stack_touch_period: 4,
    }
}

fn normal_req(id: u64, elems: u64) -> RunRequest {
    RunRequest {
        id,
        spec: stream_spec(elems),
        deadline_ms: None,
        max_events: None,
        chaos: None,
    }
}

/// A run that cannot finish inside its deadline: a full-machine
/// recursive-remote STREAM with a 2 ms budget.
fn doomed_req(id: u64) -> RunRequest {
    RunRequest {
        id,
        spec: Spec::Stream {
            preset: "chick".into(),
            elems: 1 << 17,
            threads: 64,
            kernel: "add".into(),
            strategy: "recursive-remote".into(),
            single_nodelet: false,
            stack_touch_period: 4,
        },
        deadline_ms: Some(2),
        max_events: None,
        chaos: None,
    }
}

fn poison_req(id: u64) -> RunRequest {
    let mut r = normal_req(id, 256);
    r.chaos = Some(Chaos::Panic);
    r
}

/// What the daemon must answer for each spec: the direct, cold,
/// single-run report bytes.
fn oracle(elems: &[u64]) -> HashMap<u64, String> {
    elems
        .iter()
        .map(|&e| {
            let out = execute(&mut WarmSlot::new(), &normal_req(0, e), None).unwrap();
            (e, out.report_json)
        })
        .collect()
}

#[test]
fn seeded_chaos_loses_and_corrupts_nothing() {
    const SEED: u64 = 0xC4A0_5EED;
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 6;
    let elems_menu: [u64; 3] = [256, 512, 1024];
    let expected = oracle(&elems_menu);

    let pool = Pool::start(PoolConfig {
        workers: 2,
        queue_cap: 3,
        selfcheck: true,
    });

    // Phase 1: deterministically provoke a queue-full rejection by
    // over-filling the bounded queue with slow requests.
    let mut fillers = Vec::new();
    let mut saw_busy = false;
    for i in 0..32 {
        let (tx, rx) = mpsc::channel();
        match pool.submit(doomed_req(9000 + i), tx) {
            Ok(()) => fillers.push(rx),
            Err(Reject::Busy { .. }) => {
                saw_busy = true;
                break;
            }
            Err(Reject::Draining) => panic!("pool is not draining"),
        }
    }
    assert!(saw_busy, "queue cap of 3 never produced a busy rejection");
    for rx in fillers {
        let r = rx.recv().expect("filler response lost");
        assert!(
            r.contains("\"kind\":\"deadline\""),
            "filler should deadline out: {r}"
        );
    }

    // Phase 2: the seeded storm — submitters race panics, doomed runs,
    // and normal runs against the same pool. Busy pushback is retried
    // client-side, so every request is eventually accepted.
    let outcomes: Vec<(char, u64, String)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..SUBMITTERS {
            let pool = &pool;
            handles.push(scope.spawn(move || {
                let mut rng = rng_from_seed(trial_seed(SEED, s as u64));
                let mut got = Vec::new();
                for i in 0..PER_SUBMITTER {
                    let id = (s * 100 + i) as u64;
                    let roll = rng.gen_range(0u32..10);
                    let (kind, req) = if roll == 0 {
                        ('p', poison_req(id))
                    } else if roll == 1 {
                        ('d', doomed_req(id))
                    } else {
                        let e = [256u64, 512, 1024][rng.gen_range(0usize..3)];
                        ('n', normal_req(id, e))
                    };
                    let elems = match &req.spec {
                        Spec::Stream { elems, .. } => *elems,
                        _ => 0,
                    };
                    let (tx, rx) = mpsc::channel();
                    loop {
                        match pool.submit(req.clone(), tx.clone()) {
                            Ok(()) => break,
                            Err(Reject::Busy { .. }) => {
                                std::thread::sleep(Duration::from_millis(1))
                            }
                            Err(Reject::Draining) => panic!("pool is not draining"),
                        }
                    }
                    let reply = rx.recv().expect("accepted request lost its response");
                    got.push((kind, elems, reply));
                }
                got
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter panicked"))
            .collect()
    });

    assert_eq!(outcomes.len(), SUBMITTERS * PER_SUBMITTER);
    let mut panics = 0u64;
    let mut deadlines = 0u64;
    for (kind, elems, reply) in &outcomes {
        match kind {
            'p' => {
                assert!(reply.contains("\"kind\":\"panic\""), "{reply}");
                panics += 1;
            }
            'd' => {
                assert!(reply.contains("\"kind\":\"deadline\""), "{reply}");
                deadlines += 1;
            }
            _ => {
                assert!(reply.contains("\"ok\":true"), "{reply}");
                let report = report_slice(reply).expect("ok response carries a report");
                assert_eq!(
                    report, expected[elems],
                    "response for elems={elems} diverged from a direct cold run"
                );
            }
        }
    }
    // The seed is chosen to exercise all three fault paths; make that
    // explicit so a future reshuffle of the rng stream gets caught.
    assert!(panics >= 1, "seed produced no poison request");
    assert!(deadlines >= 1, "seed produced no deadline-doomed request");

    // Phase 3: drain and reconcile. Nothing may leak.
    assert!(pool.drain(Duration::from_secs(60)), "drain did not quiesce");
    let leaks = pool.stats().reconcile();
    assert!(leaks.is_empty(), "conservation violated: {leaks:?}");
    let s = pool.stats().snapshot();
    assert_eq!(s.in_flight, 0);
    assert_eq!(s[Stat::FailedPanic], panics);
    assert!(
        s[Stat::Respawns] >= panics,
        "every panic must respawn a worker"
    );
    assert!(s[Stat::RejectedBusy] >= 1);
    assert!(s[Stat::WarmHits] >= 1, "storm never reused a warm engine");
    assert_eq!(s[Stat::SelfcheckFailures], 0);
    assert_eq!(s[Stat::Accepted], s.finished());
}
