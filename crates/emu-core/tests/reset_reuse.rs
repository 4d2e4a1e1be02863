//! Warm-engine reuse safety: an [`Engine`] that ran a workload and was
//! [`Engine::reset`] must be indistinguishable from a cold
//! [`Engine::new`] — down to the serialized report bytes — on every
//! preset. This is the invariant the `simd` daemon's warm worker pool
//! rests on: reusing an engine must never leak state between requests.

use emu_core::json::{json_ok, report_json};
use emu_core::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A migration-heavy mixed workload: every nodelet hosts a threadlet
/// that loads locally, reads a remote word (migrating), computes, posts
/// a remote store and atomic, and hops home. `scale` varies the op
/// counts so consecutive requests differ.
fn seed_workload(engine: &mut Engine, scale: u32) {
    let total = engine.cfg().total_nodelets();
    for n in 0..total {
        let next = NodeletId((n + 1) % total);
        let here = NodeletId(n);
        let mut ops = Vec::new();
        for k in 0..scale {
            ops.push(Op::Load {
                addr: GlobalAddr::new(here, 0x40 + 8 * k as u64),
                bytes: 8,
            });
            ops.push(Op::Load {
                addr: GlobalAddr::new(next, 0x80),
                bytes: 8,
            });
            ops.push(Op::Compute { cycles: 5 + k });
            ops.push(Op::Store {
                addr: GlobalAddr::new(next, 0xc0),
                bytes: 8,
            });
            ops.push(Op::AtomicAdd {
                addr: GlobalAddr::new(here, 0x100),
                bytes: 8,
            });
            ops.push(Op::MigrateTo { nodelet: here });
        }
        engine
            .spawn_at(here, Box::new(ScriptKernel::new(ops)))
            .unwrap();
    }
}

fn cold_report(cfg: &MachineConfig, scale: u32) -> String {
    let mut engine = Engine::new(cfg.clone()).unwrap();
    seed_workload(&mut engine, scale);
    report_json("run", &engine.run_once().unwrap())
}

#[test]
fn warm_reset_matches_cold_on_all_presets() {
    let presets: [(&str, MachineConfig); 5] = [
        ("chick_prototype", presets::chick_prototype()),
        ("chick_toolchain_sim", presets::chick_toolchain_sim()),
        ("chick_full_speed", presets::chick_full_speed()),
        ("emu64_full_speed", presets::emu64_full_speed()),
        ("chick_8node_prototype", presets::chick_8node_prototype()),
    ];
    for (name, cfg) in presets {
        let cold = cold_report(&cfg, 3);
        assert!(json_ok(&cold), "{name}: cold report not valid JSON");

        // Dirty the warm engine with a *different* workload first, so a
        // leak of any shard state (queues, counters, histograms, fault
        // draws, tids) would show up in the comparison.
        let mut warm = Engine::new(cfg.clone()).unwrap();
        seed_workload(&mut warm, 5);
        warm.run_once().unwrap();
        warm.reset();
        seed_workload(&mut warm, 3);
        let warm_json = report_json("run", &warm.run_once().unwrap());
        assert_eq!(cold, warm_json, "{name}: warm reuse diverged from cold");
    }
}

#[test]
fn warm_reset_matches_cold_with_trace_and_timelines() {
    let cfg = presets::chick_prototype();
    let mk = || {
        let mut e = Engine::new(cfg.clone()).unwrap();
        e.enable_trace(4096);
        e.enable_timeline(desim::time::Time::from_us(5)).unwrap();
        e
    };
    let mut cold = mk();
    seed_workload(&mut cold, 2);
    let cold_json = report_json("run", &cold.run_once().unwrap());

    let mut warm = mk();
    seed_workload(&mut warm, 7);
    warm.run_once().unwrap();
    warm.reset();
    seed_workload(&mut warm, 2);
    let warm_json = report_json("run", &warm.run_once().unwrap());
    assert!(
        cold_json.contains("\"trace\":{"),
        "trace missing from report"
    );
    assert!(
        cold_json.contains("\"timelines\":{"),
        "timelines missing from report"
    );
    assert_eq!(cold_json, warm_json);
}

#[test]
fn warm_reset_matches_cold_after_error() {
    // A run killed by the per-request event cap must not poison the
    // engine for the next request.
    let cfg = presets::chick_prototype();
    let cold = cold_report(&cfg, 2);

    let mut warm = Engine::new(cfg.clone()).unwrap();
    warm.set_event_cap(Some(10));
    seed_workload(&mut warm, 6);
    assert!(matches!(
        warm.run_once(),
        Err(SimError::EventCapExceeded { cap: 10 })
    ));
    warm.reset();
    seed_workload(&mut warm, 2);
    assert_eq!(cold, report_json("run", &warm.run_once().unwrap()));
}

#[test]
fn event_cap_override_beats_fault_plan_and_resets() {
    let cfg = presets::chick_prototype();
    let mut e = Engine::new(cfg).unwrap();
    e.set_event_cap(Some(5));
    seed_workload(&mut e, 4);
    assert!(matches!(
        e.run_once(),
        Err(SimError::EventCapExceeded { cap: 5 })
    ));
    // reset() clears the override: the same workload now completes.
    e.reset();
    seed_workload(&mut e, 4);
    assert!(e.run_once().is_ok());
}

#[test]
fn tripped_cancel_flag_raises_deadline_exceeded() {
    let cfg = presets::chick_prototype();
    let mut e = Engine::new(cfg).unwrap();
    let flag = Arc::new(AtomicBool::new(true));
    e.set_cancel(Arc::clone(&flag), 123);
    seed_workload(&mut e, 4);
    assert!(matches!(
        e.run_once(),
        Err(SimError::DeadlineExceeded { deadline_ms: 123 })
    ));
    // An unset flag leaves the run untouched and byte-identical.
    e.reset();
    let calm = Arc::new(AtomicBool::new(false));
    e.set_cancel(calm, 123);
    seed_workload(&mut e, 2);
    let guarded = report_json("run", &e.run_once().unwrap());
    assert_eq!(guarded, cold_report(e.cfg(), 2));
}

/// Bounces between two nodelets for `hops` migrations and raises `flag`
/// from inside its `trip_at`-th step (never, when `trip_at` is 0).
struct Tripper {
    flag: Arc<AtomicBool>,
    ends: (NodeletId, NodeletId),
    hops: u32,
    trip_at: u32,
    steps: u32,
}

impl Kernel for Tripper {
    fn step(&mut self, ctx: &KernelCtx) -> Op {
        self.steps += 1;
        if self.steps == self.trip_at {
            self.flag.store(true, Ordering::Relaxed);
        }
        if self.steps > self.hops {
            return Op::Quit;
        }
        let (a, b) = self.ends;
        Op::MigrateTo {
            nodelet: if ctx.here == a { b } else { a },
        }
    }
}

/// A sparse `emu64` ping-pong on two of 64 shards, dispatching fewer
/// than 1024 events in all, so no drain reaches the every-1024-events
/// poll after its shard's first window: a flag raised mid-run must
/// still stop it, through the scheduler's once-per-window poll.
fn sparse_tripped_run(trip_at: u32) -> Result<RunReport, SimError> {
    let cfg = presets::emu64_full_speed();
    let ends = (NodeletId(0), NodeletId(cfg.nodelets_per_node));
    let mut e = Engine::new(cfg).unwrap();
    let flag = Arc::new(AtomicBool::new(false));
    e.set_cancel(Arc::clone(&flag), 77);
    for start in [ends.0, ends.1] {
        let k = Tripper {
            flag: Arc::clone(&flag),
            ends,
            hops: 40,
            trip_at: if start == ends.0 { trip_at } else { 0 },
            steps: 0,
        };
        e.spawn_at(start, Box::new(k)).unwrap();
    }
    e.run_once()
}

#[test]
fn cancel_flag_raised_mid_run_stops_a_sparse_run() {
    let calm = sparse_tripped_run(0).expect("an untripped run completes");
    assert_eq!(calm.total_migrations(), 80);
    assert!(calm.events < 1024, "{} events", calm.events);
    assert!(matches!(
        sparse_tripped_run(10),
        Err(SimError::DeadlineExceeded { deadline_ms: 77 })
    ));
}
