//! Warm-engine reuse safety: an [`Engine`] that ran a workload and was
//! [`Engine::reset`] must be indistinguishable from a cold
//! [`Engine::new`] — down to the serialized report bytes — on every
//! preset. This is the invariant the `simd` daemon's warm worker pool
//! rests on: reusing an engine must never leak state between requests.

use emu_core::ctx::{Deadline, RunCtx};
use emu_core::json::{json_ok, report_json};
use emu_core::prelude::*;
use std::time::{Duration, Instant};

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

/// A ctx that caps every run started in scope at `cap` events.
fn capped(cap: u64) -> RunCtx {
    RunCtx {
        max_events: Some(cap),
        ..RunCtx::default()
    }
}

/// A ctx whose runs must finish within `ms` milliseconds from now.
fn due_in(ms: u64) -> RunCtx {
    RunCtx {
        deadline: Deadline::new(Instant::now(), Duration::from_millis(ms)),
        ..RunCtx::default()
    }
}

#[test]
fn warm_reset_matches_cold_after_error() {
    // A run stopped by the ctx's event cap must not poison the engine
    // for the next request.
    let cfg = presets::chick_prototype();
    let cold = cold_report(&cfg, 2);

    let mut warm = Engine::new(cfg.clone()).unwrap();
    seed_workload(&mut warm, 6);
    assert!(matches!(
        capped(10).scope(|| warm.run_once()),
        Err(SimError::EventCapExceeded { cap: 10 })
    ));
    warm.reset();
    seed_workload(&mut warm, 2);
    assert_eq!(cold, report_json("run", &warm.run_once().unwrap()));
}

#[test]
fn ctx_event_cap_beats_fault_plan_and_ends_with_its_scope() {
    let mut cfg = presets::chick_prototype();
    cfg.faults.max_events = 1_000_000;
    let mut e = Engine::new(cfg).unwrap();
    seed_workload(&mut e, 4);
    assert!(matches!(
        capped(5).scope(|| e.run_once()),
        Err(SimError::EventCapExceeded { cap: 5 })
    ));
    // A cap of 0 defers to the plan, and so does the world outside the
    // scope: the same workload completes on the same engine.
    e.reset();
    seed_workload(&mut e, 4);
    assert!(capped(0).scope(|| e.run_once()).is_ok());
    e.reset();
    seed_workload(&mut e, 4);
    assert!(e.run_once().is_ok());
}

#[test]
fn passed_deadline_raises_deadline_exceeded() {
    let cfg = presets::chick_prototype();
    let mut e = Engine::new(cfg).unwrap();
    seed_workload(&mut e, 4);
    assert!(matches!(
        due_in(0).scope(|| e.run_once()),
        Err(SimError::DeadlineExceeded { deadline_ms: 0 })
    ));
    // A deadline that does not pass leaves the run untouched and
    // byte-identical.
    e.reset();
    seed_workload(&mut e, 2);
    let guarded = report_json("run", &due_in(60_000).scope(|| e.run_once()).unwrap());
    assert_eq!(guarded, cold_report(e.cfg(), 2));
}

/// A sparse `emu64` ping-pong on two of 64 shards under a deadline of
/// `ms`, dispatching fewer than 1024 events in all, so no drain reaches
/// the every-1024-events check after its shard's first window. From its
/// `sleep_at`-th step (never, when 0), one threadlet sleeps past the
/// deadline, which must still stop the run, through the scheduler's
/// once-per-window check.
fn sparse_sleeping_run(ms: u64, sleep_at: u32) -> Result<RunReport, SimError> {
    let cfg = presets::emu64_full_speed();
    let (a, b) = (NodeletId(0), NodeletId(cfg.nodelets_per_node));
    let mut e = Engine::new(cfg).unwrap();
    let ctx = due_in(ms);
    let until = ctx.deadline.expect("representable").at;
    for (start, nap_at) in [(a, sleep_at), (b, 0)] {
        let mut steps = 0;
        let bounce = move |k: &KernelCtx| {
            steps += 1;
            if steps == nap_at {
                let left = until.saturating_duration_since(Instant::now());
                std::thread::sleep(left + Duration::from_millis(1));
            }
            match steps {
                41.. => Op::Quit,
                _ if k.here == a => Op::MigrateTo { nodelet: b },
                _ => Op::MigrateTo { nodelet: a },
            }
        };
        e.spawn_at(start, Box::new(bounce)).unwrap();
    }
    ctx.scope(|| e.run_once())
}

#[test]
fn deadline_passing_mid_run_stops_a_sparse_run() {
    let calm = sparse_sleeping_run(60_000, 0).expect("a run inside its deadline completes");
    assert_eq!(calm.total_migrations(), 80);
    assert!(calm.events < 1024, "{} events", calm.events);
    assert!(matches!(
        sparse_sleeping_run(77, 10),
        Err(SimError::DeadlineExceeded { deadline_ms: 77 })
    ));
}
