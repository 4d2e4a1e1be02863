//! Telemetry determinism and reconciliation, end to end:
//!
//! * the same seed + config must yield **byte-identical** JSONL event
//!   logs, Chrome traces, and report JSON across runs;
//! * trace event counts must reconcile exactly with the engine's
//!   `NodeletCounters` totals (spawns, migrations, NACKs);
//! * every emitted artifact must pass the JSON syntax validator;
//! * telemetry stays `None` on reports when it was never enabled.
//!
//! These tests use the engine-level `enable_trace` / `enable_timeline`
//! API directly (not the process-global config), so they are safe under
//! the parallel test runner.

use desim::time::Time;
use emu_bench::telemetry::report_set_json;
use emu_core::json::{chrome_trace, json_ok, jsonl_ok, trace_jsonl};
use emu_core::prelude::*;

fn nl(i: u32) -> NodeletId {
    NodeletId(i)
}

/// A small cross-nodelet workload: remote spawns that load and store on
/// rotating nodelets, plus an atomic — exercises spawn, migration,
/// load, store, atomic, and remote-packet trace kinds.
fn busy_script() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..6u32 {
        ops.push(Op::Spawn {
            kernel: Box::new(ScriptKernel::new(vec![
                Op::Load {
                    addr: GlobalAddr::new(nl(i % 8), 0),
                    bytes: 8,
                },
                Op::Store {
                    addr: GlobalAddr::new(nl((i + 3) % 8), 0),
                    bytes: 8,
                },
            ])),
            place: Placement::On(nl(i % 8)),
        });
    }
    ops.push(Op::AtomicAdd {
        addr: GlobalAddr::new(nl(7), 0),
        bytes: 8,
    });
    ops
}

fn traced_run(cfg: MachineConfig) -> RunReport {
    let mut e = Engine::new(cfg).expect("engine");
    e.enable_trace(1 << 16);
    e.enable_timeline(Time::from_us(1))
        .expect("timeline bucket");
    e.spawn_at(nl(0), Box::new(ScriptKernel::new(busy_script())))
        .expect("spawn");
    e.run().expect("run")
}

fn nacky_config() -> MachineConfig {
    let mut cfg = presets::chick_prototype();
    cfg.faults.mig_nack_prob = 0.5;
    cfg.faults.mig_retry_budget = 64;
    cfg
}

#[test]
fn identical_runs_yield_byte_identical_artifacts() {
    let a = traced_run(presets::chick_prototype());
    let b = traced_run(presets::chick_prototype());

    let jsonl_a = trace_jsonl(&a);
    let jsonl_b = trace_jsonl(&b);
    assert_eq!(jsonl_a, jsonl_b, "JSONL event logs must be byte-identical");

    let report_a = report_set_json("det", None, std::slice::from_ref(&a));
    let report_b = report_set_json("det", None, std::slice::from_ref(&b));
    assert_eq!(report_a, report_b, "report JSON must be byte-identical");

    let chrome_a = chrome_trace(&a);
    let chrome_b = chrome_trace(&b);
    assert_eq!(chrome_a, chrome_b, "Chrome traces must be byte-identical");
}

#[test]
fn artifacts_pass_the_json_validator() {
    let r = traced_run(presets::chick_prototype());
    assert!(json_ok(&chrome_trace(&r)));
    assert!(json_ok(&report_set_json(
        "check",
        None,
        std::slice::from_ref(&r)
    )));
    assert!(jsonl_ok(&trace_jsonl(&r)));
}

#[test]
fn trace_counts_reconcile_with_counters() {
    let r = traced_run(presets::chick_prototype());
    let log = r.trace.as_ref().expect("trace enabled");
    assert!(log.is_lossless(), "workload must fit the ring");
    assert_eq!(log.count_of(TraceKind::Spawn), r.total_spawns());
    assert_eq!(log.count_of(TraceKind::MigrateOut), r.total_migrations());
    let sums = |f: fn(&NodeletCounters) -> u64| r.nodelets.iter().map(f).sum::<u64>();
    assert_eq!(
        log.count_of(TraceKind::MigrateIn),
        sums(|n| n.migrations_in)
    );
    assert_eq!(log.count_of(TraceKind::LocalLoad), sums(|n| n.local_loads));
    assert_eq!(
        log.count_of(TraceKind::LocalStore),
        sums(|n| n.local_stores)
    );
    assert_eq!(log.count_of(TraceKind::Atomic), sums(|n| n.atomics));
}

#[test]
fn nacks_and_retries_reconcile_on_a_faulted_machine() {
    let r = traced_run(nacky_config());
    let log = r.trace.as_ref().expect("trace enabled");
    assert!(r.total_nacks() > 0, "fault plan must actually NACK");
    assert_eq!(log.count_of(TraceKind::MigNack), r.total_nacks());
    assert_eq!(log.count_of(TraceKind::MigRetry), r.total_retries());

    // The faulted run must be deterministic too, NACK schedule and all.
    let again = traced_run(nacky_config());
    assert_eq!(
        trace_jsonl(&r),
        trace_jsonl(&again),
        "faulted-run JSONL must be byte-identical"
    );
}

#[test]
fn untraced_reports_serialize_with_null_telemetry() {
    let mut e = Engine::new(presets::chick_prototype()).expect("engine");
    e.spawn_at(nl(0), Box::new(ScriptKernel::new(busy_script())))
        .expect("spawn");
    let r = e.run().expect("run");
    assert!(r.trace.is_none());
    assert!(r.timelines.is_none());
    let json = report_set_json("off", None, std::slice::from_ref(&r));
    assert!(json_ok(&json));
    assert!(json.contains("\"trace\":null"));
    assert!(json.contains("\"timelines\":null"));
    // The JSONL degenerates to just the meta line.
    let jsonl = trace_jsonl(&r);
    assert_eq!(jsonl.lines().count(), 1);
    assert!(jsonl_ok(&jsonl));
}
