//! Live-registry determinism and reconciliation: identical runs must
//! grow the `obs` registry by identical amounts (histograms compared
//! bucket-wise), and the growth must reconcile against the
//! [`RunReport`] the run produced.
//!
//! Every test serializes on one mutex: the registry is process-global,
//! so concurrent engine runs inside this binary would pollute the
//! deltas being compared.

use emu_core::obs;
use emu_core::prelude::*;
use std::sync::Mutex;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// A small cross-nodelet workload (migrating loads + remote atomics),
/// identical on every call.
fn seed(engine: &mut Engine) {
    for t in 0..6u32 {
        let here = NodeletId(t % 4);
        let there = NodeletId((t + 5) % 8);
        engine
            .spawn_at(
                here,
                Box::new(ScriptKernel::new(vec![
                    Op::Load {
                        addr: GlobalAddr::new(there, 0x40),
                        bytes: 16,
                    },
                    Op::AtomicAdd {
                        addr: GlobalAddr::new(there, 0x80),
                        bytes: 8,
                    },
                    Op::Store {
                        addr: GlobalAddr::new(here, 0x10),
                        bytes: 8,
                    },
                ])),
            )
            .unwrap();
    }
}

fn run_once_measured() -> (RunReport, obs::Snapshot) {
    let base = obs::snapshot();
    let mut engine = Engine::new(presets::chick_prototype()).unwrap();
    seed(&mut engine);
    let report = engine.run().unwrap();
    (report, obs::snapshot().delta(&base))
}

/// The engine-owned series every delta comparison keys on.
const ENGINE_COUNTERS: &[&str] = &[
    "emu_engine_runs_total",
    "emu_engine_failed_runs_total",
    "emu_engine_events_total",
    "emu_pdes_epochs_total",
    "emu_pdes_mailbox_sent_total",
    "emu_pdes_mailbox_delivered_total",
];

#[test]
fn identical_runs_grow_identical_counters() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let (report_a, delta_a) = run_once_measured();
    let (report_b, delta_b) = run_once_measured();
    assert_eq!(
        format!("{report_a:?}"),
        format!("{report_b:?}"),
        "identical runs must produce identical reports"
    );
    for name in ENGINE_COUNTERS {
        assert_eq!(
            delta_a.counter(name),
            delta_b.counter(name),
            "counter {name} must grow identically for identical runs"
        );
    }
    // Bucket-wise histogram equality: the per-run event-count sample is
    // deterministic, so the whole sparse bucket vector must match.
    let ha = delta_a.hist("emu_engine_run_events").unwrap();
    let hb = delta_b.hist("emu_engine_run_events").unwrap();
    assert_eq!(ha.count, 1);
    assert_eq!(ha.buckets, hb.buckets, "bucket-wise histogram mismatch");
    assert_eq!(ha.sum, hb.sum);
}

#[test]
fn obs_growth_reconciles_with_the_run_report() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let (report, delta) = run_once_measured();
    assert_eq!(delta.counter("emu_engine_runs_total"), 1);
    assert_eq!(delta.counter("emu_engine_failed_runs_total"), 0);
    assert_eq!(delta.counter("emu_engine_events_total"), report.events);
    assert_eq!(delta.counter("emu_pdes_epochs_total"), report.pdes.epochs);
    assert_eq!(
        delta.counter("emu_pdes_mailbox_sent_total"),
        report.pdes.mailbox_sent
    );
    assert_eq!(
        delta.counter("emu_pdes_mailbox_delivered_total"),
        report.pdes.mailbox_delivered
    );
    // The gauge is a process-lifetime high-water mark, so it can only
    // be at or above what this single run observed.
    assert!(report.pdes.mailbox_depth_hwm > 0, "workload crosses shards");
    assert!(
        delta.gauge("emu_pdes_mailbox_depth_hwm") >= report.pdes.mailbox_depth_hwm as i64,
        "hwm gauge must cover the run's own mark"
    );
    // The run's event count landed as one histogram sample.
    let h = delta.hist("emu_engine_run_events").unwrap();
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, report.events);
}

#[test]
fn failed_runs_count_separately() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let base = obs::snapshot();
    let mut engine = Engine::new(presets::chick_prototype()).unwrap();
    seed(&mut engine);
    let capped = emu_core::ctx::RunCtx {
        max_events: Some(3),
        ..Default::default()
    };
    let err = capped.scope(|| engine.run_once());
    assert!(matches!(err, Err(SimError::EventCapExceeded { .. })));
    let delta = obs::snapshot().delta(&base);
    assert_eq!(delta.counter("emu_engine_runs_total"), 0);
    assert_eq!(delta.counter("emu_engine_failed_runs_total"), 1);
}

#[test]
fn disabled_registry_records_nothing() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    obs::set_enabled(false);
    let base = obs::snapshot();
    let mut engine = Engine::new(presets::chick_prototype()).unwrap();
    seed(&mut engine);
    engine.run_once().unwrap();
    let delta = obs::snapshot().delta(&base);
    obs::set_enabled(true);
    for name in ENGINE_COUNTERS {
        assert_eq!(delta.counter(name), 0, "{name} must not move while off");
    }
}

#[test]
fn phase_profile_is_opt_in_and_recorded() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    // Off by default: no profile in the report, no profiled-run count.
    let (report, delta) = run_once_measured();
    assert!(report.phases.is_none(), "profiling must be opt-in");
    assert_eq!(delta.counter("emu_pdes_profiled_runs_total"), 0);
    // On: profile present, audits clean, phase time lands in obs.
    let base = obs::snapshot();
    let mut engine = Engine::new(presets::chick_prototype()).unwrap();
    engine.enable_phase_profile(true);
    seed(&mut engine);
    let profiled = engine.run_once().unwrap();
    let delta = obs::snapshot().delta(&base);
    let phases = profiled.phases.as_ref().expect("profiling enabled");
    assert_eq!(phases.epochs, profiled.pdes.epochs);
    assert_consistent(&presets::chick_prototype(), &profiled);
    assert_eq!(delta.counter("emu_pdes_profiled_runs_total"), 1);
    let recorded: u64 = [
        "emu_pdes_phase_ns_total{phase=\"drain\"}",
        "emu_pdes_phase_ns_total{phase=\"barrier\"}",
        "emu_pdes_phase_ns_total{phase=\"exchange\"}",
        "emu_pdes_phase_ns_total{phase=\"merge\"}",
    ]
    .iter()
    .map(|n| delta.counter(n))
    .sum();
    let attributed: u64 = phases.workers.iter().map(|w| w.phase_sum_ns()).sum();
    assert_eq!(recorded, attributed, "obs phase totals mirror the profile");
    // Everything the profiled report says is otherwise byte-identical
    // to the unprofiled run.
    let mut stripped = profiled.clone();
    stripped.phases = None;
    assert_eq!(format!("{stripped:?}"), format!("{report:?}"));
}
