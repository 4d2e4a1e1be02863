//! `RunCtx`: the environment parse, scoping across nesting, panics and
//! threads, and the telemetry and report sink an engine build picks up.

use emu_core::ctx::{host_cores, ReportSink, RunCtx, DEFAULT_CACHE_DIR};
use emu_core::prelude::*;
use std::collections::HashMap;
use std::path::Path;

fn parse(vars: &[(&str, &str)]) -> RunCtx {
    let map: HashMap<&str, &str> = vars.iter().copied().collect();
    RunCtx::parse_env(|k| map.get(k).map(|v| v.to_string()))
}

#[test]
fn env_parse_covers_every_variable() {
    let empty = parse(&[]);
    assert_eq!((empty.sim_threads, empty.jobs), (1, host_cores()));
    assert!(!empty.phase_profile && !empty.quick);
    assert_eq!(empty.cache, None);
    assert!(empty.reports.is_none() && !empty.telemetry.enabled());

    let set = parse(&[
        ("EMU_SIM_THREADS", "4"),
        ("EMU_PDES_PHASES", "1"),
        ("EMU_JOBS", " 3 "),
        ("EMU_QUICK", "1"),
        ("EMU_CACHE", "TRUE"),
        ("EMU_CACHE_DIR", "/tmp/store"),
    ]);
    assert_eq!((set.sim_threads, set.jobs), (4, 3));
    assert!(set.phase_profile && set.quick);
    assert_eq!(set.cache.as_deref(), Some(Path::new("/tmp/store")));

    // EMU_CACHE=1 with an empty directory uses the default store; a
    // directory alone does not turn the cache on.
    let on = parse(&[("EMU_CACHE", "1"), ("EMU_CACHE_DIR", "")]);
    assert_eq!(on.cache.as_deref(), Some(Path::new(DEFAULT_CACHE_DIR)));
    assert_eq!(parse(&[("EMU_CACHE_DIR", "/tmp/store")]).cache, None);
}

#[test]
fn env_parse_ignores_malformed_values() {
    for bad in ["0", "-2", "lots", "", "2.5"] {
        let c = parse(&[("EMU_SIM_THREADS", bad), ("EMU_JOBS", bad)]);
        assert_eq!((c.sim_threads, c.jobs), (1, host_cores()), "{bad:?}");
    }
    for bad in ["0", "true", "yes", " 1"] {
        let c = parse(&[("EMU_PDES_PHASES", bad), ("EMU_QUICK", bad)]);
        assert!(!c.phase_profile && !c.quick, "{bad:?}");
    }
    for bad in ["0", "yes", "on", ""] {
        assert_eq!(parse(&[("EMU_CACHE", bad)]).cache, None, "{bad:?}");
    }
}

#[test]
fn scopes_nest_and_restore() {
    let at = |sim_threads| RunCtx {
        sim_threads,
        ..RunCtx::default()
    };
    let current = || RunCtx::current().sim_threads;
    let before = current();
    at(3).scope(|| {
        assert_eq!(current(), 3);
        at(5).scope(|| assert_eq!(current(), 5));
        assert_eq!(current(), 3);
        // A scope unwound by a panic still restores its parent.
        assert!(std::panic::catch_unwind(|| at(5).scope(|| panic!("boom"))).is_err());
        assert_eq!(current(), 3);
        // Other threads do not see this thread's scope.
        assert_eq!(std::thread::spawn(current).join().unwrap(), before);
    });
    assert_eq!(current(), before);
}

/// One engine run with a single migrating load.
fn one_run() -> RunReport {
    let mut e = Engine::new(presets::chick_prototype()).unwrap();
    let addr = GlobalAddr::new(NodeletId(3), 0x40);
    e.spawn_at(
        NodeletId(0),
        Box::new(ScriptKernel::new(vec![Op::Load { addr, bytes: 8 }])),
    )
    .unwrap();
    e.run().unwrap()
}

#[test]
fn scoped_telemetry_reaches_engines_and_clears_at_scope_end() {
    let traced = RunCtx {
        telemetry: TelemetryConfig {
            event_capacity: 1024,
            timeline_bucket: Some(desim::time::Time::from_us(5)),
        },
        ..RunCtx::default()
    };
    assert!(traced.observed() && !RunCtx::default().observed());
    RunCtx::default().scope(|| {
        let (report, runs) = traced.collect(one_run);
        assert!(report.trace.is_some() && report.timelines.is_some());
        assert_eq!(runs.len(), 1);
        assert_eq!(format!("{:?}", runs[0]), format!("{report:?}"));
        // Back in the plain scope: nothing traced, nothing collected.
        assert!(!RunCtx::current().telemetry.enabled());
        assert!(one_run().trace.is_none());
    });
}

#[test]
fn child_sinks_join_the_parent_only_when_adopted() {
    let parent = RunCtx {
        reports: Some(ReportSink::default()),
        ..RunCtx::default()
    };
    let (kept, dropped) = (parent.child(), parent.child());
    kept.scope(one_run);
    dropped.scope(one_run);
    parent.adopt(&kept);
    assert_eq!(parent.reports.as_ref().unwrap().take().len(), 1);
    // A ctx without a sink gives its children none.
    assert!(RunCtx::default().child().reports.is_none());
}
