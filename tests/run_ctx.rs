//! Runs that share a process do not share settings: each caller enters
//! its own `RunCtx`, and its engines, sweeps, cache probes and report
//! sink follow that ctx across threads.
//!
//! Every test here runs concurrently with the others (and with itself,
//! under `--test-threads 8`); none sets a process-wide knob.

use emu_bench::figures;
use emu_bench::harness::{self, PointOutcome, RunPolicy};
use emu_bench::output::Table;
use emu_bench::telemetry::report_set_json;
use emu_core::ctx::{ReportSink, RunCtx};
use emu_core::fault::SimError;
use emu_core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type FigureFn = fn() -> Result<Table, SimError>;

/// One figure run in `ctx`, collecting its reports: (rendered table,
/// CSV text, report JSON).
fn figure_run(ctx: &RunCtx, name: &str, f: FigureFn) -> (String, String, String) {
    let (table, runs) = ctx.collect(f);
    let table = table.expect("figure must succeed");
    (
        table.render(),
        table.csv(),
        report_set_json(name, Some(&table), &runs),
    )
}

fn traced() -> TelemetryConfig {
    TelemetryConfig {
        event_capacity: emu_bench::runcfg::DEFAULT_TRACE_EVENTS,
        timeline_bucket: Some(desim::time::Time::from_us(
            emu_bench::runcfg::DEFAULT_TRACE_BUCKET_US,
        )),
    }
}

/// (a) fig04 at one job and one scheduler worker, collecting, next to
/// fig10 at two of each, traced and collecting: each equals its run
/// alone.
#[test]
fn differently_configured_figure_runs_share_a_process() {
    let fig04 = RunCtx {
        quick: true,
        jobs: 1,
        sim_threads: 1,
        ..RunCtx::default()
    };
    let fig10 = RunCtx {
        quick: true,
        jobs: 2,
        sim_threads: 2,
        telemetry: traced(),
        ..RunCtx::default()
    };
    let alone04 = figure_run(&fig04, "fig04", figures::fig04);
    let alone10 = figure_run(&fig10, "fig10", figures::fig10);
    let (together04, together10) = std::thread::scope(|s| {
        let a = s.spawn(|| figure_run(&fig04, "fig04", figures::fig04));
        let b = s.spawn(|| figure_run(&fig10, "fig10", figures::fig10));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(alone04, together04, "fig04 changed next to fig10");
    assert_eq!(alone10, together10, "fig10 changed next to fig04");
    // The traced run exported traces; the untraced one did not.
    assert!(alone10.2.contains("\"trace\":{"), "fig10 untraced");
    assert!(!alone04.2.contains("\"trace\":{"), "fig04 traced");
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("emu-run-ctx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// (b) A traced scope on one thread leaves the cache on for a scope on
/// another; a traced, collecting or profiled scope itself neither hits
/// nor publishes.
#[test]
fn a_traced_scope_leaves_the_cache_to_other_scopes() {
    let dir = tmpdir("cache");
    let cached = RunCtx {
        cache: Some(dir.clone()),
        ..RunCtx::default()
    };
    let calls = AtomicUsize::new(0);
    let cell = |key: &str| {
        let [v] = emu_bench::cache::memo(&"run-ctx-test", &key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok([42.0])
        })
        .unwrap();
        v.to_string()
    };
    let stored = || runcache::Store::at(&dir).scan().len();

    // The ctx's directory is the store; a miss simulates and publishes.
    assert_eq!(cached.scope(runcache::resolve_dir), dir);
    assert_eq!(cached.scope(|| cell("a")), "42");
    assert_eq!((calls.load(Ordering::SeqCst), stored()), (1, 1));

    // A traced scope held open on another thread while this one probes.
    let traced_ctx = RunCtx {
        telemetry: traced(),
        ..cached.clone()
    };
    let (entered, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            traced_ctx.scope(|| {
                assert!(!runcache::active());
                entered.store(true, Ordering::SeqCst);
                while !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        while !entered.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        cached.scope(|| {
            assert!(runcache::active());
            assert_eq!(cell("a"), "42");
        });
        done.store(true, Ordering::SeqCst);
    });
    assert_eq!(calls.load(Ordering::SeqCst), 1, "the cached scope missed");

    // Observed scopes execute every cell and store nothing.
    let collecting = RunCtx {
        reports: Some(ReportSink::default()),
        ..cached.clone()
    };
    let profiled = RunCtx {
        phase_profile: true,
        ..cached.clone()
    };
    for (i, observed) in [traced_ctx, collecting, profiled].iter().enumerate() {
        observed.scope(|| {
            assert!(!runcache::active());
            cell("a");
            cell("b");
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1 + 2 * (i + 1),
            "scope {i} hit"
        );
        assert_eq!(stored(), 1, "scope {i} published");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-nodelet run of `threads` empty threadlets: its report's
/// `threads` count names the caller.
fn tagged_run(threads: u32) -> RunReport {
    let mut e = Engine::new(presets::chick_prototype()).unwrap();
    for _ in 0..threads {
        e.spawn_at(NodeletId(0), Box::new(ScriptKernel::new(vec![])))
            .unwrap();
    }
    e.run().unwrap()
}

/// (c) A timed-out harness attempt's straggler reports never reach the
/// sink; the returned attempt's do.
#[test]
fn a_straggling_attempts_reports_never_reach_the_sink() {
    let tries = Arc::new(AtomicU32::new(0));
    let straggler_done = Arc::new(AtomicBool::new(false));
    let sink = ReportSink::default();
    let ctx = RunCtx {
        reports: Some(sink.clone()),
        ..RunCtx::default()
    };
    let outcome = {
        let (tries, straggler_done) = (Arc::clone(&tries), Arc::clone(&straggler_done));
        ctx.scope(|| {
            harness::run_point(
                RunPolicy {
                    timeout: Duration::from_secs(2),
                    attempts: 2,
                },
                move || {
                    let attempt = tries.fetch_add(1, Ordering::SeqCst);
                    // The first attempt hangs until the harness has given
                    // up on it and started the second.
                    let t0 = Instant::now();
                    while attempt == 0 && tries.load(Ordering::SeqCst) < 2 {
                        assert!(t0.elapsed() < Duration::from_secs(60), "no retry");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let r = tagged_run(attempt + 1);
                    if attempt == 0 {
                        straggler_done.store(true, Ordering::SeqCst);
                    }
                    Ok(r.threads)
                },
            )
        })
    };
    assert_eq!(outcome, PointOutcome::Ok(2));
    let t0 = Instant::now();
    while !straggler_done.load(Ordering::SeqCst) {
        assert!(t0.elapsed() < Duration::from_secs(60), "straggler hung");
        std::thread::sleep(Duration::from_millis(5));
    }
    let runs = sink.take();
    let threads: Vec<u64> = runs.iter().map(|r| r.threads).collect();
    assert_eq!(threads, vec![2], "only the returned attempt's report");
}

/// (d) While a scenario point fingerprints at 1, 2 and 4 workers, an
/// engine on another thread keeps its own ctx's worker count.
#[test]
fn fingerprinting_leaves_other_engines_worker_counts_alone() {
    const SCN: &str = "\
scenario pinned

machine chick

workload stream
  elems = 256
  threads = 16

expect
  counter events >= 1
  byte_identical_at_sim_threads = 1, 2, 4
";
    let s = scenario::parse(SCN).unwrap();
    let points = scenario::resolve(&s).unwrap();
    let finished = AtomicBool::new(false);
    let mine = RunCtx {
        sim_threads: 3,
        phase_profile: true,
        ..RunCtx::default()
    };
    std::thread::scope(|sc| {
        sc.spawn(|| {
            for _ in 0..4 {
                let o = scenario::run_point(&s, &points[0]);
                assert!(o.problems.is_empty(), "{:?}", o.problems);
                assert_eq!(o.fingerprints.len(), 3);
            }
            finished.store(true, Ordering::SeqCst);
        });
        mine.scope(|| {
            let mut runs = 0;
            while runs < 3 || !finished.load(Ordering::SeqCst) {
                let mut e = Engine::new(presets::chick_prototype()).unwrap();
                e.enable_merge(false);
                for t in 0..8u32 {
                    let there = GlobalAddr::new(NodeletId((t + 3) % 8), 0x40);
                    e.spawn_at(
                        NodeletId(t % 8),
                        Box::new(ScriptKernel::new(vec![Op::Load {
                            addr: there,
                            bytes: 8,
                        }])),
                    )
                    .unwrap();
                }
                let r = e.run().unwrap();
                let workers = r.phases.expect("profiled").workers.len();
                assert_eq!(workers, 3, "run {runs} used {workers} workers");
                runs += 1;
            }
        });
    });
}
