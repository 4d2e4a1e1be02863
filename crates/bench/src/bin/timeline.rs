//! Occupancy timelines: *when* each resource is busy, not just how much.
//!
//! Renders per-nodelet sparklines (one char ≈ 1/64 of the run) for:
//!
//! * STREAM with serial vs recursive-remote spawn — the Fig 5 contrast
//!   becomes visible as nodelet 0's long spawn/migration ramp;
//! * a block-1 pointer chase — all eight migration engines pinned.
//!
//! Each run goes through [`scenario::exec::execute`], which checks its
//! result and audits its report, in a run context that records
//! timelines.

use desim::time::Time;
use emu_core::ctx::RunCtx;
use emu_core::prelude::*;
use emu_core::trace::TelemetryConfig;
use membench::chase::{ChaseConfig, ShuffleMode};
use membench::stream::EmuStreamConfig;
use scenario::ResolvedWorkload::{Chase, Stream};

fn show(title: &str, report: &emu_core::metrics::RunReport, gcs: u32) {
    println!("\n== {title} (makespan {}) ==", report.makespan);
    let tl = report.timelines.as_ref().expect("timeline tracing enabled");
    println!("  Gossamer-core occupancy per nodelet:");
    for (i, t) in tl.core.iter().enumerate() {
        println!("    nodelet {i}: |{}|", t.sparkline(gcs, 64));
    }
    println!("  migration-engine occupancy per nodelet:");
    for (i, t) in tl.migration.iter().enumerate() {
        println!("    nodelet {i}: |{}|", t.sparkline(1, 64));
    }
}

fn main() {
    let cfg = presets::chick_prototype();
    let stream = |strategy: SpawnStrategy| {
        let title = format!("STREAM ADD, 512 threads, {}", strategy.name());
        let sc = EmuStreamConfig {
            total_elems: 1 << 15,
            nthreads: 512,
            strategy,
            stack_touch_period: 0,
            ..Default::default()
        };
        (title, Stream(sc), 50)
    };
    let chase = ChaseConfig {
        elems_per_list: 1024,
        nlists: 512,
        block_elems: 1,
        mode: ShuffleMode::FullBlock,
        seed: 1,
    };
    // (title, workload, timeline bucket in µs)
    let runs = [
        stream(SpawnStrategy::Serial),
        stream(SpawnStrategy::RecursiveRemote),
        (
            "pointer chase, block 1, 512 threads (engines pinned)".to_string(),
            Chase(chase),
            20,
        ),
    ];
    let reports = emu_bench::sweep::run_indexed(runs.len(), |i| {
        let (_, w, bucket_us) = &runs[i];
        let telemetry = TelemetryConfig {
            event_capacity: 0,
            timeline_bucket: Some(Time::from_us(*bucket_us)),
        };
        let ctx = RunCtx {
            telemetry,
            ..RunCtx::current()
        };
        let x = ctx.scope(|| scenario::exec::execute(&cfg, w))?;
        assert!(x.problems.is_empty(), "{w:?}: {}", x.problems.join("; "));
        Ok::<_, SimError>(x.reports)
    });
    for ((title, ..), r) in runs.iter().zip(reports) {
        match r {
            Ok(reports) => show(title, &reports[0], cfg.gcs_per_nodelet),
            Err(e) => {
                eprintln!("[timeline] simulation failed: {e}");
                std::process::exit(2);
            }
        }
    }
}
