//! Microbenchmarks of the simulation substrate itself — regression
//! tracking for the engines' event throughput, which bounds how large
//! the figure runs can be. Plain `harness = false` main: wall-clock
//! medians over a fixed number of iterations, no external framework.
//!
//! Flags:
//!
//! * `--json PATH` — also write the machine-readable `BENCH_sim.json`
//!   (engine events/sec, sequential and 4-shard, and quick-mode
//!   `all_figures` wall time at `-j 1` vs `-j N`) for CI artifact upload.
//! * `--skip-figures` — skip the quick-mode `all_figures` timing (the
//!   slowest section).

use emu_core::ctx::RunCtx;
use emu_core::prelude::*;
use membench::chase::{cpu::run_chase_cpu, run_chase_emu, ChaseConfig, ShuffleMode};
use membench::pingpong::{run_pingpong, PingPongConfig};
use membench::stream::{
    cpu::{run_stream_cpu, CpuStreamConfig},
    run_stream_emu, EmuStreamConfig,
};
use std::time::Instant;

const ITERS: usize = 10;

/// Run `f` ITERS times; print and return the median wall-clock seconds.
/// The returned u64 is folded into a sink so the work cannot be
/// optimized away.
fn bench(name: &str, mut f: impl FnMut() -> u64) -> f64 {
    let mut times = Vec::with_capacity(ITERS);
    let mut sink = 0u64;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let med = times[times.len() / 2];
    let unit = if med >= 1e-3 {
        format!("{:>9.2} ms/iter", med * 1e3)
    } else {
        format!("{:>9.1} us/iter", med * 1e6)
    };
    println!("{name:<38} {unit}  (sink {sink:x})");
    med
}

/// Run every figure once, quick mode, at the given job count; returns
/// wall-clock seconds. Mirrors `all_figures` minus the CSV/IO.
type FigureFn = fn() -> Result<emu_bench::output::Table, SimError>;

fn all_figures_quick(jobs: usize) -> f64 {
    use emu_bench::figures as f;
    let quick = RunCtx {
        jobs,
        quick: true,
        ..RunCtx::current()
    };
    let t0 = Instant::now();
    let figs: [(&str, FigureFn); 10] = [
        ("fig04", f::fig04),
        ("fig05", f::fig05),
        ("fig06", f::fig06),
        ("fig07", f::fig07),
        ("fig08", f::fig08),
        ("fig09a", f::fig09a),
        ("fig09b", f::fig09b),
        ("fig10", f::fig10),
        ("fig11", f::fig11),
        ("headline", f::headline),
    ];
    for (name, fig) in figs {
        quick
            .scope(fig)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    }
    let dt = t0.elapsed().as_secs_f64();
    println!("all_figures quick -j {jobs:<26} {dt:>9.2} s");
    dt
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut skip_figures = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next(),
            "--skip-figures" => skip_figures = true,
            // `cargo bench` appends `--bench` to harness=false targets.
            "--bench" => {}
            other => {
                eprintln!("unknown flag {other:?} (try --json PATH, --skip-figures)");
                std::process::exit(2);
            }
        }
    }

    {
        use xeon_sim::cache::Cache;
        use xeon_sim::config::sandy_bridge;
        bench("xeon/l1_access_streaming_4k_lines", || {
            let mut cache = Cache::new(sandy_bridge().l1);
            for i in 0..4096u64 {
                let _ = cache.access(i * 64, false);
            }
            let (h, m) = cache.stats();
            h.wrapping_add(m)
        });
    }

    let cfg = presets::chick_prototype();
    // Engine throughput probes: discrete events processed per second of
    // host wall-clock, for the two figure-dominating workloads.
    let mut stream_events = 0u64;
    let stream_s = bench("emu/stream_16k_elems_128thr", || {
        let r = run_stream_emu(
            &cfg,
            &EmuStreamConfig {
                total_elems: 1 << 14,
                nthreads: 128,
                ..Default::default()
            },
        )
        .expect("stream")
        .report;
        stream_events = r.events;
        r.makespan.ps()
    });
    let cc = ChaseConfig {
        elems_per_list: 1024,
        nlists: 64,
        block_elems: 16,
        mode: ShuffleMode::FullBlock,
        seed: 1,
    };
    let mut chase_events = 0u64;
    let chase_s = bench("emu/chase_64k_elems", || {
        let r = run_chase_emu(&cfg, &cc).expect("chase");
        chase_events = r.events;
        r.makespan.ps()
    });
    let stream_eps = stream_events as f64 / stream_s;
    let chase_eps = chase_events as f64 / chase_s;
    println!(
        "  engine: STREAM {:.2} M events/s, chase {:.2} M events/s",
        stream_eps / 1e6,
        chase_eps / 1e6
    );

    // Sharded-scheduler throughput: the same STREAM kernel on the
    // 64-nodelet emu64 machine, sequential vs 4 scheduler shards. On a
    // multi-core host the ratio is the intra-run parallel speedup; on
    // one core it measures pure epoch/barrier overhead.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let e64 = presets::emu64_full_speed();
    let e64_sc = EmuStreamConfig {
        total_elems: 1 << 14,
        nthreads: 256,
        ..Default::default()
    };
    let mut e64_events = 0u64;
    let at_sim_threads = |sim_threads| RunCtx {
        sim_threads,
        ..RunCtx::current()
    };
    let (seq, four) = (at_sim_threads(1), at_sim_threads(4));
    let pdes_seq_s = bench("emu64/stream_16k_elems_256thr_seq", || {
        let r = seq
            .scope(|| run_stream_emu(&e64, &e64_sc))
            .expect("stream")
            .report;
        e64_events = r.events;
        r.makespan.ps()
    });
    let mut e64_par_events = 0u64;
    let pdes_par_s = bench("emu64/stream_16k_elems_256thr_4shard", || {
        let r = four
            .scope(|| run_stream_emu(&e64, &e64_sc))
            .expect("stream")
            .report;
        e64_par_events = r.events;
        r.makespan.ps()
    });
    assert_eq!(e64_events, e64_par_events, "sharded run diverged");
    let pdes_seq_eps = e64_events as f64 / pdes_seq_s;
    let pdes_eps = e64_par_events as f64 / pdes_par_s;
    println!(
        "  engine: emu64 STREAM seq {:.2} M events/s, 4-shard {:.2} M events/s ({:.2}x, {host_cores} host cores)",
        pdes_seq_eps / 1e6,
        pdes_eps / 1e6,
        pdes_eps / pdes_seq_eps
    );

    bench("emu/pingpong_64thr_100rt", || {
        run_pingpong(
            &cfg,
            &PingPongConfig {
                nthreads: 64,
                round_trips: 100,
                ..Default::default()
            },
        )
        .expect("pingpong")
        .migrations
    });

    let cpu_cfg = xeon_sim::config::sandy_bridge();
    bench("xeon/stream_64k_elems_8thr", || {
        run_stream_cpu(
            &cpu_cfg,
            &CpuStreamConfig {
                total_elems: 1 << 16,
                nthreads: 8,
                ..Default::default()
            },
        )
        .report
        .makespan
        .ps()
    });
    let cpu_cc = ChaseConfig {
        elems_per_list: 1 << 13,
        nlists: 8,
        block_elems: 64,
        mode: ShuffleMode::FullBlock,
        seed: 1,
    };
    bench("xeon/chase_64k_elems", || {
        run_chase_cpu(&cpu_cfg, &cpu_cc).makespan.ps()
    });

    bench("spmat/laplacian_n100_build", || {
        spmat::laplacian(spmat::LaplacianSpec::paper(100)).nnz() as u64
    });

    // Quick-mode campaign wall time, serial vs parallel.
    let (fig_j1, fig_jn, jobs_n) = if skip_figures {
        (None, None, 1)
    } else {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let j1 = all_figures_quick(1);
        let jn = if n > 1 { all_figures_quick(n) } else { j1 };
        if n > 1 {
            println!("  parallel speedup at -j {n}: {:.2}x", j1 / jn);
        }
        (Some(j1), Some(jn), n)
    };

    if let Some(path) = json_path {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.6}"));
        let body = format!(
            concat!(
                "{{\"engine\":{{\"stream_events_per_sec\":{:.1},\"chase_events_per_sec\":{:.1},",
                "\"stream_events\":{},\"chase_events\":{}}},",
                "\"pdes\":{{\"host_parallelism\":{},\"shards\":4,\"events\":{},",
                "\"seq_events_per_sec\":{:.1},\"pdes_events_per_sec\":{:.1},\"speedup\":{:.3}}},",
                "\"all_figures_quick\":{{\"jobs_1_s\":{},\"jobs_n\":{},\"jobs_n_s\":{},\"speedup\":{}}}}}\n"
            ),
            stream_eps,
            chase_eps,
            stream_events,
            chase_events,
            host_cores,
            e64_events,
            pdes_seq_eps,
            pdes_eps,
            pdes_eps / pdes_seq_eps,
            opt(fig_j1),
            jobs_n,
            opt(fig_jn),
            opt(fig_j1.zip(fig_jn).map(|(a, b)| a / b)),
        );
        match std::fs::write(&path, &body) {
            Ok(()) => println!("[bench-json] {path}"),
            Err(e) => {
                eprintln!("[bench-json] write failed ({path}): {e}");
                std::process::exit(1);
            }
        }
    }
}
