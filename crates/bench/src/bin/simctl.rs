//! `simctl` — interactive driver for the Emu Chick reproduction.
//!
//! ```sh
//! cargo run --release --bin simctl -- stream --threads 512
//! cargo run --release --bin simctl -- chase --platform xeon --block 512
//! cargo run --release --bin simctl -- bfs --scale 12 --mode smart
//! ```

use emu_bench::cli::{self, Parsed};
use emu_core::ctx::RunCtx;
use emu_core::prelude::*;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", cli::USAGE);
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        println!("{}", cli::USAGE);
        return Ok(());
    }
    // The daemon subcommands have their own flag grammar and exit
    // codes; hand them to the simd crate before the bench parser.
    if matches!(
        args[0].as_str(),
        "serve" | "client" | "once" | "simd-once" | "simd-bench" | "top"
    ) {
        std::process::exit(simd::dispatch(args));
    }
    // Likewise the scenario suite: positional subcommands and its own
    // exit codes (0 pass, 1 failures, 2 usage).
    if args[0] == "scenario" {
        std::process::exit(emu_bench::scncmd::dispatch(&args[1..]));
    }
    // And the result cache: stats / gc / verify over the on-disk store.
    if args[0] == "cache" {
        std::process::exit(emu_bench::cachecmd::dispatch(&args[1..]));
    }
    let mut p = cli::parse(args)?;
    // `--jobs` (sweep worker threads; single runs just ignore the pool
    // size) and `--sim-threads` (every engine the command constructs
    // shards its scheduler across N workers; deterministic, the knob only
    // changes speed) are accepted by every command. The command runs in
    // the ctx they describe.
    let jobs = p.options.remove("jobs");
    let sim_threads = p.options.remove("sim-threads");
    let ctx =
        emu_bench::runcfg::with_flags(RunCtx::current(), jobs.as_deref(), sim_threads.as_deref())?;
    ctx.scope(|| match p.command.as_str() {
        "presets" => cmd_presets(),
        "stream" => cmd_stream(&p),
        "chase" => cmd_chase(&p),
        "spmv" => cmd_spmv(&p),
        "pingpong" => cmd_pingpong(&p),
        "gups" => cmd_gups(&p),
        "bfs" => cmd_bfs(&p),
        "mttkrp" => cmd_mttkrp(&p),
        "trace" => cmd_trace(&p),
        "fuzz" => cmd_fuzz(&p),
        "pdes-speedup" => cmd_pdes_speedup(&p),
        other => Err(format!("unknown command {other:?}")),
    })
}

fn cmd_presets() -> Result<(), String> {
    for (name, cfg) in [
        ("chick", presets::chick_prototype()),
        ("chick-sim", presets::chick_toolchain_sim()),
        ("full-speed", presets::chick_full_speed()),
        ("emu64", presets::emu64_full_speed()),
        ("chick-8node", presets::chick_8node_prototype()),
    ] {
        println!(
            "{name:<12} {} nodelets, {} GC/nodelet @ {:.0} MHz, {} threadlets/nodelet, {:.1} GB/s NCDRAM/nodelet, {:.1} M migrations/s/nodelet",
            cfg.total_nodelets(),
            cfg.gcs_per_nodelet,
            cfg.gc_clock.hz() / 1e6,
            cfg.slots_per_nodelet(),
            cfg.ncdram_bytes_per_sec as f64 / 1e9,
            cfg.migration_rate_per_sec as f64 / 1e6,
        );
    }
    Ok(())
}

fn cmd_stream(p: &Parsed) -> Result<(), String> {
    use membench::stream::*;
    p.check_known(&[
        "preset",
        "threads",
        "elems",
        "strategy",
        "kernel",
        "single-nodelet",
        "stack-touch",
    ])?;
    let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
    let kernel = StreamKernel::from_name(&p.get_str("kernel", "add"))?;
    let sc = EmuStreamConfig {
        total_elems: p.get("elems", 1u64 << 18)?,
        nthreads: p.get("threads", 512usize)?,
        strategy: SpawnStrategy::from_name(&p.get_str("strategy", "recursive-remote"))?,
        kernel,
        single_nodelet: p.get("single-nodelet", false)?,
        stack_touch_period: p.get("stack-touch", 4u32)?,
    };
    let r = run_stream_emu(&cfg, &sc).map_err(|e| e.to_string())?;
    if r.checksum != stream_checksum(sc.total_elems, kernel) {
        return Err("STREAM checksum mismatch".into());
    }
    println!(
        "STREAM {} on {} threads ({}):",
        kernel.name(),
        sc.nthreads,
        sc.strategy.name()
    );
    println!("  bandwidth   : {:.1} MB/s", r.bandwidth.mb_per_sec());
    println!("  makespan    : {}", r.report.makespan);
    println!("  migrations  : {}", r.report.total_migrations());
    println!(
        "  core util   : {:.1} %",
        100.0 * r.report.core_utilization()
    );
    println!(
        "  channel util: {:.1} %",
        100.0 * r.report.channel_utilization()
    );
    Ok(())
}

fn cmd_chase(p: &Parsed) -> Result<(), String> {
    use membench::chase::*;
    p.check_known(&[
        "preset", "platform", "threads", "elems", "block", "mode", "seed",
    ])?;
    let cc = ChaseConfig {
        elems_per_list: p.get("elems", 4096usize)?,
        nlists: p.get("threads", 512usize)?,
        block_elems: p.get("block", 64usize)?,
        mode: cli::mode_by_name(&p.get_str("mode", "full"))?,
        seed: p.get("seed", desim::rng::DEFAULT_SEED)?,
    };
    if cc.block_elems == 0 || !cc.elems_per_list.is_multiple_of(cc.block_elems) {
        return Err(format!(
            "--elems ({}) must be a positive multiple of --block ({})",
            cc.elems_per_list, cc.block_elems
        ));
    }
    let r = match p.get_str("platform", "emu").as_str() {
        "emu" => {
            let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
            run_chase_emu(&cfg, &cc).map_err(|e| e.to_string())?
        }
        "xeon" => cpu::run_chase_cpu(&xeon_sim::config::sandy_bridge(), &cc),
        other => return Err(format!("unknown platform {other:?}")),
    };
    if r.checksum != cc.expected_checksum() {
        return Err("chase checksum mismatch".into());
    }
    println!(
        "pointer chase, {} lists x {} elems, block {}, {}:",
        cc.nlists,
        cc.elems_per_list,
        cc.block_elems,
        cc.mode.name()
    );
    println!("  bandwidth : {:.1} MB/s", r.bandwidth.mb_per_sec());
    println!("  makespan  : {}", r.makespan);
    println!("  migrations: {}", r.migrations);
    Ok(())
}

fn cmd_spmv(p: &Parsed) -> Result<(), String> {
    use membench::{spmv_cpu, spmv_emu};
    use spmat::{laplacian, LaplacianSpec};
    p.check_known(&[
        "preset", "platform", "n", "layout", "grain", "threads", "strategy",
    ])?;
    let n = p.get("n", 100u32)?;
    let m = Arc::new(laplacian(LaplacianSpec::paper(n)));
    let reference = m.spmv(&spmv_emu::x_vector(m.ncols()));
    println!(
        "SpMV: {}x{} Laplacian, {} nnz",
        m.nrows(),
        m.ncols(),
        m.nnz()
    );
    let (bw, migrations) = match p.get_str("platform", "emu").as_str() {
        "emu" => {
            let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
            let layout = match p.get_str("layout", "2d").as_str() {
                "local" => spmv_emu::EmuLayout::Local,
                "1d" => spmv_emu::EmuLayout::OneD,
                "2d" => spmv_emu::EmuLayout::TwoD,
                other => return Err(format!("unknown layout {other:?}")),
            };
            let r = spmv_emu::run_spmv_emu(
                &cfg,
                Arc::clone(&m),
                &spmv_emu::EmuSpmvConfig {
                    layout,
                    grain_nnz: p.get("grain", 16usize)?,
                },
            )
            .map_err(|e| e.to_string())?;
            verify(&reference, &r.y)?;
            (r.bandwidth.mb_per_sec(), r.migrations)
        }
        "xeon" => {
            let strategy = match p.get_str("strategy", "mkl").as_str() {
                "mkl" => spmv_cpu::CpuStrategy::MklLike,
                "cilk-for" => spmv_cpu::CpuStrategy::CilkFor,
                "spawn" => spmv_cpu::CpuStrategy::CilkSpawn {
                    grain: p.get("grain", 16384usize)?,
                },
                other => return Err(format!("unknown strategy {other:?}")),
            };
            let r = spmv_cpu::run_spmv_cpu(
                &xeon_sim::config::haswell(),
                Arc::clone(&m),
                &spmv_cpu::CpuSpmvConfig {
                    strategy,
                    nthreads: p.get("threads", 56usize)?,
                },
            );
            verify(&reference, &r.y)?;
            (r.bandwidth.mb_per_sec(), 0)
        }
        other => return Err(format!("unknown platform {other:?}")),
    };
    println!("  effective bandwidth: {bw:.1} MB/s");
    println!("  migrations         : {migrations}");
    println!("  (output vector verified against reference)");
    Ok(())
}

fn verify(reference: &[f64], y: &[f64]) -> Result<(), String> {
    let err = reference
        .iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err < 1e-9 {
        Ok(())
    } else {
        Err(format!("result check failed: max err {err}"))
    }
}

fn cmd_pingpong(p: &Parsed) -> Result<(), String> {
    use membench::pingpong::*;
    p.check_known(&["preset", "threads", "round-trips", "a", "b"])?;
    let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
    let pc = PingPongConfig {
        nthreads: p.get("threads", 64usize)?,
        round_trips: p.get("round-trips", 2000u32)?,
        a: NodeletId(p.get("a", 0u32)?),
        b: NodeletId(p.get("b", 1u32)?),
    };
    let r = run_pingpong(&cfg, &pc).map_err(|e| e.to_string())?;
    println!(
        "ping-pong, {} threads x {} round trips:",
        pc.nthreads, pc.round_trips
    );
    println!(
        "  throughput  : {:.2} M migrations/s",
        r.migrations_per_sec / 1e6
    );
    println!("  mean latency: {:.2} us", r.mean_latency_ns / 1000.0);
    println!("  p99 latency : {}", r.p99_latency);
    Ok(())
}

fn cmd_gups(p: &Parsed) -> Result<(), String> {
    use membench::gups::*;
    p.check_known(&["preset", "platform", "threads", "updates", "table", "seed"])?;
    let gc = GupsConfig {
        table_words: p.get("table", 1u64 << 22)?,
        nthreads: p.get("threads", 256usize)?,
        updates_per_thread: p.get("updates", 4096usize)?,
        seed: p.get("seed", desim::rng::DEFAULT_SEED)?,
    };
    let r = match p.get_str("platform", "emu").as_str() {
        "emu" => {
            let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
            run_gups_emu(&cfg, &gc).map_err(|e| e.to_string())?
        }
        "xeon" => cpu::run_gups_cpu(&xeon_sim::config::sandy_bridge(), &gc),
        other => return Err(format!("unknown platform {other:?}")),
    };
    println!(
        "GUPS, {} threads x {} updates:",
        gc.nthreads, gc.updates_per_thread
    );
    println!("  {:.4} GUPS, {} migrations", r.gups, r.migrations);
    Ok(())
}

fn cmd_bfs(p: &Parsed) -> Result<(), String> {
    use emu_graph::bfs::*;
    use emu_graph::{gen, stinger::Stinger};
    p.check_known(&["preset", "scale", "edges", "mode", "threads", "src", "seed"])?;
    let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
    let scale = p.get("scale", 11u32)?;
    let edges = gen::rmat(scale, p.get("edges", 1usize << 14)?, p.get("seed", 42u64)?);
    let g = Arc::new(Stinger::build_host(
        &edges,
        emu_graph::DEFAULT_BLOCK_CAP,
        cfg.total_nodelets(),
    ));
    let mode = match p.get_str("mode", "smart").as_str() {
        "naive" | "migrating" => BfsMode::Migrating,
        "smart" | "remote-flags" => BfsMode::RemoteFlags,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let src = p.get("src", 0u32)?;
    let r = run_bfs_emu(&cfg, Arc::clone(&g), src, mode, p.get("threads", 512usize)?)
        .map_err(|e| e.to_string())?;
    if r.levels != g.bfs_reference(src) {
        return Err("BFS levels diverged from reference".into());
    }
    println!(
        "BFS ({}) over RMAT scale {scale}, {} edges, from vertex {src}:",
        mode.name(),
        edges.len()
    );
    println!(
        "  {:.2} M TEPS, depth {}, {} migrations ({:.3}/edge)",
        r.teps / 1e6,
        r.depth,
        r.migrations,
        r.migrations as f64 / r.edges_traversed.max(1) as f64
    );
    println!("  (levels verified against host reference)");
    Ok(())
}

fn cmd_mttkrp(p: &Parsed) -> Result<(), String> {
    use emu_tensor::coo::{mttkrp_reference, random_tensor};
    use emu_tensor::emu::*;
    p.check_known(&["preset", "rank", "nnz", "layout", "threads", "seed", "dims"])?;
    let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
    let t = Arc::new(random_tensor(
        [256, 64, 64],
        p.get("nnz", 1usize << 14)?,
        p.get("seed", 7u64)?,
    ));
    let layout = match p.get_str("layout", "blocked").as_str() {
        "1d" => TensorLayout::OneD,
        "blocked" | "slice-blocked" => TensorLayout::SliceBlocked,
        other => return Err(format!("unknown layout {other:?}")),
    };
    let rank = p.get("rank", 8u32)?;
    let r = run_mttkrp_emu(
        &cfg,
        Arc::clone(&t),
        &EmuMttkrpConfig {
            layout,
            rank,
            nthreads: p.get("threads", 512usize)?,
        },
    )
    .map_err(|e| e.to_string())?;
    let reference = mttkrp_reference(&t, rank);
    let err = reference
        .iter()
        .zip(&r.y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err > 1e-6 {
        return Err(format!("MTTKRP diverged: max err {err}"));
    }
    println!(
        "MTTKRP rank {rank}, {} nnz, {} layout:",
        t.nnz(),
        layout.name()
    );
    println!(
        "  effective bandwidth: {:.1} MB/s",
        r.bandwidth.mb_per_sec()
    );
    println!("  migrations         : {}", r.migrations);
    println!("  (Y verified against reference)");
    Ok(())
}

fn cmd_trace(p: &Parsed) -> Result<(), String> {
    use emu_bench::telemetry::report_set_json;
    use emu_core::json::{chrome_trace, json_ok, jsonl_ok, trace_jsonl};
    use emu_core::trace::{TelemetryConfig, TraceKind};
    use std::path::PathBuf;

    p.check_known(&[
        "bench",
        "preset",
        "threads",
        "elems",
        "block",
        "strategy",
        "events",
        "bucket-us",
        "trace-out",
        "jsonl-out",
        "report-json",
    ])?;
    let bench = p.get_str("bench", "stream");
    let cfg = presets::by_name(&p.get_str("preset", "chick"))?;
    let events = p.get("events", 4 * emu_bench::runcfg::DEFAULT_TRACE_EVENTS)?;
    let bucket_us = p.get("bucket-us", emu_bench::runcfg::DEFAULT_TRACE_BUCKET_US)?;

    let dir = emu_bench::output::results_dir();
    let path_opt = |key: &str, default: String| -> PathBuf {
        p.options
            .get(key)
            .map(PathBuf::from)
            .unwrap_or_else(|| dir.join(default))
    };
    let trace_out = path_opt("trace-out", format!("trace_{bench}.trace.json"));
    let jsonl_out = path_opt("jsonl-out", format!("trace_{bench}.jsonl"));
    let report_out = path_opt("report-json", format!("trace_{bench}.report.json"));

    // Run the workload through the ordinary benchmark entry point in a
    // traced ctx that collects its reports.
    let traced_ctx = RunCtx {
        telemetry: TelemetryConfig {
            event_capacity: events,
            timeline_bucket: Some(desim::time::Time::from_us(bucket_us)),
        },
        ..RunCtx::current()
    };
    let (outcome, reports) = traced_ctx.collect(|| run_traced_bench(p, &bench, &cfg));
    outcome?;

    let traced = reports
        .iter()
        .rev()
        .find(|r| r.trace.is_some())
        .ok_or("no traced emu run was collected")?;

    let chrome = chrome_trace(traced);
    let jsonl = trace_jsonl(traced);
    let report = report_set_json(&format!("trace_{bench}"), None, &reports);
    if !json_ok(&chrome) || !json_ok(&report) || !jsonl_ok(&jsonl) {
        return Err("internal error: emitted telemetry failed JSON validation".into());
    }
    emu_bench::output::write_artifact("trace-out", &trace_out, &chrome);
    emu_bench::output::write_artifact("jsonl-out", &jsonl_out, &jsonl);
    emu_bench::output::write_artifact("report-json", &report_out, &report);

    let log = traced.trace.as_ref().expect("traced run has a log");
    println!(
        "\ntraced {bench}: makespan {}, {} events recorded ({} dropped, ring capacity {})",
        traced.makespan,
        log.emitted(),
        log.dropped,
        log.capacity
    );
    let mut by_kind: Vec<(TraceKind, u64)> = TraceKind::ALL
        .iter()
        .map(|&k| (k, log.count_of(k)))
        .filter(|&(_, n)| n > 0)
        .collect();
    by_kind.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (k, n) in by_kind {
        println!("  {:<16} {n}", k.name());
    }
    println!("\nopen the .trace.json file in Perfetto (ui.perfetto.dev) or chrome://tracing");
    Ok(())
}

/// Run the workload selected by `simctl trace --bench ...` with
/// telemetry already armed.
fn run_traced_bench(p: &Parsed, bench: &str, cfg: &MachineConfig) -> Result<(), String> {
    match bench {
        "stream" => {
            use membench::stream::*;
            let sc = EmuStreamConfig {
                total_elems: p.get("elems", 1u64 << 15)?,
                nthreads: p.get("threads", 256usize)?,
                strategy: SpawnStrategy::from_name(&p.get_str("strategy", "recursive-remote"))?,
                kernel: StreamKernel::Add,
                single_nodelet: false,
                stack_touch_period: 4,
            };
            let r = run_stream_emu(cfg, &sc).map_err(|e| e.to_string())?;
            if r.checksum != stream_checksum(sc.total_elems, StreamKernel::Add) {
                return Err("STREAM checksum mismatch".into());
            }
            Ok(())
        }
        "chase" => {
            use membench::chase::*;
            let cc = ChaseConfig {
                elems_per_list: p.get("elems", 1024usize)?,
                nlists: p.get("threads", 128usize)?,
                block_elems: p.get("block", 1usize)?,
                mode: ShuffleMode::FullBlock,
                seed: desim::rng::DEFAULT_SEED,
            };
            if cc.block_elems == 0 || !cc.elems_per_list.is_multiple_of(cc.block_elems) {
                return Err(format!(
                    "--elems ({}) must be a positive multiple of --block ({})",
                    cc.elems_per_list, cc.block_elems
                ));
            }
            let r = run_chase_emu(cfg, &cc).map_err(|e| e.to_string())?;
            if r.checksum != cc.expected_checksum() {
                return Err("chase checksum mismatch".into());
            }
            Ok(())
        }
        other => Err(format!("unknown --bench {other:?}; one of: stream, chase")),
    }
}

fn cmd_pdes_speedup(p: &Parsed) -> Result<(), String> {
    use emu_core::metrics::PdesPhaseProfile;
    use membench::{chase, stream};
    use std::time::Instant;

    p.check_known(&[
        "preset", "shards", "threads", "elems", "gate", "out", "phases",
    ])?;
    let preset = p.get_str("preset", "emu64");
    let cfg = presets::by_name(&preset)?;
    let shards: usize = p.get("shards", 4usize)?;
    let nthreads: usize = p.get("threads", 512usize)?;
    let elems: u64 = emu_bench::runcfg::sized(p.get("elems", 1u64 << 16)?, 1 << 12);
    let gate: bool = p.get("gate", false)?;
    let phases: bool = p.get("phases", false)?;
    let base = RunCtx::current();
    let phase_profile = phases || base.phase_profile;

    struct Leg {
        name: &'static str,
        events: u64,
        seq_eps: f64,
        par_eps: f64,
        par_phases: Vec<PdesPhaseProfile>,
    }

    // Run one workload sequentially and with N shards, timing both and
    // checking the collected reports are byte-identical — the speedup
    // claim is only meaningful if the results did not change. Phase
    // profiles carry wall-clock times, so they are lifted out of the
    // reports *before* the byte-identity comparison.
    let run_leg = |name: &'static str, body: &dyn Fn() -> Result<(), String>| {
        let timed = |threads: usize| -> Result<(u64, f64, String, Vec<PdesPhaseProfile>), String> {
            let ctx = RunCtx {
                sim_threads: threads,
                phase_profile,
                ..base.clone()
            };
            let t0 = Instant::now();
            let (outcome, mut reports) = ctx.collect(body);
            let dt = t0.elapsed().as_secs_f64();
            outcome?;
            let profiles: Vec<PdesPhaseProfile> =
                reports.iter_mut().filter_map(|r| r.phases.take()).collect();
            let events: u64 = reports.iter().map(|r| r.events).sum();
            Ok((
                events,
                events as f64 / dt.max(1e-9),
                format!("{reports:?}"),
                profiles,
            ))
        };
        let (events, seq_eps, seq_fp, _) = timed(1)?;
        let (par_events, par_eps, par_fp, par_phases) = timed(shards)?;
        if events != par_events || seq_fp != par_fp {
            return Err(format!(
                "{name}: sharded run diverged from sequential ({events} vs {par_events} events)"
            ));
        }
        Ok(Leg {
            name,
            events,
            seq_eps,
            par_eps,
            par_phases,
        })
    };

    let stream_cfg = cfg.clone();
    let stream_leg = run_leg("stream_add", &|| {
        let sc = stream::EmuStreamConfig {
            total_elems: elems,
            nthreads,
            strategy: SpawnStrategy::RecursiveRemote,
            kernel: stream::StreamKernel::Add,
            single_nodelet: false,
            stack_touch_period: 4,
        };
        let r = stream::run_stream_emu(&stream_cfg, &sc).map_err(|e| e.to_string())?;
        if r.checksum != stream::stream_checksum(sc.total_elems, sc.kernel) {
            return Err("STREAM checksum mismatch".into());
        }
        Ok(())
    })?;
    let chase_cfg = cfg.clone();
    let chase_leg = run_leg("pointer_chase", &|| {
        let cc = chase::ChaseConfig {
            elems_per_list: emu_bench::runcfg::sized_usize(2048, 256),
            nlists: nthreads,
            block_elems: 64,
            mode: chase::ShuffleMode::FullBlock,
            seed: desim::rng::DEFAULT_SEED,
        };
        let r = chase::run_chase_emu(&chase_cfg, &cc).map_err(|e| e.to_string())?;
        if r.checksum != cc.expected_checksum() {
            return Err("chase checksum mismatch".into());
        }
        Ok(())
    })?;

    let legs = [stream_leg, chase_leg];
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("sharded-scheduler speedup on {preset} ({shards} shards, {cores} host cores):");
    let mut min_speedup = f64::INFINITY;
    let mut best_par = 0.0f64;
    for l in &legs {
        let s = l.par_eps / l.seq_eps.max(1e-9);
        min_speedup = min_speedup.min(s);
        best_par = best_par.max(l.par_eps);
        println!(
            "  {:<14} {:>10} events  {:>12.0} ev/s seq  {:>12.0} ev/s x{shards}  {:.2}x",
            l.name, l.events, l.seq_eps, l.par_eps, s
        );
    }

    // Where does the sharded scheduler's wall-clock go? Aggregate the
    // per-worker phase breakdowns over every engine run of the leg.
    #[derive(Default)]
    struct PhaseAgg {
        drain: u64,
        barrier: u64,
        exchange: u64,
        merge: u64,
        total: u64,
        epochs: u64,
        wall: u64,
    }
    let aggregate = |profiles: &[PdesPhaseProfile]| -> PhaseAgg {
        let mut agg = PhaseAgg::default();
        for pr in profiles {
            agg.epochs += pr.epochs;
            agg.wall += pr.wall_ns;
            for w in &pr.workers {
                agg.drain += w.drain_ns;
                agg.barrier += w.barrier_ns;
                agg.exchange += w.exchange_ns;
                agg.merge += w.merge_ns;
                agg.total += w.loop_ns;
            }
        }
        agg
    };
    if phases {
        println!("PDES phase profile (x{shards} runs, worker time summed):");
        for l in &legs {
            let a = aggregate(&l.par_phases);
            let pct = |ns: u64| 100.0 * ns as f64 / a.total.max(1) as f64;
            let eps = a.epochs as f64 / (a.wall as f64 / 1e9).max(1e-9);
            println!(
                "  {:<14} drain {:>5.1}%  barrier {:>5.1}%  exchange {:>5.1}%  merge {:>5.1}%  \
                 {} epochs ({:.0}/s)",
                l.name,
                pct(a.drain),
                pct(a.barrier),
                pct(a.exchange),
                pct(a.merge),
                a.epochs,
                eps,
            );
        }
    }

    let mut json = format!(
        "{{\"preset\":\"{preset}\",\"shards\":{shards},\"host_parallelism\":{cores},\"workloads\":["
    );
    for (i, l) in legs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"events\":{},\"seq_events_per_sec\":{:.1},\"par_events_per_sec\":{:.1},\"speedup\":{:.3}",
            l.name,
            l.events,
            l.seq_eps,
            l.par_eps,
            l.par_eps / l.seq_eps.max(1e-9)
        ));
        if phases {
            let a = aggregate(&l.par_phases);
            json.push_str(&format!(
                ",\"phases\":{{\"drain_ns\":{},\"barrier_ns\":{},\"exchange_ns\":{},\
                 \"merge_ns\":{},\"loop_ns\":{},\"epochs\":{},\"wall_ns\":{}}}",
                a.drain, a.barrier, a.exchange, a.merge, a.total, a.epochs, a.wall
            ));
        }
        json.push('}');
    }
    json.push_str(&format!(
        "],\"min_speedup\":{min_speedup:.3},\"pdes_events_per_sec\":{best_par:.1}}}"
    ));
    if !emu_core::json::json_ok(&json) {
        return Err("internal error: pdes_speedup JSON failed validation".into());
    }
    let out_path = p
        .options
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| emu_bench::output::results_dir().join("pdes_speedup.json"));
    emu_bench::output::write_artifact("pdes-speedup", &out_path, &json);

    if gate {
        // The speedup bar scales with what the host can deliver: a
        // one-core box cannot overlap shards at all, a two-core box
        // must at least not lose to sequential, and anywhere with four
        // or more cores the sharded scheduler must win outright (2x).
        // Override with EMU_PDES_GATE_MIN to tighten or loosen.
        let min_required: f64 = std::env::var("EMU_PDES_GATE_MIN")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if cores >= 4 {
                2.0
            } else if cores > 1 {
                1.0
            } else {
                0.0
            });
        if min_speedup < min_required {
            eprintln!(
                "pdes-speedup: gate failed — {min_speedup:.2}x < {min_required}x with {shards} shards on {cores} cores"
            );
            std::process::exit(1);
        }
        println!("pdes-speedup: gate ok ({min_speedup:.2}x >= {min_required}x)");
        // Synchronization-cost bar: with the fused gate the barrier
        // phase must stay a minority cost. Checked on stream_add (the
        // epoch-dense leg) whenever the profile is available and the
        // host actually ran shards in parallel.
        if phases && cores >= 4 {
            let a = aggregate(&legs[0].par_phases);
            let frac = a.barrier as f64 / a.total.max(1) as f64;
            if frac >= 0.25 {
                eprintln!(
                    "pdes-speedup: gate failed — stream_add barrier time {:.1}% of loop (must be < 25%)",
                    100.0 * frac
                );
                std::process::exit(1);
            }
            println!(
                "pdes-speedup: barrier gate ok ({:.1}% of stream_add loop < 25%)",
                100.0 * frac
            );
        }
    }
    Ok(())
}

fn cmd_fuzz(p: &Parsed) -> Result<(), String> {
    use scenario::fuzz;

    p.check_known(&["cases", "seed", "corpus"])?;
    let cases: u64 = p.get("cases", 500u64)?;
    let seed: u64 = p.get("seed", desim::rng::DEFAULT_SEED)?;
    let corpus = p.get_str("corpus", "tests/corpus");
    let t0 = std::time::Instant::now();
    match fuzz::fuzz(seed, cases, |i| {
        if i > 0 && i % 100 == 0 {
            eprintln!("  ... {i}/{cases}");
        }
    }) {
        Ok(n) => {
            println!(
                "fuzz: {n} cases clean on sequential and 2-shard schedulers (seed {seed}, {:.1}s)",
                t0.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Err(fail) => {
            eprintln!("fuzz: case {} violated conformance:", fail.case_index);
            for problem in &fail.problems {
                eprintln!("  {problem}");
            }
            let dir = std::path::Path::new(&corpus);
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            // The repro is a `.scn` scenario, replayed with
            // `simctl scenario run`.
            let path = dir.join(format!("{}.scn", fail.minimized.name));
            std::fs::write(&path, scenario::print(&fail.minimized)).map_err(|e| e.to_string())?;
            eprintln!("fuzz: minimized repro written to {}", path.display());
            Err(format!(
                "{} conformance violation(s) on case {}",
                fail.problems.len(),
                fail.case_index
            ))
        }
    }
}
