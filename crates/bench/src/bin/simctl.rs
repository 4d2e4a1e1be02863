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

/// `run` returns usage errors (an unknown command or option, a value
/// that does not parse or fit), which exit 2 after the usage text; a
/// run that fails ends the process through [`fail`].
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

/// End a failed run (a simulation error, a result that does not verify,
/// an artifact that cannot be written) with its message and exit 1.
fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
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
        "serve" | "client" | "once" | "simd-once" | "top"
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
    // The timed CI bounds run outside any ctx scope and take no flags.
    if args[0] == "gates" {
        if let Some(extra) = args.get(1) {
            return Err(format!("gates takes no arguments, got {extra:?}"));
        }
        std::process::exit(emu_bench::gates::run());
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
        other => Err(format!("unknown command {other:?}")),
    })
}

fn cmd_presets() -> Result<(), String> {
    for (name, cfg) in presets::all() {
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
    let r = run_stream_emu(&cfg, &sc).unwrap_or_else(|e| fail(e));
    if r.checksum != stream_checksum(sc.total_elems, kernel) {
        fail("STREAM checksum mismatch");
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
            run_chase_emu(&cfg, &cc).unwrap_or_else(|e| fail(e))
        }
        "xeon" => cpu::run_chase_cpu(&xeon_sim::config::sandy_bridge(), &cc),
        other => return Err(format!("unknown platform {other:?}")),
    };
    if r.checksum != cc.expected_checksum() {
        fail("chase checksum mismatch");
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
            .unwrap_or_else(|e| fail(e));
            verify(&reference, &r.y);
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
            verify(&reference, &r.y);
            (r.bandwidth.mb_per_sec(), 0)
        }
        other => return Err(format!("unknown platform {other:?}")),
    };
    println!("  effective bandwidth: {bw:.1} MB/s");
    println!("  migrations         : {migrations}");
    println!("  (output vector verified against reference)");
    Ok(())
}

fn verify(reference: &[f64], y: &[f64]) {
    let err = reference
        .iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err >= 1e-9 {
        fail(format!("result check failed: max err {err}"));
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
    let r = run_pingpong(&cfg, &pc).unwrap_or_else(|e| fail(e));
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
            run_gups_emu(&cfg, &gc).unwrap_or_else(|e| fail(e))
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
        .unwrap_or_else(|e| fail(e));
    if r.levels != g.bfs_reference(src) {
        fail("BFS levels diverged from reference");
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
    p.check_known(&["preset", "rank", "nnz", "layout", "threads", "seed"])?;
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
    .unwrap_or_else(|e| fail(e));
    let reference = mttkrp_reference(&t, rank);
    let err = reference
        .iter()
        .zip(&r.y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err > 1e-6 {
        fail(format!("MTTKRP diverged: max err {err}"));
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
        .unwrap_or_else(|| fail("no traced emu run was collected"));

    let chrome = chrome_trace(traced);
    let jsonl = trace_jsonl(traced);
    let report = report_set_json(&format!("trace_{bench}"), None, &reports);
    if !json_ok(&chrome) || !json_ok(&report) || !jsonl_ok(&jsonl) {
        fail("internal error: emitted telemetry failed JSON validation");
    }
    for (label, path, body) in [
        ("trace-out", &trace_out, &chrome),
        ("jsonl-out", &jsonl_out, &jsonl),
        ("report-json", &report_out, &report),
    ] {
        emu_bench::output::write_artifact(label, path, body).unwrap_or_else(|e| fail(e));
    }

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
            let r = run_stream_emu(cfg, &sc).unwrap_or_else(|e| fail(e));
            if r.checksum != stream_checksum(sc.total_elems, StreamKernel::Add) {
                fail("STREAM checksum mismatch");
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
            let r = run_chase_emu(cfg, &cc).unwrap_or_else(|e| fail(e));
            if r.checksum != cc.expected_checksum() {
                fail("chase checksum mismatch");
            }
            Ok(())
        }
        other => Err(format!("unknown --bench {other:?}; one of: stream, chase")),
    }
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
        Err(failure) => {
            eprintln!("fuzz: case {} violated conformance:", failure.case_index);
            for problem in &failure.problems {
                eprintln!("  {problem}");
            }
            let dir = std::path::Path::new(&corpus);
            std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(e));
            // The repro is a `.scn` scenario, replayed with
            // `simctl scenario run`.
            let path = dir.join(format!("{}.scn", failure.minimized.name));
            std::fs::write(&path, scenario::print(&failure.minimized)).unwrap_or_else(|e| fail(e));
            eprintln!("fuzz: minimized repro written to {}", path.display());
            fail(format!(
                "{} conformance violation(s) on case {}",
                failure.problems.len(),
                failure.case_index
            ))
        }
    }
}
