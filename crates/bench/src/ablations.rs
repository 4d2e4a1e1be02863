//! Ablation studies for the design choices called out in DESIGN.md and
//! the paper's Section V discussion.

use crate::figures::{batch, chase_cfg, emu, emu_mbs, grid, labeled, pingpong, stream};
use crate::output::Table;
use crate::runcfg::{quick, sized, sized_usize};
use emu_core::prelude::*;
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::gups::{self, GupsConfig};
use membench::spmv_cpu::{run_spmv_cpu, CpuSpmvConfig, CpuStrategy};
use membench::spmv_emu::EmuLayout;
use membench::stream::EmuStreamConfig;
use scenario::ResolvedWorkload::{Chase, Spmv, Stream};
use spmat::{laplacian, LaplacianSpec};
use std::sync::Arc;

/// Grain-size sweep on both platforms: the paper's observation that the
/// Emu prefers tiny grains (16 nnz) while the Xeon prefers huge ones
/// (16384 nnz).
pub fn ablation_grain() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Ablation: SpMV grain size (nnz per task)",
        &["grain", "Emu 2D (MB/s)", "Haswell cilk_spawn (MB/s)"],
    );
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::haswell();
    let n = if quick() { 60 } else { 150 };
    let m = Arc::new(laplacian(LaplacianSpec::paper(n)));
    let grains = [4usize, 16, 64, 256, 1024, 4096, 16384];
    grid(&mut t, &grains, &[true, false], |&grain, &is_emu| {
        if is_emu {
            let layout = EmuLayout::TwoD;
            return emu_mbs(&emu_cfg, &Spmv { n, layout, grain });
        }
        let sc = CpuSpmvConfig {
            strategy: CpuStrategy::CilkSpawn { grain },
            nthreads: 56,
        };
        Ok(run_spmv_cpu(&cpu_cfg, Arc::clone(&m), &sc)
            .bandwidth
            .mb_per_sec())
    })?;
    Ok(t)
}

/// Migration-engine rate sweep: how ping-pong and migration-heavy chase
/// scale with the component the 1.0 firmware limited.
pub fn ablation_migration_rate() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Ablation: migration-engine rate per nodelet",
        &[
            "rate (M/s)",
            "pingpong (M mig/s)",
            "chase block=1 (MB/s)",
            "chase block=128 (MB/s)",
        ],
    );
    let round_trips = sized(1000, 100) as u32;
    let rates = [1u64, 2, 4, 8, 16, 32];
    // Each row's cells: ping-pong, then the chase at each block.
    let cells = [None, Some(1), Some(128)];
    grid(&mut t, &rates, &cells, |&rate_m, &block| {
        let cfg = MachineConfig {
            migration_rate_per_sec: rate_m * 1_000_000,
            ..presets::chick_prototype()
        };
        match block {
            None => pingpong(cfg, 64, round_trips, false)(),
            Some(block) => {
                let cc = chase_cfg(sized_usize(2048, 512), 256, block, 2);
                emu_mbs(&cfg, &Chase(cc))
            }
        }
    })?;
    Ok(t)
}

/// Spawn-strategy ramp cost: time to create N no-op workers.
pub fn ablation_spawn_ramp() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Ablation: spawn-tree ramp time (no-op workers)",
        &[
            "workers",
            "serial (us)",
            "recursive (us)",
            "serial_remote (us)",
            "recursive_remote (us)",
        ],
    );
    for workers in [64usize, 128, 256, 512] {
        let mut cells = vec![workers.to_string()];
        for strategy in SpawnStrategy::ALL {
            let factory: WorkerFactory = Arc::new(|_| Box::new(ScriptKernel::new(vec![])));
            let mut e = Engine::new(cfg.clone())?;
            e.spawn_at(
                NodeletId(0),
                emu_core::spawn::root_kernel(strategy, workers, 8, factory),
            )?;
            let r = e.run()?;
            cells.push(format!("{:.1}", r.makespan.us_f64()));
        }
        t.row(cells);
    }
    Ok(t)
}

/// The Fig 5 modeling lever: how often workers touch their Cilk frame on
/// the spawn-home nodelet. Period 0 disables the mechanism entirely.
pub fn ablation_stack_touch() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Ablation: Cilk-frame (stack) touch period, STREAM 8 nodelets, 512 threads",
        &[
            "touch period",
            "serial_spawn (MB/s)",
            "recursive_remote (MB/s)",
        ],
    );
    let periods = [0u32, 1, 2, 4, 8, 16, 64];
    let points = periods.iter().flat_map(|&stack_touch_period| {
        [SpawnStrategy::Serial, SpawnStrategy::RecursiveRemote].map(|strategy| {
            let sc = EmuStreamConfig {
                total_elems: sized(1 << 17, 1 << 13),
                nthreads: 512,
                strategy,
                stack_touch_period,
                ..Default::default()
            };
            emu(cfg.clone(), Stream(sc))
        })
    });
    let mbs = batch(points.collect())?;
    for (&period, cells) in periods.iter().zip(mbs.chunks(2)) {
        let label = if period == 0 {
            "off".to_string()
        } else {
            format!("1/{period}")
        };
        t.row(labeled(label, cells));
    }
    Ok(t)
}

/// Prefetcher and NT-store contribution to CPU STREAM and chase.
pub fn ablation_cpu_features() -> Result<Table, SimError> {
    use membench::stream::cpu::{run_stream_cpu, CpuStreamConfig};
    let mut t = Table::new(
        "Ablation: Xeon prefetcher / NT stores",
        &["configuration", "STREAM (GB/s)", "chase block=512 (MB/s)"],
    );
    for (name, prefetch, nt) in [
        ("baseline (pf + NT)", true, true),
        ("no prefetch", false, true),
        ("no NT stores", true, false),
        ("neither", false, false),
    ] {
        let mut cfg = xeon_sim::config::sandy_bridge();
        cfg.prefetch.enabled = prefetch;
        let stream = run_stream_cpu(
            &cfg,
            &CpuStreamConfig {
                total_elems: sized(1 << 19, 1 << 14),
                nthreads: 16,
                nt_stores: nt,
                ..Default::default()
            },
        );
        let chase = chase::cpu::run_chase_cpu(
            &cfg,
            &ChaseConfig {
                elems_per_list: sized_usize(1 << 15, 1 << 12),
                nlists: 16,
                block_elems: 512,
                mode: ShuffleMode::FullBlock,
                seed: 3,
            },
        );
        t.row(vec![
            name.to_string(),
            format!("{:.1}", stream.bandwidth.gb_per_sec()),
            format!("{:.1}", chase.bandwidth.mb_per_sec()),
        ]);
    }
    Ok(t)
}

/// GUPS comparison (extension): Emu memory-side atomics vs Xeon RMW.
pub fn gups_compare() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Extension: GUPS random updates",
        &["platform", "threads", "GUPS", "migrations"],
    );
    let gc = GupsConfig {
        table_words: sized(1 << 20, 1 << 14),
        nthreads: 256,
        updates_per_thread: sized_usize(2048, 256),
        seed: 9,
    };
    let emu = gups::run_gups_emu(&presets::chick_prototype(), &gc)?;
    t.row(vec![
        "Emu Chick (remote atomics)".into(),
        gc.nthreads.to_string(),
        format!("{:.4}", emu.gups),
        emu.migrations.to_string(),
    ]);
    let cpu_gc = GupsConfig {
        nthreads: 32,
        ..gc.clone()
    };
    let cpu = gups::cpu::run_gups_cpu(&xeon_sim::config::sandy_bridge(), &cpu_gc);
    t.row(vec![
        "Sandy Bridge Xeon (RMW)".into(),
        cpu_gc.nthreads.to_string(),
        format!("{:.4}", cpu.gups),
        "0".into(),
    ]);
    Ok(t)
}

/// Scaling the prototype toward the full-speed design point (GC count,
/// clock, DRAM) — the bridge between the Chick and Fig 11's machine.
pub fn ablation_full_speed_path() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Ablation: prototype -> full-speed design point (STREAM, 8 nodelets)",
        &["configuration", "STREAM (MB/s)", "chase 512thr (MB/s)"],
    );
    let steps: [(&str, MachineConfig); 4] = [
        ("prototype (1 GC @150MHz)", presets::chick_prototype()),
        (
            "+300 MHz clock",
            MachineConfig {
                gc_clock: desim::time::Clock::from_mhz(300),
                ..presets::chick_prototype()
            },
        ),
        (
            "+4 GCs",
            MachineConfig {
                gc_clock: desim::time::Clock::from_mhz(300),
                gcs_per_nodelet: 4,
                ..presets::chick_prototype()
            },
        ),
        (
            "full speed (also DDR4-2133, fast engine)",
            presets::chick_full_speed(),
        ),
    ];
    let elems = sized(1 << 18, 1 << 13);
    let points = steps.iter().flat_map(|(_, cfg)| {
        let w = stream(elems, 512, SpawnStrategy::RecursiveRemote, false);
        let cc = chase_cfg(sized_usize(2048, 512), 512, 128, 4);
        [emu(cfg.clone(), w), emu(cfg.clone(), Chase(cc))]
    });
    let mbs = batch(points.collect())?;
    for ((name, _), cells) in steps.iter().zip(mbs.chunks(2)) {
        t.row(labeled(name.to_string(), cells));
    }
    Ok(t)
}
