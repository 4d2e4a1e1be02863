//! Extension experiments beyond the paper's figures: the application
//! directions its introduction names (streaming graphs / STINGER, sparse
//! tensors / ParTI), plus cross-platform sweeps of the benchmark
//! dimensions the paper only samples.

use crate::figures::{
    batch, chase_cfg, emu, emu_mbs, emu_numbers, grid, labeled, mbs, stream, xeon_chase_mbs,
};
use crate::output::Table;
use crate::runcfg::{quick, sized, sized_usize};
use crate::sweep;
use emu_core::prelude::*;
use emu_graph::bfs::{run_bfs_emu, BfsMode};
use emu_graph::gen as graph_gen;
use emu_graph::insert::run_insert_emu;
use emu_graph::stinger::Stinger;
use emu_tensor::coo::random_tensor;
use emu_tensor::cpu::{run_mttkrp_cpu, CpuMttkrpConfig};
use emu_tensor::emu::TensorLayout;
use membench::chase::{ChaseConfig, ShuffleMode};
use membench::spmv_emu::EmuLayout;
use membench::stream::{
    cpu::{run_stream_cpu, CpuStreamConfig},
    EmuStreamConfig, StreamKernel,
};
use scenario::ResolvedWorkload::{Chase, Mttkrp, Spmv, Stream};
use std::sync::Arc;
use SpawnStrategy::RecursiveRemote;

/// Streaming-graph extension: edge-insertion throughput and BFS with the
/// two migration strategies, on an RMAT graph.
pub fn ext_graph() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let scale = if quick() { 9 } else { 12 };
    let ne = sized_usize(1 << 15, 1 << 11);
    let edges = graph_gen::rmat(scale, ne, 42);
    let mut t = Table::new(
        format!(
            "Extension: streaming graph on the Emu Chick (RMAT scale {scale}, {} edges)",
            edges.len()
        ),
        &["experiment", "threads", "rate", "migrations"],
    );
    for threads in [32usize, 128, 512] {
        let r = run_insert_emu(&cfg, &edges, threads, emu_graph::DEFAULT_BLOCK_CAP)?;
        // Verify the streamed build against a host build.
        let host = Stinger::build_host(&edges, emu_graph::DEFAULT_BLOCK_CAP, 8);
        assert_eq!(
            r.graph.lock().unwrap().canonical_adjacency(),
            host.canonical_adjacency()
        );
        t.row(vec![
            "edge insertion".into(),
            threads.to_string(),
            format!("{:.2} M edges/s", r.edges_per_sec / 1e6),
            r.migrations.to_string(),
        ]);
    }
    let g = Arc::new(Stinger::build_host(&edges, emu_graph::DEFAULT_BLOCK_CAP, 8));
    let reference = g.bfs_reference(0);
    for mode in [BfsMode::Migrating, BfsMode::RemoteFlags] {
        for threads in [64usize, 512] {
            let r = run_bfs_emu(&cfg, Arc::clone(&g), 0, mode, threads)?;
            assert_eq!(r.levels, reference, "BFS diverged");
            t.row(vec![
                format!("BFS ({})", mode.name()),
                threads.to_string(),
                format!("{:.2} M TEPS", r.teps / 1e6),
                r.migrations.to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Sparse-tensor extension: MTTKRP layout x rank on the Emu, plus the
/// Haswell comparison.
pub fn ext_mttkrp() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::haswell();
    let (dims, seed) = ([256, 64, 64], 7);
    let nnz = sized_usize(1 << 15, 1 << 11);
    let t3 = Arc::new(random_tensor(dims, nnz, seed));
    let mut t = Table::new(
        format!("Extension: MTTKRP ({} nnz, 256x64x64)", t3.nnz()),
        &[
            "rank",
            "Emu 1D (MB/s)",
            "Emu slice-blocked (MB/s)",
            "Emu 1D migrations",
            "Haswell 56thr (MB/s)",
        ],
    );
    let ranks = [1u32, 2, 4, 8, 16];
    let rows = sweep::run_indexed(ranks.len(), |i| {
        let rank = ranks[i];
        // MB/s and migrations of one Emu layout.
        let emu = |layout| {
            let w = Mttkrp {
                dims,
                nnz,
                rank,
                layout,
                threads: 512,
                seed,
            };
            emu_numbers(&emu_cfg, &w, "mttkrp", |x| {
                [mbs(x), x.reports[0].total_migrations() as f64]
            })
        };
        let [one_d, migrations] = emu(TensorLayout::OneD)?;
        let [blocked, _] = emu(TensorLayout::SliceBlocked)?;
        let cc = CpuMttkrpConfig { rank, nthreads: 56 };
        let cpu = run_mttkrp_cpu(&cpu_cfg, Arc::clone(&t3), &cc);
        Ok::<_, SimError>(vec![
            rank.to_string(),
            format!("{one_d:.1}"),
            format!("{blocked:.1}"),
            (migrations as u64).to_string(),
            format!("{:.1}", cpu.bandwidth.mb_per_sec()),
        ])
    });
    for row in rows {
        t.row(row?);
    }
    Ok(t)
}

/// The full shuffle-mode matrix of Fig 2, on both platforms at one block
/// size (the paper only plots full_block_shuffle).
pub fn ext_shuffle_modes() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let xeon = xeon_sim::config::sandy_bridge;
    let mut t = Table::new(
        "Extension: shuffle modes (block 64, Emu 512thr / Xeon 32thr)",
        &["mode", "Emu (MB/s)", "Xeon (MB/s)"],
    );
    let points = ShuffleMode::ALL.iter().flat_map(|&mode| {
        let emu_cc = ChaseConfig {
            mode,
            ..chase_cfg(sized_usize(4096, 512), 512, 64, 11)
        };
        let cpu_cc = ChaseConfig {
            mode,
            ..chase_cfg(sized_usize(1 << 17, 1 << 13), 32, 64, 11)
        };
        [
            emu(emu_cfg.clone(), Chase(emu_cc)),
            Box::new(move || Ok(xeon_chase_mbs(&xeon(), &cpu_cc))),
        ]
    });
    let mbs = batch(points.collect())?;
    for (mode, cells) in ShuffleMode::ALL.iter().zip(mbs.chunks(2)) {
        t.row(labeled(mode.name().into(), cells));
    }
    Ok(t)
}

/// Full STREAM suite (the paper only reports ADD).
pub fn ext_stream_suite() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let xeon = xeon_sim::config::sandy_bridge;
    let mut t = Table::new(
        "Extension: full STREAM suite (Emu 512thr recursive_remote / Xeon 16thr NT)",
        &["kernel", "Emu (MB/s)", "Xeon (GB/s)"],
    );
    let kernels = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];
    let points = kernels.iter().flat_map(|&kernel| {
        let emu_sc = EmuStreamConfig {
            total_elems: sized(1 << 18, 1 << 13),
            nthreads: 512,
            kernel,
            ..Default::default()
        };
        let cpu_sc = CpuStreamConfig {
            total_elems: sized(1 << 20, 1 << 14),
            nthreads: 16,
            kernel,
            nt_stores: true,
        };
        [
            emu(emu_cfg.clone(), Stream(emu_sc)),
            Box::new(move || Ok(run_stream_cpu(&xeon(), &cpu_sc).bandwidth.gb_per_sec())),
        ]
    });
    let v = batch(points.collect())?;
    for (kernel, c) in kernels.iter().zip(v.chunks(2)) {
        t.row(vec![
            kernel.name().into(),
            format!("{:.1}", c[0]),
            format!("{:.2}", c[1]),
        ]);
    }
    Ok(t)
}

/// Multi-node scaling of the prototype (the paper managed one stable
/// 8-node STREAM measurement of 6.5 GB/s).
pub fn ext_multinode() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Extension: node scaling, prototype-grade nodes",
        &[
            "nodes",
            "STREAM (MB/s)",
            "chase blk64 (MB/s)",
            "chase blk1 (MB/s)",
        ],
    );
    let (elems, list) = (sized(1 << 18, 1 << 13), sized_usize(1024, 256));
    let node_counts = [1u32, 2, 4, 8];
    // Each row's cells: STREAM, then the chase at each block.
    let cells = [None, Some(64), Some(1)];
    grid(&mut t, &node_counts, &cells, |&nodes, &block| {
        let cfg = MachineConfig {
            nodes,
            ..presets::chick_prototype()
        };
        let threads = 512 * nodes as usize;
        let w = match block {
            None => stream(elems * nodes as u64, threads, RecursiveRemote, false),
            Some(block) => Chase(chase_cfg(list.max(block), threads, block, 12)),
        };
        emu_mbs(&cfg, &w)
    })?;
    Ok(t)
}

/// Where threadlet time goes — the overheads Section III-D asks to
/// expose, "such as thread migration and queuing delays": the share of
/// total threadlet time spent computing, waiting on local memory,
/// migrating, posting stores and spawning, per workload.
pub fn time_breakdown() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Threadlet time breakdown (% of total thread-time)",
        &[
            "workload",
            "compute",
            "memory",
            "migration",
            "stores",
            "spawn",
        ],
    );
    let mut points = Vec::new();
    // STREAM: remote vs serial spawn.
    for strategy in [RecursiveRemote, SpawnStrategy::Serial] {
        let label = format!("STREAM 512thr {}", strategy.name());
        points.push((label, stream(1 << 16, 512, strategy, false)));
    }
    // Chase across the locality sweep.
    for block in [1usize, 4, 64, 1024] {
        let cc = chase_cfg(2048.max(block), 512, block, 5);
        points.push((format!("chase block={block}"), Chase(cc)));
    }
    // SpMV layouts.
    for layout in EmuLayout::ALL {
        let w = Spmv {
            n: 60,
            layout,
            grain: 16,
        };
        points.push((format!("SpMV {}", layout.name()), w));
    }
    let shares = sweep::run_indexed(points.len(), |i| {
        emu_numbers(&cfg, &points[i].1, "breakdown", |x| {
            let b = x.reports[0].breakdown;
            [b.compute, b.memory, b.migration, b.store_issue, b.spawn]
                .map(|p| 100.0 * b.fraction(p))
        })
    });
    for ((label, _), s) in points.into_iter().zip(shares) {
        t.row(labeled(label, &s?));
    }
    Ok(t)
}
