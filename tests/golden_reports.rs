//! Golden digests of rendered run reports: simulated output must not
//! move by a byte unless a change means to move it.
//!
//! Each point renders its `RunReport` with `emu_core::json::report_json`
//! and pins the SHA-256 of those bytes. The points are small (well
//! under a second each in the debug test profile) but cover every
//! machine preset on STREAM and pointer chasing, plus one faulted,
//! traced script run on the two-worker sharded scheduler and two runs
//! whose lookahead windows leave most shards idle (a two-thread
//! ping-pong on `emu64`, a migrating script on `chick-8node` at one and
//! two workers). The result
//! cache's keys carry a fingerprint of the source, so a cached result
//! never hides such a change; these pins are what says that a
//! scheduler or handler change shifted the bytes at all.
//!
//! The Xeon model's `CpuReport` has no JSON form, so its points render
//! every report field explicitly (`cpu_digest`) and pin the SHA-256 of
//! that text: STREAM and SpMV on both Xeon presets, a Sandy Bridge with a
//! 1 MiB L3 so dirty last-level evictions are pinned, a read-modify-write
//! script for the dirty bit a store hit sets, and pointer chasing (whose
//! `ChaseResult` carries no `CpuReport`) by makespan and checksum.
//!
//! If an assertion fails, the change altered simulated behaviour. When
//! that is intended, re-pin the printed digests here and say why in
//! the commit message.

use emu_chick::prelude::*;
use emu_core::json::report_json;
use membench::chase::cpu::run_chase_cpu;
use membench::chase::{run_chase_emu, ChaseConfig, ShuffleMode};
use membench::spmv_cpu::{run_spmv_cpu, CpuSpmvConfig, CpuStrategy};
use membench::stream::cpu::{run_stream_cpu, CpuStreamConfig};
use membench::stream::{run_stream_emu, EmuStreamConfig, StreamKernel};
use runcache::sha256::hex_digest;
use spmat::{laplacian, LaplacianSpec};
use std::sync::Arc;
use xeon_sim::dram::DramStats;
use xeon_sim::engine::CpuCounters;

fn digest(label: &str, r: &RunReport) -> String {
    hex_digest(report_json(label, r).as_bytes())
}

fn stream_digest(name: &str, cfg: &MachineConfig) -> String {
    let sc = EmuStreamConfig {
        total_elems: 1 << 12,
        nthreads: 64,
        strategy: SpawnStrategy::RecursiveRemote,
        ..Default::default()
    };
    let r = run_stream_emu(cfg, &sc).expect("stream runs");
    digest(&format!("stream-{name}"), &r.report)
}

fn chase_digest(name: &str, cfg: &MachineConfig) -> String {
    let cc = ChaseConfig {
        elems_per_list: 128,
        nlists: 32,
        block_elems: 4,
        mode: ShuffleMode::FullBlock,
        seed: 7,
    };
    let r = run_chase_emu(cfg, &cc).expect("chase runs");
    digest(
        &format!("chase-{name}"),
        r.report.as_ref().expect("emu chase reports"),
    )
}

/// Assert every `(name, got)` equals its pinned digest, listing all
/// mismatches (with the digest to re-pin) in one failure.
fn check(golden: &[(&str, &str)], got: &[(String, String)]) {
    assert_eq!(golden.len(), got.len(), "golden table out of date");
    let bad: Vec<String> = golden
        .iter()
        .zip(got)
        .filter(|((name, want), (gname, g))| name != gname || want != g)
        .map(|(_, (gname, g))| format!("(\"{gname}\", \"{g}\"),"))
        .collect();
    assert!(
        bad.is_empty(),
        "report digests moved; now:\n{}",
        bad.join("\n")
    );
}

#[test]
fn stream_and_chase_reports_on_every_preset() {
    const GOLDEN: [(&str, &str); 10] = [
        (
            "stream-chick",
            "c716c8c07180fa12ac6ebba136230578bd6bfcefc308d204acfaa153780fdc6c",
        ),
        (
            "chase-chick",
            "c15a89698528625dd7b7b63b8ecf58aab357e5c247fca9ceec7ec1a3d581bef3",
        ),
        (
            "stream-chick-sim",
            "759c247cf3435815f047d53189567d5062e63fda432344c20b81a90b05c4b33e",
        ),
        (
            "chase-chick-sim",
            "b72cafac56ab858a2f8cf5f291d9dd5951063168bedb31ec4345111c9c67a666",
        ),
        (
            "stream-full-speed",
            "275b40b1604b863e7c2c9209a14e5e769f1e1b97d0dafbf5a9047e65e963bcb0",
        ),
        (
            "chase-full-speed",
            "abf373ded4e4b77e196ba9377efcff40ffc1776d5f76d5489039d121568a0e77",
        ),
        (
            "stream-emu64",
            "0747533787ee0c6201a6dca9883899ec64c96d593767f8e94e08ac85432b5d86",
        ),
        (
            "chase-emu64",
            "087bcdaa697fd3553ee48b25749c5ca484fc9886cf38b4ad0b080673795b8b45",
        ),
        (
            "stream-chick-8node",
            "12020ff2216ca26335bfafa297a0d6391160964c652ec937fcb26eddb553992c",
        ),
        (
            "chase-chick-8node",
            "189dc376591d2a1f5d201800ccace9025f72095416c93ba9b5ba6dafac445a3e",
        ),
    ];
    let mut got = Vec::new();
    for (name, cfg) in presets::all() {
        got.push((format!("stream-{name}"), stream_digest(name, &cfg)));
        got.push((format!("chase-{name}"), chase_digest(name, &cfg)));
    }
    check(&GOLDEN, &got);
}

/// A faulted multi-node script run on two scheduler workers, with a
/// small trace ring so the drop count is part of the rendered bytes.
#[test]
fn faulted_script_report_at_two_sim_threads() {
    const GOLDEN: [(&str, &str); 1] = [(
        "script-faulted-st2",
        "f3ff9bc4c82aeae4e16b12960120a67e48fff37ff1eb75bd439e38b69a41f009",
    )];
    let mut cfg = presets::chick_8node_prototype();
    cfg.faults.seed = 42;
    cfg.faults.mig_nack_prob = 0.25;
    cfg.faults.mig_retry_budget = 64;
    cfg.faults.ecc_prob = 0.15;
    cfg.faults.link_drop_prob = 0.1;
    cfg.faults.link_retry_budget = 64;
    let total = cfg.total_nodelets();
    let mut e = Engine::new(cfg).expect("engine builds");
    e.set_sim_threads(2);
    // Keep the two-worker path even where adaptive merging would fold
    // it back to the inline scheduler (a one-core host).
    e.enable_merge(false);
    e.enable_trace(256);
    for t in 0..16u32 {
        let here = NodeletId(t % total);
        let mut ops = Vec::new();
        for rep in 0..6u32 {
            let there = NodeletId((t * 7 + rep * 13 + 3) % total);
            ops.extend([
                Op::Load {
                    addr: GlobalAddr::new(there, 0x40),
                    bytes: 64,
                },
                Op::Store {
                    addr: GlobalAddr::new(here, 0x80),
                    bytes: 32,
                },
                Op::AtomicAdd {
                    addr: GlobalAddr::new(there, 0xc0),
                    bytes: 8,
                },
                Op::MigrateTo {
                    nodelet: NodeletId((t + rep * 9 + 1) % total),
                },
                Op::Compute { cycles: 40 },
            ]);
        }
        e.spawn_at(here, Box::new(ScriptKernel::new(ops)))
            .expect("spawn");
    }
    let r = e.run().expect("faulted run completes");
    assert!(r.fault_totals().nacks > 0, "the plan must inject faults");
    check(
        &GOLDEN,
        &[(
            "script-faulted-st2".into(),
            digest("script-faulted-st2", &r),
        )],
    );
}

/// Sparse lookahead windows: two threadlets bounce between the head
/// nodelets of two `emu64` nodes, so 62 of the 64 shards never hold an
/// event.
#[test]
fn sparse_pingpong_report_on_emu64() {
    const GOLDEN: [(&str, &str); 1] = [(
        "pingpong-2t-emu64",
        "30757b01dff05a2829fa6b098576af8d110fc56b5e123fe8d03e99f4490e799e",
    )];
    let cfg = presets::emu64_full_speed();
    let (a, b) = (NodeletId(0), NodeletId(cfg.nodelets_per_node));
    let mut e = Engine::new(cfg).expect("engine builds");
    for t in 0..2u32 {
        let (start, other) = if t == 0 { (a, b) } else { (b, a) };
        let ops = (0..40)
            .map(|i| Op::MigrateTo {
                nodelet: if i % 2 == 0 { other } else { start },
            })
            .collect();
        e.spawn_at(start, Box::new(ScriptKernel::new(ops)))
            .expect("spawn");
    }
    let r = e.run().expect("ping-pong completes");
    assert_eq!(r.total_migrations(), 80);
    check(
        &GOLDEN,
        &[("pingpong-2t-emu64".into(), digest("pingpong-2t-emu64", &r))],
    );
}

/// Eight threadlets migrate, load, store and add across `chick-8node`'s
/// 64 nodelets, touching only a few shards per window, on one scheduler
/// worker and on two. Both runs render under one label, so their
/// digests are equal.
#[test]
fn sparse_migrating_script_at_one_and_two_sim_threads() {
    const GOLDEN: [(&str, &str); 2] = [
        (
            "script-8t-chick-8node-st1",
            "7ad7fe9f085cf2dc262ad612ce9bbed5ab98c68a3bf1f69495a3e0759b1e0bc0",
        ),
        (
            "script-8t-chick-8node-st2",
            "7ad7fe9f085cf2dc262ad612ce9bbed5ab98c68a3bf1f69495a3e0759b1e0bc0",
        ),
    ];
    let mut got = Vec::new();
    for workers in [1, 2] {
        let cfg = presets::chick_8node_prototype();
        let total = cfg.total_nodelets();
        let mut e = Engine::new(cfg).expect("engine builds");
        e.set_sim_threads(workers);
        // Keep the two-worker path on a one-core host.
        e.enable_merge(false);
        for t in 0..8u32 {
            let here = NodeletId(t * 8);
            let mut ops = Vec::new();
            for rep in 0..5u32 {
                let there = NodeletId((t * 11 + rep * 17 + 5) % total);
                ops.extend([
                    Op::MigrateTo { nodelet: there },
                    Op::Load {
                        addr: GlobalAddr::new(NodeletId((there.0 + 1) % total), 0x40),
                        bytes: 8,
                    },
                    Op::Store {
                        addr: GlobalAddr::new(here, 0x80),
                        bytes: 8,
                    },
                    Op::AtomicAdd {
                        addr: GlobalAddr::new(NodeletId((t + rep * 3) % total), 0xc0),
                        bytes: 8,
                    },
                    Op::Compute { cycles: 20 },
                ]);
            }
            e.spawn_at(here, Box::new(ScriptKernel::new(ops)))
                .expect("spawn");
        }
        let r = e.run().expect("script completes");
        let name = format!("script-8t-chick-8node-st{workers}");
        got.push((name, digest("script-8t-chick-8node", &r)));
    }
    check(&GOLDEN, &got);
}

/// Every `CpuReport` field as text, hashed. The destructuring names each
/// field, so a field added to the report fails to compile here until it
/// is rendered too.
fn cpu_digest(label: &str, r: &CpuReport) -> String {
    let CpuReport {
        makespan,
        counters:
            CpuCounters {
                l1_hits,
                l2_hits,
                l3_hits,
                prefetch_hits,
                dram_loads,
                stores,
                nt_stores,
                writebacks,
                prefetches,
            },
        dram:
            DramStats {
                reads,
                writes,
                row_hits,
                row_misses,
            },
        dram_bus_utilization,
        threads,
    } = r;
    let text = format!(
        "{label} makespan_ps={} l1_hits={l1_hits} l2_hits={l2_hits} l3_hits={l3_hits} \
         prefetch_hits={prefetch_hits} dram_loads={dram_loads} stores={stores} \
         nt_stores={nt_stores} writebacks={writebacks} prefetches={prefetches} \
         dram_reads={reads} dram_writes={writes} row_hits={row_hits} \
         row_misses={row_misses} bus_utilization_bits={:016x} threads={threads}",
        makespan.ps(),
        dram_bus_utilization.to_bits(),
    );
    hex_digest(text.as_bytes())
}

fn cpu_stream(cfg: &CpuConfig, total_elems: u64, nt_stores: bool) -> CpuReport {
    let sc = CpuStreamConfig {
        total_elems,
        nthreads: cfg.cores as usize,
        kernel: StreamKernel::Add,
        nt_stores,
    };
    run_stream_cpu(cfg, &sc).report
}

fn cpu_spmv(cfg: &CpuConfig, strategy: CpuStrategy) -> CpuReport {
    let m = Arc::new(laplacian(LaplacianSpec::paper(32)));
    let sc = CpuSpmvConfig {
        strategy,
        nthreads: cfg.cores as usize,
    };
    run_spmv_cpu(cfg, m, &sc).report
}

/// STREAM and SpMV `CpuReport`s on both Xeon presets, plus dirty
/// last-level evictions on a Sandy Bridge with a 1 MiB L3.
#[test]
fn cpu_reports_on_both_xeons() {
    const GOLDEN: [(&str, &str); 10] = [
        (
            "stream-nt-sandy",
            "3076ce6133148cb3688eeca7f8758087e975cb132a8c0173a6fea00f62afb09c",
        ),
        (
            "stream-cached-sandy",
            "b8963d2174c44b4753c646391802a29533fb9e976c311ac93c05848409eeb18d",
        ),
        (
            "spmv-mkl-sandy",
            "2a27174eb0ea69ab86a6b8112e430939115e76d2b463ed98938e109693661aca",
        ),
        (
            "spmv-spawn16-sandy",
            "49911ab40ad6145956a051e3c5f312205e5be6a2d48ad1c55906732e0e7b27eb",
        ),
        (
            "stream-nt-haswell",
            "377ee34ec4ae647731463a962e4621b689f907f12f0b1e623d121c079b2adbf8",
        ),
        (
            "stream-cached-haswell",
            "0f6e5be62ec79e6ea536086e3de65520844d0638226d8cd1d20bba5dde4d450f",
        ),
        (
            "spmv-mkl-haswell",
            "390e539da91fca829ff1a94cfbb72a966fd2b782d413b60734e026a8fd2ae825",
        ),
        (
            "spmv-spawn16-haswell",
            "3a7bf6cc9d0b1fa12f0287c9b6413c06cf9175a7e138f0bb841066ae26c2ab55",
        ),
        (
            "stream-cached-l3-1m-sandy",
            "98d5245165a13aaf3531fa0d6ef92494952da282f89eaac3acba221e60bc16b3",
        ),
        (
            "rmw-l3-1m-sandy",
            "c48be1790725303cf3205d20277b06e67720dec3c932c9a9b68fd3ba389e196e",
        ),
    ];
    let mut got = Vec::new();
    for (name, cfg) in [("sandy", sandy_bridge()), ("haswell", haswell())] {
        let points = [
            ("stream-nt", cpu_stream(&cfg, 1 << 14, true)),
            ("stream-cached", cpu_stream(&cfg, 1 << 14, false)),
            ("spmv-mkl", cpu_spmv(&cfg, CpuStrategy::MklLike)),
            (
                "spmv-spawn16",
                cpu_spmv(&cfg, CpuStrategy::CilkSpawn { grain: 16 }),
            ),
        ];
        for (point, r) in points {
            let label = format!("{point}-{name}");
            got.push((label.clone(), cpu_digest(&label, &r)));
        }
    }
    // A 1 MiB L3 under a 1.5 MiB cached-store STREAM: the stored lines
    // leave the last level dirty and are written back.
    let mut small_l3 = sandy_bridge();
    small_l3.l3.capacity = 1 << 20;
    let r = cpu_stream(&small_l3, 1 << 16, false);
    let mut writebacks = vec![r.counters.writebacks];
    got.push((
        "stream-cached-l3-1m-sandy".into(),
        cpu_digest("stream-cached-l3-1m-sandy", &r),
    ));
    // Random read-modify-write over 4 MiB on the same small L3: each
    // store hits the clean line its load just brought in, so every
    // writeback here depends on that hit setting the dirty bit.
    let mut e = CpuEngine::new(small_l3);
    for t in 0..4 {
        let ops = desim::rng::uniform_indices(8192, 1 << 16, 11 + t)
            .into_iter()
            .flat_map(|line| {
                let addr = line * 64;
                [
                    CpuOp::Load { addr, bytes: 8 },
                    CpuOp::Store { addr, bytes: 8 },
                ]
            })
            .collect();
        e.add_thread(Box::new(CpuScript::new(ops)));
    }
    let r = e.run();
    writebacks.push(r.counters.writebacks);
    got.push(("rmw-l3-1m-sandy".into(), cpu_digest("rmw-l3-1m-sandy", &r)));
    check(&GOLDEN, &got);
    assert!(writebacks.iter().all(|&w| w > 0), "{writebacks:?}");
}

/// Pointer chasing at blocks 1 and 512 on both Xeon presets.
#[test]
fn cpu_chase_on_both_xeons() {
    const GOLDEN: [(&str, &str); 4] = [
        (
            "chase-b1-sandy",
            "7caee74327c8461c5bf03df18708a4805bd0231e3a3b399c50124d79d828ae79",
        ),
        (
            "chase-b512-sandy",
            "c358e342a4c2849eb1b85d9088420d26adf3e2c4e06e71dc0fe2ded6349f34af",
        ),
        (
            "chase-b1-haswell",
            "a9a15107d307e040f09dc9855f7cd4e0eb8af4e40a789aa7da4c832458d24427",
        ),
        (
            "chase-b512-haswell",
            "16f0463cd211de7be5a1b9ade82ded6a29be4ac7be16d0bfe1b2796b47d27976",
        ),
    ];
    let mut got = Vec::new();
    for (name, cfg) in [("sandy", sandy_bridge()), ("haswell", haswell())] {
        for block in [1, 512] {
            let cc = ChaseConfig {
                elems_per_list: 1024,
                nlists: 16,
                block_elems: block,
                mode: ShuffleMode::FullBlock,
                seed: 7,
            };
            let r = run_chase_cpu(&cfg, &cc);
            assert_eq!(r.checksum, cc.expected_checksum());
            let label = format!("chase-b{block}-{name}");
            let text = format!(
                "{label} makespan_ps={} checksum={}",
                r.makespan.ps(),
                r.checksum
            );
            got.push((label, hex_digest(text.as_bytes())));
        }
    }
    check(&GOLDEN, &got);
}
