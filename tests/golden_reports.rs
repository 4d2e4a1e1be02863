//! Golden digests of rendered run reports: simulated output must not
//! move by a byte unless a change means to move it.
//!
//! Each point renders its `RunReport` with `emu_core::json::report_json`
//! and pins the SHA-256 of those bytes. The points are small (well
//! under a second each in the debug test profile) but cover every
//! machine preset on STREAM and pointer chasing, plus one faulted,
//! traced script run on the two-worker sharded scheduler. The result
//! cache is keyed on configs, not on code, so a scheduler or handler
//! change that shifted these bytes would otherwise be served stale
//! without any error.
//!
//! If an assertion fails, the change altered simulated behaviour. When
//! that is intended, re-pin the printed digests here, bump
//! `runcache::KEY_VERSION` so cached results are orphaned, and say why
//! in the commit message.

use emu_chick::prelude::*;
use emu_core::json::report_json;
use membench::chase::{run_chase_emu, ChaseConfig, ShuffleMode};
use membench::stream::{run_stream_emu, EmuStreamConfig};
use runcache::sha256::hex_digest;

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
