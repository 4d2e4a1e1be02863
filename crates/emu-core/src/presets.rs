//! Machine configurations used in the paper's experiments.
//!
//! Calibration targets (see EXPERIMENTS.md for measured values):
//!
//! | Preset | Paper anchor |
//! |---|---|
//! | [`chick_prototype`] | 1 node usable, 1 GC/nodelet @150 MHz, 64 threadlets, DDR4-1600 narrow channels; STREAM ≈1.2 GB/s per node; ping-pong ≈9 M migrations/s; migration latency 1–2 µs |
//! | [`chick_toolchain_sim`] | Emu's 17.11 simulator configured like the hardware — matches STREAM but overshoots migration rate (≈16 M/s), reproducing the Fig 10 validation gap |
//! | [`chick_full_speed`] | the design-point Chick node: 4 GCs @300 MHz, 256 threadlets/nodelet, DDR4-2133 |
//! | [`emu64_full_speed`] | 8 nodes × 8 nodelets at full speed (Fig 11) |
//!
//! The instruction cost model is shared: the Gossamer core is a deeply
//! pipelined, fine-grained-multithreaded FPGA soft core, so single-thread
//! latency per instruction is large (≈200 cycles through the memory path)
//! while aggregate issue throughput is one op per few cycles. These two
//! constants were calibrated so that single-nodelet STREAM saturates
//! around 32 threads (Fig 4) at ≈150 MB/s per nodelet (⇒ ≈1.2 GB/s per
//! node, §IV-A).

use crate::config::{CostModel, MachineConfig};
use desim::time::{Clock, Time};

/// Shared Gossamer instruction cost model (see module docs).
fn gossamer_costs() -> CostModel {
    CostModel {
        mem_issue_cycles: 5,
        mem_pipeline_cycles: 200,
        compute_latency_factor: 6,
        spawn_issue_cycles: 30,
        spawn_local_latency: Time::from_ns(200),
        migrate_issue_cycles: 8,
        atomic_extra: Time::from_ns(5),
    }
}

/// The Emu Chick prototype as the paper measured it (Section III-A):
/// one usable node of 8 nodelets, one 150 MHz Gossamer core per nodelet
/// with 64 threadlet contexts, DDR4-1600 behind 8-bit narrow channels,
/// and the 1.0-firmware migration engine (ping-pong ≈9 M migrations/s).
pub fn chick_prototype() -> MachineConfig {
    MachineConfig {
        nodes: 1,
        nodelets_per_node: 8,
        gcs_per_nodelet: 1,
        threadlets_per_gc: 64,
        gc_clock: Clock::from_mhz(150),
        // 8-bit bus at 1600 MT/s.
        ncdram_bytes_per_sec: 1_600_000_000,
        dram_latency: Time::from_ns(70),
        dram_access_overhead: Time::from_ns(5),
        dram_burst_bytes: 8,
        // Ping-pong saturates both engines: 2 x 4.5M = 9M migrations/s.
        migration_rate_per_sec: 4_500_000,
        intra_node_hop: Time::from_ns(300),
        inter_node_hop: Time::from_ns(700),
        rapidio_bytes_per_sec: 1_000_000_000,
        context_bytes: 192,
        costs: gossamer_costs(),
        faults: crate::fault::FaultPlan::none(),
    }
}

/// The Emu 17.11 toolchain simulator configured to match the prototype.
/// The paper found it matches STREAM well but not migration-heavy
/// benchmarks: ping-pong reaches ≈16 M migrations/s where hardware
/// manages only ≈9 M (Fig 10). Accordingly, this preset differs from
/// [`chick_prototype`] only along the migration path (engine rate,
/// migration issue, network hop) — non-migrating benchmarks behave
/// identically by construction.
pub fn chick_toolchain_sim() -> MachineConfig {
    let mut cfg = chick_prototype();
    cfg.migration_rate_per_sec = 8_000_000;
    cfg.intra_node_hop = Time::from_ns(150);
    cfg.costs.migrate_issue_cycles = 2;
    cfg
}

/// One Chick node at its design point (Section III-A's "next-generation"
/// deltas): 4 Gossamer cores per nodelet at 300 MHz (256 threadlets),
/// DDR4-2133 channels, and a correspondingly faster migration engine.
pub fn chick_full_speed() -> MachineConfig {
    MachineConfig {
        gcs_per_nodelet: 4,
        gc_clock: Clock::from_mhz(300),
        ncdram_bytes_per_sec: 2_133_000_000,
        migration_rate_per_sec: 16_000_000,
        dram_latency: Time::from_ns(60),
        ..chick_prototype()
    }
}

/// The full 8-node (64-nodelet) Emu system at full speed, as simulated
/// for Fig 11.
pub fn emu64_full_speed() -> MachineConfig {
    MachineConfig {
        nodes: 8,
        // The Fig 11 projection comes from Emu's own simulator, which
        // models the next-generation fabric: generous link bandwidth so
        // that fine-grained cross-node migration is not the first wall.
        rapidio_bytes_per_sec: 10_000_000_000,
        inter_node_hop: Time::from_ns(400),
        ..chick_full_speed()
    }
}

/// The 8-node Chick with prototype-grade nodes — the configuration whose
/// single stable STREAM measurement was 6.5 GB/s (§IV-A).
pub fn chick_8node_prototype() -> MachineConfig {
    MachineConfig {
        nodes: 8,
        ..chick_prototype()
    }
}

/// Resolve a preset by name. This is the one vocabulary shared by the
/// bench CLI, the `simd` daemon, and `.scn` scenario files: the short
/// CLI spellings plus the canonical function names.
pub fn by_name(name: &str) -> Result<MachineConfig, String> {
    match name {
        "chick" | "chick-hw" | "prototype" | "chick_prototype" => Ok(chick_prototype()),
        "chick-sim" | "toolchain-sim" | "chick_toolchain_sim" => Ok(chick_toolchain_sim()),
        "full-speed" | "chick_full_speed" => Ok(chick_full_speed()),
        "emu64" | "emu64_full_speed" => Ok(emu64_full_speed()),
        "chick-8node" | "chick_8node_prototype" => Ok(chick_8node_prototype()),
        other => Err(format!(
            "unknown preset {other:?}; one of: chick, chick-sim, full-speed, emu64, chick-8node"
        )),
    }
}

/// The five presets under their short CLI names, in the paper's order.
pub fn all() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("chick", chick_prototype()),
        ("chick-sim", chick_toolchain_sim()),
        ("full-speed", chick_full_speed()),
        ("emu64", emu64_full_speed()),
        ("chick-8node", chick_8node_prototype()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for (_, cfg) in all() {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn prototype_matches_paper_structure() {
        let c = chick_prototype();
        assert_eq!(c.total_nodelets(), 8);
        assert_eq!(c.slots_per_nodelet(), 64);
        assert_eq!(c.gc_clock.period().ps(), 6667); // 150 MHz
    }

    #[test]
    fn toolchain_sim_differs_only_along_migration_path() {
        let hw = chick_prototype();
        let sim = chick_toolchain_sim();
        assert!(sim.migration_rate_per_sec > hw.migration_rate_per_sec);
        assert!(sim.intra_node_hop < hw.intra_node_hop);
        assert!(sim.costs.migrate_issue_cycles < hw.costs.migrate_issue_cycles);
        // Everything a non-migrating benchmark touches is identical.
        assert_eq!(sim.gcs_per_nodelet, hw.gcs_per_nodelet);
        assert_eq!(sim.ncdram_bytes_per_sec, hw.ncdram_bytes_per_sec);
        assert_eq!(sim.gc_clock, hw.gc_clock);
        assert_eq!(sim.costs.mem_issue_cycles, hw.costs.mem_issue_cycles);
        assert_eq!(sim.costs.mem_pipeline_cycles, hw.costs.mem_pipeline_cycles);
        assert_eq!(
            sim.costs.compute_latency_factor,
            hw.costs.compute_latency_factor
        );
    }

    #[test]
    fn full_speed_scales_everything_up() {
        let hw = chick_prototype();
        let fs = chick_full_speed();
        assert_eq!(fs.slots_per_nodelet(), 256);
        assert!(fs.gc_clock.hz() > hw.gc_clock.hz());
        assert!(fs.ncdram_bytes_per_sec > hw.ncdram_bytes_per_sec);
        assert!(fs.migration_rate_per_sec > hw.migration_rate_per_sec);
    }

    #[test]
    fn by_name_covers_every_preset_and_both_spellings() {
        for (name, cfg) in all() {
            let resolved = by_name(name).unwrap();
            assert_eq!(format!("{resolved:?}"), format!("{cfg:?}"), "{name}");
        }
        assert!(by_name("chick_prototype").is_ok());
        assert!(by_name("emu64_full_speed").is_ok());
        assert!(by_name("nope").is_err());
    }

    #[test]
    fn emu64_has_64_nodelets() {
        assert_eq!(emu64_full_speed().total_nodelets(), 64);
        assert_eq!(chick_8node_prototype().total_nodelets(), 64);
    }
}
