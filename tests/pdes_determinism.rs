//! The sharded parallel scheduler must never change results: the full
//! run report — counters, occupancy, histograms, the merged event trace
//! and its drop count — is identical at every worker count, and
//! quick-mode figure CSVs/telemetry exports are byte-identical at
//! `--sim-threads 1/2/4`.

use emu_chick::prelude::*;
use std::sync::Mutex;

/// Tests in one binary run on parallel threads, but the sim-threads
/// default and the report collector are process-global: the seeded
/// runs of one test would land in the other's collected reports.
static GLOBAL_RUN_STATE: Mutex<()> = Mutex::new(());

/// Build a seeded, faulted engine with a deliberately small trace ring
/// (so drop accounting is exercised) and a cross-shard-heavy workload.
fn seeded_run(mut cfg: MachineConfig, fault_seed: u64, workers: usize) -> RunReport {
    cfg.faults.seed = fault_seed;
    cfg.faults.mig_nack_prob = 0.25;
    cfg.faults.mig_retry_budget = 64;
    cfg.faults.ecc_prob = 0.15;
    let total = cfg.total_nodelets();
    let mut e = Engine::new(cfg).unwrap();
    e.set_sim_threads(workers);
    e.enable_trace(64); // tiny ring: the drop count must also agree
    for t in 0..6u32 {
        let here = NodeletId(t % total);
        let mut ops = Vec::new();
        for rep in 0..4u32 {
            let there = NodeletId((t * 7 + rep * 5 + 3) % total);
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
                    nodelet: NodeletId((t + rep + 1) % total),
                },
                Op::Compute { cycles: 40 },
            ]);
        }
        e.spawn_at(here, Box::new(ScriptKernel::new(ops))).unwrap();
    }
    e.run().unwrap()
}

#[test]
fn seeded_reports_identical_at_worker_counts_1_2_4() {
    let _serial = GLOBAL_RUN_STATE.lock().unwrap_or_else(|e| e.into_inner());
    type PresetFn = fn() -> MachineConfig;
    let presets: [(&str, PresetFn); 3] = [
        ("chick", presets::chick_prototype),
        ("chick-8node", presets::chick_8node_prototype),
        ("emu64", presets::emu64_full_speed),
    ];
    for (name, preset) in presets {
        for fault_seed in [1u64, 42] {
            let baseline = seeded_run(preset(), fault_seed, 1);
            let trace = baseline.trace.as_ref().expect("trace enabled");
            assert!(
                trace.dropped > 0,
                "{name}: ring must overflow to test drops"
            );
            for workers in [2usize, 4] {
                let parallel = seeded_run(preset(), fault_seed, workers);
                assert_eq!(
                    format!("{baseline:?}"),
                    format!("{parallel:?}"),
                    "{name} seed {fault_seed}: report differs at {workers} workers"
                );
            }
        }
    }
}

/// Figure-level byte-identity. One test function: the sim-threads knob,
/// the report collector, and `EMU_QUICK`/`EMU_RESULTS_DIR` are
/// process-global, and tests within one binary share the process.
#[test]
fn figures_are_byte_identical_at_any_sim_thread_count() {
    use emu_bench::figures;
    use emu_bench::output::Table;
    use emu_bench::telemetry::report_set_json;
    use emu_core::json::json_ok;
    use emu_core::trace;

    let _serial = GLOBAL_RUN_STATE.lock().unwrap_or_else(|e| e.into_inner());

    type FigureFn = fn() -> Result<Table, emu_core::fault::SimError>;
    std::env::set_var("EMU_QUICK", "1");
    let base = std::env::temp_dir().join(format!("emu_pdesdet_{}", std::process::id()));
    let figs: [(&str, FigureFn); 2] = [("fig04", figures::fig04), ("fig10", figures::fig10)];
    for (name, f) in figs {
        let mut outs: Vec<(Vec<u8>, String)> = Vec::new();
        for sim_threads in [1usize, 2, 4] {
            emu_core::engine::set_sim_threads(sim_threads);
            trace::collect_reports(true);
            let table = f().expect("figure must succeed");
            let runs = trace::take_reports();
            trace::collect_reports(false);
            let report = report_set_json(name, Some(&table), &runs);
            let dir = base.join(format!("{name}_s{sim_threads}"));
            std::env::set_var("EMU_RESULTS_DIR", &dir);
            let path = table.write_csv(name).expect("csv write");
            std::env::remove_var("EMU_RESULTS_DIR");
            outs.push((std::fs::read(path).expect("csv read"), report));
        }
        emu_core::engine::set_sim_threads(1);
        let (csv1, rep1) = &outs[0];
        assert!(!csv1.is_empty(), "{name}: empty CSV");
        assert!(json_ok(rep1), "{name}: report JSON invalid");
        for (i, (csv, rep)) in outs.iter().enumerate().skip(1) {
            let threads = [1, 2, 4][i];
            assert_eq!(
                csv1, csv,
                "{name}: CSV differs between --sim-threads 1 and {threads}"
            );
            assert_eq!(
                rep1, rep,
                "{name}: report JSON differs between --sim-threads 1 and {threads}"
            );
        }
    }
    std::env::remove_var("EMU_QUICK");
    let _ = std::fs::remove_dir_all(&base);
}
