//! Fault-path accounting for the sparse-tensor workload: MTTKRP under
//! an active [`FaultPlan`] must stay numerically exact, pass the full
//! [`emu_core::audit`] pass, and reconcile its [`FaultTotals`] against
//! the event trace.

use emu_core::ctx::RunCtx;
use emu_core::prelude::*;
use emu_tensor::coo::{mttkrp_reference, random_tensor};
use emu_tensor::emu::{run_mttkrp_emu, EmuMttkrpConfig, TensorLayout};
use std::sync::Arc;

fn faulty_cfg() -> MachineConfig {
    let mut cfg = presets::chick_prototype();
    cfg.faults = FaultPlan {
        seed: 0x7E45,
        mig_nack_prob: 0.25,
        mig_backoff: desim::time::Time::from_ns(40),
        mig_retry_budget: 64,
        ecc_prob: 0.1,
        ecc_latency: desim::time::Time::from_ns(60),
        ..FaultPlan::none()
    };
    cfg.faults.validate(cfg.total_nodelets()).unwrap();
    cfg
}

#[test]
fn mttkrp_fault_counters_reconcile_with_trace() {
    let cfg = faulty_cfg();
    let t = Arc::new(random_tensor([24, 10, 10], 400, 0x7E46));
    let rank = 4;
    let reference = mttkrp_reference(&t, rank);

    let traced = RunCtx {
        telemetry: TelemetryConfig {
            event_capacity: 1 << 20,
            timeline_bucket: None,
        },
        ..RunCtx::default()
    };
    for layout in TensorLayout::ALL {
        let r = traced
            .scope(|| {
                run_mttkrp_emu(
                    &cfg,
                    Arc::clone(&t),
                    &EmuMttkrpConfig {
                        layout,
                        rank,
                        nthreads: 24,
                    },
                )
            })
            .unwrap();

        // Faults perturb timing, never results.
        for (i, (a, b)) in reference.iter().zip(&r.y).enumerate() {
            assert!((a - b).abs() < 1e-9, "{}[{i}]: {a} vs {b}", layout.name());
        }

        let log = r.report.trace.as_ref().expect("tracing was armed");
        assert!(log.is_lossless(), "ring too small for reconciliation");
        let totals = r.report.fault_totals();
        assert_eq!(totals.nacks, log.count_of(TraceKind::MigNack));
        assert_eq!(totals.retries, log.count_of(TraceKind::MigRetry));
        assert_eq!(totals.ecc_retries, log.count_of(TraceKind::EccRetry));
        assert_eq!(
            totals.link_retransmits,
            log.count_of(TraceKind::LinkRetransmit)
        );
        assert_eq!(totals.redirects, log.count_of(TraceKind::Redirect));
        // Completed runs retry every NACK.
        assert_eq!(totals.nacks, totals.retries);
        // With nnz ≫ threads the 1D layout migrates per entry; faults
        // that never fire would make this whole test vacuous.
        if layout == TensorLayout::OneD {
            assert!(totals.nacks > 0, "fault plan injected nothing");
        }
        assert_consistent(&cfg, &r.report);
    }
}

#[test]
fn mttkrp_fault_runs_are_reproducible() {
    let cfg = faulty_cfg();
    let t = Arc::new(random_tensor([16, 8, 8], 200, 0x7E47));
    let run = || {
        let r = run_mttkrp_emu(&cfg, Arc::clone(&t), &EmuMttkrpConfig::default()).unwrap();
        (r.y.clone(), r.migrations, r.report.makespan)
    };
    assert_eq!(run(), run(), "seeded faults must replay exactly");
}
