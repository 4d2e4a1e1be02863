//! Graceful-degradation sweeps: bandwidth as a function of injected
//! faults — the figure the paper's degraded prototype could not hold
//! still long enough to produce.
//!
//! Three axes, two workloads each (STREAM as the bandwidth-bound probe,
//! block-1 pointer chasing as the migration-bound probe):
//!
//! * **dead** — fraction of nodelets marked dead, their memory and
//!   arrivals redirected to the nearest live neighbor;
//! * **slow** — fraction of nodelets serving all resources 4× slower
//!   (the "one sick FPGA" regime the Chick actually exhibited);
//! * **nack** — migration-engine NACK probability with exponential
//!   backoff (the firmware-limit knob behind the Fig 10 gap).
//!
//! Every point runs under the [`crate::harness`] timeout/retry policy,
//! so a pathological configuration yields a labelled `error`/`timeout`
//! row instead of killing the sweep.

use crate::figures::{chase_cfg, emu_numbers, mbs, stream};
use crate::harness::{run_point, PointOutcome, RunPolicy};
use crate::output::Table;
use crate::runcfg::{quick, sized, sized_usize};
use crate::sweep;
use emu_core::prelude::*;
use scenario::ResolvedWorkload::{self, Chase};
use std::time::Duration;

/// One measured sweep point: bandwidth plus the fault-recovery counters
/// that explain it.
#[derive(Debug, Clone, Copy)]
pub struct DegSample {
    /// Achieved bandwidth.
    pub mb_per_sec: f64,
    /// Thread migrations over the run.
    pub migrations: u64,
    /// Machine-wide fault-recovery totals.
    pub faults: FaultTotals,
}

/// The two probes, by bench name: STREAM (bandwidth-bound) and block-1
/// pointer chasing (migration-bound).
fn probes() -> [(&'static str, ResolvedWorkload); 2] {
    let elems = sized(1 << 16, 1 << 12);
    [
        (
            "stream",
            stream(elems, 512, SpawnStrategy::RecursiveRemote, false),
        ),
        (
            "chase1",
            Chase(chase_cfg(sized_usize(1024, 256), 256, 1, 17)),
        ),
    ]
}

/// Measure `w` on the faulted machine `cfg`: one checked, memoized
/// point.
fn sample(cfg: &MachineConfig, w: &ResolvedWorkload) -> Result<DegSample, SimError> {
    let v = emu_numbers(cfg, w, "faults", |x| {
        let r = &x.reports[0];
        let f = r.fault_totals();
        [
            mbs(x),
            r.total_migrations() as f64,
            f.nacks as f64,
            f.retries as f64,
            f.ecc_retries as f64,
            f.link_retransmits as f64,
            f.redirects as f64,
        ]
    })?;
    let n = |i: usize| v[i] as u64;
    Ok(DegSample {
        mb_per_sec: v[0],
        migrations: n(1),
        faults: FaultTotals {
            nacks: n(2),
            retries: n(3),
            ecc_retries: n(4),
            link_retransmits: n(5),
            redirects: n(6),
        },
    })
}

/// A sweep point: axis name, axis value, probe, faulted config.
struct Point {
    axis: &'static str,
    value: f64,
    bench: &'static str,
    w: ResolvedWorkload,
    cfg: MachineConfig,
}

fn plan_points() -> Vec<Point> {
    let base = presets::chick_prototype();
    let total = base.total_nodelets();
    let mut pts = Vec::new();
    let mut add = |axis: &'static str, value: f64, faults: FaultPlan| {
        for (bench, w) in probes() {
            pts.push(Point {
                axis,
                value,
                bench,
                w,
                cfg: MachineConfig {
                    faults: faults.clone(),
                    ..base.clone()
                },
            });
        }
    };

    for frac in [0.0, 0.125, 0.25, 0.375, 0.5] {
        add(
            "dead",
            frac,
            FaultPlan::none().with_dead_fraction(total, frac),
        );
    }
    for frac in [0.125, 0.25, 0.5] {
        add(
            "slow4x",
            frac,
            FaultPlan::none().with_slow_fraction(total, frac, 4.0),
        );
    }
    for prob in [0.01, 0.05, 0.1, 0.2, 0.4] {
        let mut f = FaultPlan::none();
        f.mig_nack_prob = prob;
        add("nack", prob, f);
    }
    pts
}

/// Run the full degradation sweep on the bounded worker pool in
/// [`crate::sweep`] (`--jobs`/`-j`), each point isolated by
/// [`run_point`]'s timeout/retry harness; failures and timeouts become
/// labelled rows, never a crash.
pub fn fig_degradation() -> Table {
    let policy = RunPolicy {
        timeout: Duration::from_secs(if quick() { 60 } else { 300 }),
        attempts: 2,
    };
    let points = plan_points();
    let rows = sweep::run_indexed(points.len(), |i| {
        let p = &points[i];
        let outcome = run_point(policy, || sample(&p.cfg, &p.w));
        render_row(p.axis, p.value, p.bench, &outcome)
    });

    let mut t = Table::new(
        "Degradation: bandwidth vs injected faults (Emu Chick preset)",
        &[
            "axis",
            "value",
            "bench",
            "MB/s",
            "migrations",
            "nacks",
            "retries",
            "ecc_retries",
            "link_retx",
            "redirects",
            "status",
        ],
    );
    for r in rows {
        t.row(r);
    }
    t
}

fn render_row(
    axis: &str,
    value: f64,
    bench: &str,
    outcome: &PointOutcome<DegSample>,
) -> Vec<String> {
    let mut row = vec![axis.to_string(), format!("{value:.3}"), bench.to_string()];
    match outcome {
        PointOutcome::Ok(s) => {
            row.extend([
                format!("{:.1}", s.mb_per_sec),
                s.migrations.to_string(),
                s.faults.nacks.to_string(),
                s.faults.retries.to_string(),
                s.faults.ecc_retries.to_string(),
                s.faults.link_retransmits.to_string(),
                s.faults.redirects.to_string(),
            ]);
        }
        _ => row.extend(std::iter::repeat_n("-".to_string(), 7)),
    }
    row.push(outcome.status().to_string());
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_report_fault_counters() {
        let base = presets::chick_prototype();
        let mut faulted = base.clone();
        faulted.faults.mig_nack_prob = 0.2;
        let [_, (_, chase)] = probes();
        let clean = sample(&base, &chase).unwrap();
        let noisy = sample(&faulted, &chase).unwrap();
        assert_eq!(clean.faults.nacks, 0);
        assert!(noisy.faults.nacks > 0, "NACKs must be counted");
        assert!(
            noisy.mb_per_sec < clean.mb_per_sec,
            "NACKs must cost bandwidth: {} vs {}",
            noisy.mb_per_sec,
            clean.mb_per_sec
        );
    }

    #[test]
    fn dead_nodelets_redirect_and_degrade_stream() {
        let base = presets::chick_prototype();
        let mut faulted = base.clone();
        faulted.faults = FaultPlan::none().with_dead_fraction(base.total_nodelets(), 0.25);
        let [(_, stream), _] = probes();
        let clean = sample(&base, &stream).unwrap();
        let degraded = sample(&faulted, &stream).unwrap();
        assert!(degraded.faults.redirects > 0, "dead traffic must redirect");
        assert!(degraded.mb_per_sec < clean.mb_per_sec);
    }
}
