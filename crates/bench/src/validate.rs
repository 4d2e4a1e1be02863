//! Executable calibration checks: every "shape criterion" DESIGN.md and
//! EXPERIMENTS.md claim against the paper, as PASS/FAIL assertions with
//! explicit tolerance bands. `cargo run --release --bin validate` exits
//! nonzero if any band is violated — the regression gate for model or
//! calibration changes.

use crate::figures::{batch, chase_cfg, emu, pingpong, stream, xeon_chase_mbs, Scalar};
use crate::output::Table;
use crate::runcfg::{quick, sized, sized_usize};
use emu_core::prelude::*;
use membench::spmv_emu::EmuLayout;
use membench::stream::cpu::{run_stream_cpu, CpuStreamConfig};
use scenario::ResolvedWorkload::{Chase, Spmv};
use SpawnStrategy::{RecursiveRemote, Serial};

/// One calibration check.
pub struct Check {
    /// What is being checked (paper anchor).
    pub name: String,
    /// Measured value.
    pub measured: f64,
    /// Inclusive acceptance band.
    pub band: (f64, f64),
    /// Display unit.
    pub unit: &'static str,
}

impl Check {
    /// Whether the measurement is inside the band.
    pub fn pass(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

/// Run every calibration check; returns the list (render with
/// [`render`]) — callers decide what failure means. Each measurement
/// is one point, run across the sweep pool; a simulation error (bad
/// config, watchdog trip) aborts the whole suite.
pub fn run_all() -> Result<Vec<Check>, SimError> {
    let hw = presets::chick_prototype();
    let sim = presets::chick_toolchain_sim();
    let stream_at = |cfg: &MachineConfig, threads, strategy, single| {
        emu(
            cfg.clone(),
            stream(sized(1 << 17, 1 << 13), threads, strategy, single),
        )
    };
    let chase_at = |cfg: &MachineConfig, block| {
        let cc = chase_cfg(sized_usize(2048, 512).max(block), 512, block, 17);
        emu(cfg.clone(), Chase(cc))
    };
    let n = if quick() { 30 } else { 100 };
    let spmv = |layout| {
        let grain = 16;
        emu(hw.clone(), Spmv { n, layout, grain })
    };
    let round_trips = sized(1000, 100) as u32;
    let xeon = xeon_sim::config::sandy_bridge;
    let xeon_stream = CpuStreamConfig {
        total_elems: sized(1 << 19, 1 << 14),
        nthreads: 16,
        ..Default::default()
    };
    let xeon_cc = chase_cfg(sized_usize(1 << 17, 1 << 13), 32, 64, 17);
    // Each measurement is one point of one batch; `v[i]` is the value
    // of the point `add` numbered `i`.
    let mut points: Vec<Scalar> = Vec::new();
    let mut add = |point: Scalar| {
        points.push(point);
        points.len() - 1
    };
    let stream8 = add(stream_at(&hw, 512, RecursiveRemote, false));
    let [s8, s32, s64] = [8, 32, 64].map(|threads| add(stream_at(&hw, threads, Serial, true)));
    let serial = add(stream_at(&hw, 256, Serial, false));
    let remote = add(stream_at(&hw, 256, RecursiveRemote, false));
    let b1 = add(chase_at(&hw, 1));
    let flat = [8, 32, 128, 512, 1024].map(|block| add(chase_at(&hw, block)));
    let b128 = flat[2];
    let b64 = add(chase_at(&hw, 64));
    let xeon_peak = add(Box::new(move || {
        Ok(run_stream_cpu(&xeon(), &xeon_stream).bandwidth.mb_per_sec())
    }));
    let xeon_chase = add(Box::new(move || Ok(xeon_chase_mbs(&xeon(), &xeon_cc))));
    let [local, one_d, two_d] = EmuLayout::ALL.map(|layout| add(spmv(layout)));
    let pp_hw = add(pingpong(hw.clone(), 64, round_trips, false));
    let pp_sim = add(pingpong(sim.clone(), 64, round_trips, false));
    let latency = add(pingpong(hw.clone(), 8, round_trips, true));
    let stream_sim = add(stream_at(&sim, 512, RecursiveRemote, false));
    let chase1_sim = add(chase_at(&sim, 1));
    let v = batch(points)?;
    let flat = flat.map(|i| v[i]);
    let bmax = flat.iter().cloned().fold(f64::MIN, f64::max);
    let bmin = flat.iter().cloned().fold(f64::MAX, f64::min);
    let checks = [
        // §IV-A: single-node STREAM ~1.2 GB/s.
        (
            "Emu 1-node STREAM (paper 1.2 GB/s)",
            v[stream8] / 1000.0,
            0.9,
            1.5,
            "GB/s",
        ),
        // Fig 4: knee behaviour on one nodelet.
        (
            "Fig4 scaling 8->32 threads (x)",
            v[s32] / v[s8],
            2.5,
            4.5,
            "x",
        ),
        (
            "Fig4 plateau 32->64 threads (x)",
            v[s64] / v[s32],
            0.9,
            1.15,
            "x",
        ),
        // Fig 5: remote-spawn advantage at 256 threads.
        (
            "Fig5 remote/serial spawn at 256 thr (x)",
            v[remote] / v[serial],
            1.7,
            5.0,
            "x",
        ),
        // Fig 6: flatness and the block-1 dip.
        (
            "Fig6 flatness max/min, blocks 8-1024 (x)",
            bmax / bmin,
            1.0,
            1.35,
            "x",
        ),
        (
            "Fig6 block-1 dip vs block-128 (frac)",
            v[b1] / v[b128],
            0.5,
            0.95,
            "",
        ),
        // Fig 8: utilization bands.
        (
            "Fig8 Emu utilization at block 64 (%)",
            100.0 * v[b64] / v[stream8],
            65.0,
            95.0,
            "%",
        ),
        (
            "Xeon STREAM (paper ~51.2 GB/s nominal)",
            v[xeon_peak] / 1000.0,
            40.0,
            52.0,
            "GB/s",
        ),
        (
            "Fig8 Xeon utilization at block 64 (%)",
            100.0 * v[xeon_chase] / v[xeon_peak],
            10.0,
            40.0,
            "%",
        ),
        // Fig 9a: layout ordering and the 2D magnitude.
        (
            "Fig9a local layout (paper ~50 MB/s)",
            v[local],
            25.0,
            80.0,
            "MB/s",
        ),
        (
            "Fig9a 2D layout (paper ~250 MB/s)",
            v[two_d],
            150.0,
            600.0,
            "MB/s",
        ),
        (
            "Fig9a ordering 1D/local (x)",
            v[one_d] / v[local],
            1.5,
            10.0,
            "x",
        ),
        (
            "Fig9a ordering 2D/1D (x)",
            v[two_d] / v[one_d],
            1.05,
            5.0,
            "x",
        ),
        // Fig 10: validation gap.
        (
            "Ping-pong hardware (paper 9 M/s)",
            v[pp_hw],
            8.0,
            10.0,
            "M/s",
        ),
        (
            "Ping-pong simulator (paper 16 M/s)",
            v[pp_sim],
            14.0,
            18.0,
            "M/s",
        ),
        (
            "Migration latency (paper 1-2 us)",
            v[latency],
            0.3,
            2.5,
            "us",
        ),
        (
            "Fig10 STREAM sim/hw agreement (x)",
            v[stream_sim] / v[stream8],
            0.98,
            1.02,
            "x",
        ),
        (
            "Fig10 chase blk1 sim/hw divergence (x)",
            v[chase1_sim] / v[b1],
            1.15,
            2.5,
            "x",
        ),
    ];
    Ok(checks
        .into_iter()
        .map(|(name, measured, lo, hi, unit)| Check {
            name: name.to_string(),
            measured,
            band: (lo, hi),
            unit,
        })
        .collect())
}

/// Render checks as a table, PASS/FAIL per row.
pub fn render(checks: &[Check]) -> (Table, bool) {
    let mut t = Table::new(
        "Calibration validation against the paper's anchors",
        &["check", "measured", "band", "verdict"],
    );
    let mut all_ok = true;
    for c in checks {
        let ok = c.pass();
        all_ok &= ok;
        t.row(vec![
            c.name.clone(),
            format!("{:.2} {}", c.measured, c.unit),
            format!("[{:.2}, {:.2}]", c.band.0, c.band.1),
            if ok { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    (t, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_band_logic() {
        let c = Check {
            name: "x".into(),
            measured: 1.0,
            band: (0.5, 1.5),
            unit: "",
        };
        assert!(c.pass());
        let c = Check {
            name: "x".into(),
            measured: 2.0,
            band: (0.5, 1.5),
            unit: "",
        };
        assert!(!c.pass());
    }
}
