//! Runners that regenerate each figure of the paper.
//!
//! Each function sweeps the same parameters as the corresponding figure
//! and returns a [`Table`] whose rows are the figure's data series. The
//! `figNN` binaries are thin wrappers; EXPERIMENTS.md records the
//! paper-vs-measured comparison for every run.
//!
//! Every cell is computed from the measured numbers of one point, a
//! machine and a workload. Emu points run through
//! [`scenario::exec::execute`], which checks each result against its
//! functional reference and audits every report; a point that fails
//! either aborts its figure. Xeon and ping-pong points call their
//! membench runners directly. All of them go through [`cache::memo`],
//! keyed on the point alone, so figures that measure the same point
//! share it.
//!
//! Sweep points are independent simulations, so every figure fans its
//! grid across the worker pool in [`crate::sweep`] (`--jobs`/`-j`) and
//! assembles rows in sweep order — the tables and CSVs are identical at
//! any job count. The experiment tables ([`crate::validate`],
//! [`crate::ablations`], [`crate::extensions`],
//! [`crate::degradation`]) build their points with the same helpers.

use crate::cache;
use crate::output::{fmt_mbs, Table};
use crate::runcfg::{quick, sized, sized_usize};
use crate::sweep::{self, Thunk};
use desim::rng::DEFAULT_SEED;
use emu_core::prelude::*;
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::pingpong::{run_pingpong, PingPongConfig};
use membench::spmv_cpu::{run_spmv_cpu, CpuSpmvConfig, CpuStrategy};
use membench::spmv_emu::{x_vector, EmuLayout};
use membench::stream::cpu::{run_stream_cpu, CpuStreamConfig};
use membench::stream::{EmuStreamConfig, StreamKernel};
use scenario::exec::Executed;
use scenario::ResolvedWorkload::{self, Chase, Spmv, Stream};
use spmat::{laplacian, LaplacianSpec};
use std::sync::{Arc, OnceLock};
use xeon_sim::config::CpuConfig;

/// Thread counts swept on a single nodelet (Fig 4).
pub const FIG4_THREADS: [usize; 8] = [1, 2, 4, 8, 16, 24, 32, 64];
/// Thread counts swept on eight nodelets (Fig 5).
pub const FIG5_THREADS: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
/// Block sizes swept by the pointer-chase figures.
pub const CHASE_BLOCKS: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Fill `t` with a rows × cols grid of independent cells evaluated
/// across the worker pool: one row per `rows` entry, labeled with it,
/// then its cells to one decimal (first error in sweep order wins).
/// A cell is a function of its row and column alone, so equal rows
/// are evaluated once and share their cells.
pub(crate) fn grid<R: Sync + ToString + PartialEq, C: Sync>(
    t: &mut Table,
    rows: &[R],
    cols: &[C],
    cell: impl Fn(&R, &C) -> Result<f64, SimError> + Sync,
) -> Result<(), SimError> {
    let nc = cols.len();
    // The distinct rows in first-seen order, and each row's index there.
    let mut distinct: Vec<&R> = Vec::new();
    let slots: Vec<usize> = rows
        .iter()
        .map(|r| {
            distinct.iter().position(|d| *d == r).unwrap_or_else(|| {
                distinct.push(r);
                distinct.len() - 1
            })
        })
        .collect();
    let cells = sweep::run_indexed(distinct.len() * nc, |i| {
        cell(distinct[i / nc], &cols[i % nc])
    });
    let cells: Vec<f64> = cells.into_iter().collect::<Result<_, _>>()?;
    for (label, &slot) in rows.iter().zip(&slots) {
        t.row(labeled(label.to_string(), &cells[slot * nc..][..nc]));
    }
    Ok(())
}

/// A table row: `label`, then `cells` to one decimal.
pub(crate) fn labeled(label: String, cells: &[f64]) -> Vec<String> {
    let mut row = vec![label];
    row.extend(cells.iter().map(|v| format!("{v:.1}")));
    row
}

/// A scalar measurement, as one point of a [`batch`].
pub(crate) type Scalar = Thunk<Result<f64, SimError>>;

/// Run a batch of heterogeneous scalar measurements across the pool;
/// first error in batch order wins.
pub(crate) fn batch(thunks: Vec<Scalar>) -> Result<Vec<f64>, SimError> {
    sweep::run_thunks(thunks).into_iter().collect()
}

/// Run one Emu point through [`scenario::exec::execute`]. A point that
/// misses its functional reference or breaks an audit invariant aborts
/// the table that asked for it.
fn checked(cfg: &MachineConfig, w: &ResolvedWorkload) -> Result<Executed, SimError> {
    let x = scenario::exec::execute(cfg, w)?;
    assert!(x.problems.is_empty(), "{w:?}: {}", x.problems.join("; "));
    Ok(x)
}

/// MB/s of a checked run of a STREAM, chase, MTTKRP or SpMV point.
pub(crate) fn mbs(x: &Executed) -> f64 {
    x.bandwidth.expect("a bandwidth workload").mb_per_sec()
}

/// MB/s of one checked Emu point, memoized on the point.
pub(crate) fn emu_mbs(cfg: &MachineConfig, w: &ResolvedWorkload) -> Result<f64, SimError> {
    let [v] = cache::memo(cfg, w, || Ok([mbs(&checked(cfg, w)?)]))?;
    Ok(v)
}

/// The numbers `read` takes from one checked Emu point, memoized on
/// the point and `what` (which names the numbers, so two readers of
/// one point keep apart).
pub(crate) fn emu_numbers<const N: usize>(
    cfg: &MachineConfig,
    w: &ResolvedWorkload,
    what: &str,
    read: impl FnOnce(&Executed) -> [f64; N],
) -> Result<[f64; N], SimError> {
    cache::memo(cfg, &(what, w), || Ok(read(&checked(cfg, w)?)))
}

/// [`emu_mbs`] as a batch point.
pub(crate) fn emu(cfg: MachineConfig, w: ResolvedWorkload) -> Scalar {
    Box::new(move || emu_mbs(&cfg, &w))
}

/// MB/s of a pointer chase on a Xeon, memoized on the point. The
/// payload checksum must match.
pub(crate) fn xeon_chase_mbs(cfg: &CpuConfig, cc: &ChaseConfig) -> f64 {
    let [mbs] = cache::memo(cfg, cc, || {
        let r = chase::cpu::run_chase_cpu(cfg, cc);
        assert_eq!(r.checksum, cc.expected_checksum());
        Ok([r.bandwidth.mb_per_sec()])
    })
    .expect("cpu chase cannot fail");
    mbs
}

/// A ping-pong point of `round_trips` per thread as a batch point: its
/// migration rate in M/s or, with `latency`, its mean migration latency
/// in us. The memo stores both numbers.
pub(crate) fn pingpong(
    cfg: MachineConfig,
    threads: usize,
    round_trips: u32,
    latency: bool,
) -> Scalar {
    Box::new(move || {
        let pc = PingPongConfig {
            nthreads: threads,
            round_trips,
            ..Default::default()
        };
        let [rate, latency_ns] = cache::memo(&cfg, &pc, || {
            let r = run_pingpong(&cfg, &pc)?;
            Ok([r.migrations_per_sec, r.mean_latency_ns])
        })?;
        Ok(if latency {
            latency_ns / 1000.0
        } else {
            rate / 1e6
        })
    })
}

/// STREAM ADD over `total_elems` elements with `nthreads` workers.
pub(crate) fn stream(
    total_elems: u64,
    nthreads: usize,
    strategy: SpawnStrategy,
    single_nodelet: bool,
) -> ResolvedWorkload {
    Stream(EmuStreamConfig {
        total_elems,
        nthreads,
        strategy,
        single_nodelet,
        ..Default::default()
    })
}

/// A full-block-shuffle chase of `nlists` lists of `elems` elements.
pub(crate) fn chase_cfg(elems: usize, nlists: usize, block: usize, seed: u64) -> ChaseConfig {
    ChaseConfig {
        elems_per_list: elems,
        nlists,
        block_elems: block,
        mode: ShuffleMode::FullBlock,
        seed,
    }
}

/// Fig 4: STREAM on one nodelet, serial vs recursive local spawn.
pub fn fig04() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let elems = sized(1 << 16, 1 << 12);
    let mut t = Table::new(
        "Fig 4: STREAM ADD, single nodelet of the Emu Chick",
        &["threads", "serial_spawn (MB/s)", "recursive_spawn (MB/s)"],
    );
    let strategies = [SpawnStrategy::Serial, SpawnStrategy::Recursive];
    grid(&mut t, &FIG4_THREADS, &strategies, |&threads, &strategy| {
        emu_mbs(&cfg, &stream(elems, threads, strategy, true))
    })?;
    Ok(t)
}

/// Fig 5: STREAM on eight nodelets, all four spawn strategies.
pub fn fig05() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let elems = sized(1 << 18, 1 << 13);
    let mut t = Table::new(
        "Fig 5: STREAM ADD, eight nodelets of the Emu Chick",
        &[
            "threads",
            "serial (MB/s)",
            "recursive (MB/s)",
            "serial_remote (MB/s)",
            "recursive_remote (MB/s)",
        ],
    );
    grid(
        &mut t,
        &FIG5_THREADS,
        &SpawnStrategy::ALL,
        |&threads, &strategy| emu_mbs(&cfg, &stream(elems, threads, strategy, false)),
    )?;
    Ok(t)
}

/// A pointer-chase table: one row per block size that fits in a list,
/// one column per thread (list) count, each cell `mbs` of that chase.
fn chase_sweep(
    title: &str,
    thread_counts: &[usize],
    blocks: &[usize],
    elems_per_list: usize,
    mbs: impl Fn(ChaseConfig) -> Result<f64, SimError> + Sync,
) -> Result<Table, SimError> {
    let mut cols = vec!["block_elems".to_string()];
    cols.extend(thread_counts.iter().map(|t| format!("{t} threads (MB/s)")));
    let mut t = Table::new(title, &cols.iter().map(String::as_str).collect::<Vec<_>>());
    let blocks: Vec<usize> = blocks
        .iter()
        .copied()
        .filter(|&b| b <= elems_per_list)
        .collect();
    grid(&mut t, &blocks, thread_counts, |&block, &threads| {
        mbs(chase_cfg(elems_per_list, threads, block, DEFAULT_SEED))
    })?;
    Ok(t)
}

/// Fig 6: pointer chasing on the Emu Chick (8 nodelets).
pub fn fig06() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    chase_sweep(
        "Fig 6: Pointer chasing, Emu Chick (8 nodelets), full_block_shuffle",
        &[64, 128, 256, 512],
        &CHASE_BLOCKS,
        sized_usize(4096, 512),
        |cc| emu_mbs(&cfg, &Chase(cc)),
    )
}

/// Fig 7: pointer chasing on the Sandy Bridge Xeon.
pub fn fig07() -> Result<Table, SimError> {
    let cfg = xeon_sim::config::sandy_bridge();
    // Lists must dwarf the 20 MiB LLC, as in the paper: 4 MiB per list
    // and up to 32 lists = 128 MiB of once-touched data.
    chase_sweep(
        "Fig 7: Pointer chasing, Sandy Bridge Xeon, full_block_shuffle",
        &[4, 16, 32],
        &CHASE_BLOCKS,
        sized_usize(1 << 18, 1 << 13),
        |cc| Ok(xeon_chase_mbs(&cfg, &cc)),
    )
}

/// Peak measured STREAM bandwidth of the Emu prototype (denominator of
/// Fig 8's utilization).
pub fn emu_peak_stream_mbs() -> Result<f64, SimError> {
    let w = stream(
        sized(1 << 18, 1 << 13),
        512,
        SpawnStrategy::RecursiveRemote,
        false,
    );
    emu_mbs(&presets::chick_prototype(), &w)
}

/// Peak measured STREAM bandwidth of the Sandy Bridge (Fig 8 denominator).
pub fn xeon_peak_stream_mbs() -> f64 {
    let cfg = xeon_sim::config::sandy_bridge();
    let sc = CpuStreamConfig {
        total_elems: sized(1 << 20, 1 << 14),
        nthreads: 16,
        kernel: StreamKernel::Add,
        nt_stores: true,
    };
    let [mbs] = cache::memo(&cfg, &sc, || {
        Ok([run_stream_cpu(&cfg, &sc).bandwidth.mb_per_sec()])
    })
    .expect("cpu stream cannot fail");
    mbs
}

/// Fig 8: pointer-chase bandwidth as a fraction of each platform's peak
/// measured STREAM bandwidth.
pub fn fig08() -> Result<Table, SimError> {
    // Stage 1: the two peak-bandwidth denominators, concurrently.
    let peaks = batch(vec![
        Box::new(emu_peak_stream_mbs),
        Box::new(|| Ok(xeon_peak_stream_mbs())),
    ])?;
    let (emu_peak, xeon_peak) = (peaks[0], peaks[1]);
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::sandy_bridge();
    let mut t = Table::new(
        format!(
            "Fig 8: Bandwidth utilization vs measured peak (Emu peak {} / Xeon peak {})",
            fmt_mbs(emu_peak),
            fmt_mbs(xeon_peak)
        ),
        &["block_elems", "Emu 512thr (%)", "Xeon 32thr (%)"],
    );
    // Stage 2: the block sweep, one cell per (block, platform): the
    // chase's bandwidth over the platform's peak. Where a list holds the
    // block, the chases are Fig 6's 512-thread and Fig 7's 32-thread
    // points.
    grid(&mut t, &CHASE_BLOCKS, &[true, false], |&block, &is_emu| {
        Ok(if is_emu {
            let cc = chase_cfg(sized_usize(4096, 512).max(block), 512, block, DEFAULT_SEED);
            100.0 * emu_mbs(&emu_cfg, &Chase(cc))? / emu_peak
        } else {
            let elems = sized_usize(1 << 18, 1 << 13).max(block);
            let cc = chase_cfg(elems, 32, block, DEFAULT_SEED);
            100.0 * xeon_chase_mbs(&cpu_cfg, &cc) / xeon_peak
        })
    })?;
    Ok(t)
}

/// Laplacian sizes swept by Fig 9.
pub const FIG9_SIZES: [u32; 6] = [25, 50, 100, 150, 200, 300];

/// Fig 9a: Emu SpMV effective bandwidth for the three layouts.
pub fn fig09a() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Fig 9a: SpMV effective bandwidth, Emu Chick (grain 16 nnz)",
        &["laplacian_n", "local (MB/s)", "1D (MB/s)", "2D (MB/s)"],
    );
    grid(&mut t, &FIG9_SIZES, &EmuLayout::ALL, |&n, &layout| {
        emu_mbs(
            &cfg,
            &Spmv {
                n,
                layout,
                grain: 16,
            },
        )
    })?;
    Ok(t)
}

/// Laplacian sizes swept by Fig 9b (the CPU scales further).
pub const FIG9B_SIZES: [u32; 6] = [50, 100, 200, 400, 600, 1000];

/// Fig 9b: Haswell SpMV effective bandwidth for the three strategies
/// (plus the Emu-like tiny grain for the grain-size contrast).
pub fn fig09b() -> Result<Table, SimError> {
    let cfg = xeon_sim::config::haswell();
    let strategies = [
        CpuStrategy::MklLike,
        CpuStrategy::CilkFor,
        CpuStrategy::CilkSpawn { grain: 16384 },
        CpuStrategy::CilkSpawn { grain: 16 },
    ];
    let mut t = Table::new(
        "Fig 9b: SpMV effective bandwidth, Haswell Xeon (56 threads)",
        &[
            "laplacian_n",
            "mkl (MB/s)",
            "cilk_for (MB/s)",
            "cilk_spawn g=16384 (MB/s)",
            "cilk_spawn g=16 (MB/s)",
        ],
    );
    let sizes = FIG9B_SIZES.map(|n| if quick() { n.min(200) } else { n });
    // Each size's matrix and host reference, built by the first of its
    // cells that the cache does not serve.
    let built = sizes.map(|_| OnceLock::new());
    grid(&mut t, &sizes, &strategies, |&n, &strategy| {
        let spec = LaplacianSpec::paper(n);
        let sc = CpuSpmvConfig {
            strategy,
            nthreads: 56,
        };
        let [mbs] = cache::memo(&cfg, &(spec, &sc), || {
            let row = sizes.iter().position(|&s| s == n).expect("a row's size");
            let (m, want) = built[row].get_or_init(|| {
                let m = Arc::new(laplacian(spec));
                let want = m.spmv(&x_vector(m.ncols()));
                (m, want)
            });
            let r = run_spmv_cpu(&cfg, Arc::clone(m), &sc);
            let err = want
                .iter()
                .zip(&r.y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "{} produced a wrong result", strategy.name());
            Ok([r.bandwidth.mb_per_sec()])
        })?;
        Ok(mbs)
    })?;
    Ok(t)
}

/// Fig 10: hardware (1.0 firmware) vs Emu toolchain-simulator presets on
/// STREAM, pointer chase, and ping-pong.
pub fn fig10() -> Result<Table, SimError> {
    let hw = presets::chick_prototype();
    let sim = presets::chick_toolchain_sim();
    // Pointer chase: migration-bound at block 1 (where hardware and
    // simulator diverge, as in the paper) and compute-bound at block 64
    // (where they agree, like STREAM).
    let chase_at = |block| Chase(chase_cfg(sized_usize(2048, 512).max(block), 512, block, 1));
    let workloads = [
        stream(sized(1 << 15, 1 << 12), 64, SpawnStrategy::Recursive, true),
        stream(
            sized(1 << 18, 1 << 13),
            512,
            SpawnStrategy::RecursiveRemote,
            false,
        ),
        chase_at(1),
        chase_at(64),
    ];
    // Every hardware/simulator measurement is independent: run all
    // twelve as one batch (hw/sim pairs adjacent, in row order).
    let mut points = Vec::new();
    for w in workloads {
        points.push(emu(hw.clone(), w.clone()));
        points.push(emu(sim.clone(), w));
    }
    // Ping-pong: the migration rate at load, and the latency at light
    // load (the paper's 1-2 us estimate).
    let round_trips = sized(2000, 200) as u32;
    for (threads, latency) in [(64, false), (8, true)] {
        points.push(pingpong(hw.clone(), threads, round_trips, latency));
        points.push(pingpong(sim.clone(), threads, round_trips, latency));
    }
    let v = batch(points)?;
    let mut t = Table::new(
        "Fig 10: Emu hardware preset vs toolchain-simulator preset",
        &["benchmark", "hardware", "simulator", "sim/hw"],
    );
    let names = [
        ("STREAM 1 nodelet", "MB/s"),
        ("STREAM 8 nodelets", "MB/s"),
        ("Pointer chase (block 1)", "MB/s"),
        ("Pointer chase (block 64)", "MB/s"),
        ("Ping-pong (M migrations/s)", "M/s"),
        ("Migration latency (us)", "us"),
    ];
    for (i, &(name, unit)) in names.iter().enumerate() {
        let (h, s) = (v[2 * i], v[2 * i + 1]);
        t.row(vec![
            name.to_string(),
            format!("{h:.1} {unit}"),
            format!("{s:.1} {unit}"),
            format!("{:.2}x", s / h),
        ]);
    }
    Ok(t)
}

/// Fig 11: pointer chasing on the full-speed 64-nodelet system.
pub fn fig11() -> Result<Table, SimError> {
    let cfg = presets::emu64_full_speed();
    chase_sweep(
        "Fig 11: Pointer chasing, simulated 64-nodelet Emu at full speed",
        &[256, 1024, 4096],
        &[1, 4, 16, 64, 256, 1024, 4096],
        sized_usize(2048, 512),
        |cc| emu_mbs(&cfg, &Chase(cc)),
    )
}

/// Headline numbers quoted in the paper's text (Section IV-A and
/// conclusions), as one table.
pub fn headline() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let round_trips = sized(2000, 200) as u32;
    // Stage 1: the scalar measurements, one batch.
    let scalars = batch(vec![
        Box::new(emu_peak_stream_mbs),
        emu(
            presets::chick_8node_prototype(),
            stream(
                sized(1 << 20, 1 << 15),
                4096,
                SpawnStrategy::RecursiveRemote,
                false,
            ),
        ),
        Box::new(|| Ok(xeon_peak_stream_mbs())),
        pingpong(emu_cfg.clone(), 64, round_trips, false),
        pingpong(presets::chick_toolchain_sim(), 64, round_trips, false),
        pingpong(emu_cfg.clone(), 8, round_trips, true),
    ])?;
    let (emu_peak, eight, xeon_peak, pp_hw, pp_sim, pp_latency_us) = (
        scalars[0], scalars[1], scalars[2], scalars[3], scalars[4], scalars[5],
    );
    // Stage 2: the chase utilization sweeps ("most cases" medians). The
    // Emu sweep's first point, block 1, is also the worst case.
    let emu_bws = sweep::run_indexed(CHASE_BLOCKS.len(), |i| {
        let block = CHASE_BLOCKS[i];
        let cc = chase_cfg(sized_usize(4096, 512).max(block), 512, block, 1);
        emu_mbs(&emu_cfg, &Chase(cc))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let cpu_cfg = xeon_sim::config::sandy_bridge();
    let xeon_bws = sweep::run_indexed(CHASE_BLOCKS.len(), |i| {
        let block = CHASE_BLOCKS[i];
        let cc = chase_cfg(sized_usize(1 << 18, 1 << 13).max(block), 32, block, 1);
        xeon_chase_mbs(&cpu_cfg, &cc)
    });
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    // The table labels this point "block=1": a reordered sweep must not
    // silently change what it reports.
    const _: () = assert!(CHASE_BLOCKS[0] == 1);
    let chase_worst = emu_bws[0];
    let emu_med = median(emu_bws);
    let xeon_med = median(xeon_bws);
    let mut t = Table::new(
        "Headline numbers (paper Section IV / conclusions)",
        &["quantity", "paper", "this reproduction"],
    );
    t.row(vec![
        "Emu Chick STREAM, 1 node".into(),
        "1.2 GB/s".into(),
        fmt_mbs(emu_peak),
    ]);
    t.row(vec![
        "Emu Chick STREAM, 8 nodes (initial test)".into(),
        "6.5 GB/s".into(),
        fmt_mbs(eight),
    ]);
    t.row(vec![
        "Sandy Bridge STREAM (51.2 GB/s nominal)".into(),
        "~51.2 GB/s".into(),
        fmt_mbs(xeon_peak),
    ]);
    t.row(vec![
        "Emu chase utilization (median over blocks)".into(),
        "~80 %".into(),
        format!("{:.0} %", 100.0 * emu_med / emu_peak),
    ]);
    t.row(vec![
        "Emu chase utilization (worst, block=1)".into(),
        "~50 %".into(),
        format!("{:.0} %", 100.0 * chase_worst / emu_peak),
    ]);
    t.row(vec![
        "Xeon chase utilization (median over blocks)".into(),
        "<25 %".into(),
        format!("{:.0} %", 100.0 * xeon_med / xeon_peak),
    ]);
    t.row(vec![
        "Ping-pong, hardware".into(),
        "9 M migrations/s".into(),
        format!("{pp_hw:.1} M migrations/s"),
    ]);
    t.row(vec![
        "Ping-pong, toolchain simulator".into(),
        "16 M migrations/s".into(),
        format!("{pp_sim:.1} M migrations/s"),
    ]);
    t.row(vec![
        "Single-migration latency".into(),
        "1-2 us".into(),
        format!("{pp_latency_us:.2} us"),
    ]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure functions are exercised end-to-end (quick mode) by the
    // root package's tests/parallel_determinism.rs,
    // tests/pdes_determinism.rs and tests/run_ctx.rs; here we only check
    // cheap structural properties.

    #[test]
    fn chase_blocks_are_increasing_powers() {
        for w in CHASE_BLOCKS.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn fig4_thread_counts_cover_the_knee() {
        assert!(FIG4_THREADS.contains(&32) && FIG4_THREADS.contains(&64));
    }

    #[test]
    fn equal_grid_rows_run_once_and_match_a_row_by_row_table() {
        use emu_core::ctx::RunCtx;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rows = [3u32, 1, 3, 2, 1, 3];
        let cols = [10u32, 20];
        let cell = |&r: &u32, &c: &u32| Ok(f64::from(r * 100 + c) / 3.0);
        // The table a row-by-row loop computes, every row in full.
        let mut want = Table::new("grid", &["row", "a", "b"]);
        for r in rows {
            let mut row = vec![r.to_string()];
            row.extend(cols.iter().map(|c| format!("{:.1}", cell(&r, c).unwrap())));
            want.row(row);
        }
        for jobs in [1, 2] {
            let calls = AtomicUsize::new(0);
            let mut t = Table::new("grid", &["row", "a", "b"]);
            let ctx = RunCtx {
                jobs,
                ..RunCtx::default()
            };
            ctx.scope(|| {
                grid(&mut t, &rows, &cols, |r, c| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    cell(r, c)
                })
            })
            .unwrap();
            assert_eq!(calls.into_inner(), 3 * cols.len(), "at {jobs} jobs");
            assert_eq!(t.csv(), want.csv(), "at {jobs} jobs");
        }
    }
}
