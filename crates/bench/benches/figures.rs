//! Timing harness around each figure runner (quick-mode sizes), so
//! `cargo bench` regenerates every table and times it — one bench per
//! table/figure in the paper. Plain `harness = false` main: no external
//! benchmarking framework, just wall-clock medians over a few samples.

use emu_core::ctx::RunCtx;
use std::time::Instant;

const SAMPLES: usize = 3;

fn bench(name: &str, mut f: impl FnMut() -> Result<usize, emu_core::fault::SimError>) {
    let mut times = Vec::with_capacity(SAMPLES);
    let mut rows = 0;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        match f() {
            Ok(n) => rows = n,
            Err(e) => {
                println!("{name:<36} ERROR: {e}");
                return;
            }
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let med = times[times.len() / 2];
    println!("{name:<36} {:>9.1} ms/iter  ({rows} rows)", med * 1e3);
}

fn main() {
    // Quick mode keeps iterations tractable; the standalone figNN
    // binaries run the full-size sweeps.
    let quick = RunCtx {
        quick: true,
        ..RunCtx::current()
    };
    quick.scope(run_all);
}

fn run_all() {
    println!("figures_quick ({SAMPLES} samples, median):");
    bench("fig04_stream_single_nodelet", || {
        Ok(emu_bench::figures::fig04()?.rows.len())
    });
    bench("fig05_stream_eight_nodelets", || {
        Ok(emu_bench::figures::fig05()?.rows.len())
    });
    bench("fig06_chase_emu", || {
        Ok(emu_bench::figures::fig06()?.rows.len())
    });
    bench("fig07_chase_xeon", || {
        Ok(emu_bench::figures::fig07()?.rows.len())
    });
    bench("fig08_utilization", || {
        Ok(emu_bench::figures::fig08()?.rows.len())
    });
    bench("fig09a_spmv_emu", || {
        Ok(emu_bench::figures::fig09a()?.rows.len())
    });
    bench("fig09b_spmv_xeon", || {
        Ok(emu_bench::figures::fig09b()?.rows.len())
    });
    bench("fig10_validation", || {
        Ok(emu_bench::figures::fig10()?.rows.len())
    });
    bench("fig11_emu64", || {
        Ok(emu_bench::figures::fig11()?.rows.len())
    });
}
