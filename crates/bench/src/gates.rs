//! `simctl gates`: the timed performance bounds CI enforces.
//!
//! Each bound times one fixed workload two ways; none honours
//! `EMU_QUICK`, and the command takes no flags. Run it from a release
//! build. [`run`] prints one line per bound:
//!
//! - `pdes`: emu64 STREAM and pointer chase at one and four scheduler
//!   workers: byte-identical reports, a speedup floor tiered by host
//!   cores, and from four cores a STREAM barrier share under 25%.
//! - `trace-off`, `obs-registry`: a STREAM run inside a ctx whose
//!   telemetry is explicitly off, and one with the `emu_core::obs`
//!   registry on, each within 2% of the bare run. The work is
//!   identical, so only a gap that persists is the instrument's cost; a
//!   round that misses is re-measured, up to three times.
//! - `warm-pool`: a quick Fig. 4 point through a warm `simd` pool is at
//!   least 2x faster at p50 than through one cold `simd-once` process
//!   per request, and the pool's counters reconcile.

use emu_core::ctx::{host_cores, RunCtx};
use emu_core::metrics::PdesPhaseProfile;
use emu_core::obs;
use emu_core::presets;
use emu_core::spawn::SpawnStrategy;
use emu_core::trace::TelemetryConfig;
use membench::chase::{run_chase_emu, ChaseConfig, ShuffleMode};
use membench::stream::{run_stream_emu, stream_checksum, EmuStreamConfig, StreamKernel};
use simd::pool::{Pool, PoolConfig};
use simd::proto::{run_request_line, RunRequest, Spec};
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Both overhead bounds: the largest tolerated relative gap (exclusive).
const OVERHEAD_MAX: f64 = 0.02;
/// Interleaved (base, variant) run pairs per overhead round.
const PAIRS_PER_ROUND: usize = 9;
/// Overhead rounds measured before a bound fails.
const MAX_ROUNDS: usize = 3;
/// The overhead workload on the Chick: long enough (~140 ms) that
/// scheduler jitter stays inside the budget.
const OVERHEAD_STREAM: EmuStreamConfig = EmuStreamConfig {
    total_elems: 1 << 18,
    nthreads: 256,
    strategy: SpawnStrategy::RecursiveRemote,
    kernel: StreamKernel::Add,
    single_nodelet: false,
    stack_touch_period: 4,
};

/// Scheduler workers of the sharded PDES runs.
const PDES_SHARDS: usize = 4;
/// The PDES STREAM workload on emu64.
const PDES_STREAM: EmuStreamConfig = EmuStreamConfig {
    total_elems: 1 << 16,
    nthreads: 512,
    strategy: SpawnStrategy::RecursiveRemote,
    kernel: StreamKernel::Add,
    single_nodelet: false,
    stack_touch_period: 4,
};
/// The PDES pointer-chase workload on emu64.
const PDES_CHASE: ChaseConfig = ChaseConfig {
    elems_per_list: 2048,
    nlists: 512,
    block_elems: 64,
    mode: ShuffleMode::FullBlock,
    seed: desim::rng::DEFAULT_SEED,
};
/// Host cores from which the full PDES tier applies.
const PDES_FULL_TIER_CORES: usize = 4;
/// Speedup floor on two and three cores: sharding must not lose.
const PDES_MULTICORE_FLOOR: f64 = 1.0;
/// Speedup floor of the full tier: sharding must win outright.
const PDES_FULL_TIER_FLOOR: f64 = 2.0;
/// Full tier: the largest STREAM barrier share of the loop (exclusive).
const PDES_BARRIER_MAX: f64 = 0.25;

/// Measured requests of each warm-pool leg, a multiple of the workers.
const POOL_REQUESTS: usize = 24;
/// Pool workers, and concurrent submitters of each leg.
const POOL_WORKERS: usize = 4;
/// STREAM elements per request (the quick Fig. 4 point).
const POOL_ELEMS: u64 = 512;
/// STREAM threadlets per request.
const POOL_THREADS: usize = 16;
/// The least cold-over-warm p50 latency ratio.
const POOL_MIN_SPEEDUP: f64 = 2.0;

/// A bound's verdict: a one-line account of what was measured, as
/// `Ok` when the bound holds and `Err` when it does not.
type Verdict = Result<String, String>;

fn verdict(holds: bool, detail: String) -> Verdict {
    if holds {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// Check that a daemon reply reports success.
fn ok_reply(reply: &str, what: &str) -> Result<(), String> {
    if reply.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(format!("{what} failed: {}", reply.trim_end()))
    }
}

/// Run every bound in turn and print its verdict. Returns the process
/// exit code: 0 when all hold, else 1.
///
/// `pdes` runs first, so its one-worker STREAM leg is the process's
/// first engine run and pays the cold start of a fresh heap (about 10 of
/// ~40 ms on a 2-vCPU host); its floors were set against runs measured
/// that way.
pub fn run() -> i32 {
    let gates = [
        ("pdes", pdes as fn() -> Verdict),
        ("trace-off", trace_off),
        ("obs-registry", obs_registry),
        ("warm-pool", warm_pool),
    ];
    let mut failed = Vec::new();
    for (name, gate) in gates {
        match gate() {
            Ok(detail) => println!("PASS {name}: {detail}"),
            Err(detail) => {
                println!("FAIL {name}: {detail}");
                failed.push(name);
            }
        }
    }
    if failed.is_empty() {
        println!("gates: all {} bounds hold", gates.len());
        0
    } else {
        eprintln!("gates: failed: {}", failed.join(", "));
        1
    }
}

/// The smaller of two noise-robust estimates of the relative gap in
/// `pairs` of (base, variant) times: |median variant/base ratio − 1|,
/// which cancels drift, and the gap between the two minima, which
/// ignores outliers. A disabled path's true gap is zero, so the lower
/// estimate is the better one.
fn overhead_delta(pairs: &[(f64, f64)]) -> f64 {
    let mut ratios: Vec<f64> = pairs.iter().map(|&(a, b)| b / a).collect();
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[ratios.len() / 2] - 1.0).abs();
    let base = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let variant = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    median.min((base - variant).abs() / base.min(variant))
}

/// The overhead decision for the best round's delta.
fn overhead_passes(delta: f64) -> bool {
    delta < OVERHEAD_MAX
}

/// The PDES speedup floor on a host with `cores` cores: a single core
/// cannot overlap shards, so only byte-identity is checked there.
fn pdes_floor(cores: usize) -> f64 {
    if cores >= PDES_FULL_TIER_CORES {
        PDES_FULL_TIER_FLOOR
    } else if cores > 1 {
        PDES_MULTICORE_FLOOR
    } else {
        0.0
    }
}

/// Whether the barrier share is checked on a host with `cores` cores.
fn barrier_checked(cores: usize) -> bool {
    cores >= PDES_FULL_TIER_CORES
}

/// The PDES decision: the slower workload's speedup reaches the floor,
/// and where it is checked the STREAM barrier share stays under its cap.
fn pdes_passes(cores: usize, min_speedup: f64, barrier_share: f64) -> bool {
    min_speedup >= pdes_floor(cores)
        && !(barrier_checked(cores) && barrier_share >= PDES_BARRIER_MAX)
}

/// The warm-pool decision for the cold-over-warm p50 ratio.
fn pool_passes(speedup: f64) -> bool {
    speedup >= POOL_MIN_SPEEDUP
}

/// Seconds one run of the overhead workload takes.
fn overhead_stream() -> f64 {
    let (cfg, sc) = (presets::chick_prototype(), OVERHEAD_STREAM);
    let t0 = Instant::now();
    let r = run_stream_emu(&cfg, &sc).expect("STREAM run failed");
    let dt = t0.elapsed().as_secs_f64();
    let want = stream_checksum(sc.total_elems, sc.kernel);
    assert_eq!(r.checksum, want, "STREAM checksum mismatch");
    dt
}

/// Time `variant` against `base` in rounds of interleaved pairs until
/// the best round's [`overhead_delta`] is under the budget.
fn overhead(base: impl Fn() -> f64, variant: impl Fn() -> f64) -> Verdict {
    // Page faults and lazy allocation land outside the sample.
    base();
    variant();
    let mut best = f64::INFINITY;
    let mut rounds = Vec::new();
    while rounds.len() < MAX_ROUNDS && !overhead_passes(best) {
        let pairs: Vec<(f64, f64)> = (0..PAIRS_PER_ROUND)
            .map(|i| {
                // Alternate which run goes first: position in the pair
                // has its own small systematic cost.
                if i % 2 == 0 {
                    let a = base();
                    (a, variant())
                } else {
                    let b = variant();
                    (base(), b)
                }
            })
            .collect();
        let delta = overhead_delta(&pairs);
        best = best.min(delta);
        rounds.push(format!("{:.2}%", 100.0 * delta));
    }
    let detail = format!(
        "delta {:.2}% (rounds {}), budget < {:.0}%",
        100.0 * best,
        rounds.join(" "),
        100.0 * OVERHEAD_MAX
    );
    verdict(overhead_passes(best), detail)
}

fn trace_off() -> Verdict {
    let armed_off = RunCtx {
        telemetry: TelemetryConfig::off(),
        ..RunCtx::current()
    };
    overhead(overhead_stream, || armed_off.scope(overhead_stream))
}

fn obs_registry() -> Verdict {
    // Phase profiling reads clocks per epoch by design; keep it off so
    // the bound isolates the always-on registry.
    let unprofiled = RunCtx {
        phase_profile: false,
        ..RunCtx::current()
    };
    let registry = |on: bool| {
        move || {
            obs::set_enabled(on);
            overhead_stream()
        }
    };
    let verdict = unprofiled.scope(|| overhead(registry(false), registry(true)));
    obs::set_enabled(true);
    verdict
}

/// Run `body` at one and at [`PDES_SHARDS`] scheduler workers. Returns
/// the sharded speedup and the sharded runs' barrier share of the
/// worker loop, or an error if the reports differ.
fn pdes_leg(name: &str, body: &dyn Fn() -> Result<(), String>) -> Result<(f64, f64), String> {
    let timed = |sim_threads: usize| {
        let ctx = RunCtx {
            sim_threads,
            phase_profile: true,
            ..RunCtx::current()
        };
        let t0 = Instant::now();
        let (outcome, mut reports) = ctx.collect(body);
        let dt = t0.elapsed().as_secs_f64();
        outcome.map_err(|e| format!("{name}: {e}"))?;
        // Phase profiles are wall clock: lift them out before the
        // byte-identity comparison.
        let phases: Vec<PdesPhaseProfile> =
            reports.iter_mut().filter_map(|r| r.phases.take()).collect();
        Ok::<_, String>((dt, format!("{reports:?}"), phases))
    };
    let (seq_s, seq, _) = timed(1)?;
    let (par_s, par, phases) = timed(PDES_SHARDS)?;
    if seq != par {
        return Err(format!(
            "{name}: reports at {PDES_SHARDS} workers differ from 1 worker"
        ));
    }
    let (barrier, total) = phases
        .iter()
        .flat_map(|p| &p.workers)
        .fold((0u64, 0u64), |(b, t), w| (b + w.barrier_ns, t + w.loop_ns));
    Ok((
        seq_s / par_s.max(1e-9),
        barrier as f64 / total.max(1) as f64,
    ))
}

fn pdes() -> Verdict {
    let cfg = presets::emu64_full_speed();
    let (stream, stream_barrier) = pdes_leg("stream_add", &|| {
        let r = run_stream_emu(&cfg, &PDES_STREAM).map_err(|e| e.to_string())?;
        if r.checksum != stream_checksum(PDES_STREAM.total_elems, PDES_STREAM.kernel) {
            return Err("STREAM checksum mismatch".into());
        }
        Ok(())
    })?;
    let (chase, _) = pdes_leg("pointer_chase", &|| {
        let r = run_chase_emu(&cfg, &PDES_CHASE).map_err(|e| e.to_string())?;
        if r.checksum != PDES_CHASE.expected_checksum() {
            return Err("chase checksum mismatch".into());
        }
        Ok(())
    })?;
    let cores = host_cores();
    let detail = format!(
        "stream_add {stream:.2}x, pointer_chase {chase:.2}x, floor {:.1}x on {cores} cores; \
         stream_add barrier {:.1}% of loop, capped at {:.0}% from {PDES_FULL_TIER_CORES} cores",
        pdes_floor(cores),
        100.0 * stream_barrier,
        100.0 * PDES_BARRIER_MAX,
    );
    verdict(
        pdes_passes(cores, stream.min(chase), stream_barrier),
        detail,
    )
}

fn pool_request(id: u64) -> RunRequest {
    RunRequest {
        id,
        spec: Spec::Stream {
            preset: "chick".into(),
            elems: POOL_ELEMS,
            threads: POOL_THREADS,
            kernel: "add".into(),
            strategy: "serial".into(),
            single_nodelet: true,
            stack_touch_period: 4,
        },
        deadline_ms: None,
        max_events: None,
        chaos: None,
    }
}

/// Spread [`POOL_REQUESTS`] ids over [`POOL_WORKERS`] concurrent
/// submitters, each request timed by `send`, and return the median
/// latency in milliseconds.
fn p50_ms(send: impl Fn(u64) -> Result<Duration, String> + Sync) -> Result<f64, String> {
    let send = &send;
    let mut latencies = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..POOL_WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    (0..POOL_REQUESTS / POOL_WORKERS)
                        .map(|i| send((1000 + w * 1000 + i) as u64))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for s in submitters {
            all.extend(s.join().map_err(|_| "submitter panicked")??);
        }
        Ok::<_, String>(all)
    })?;
    latencies.sort();
    Ok(latencies[latencies.len() / 2].as_secs_f64() * 1e3)
}

/// p50 latency of the requests through a pool of warm workers, after
/// one pre-warming request per worker; an error if its counters leak.
fn warm_p50_ms() -> Result<f64, String> {
    let pool = Pool::start(PoolConfig {
        workers: POOL_WORKERS,
        queue_cap: 2 * POOL_WORKERS + 4,
        ..PoolConfig::default()
    });
    let submit = |id: u64| {
        let (tx, rx) = mpsc::channel();
        // Wait politely while admission pushes back.
        while pool.submit(pool_request(id), tx.clone()).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        rx
    };
    let warmups: Vec<_> = (0..POOL_WORKERS as u64).map(submit).collect();
    for rx in warmups {
        ok_reply(&rx.recv().map_err(|_| "warm-up response lost")?, "warm-up")?;
    }
    let p50 = p50_ms(|id| {
        let t0 = Instant::now();
        ok_reply(
            &submit(id).recv().map_err(|_| "response lost")?,
            "warm request",
        )?;
        Ok(t0.elapsed())
    })?;
    pool.drain(Duration::from_secs(30));
    let leaks = pool.stats().reconcile();
    if !leaks.is_empty() {
        return Err(format!("pool counters leaked: {leaks:?}"));
    }
    Ok(p50)
}

/// Answer one request line in a fresh `simd-once` child process of
/// this executable: process start-up plus a cold engine build.
fn cold_once(line: &str) -> Result<String, String> {
    let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("simd-once")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn simd-once: {e}"))?;
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("feed simd-once: {e}"))?;
    let out = child
        .wait_with_output()
        .map_err(|e| format!("read simd-once: {e}"))?;
    if !out.status.success() {
        return Err(format!("simd-once exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn warm_pool() -> Verdict {
    let warm = warm_p50_ms()?;
    let cold = p50_ms(|id| {
        let line = run_request_line(&pool_request(id));
        let t0 = Instant::now();
        ok_reply(&cold_once(&line)?, "cold request")?;
        Ok(t0.elapsed())
    })?;
    let speedup = cold / warm.max(1e-9);
    let detail = format!(
        "warm p50 {warm:.2} ms, cold p50 {cold:.2} ms, {speedup:.2}x (need >= {POOL_MIN_SPEEDUP:.1}x)"
    );
    verdict(pool_passes(speedup), detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdes_floor_and_barrier_check_tier_by_core_count() {
        for (cores, floor, barrier) in [
            (1, 0.0, false),
            (2, 1.0, false),
            (3, 1.0, false),
            (4, 2.0, true),
            (64, 2.0, true),
        ] {
            assert_eq!(pdes_floor(cores), floor, "{cores} cores");
            assert_eq!(barrier_checked(cores), barrier, "{cores} cores");
            // A loop spent wholly at the barrier fails only where checked.
            assert_eq!(pdes_passes(cores, 2.0, 1.0), !barrier, "{cores} cores");
        }
    }

    #[test]
    fn overhead_delta_takes_the_smaller_estimate() {
        // Identical work: no gap at all.
        assert_eq!(overhead_delta(&[(0.1, 0.1); 9]), 0.0);
        // One fast base outlier inflates the min-vs-min gap (1.02);
        // the median ratio (1.01) does not move.
        let mut pairs = vec![(100.0, 101.0); 9];
        pairs[4].0 = 50.0;
        assert!((overhead_delta(&pairs) - 0.01).abs() < 1e-12);
        // A variant 5% slower in all but one pair: the median says 5%,
        // but the minima agree.
        let mut pairs = vec![(100.0, 105.0); 9];
        pairs[0].1 = 100.0;
        assert_eq!(overhead_delta(&pairs), 0.0);
        // A variant that is faster counts as much as a slower one.
        assert!((overhead_delta(&[(100.0, 97.0); 9]) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn each_threshold_passes_on_one_side_and_fails_on_the_other() {
        // Overhead: strictly under 2%.
        assert!(overhead_passes(0.0199));
        assert!(!overhead_passes(0.02));
        // PDES floor: reached counts, and one core takes any speedup.
        assert!(pdes_passes(1, 0.1, 0.0));
        for cores in [2, 3] {
            assert!(pdes_passes(cores, 1.0, 0.0));
            assert!(!pdes_passes(cores, 0.999, 0.0));
        }
        for cores in [4, 64] {
            assert!(pdes_passes(cores, 2.0, 0.0));
            assert!(!pdes_passes(cores, 1.999, 0.0));
            // Barrier share: strictly under 25%.
            assert!(pdes_passes(cores, 2.0, 0.2499));
            assert!(!pdes_passes(cores, 2.0, 0.25));
        }
        // Warm pool: at least 2x.
        assert!(pool_passes(2.0));
        assert!(!pool_passes(1.999));
    }
}
