//! `emu-perf` — the repository benchmark.
//!
//! ```text
//! emu-perf run <workload> [--seed N] [--seconds S] [--trace 0|1|FILE] [--quick]
//! emu-perf --workload <workload> --seed N --seconds S --trace 0|1
//! emu-perf golden
//! ```
//!
//! One process runs one workload (`engine`, `campaign`, `suite`,
//! `service`; see README.md). It sets the workload up several times,
//! measures it for `--seconds` with tracing off, checks every output,
//! scales the times of processor-bound workloads by the host's measured
//! speed (`meter.rs`), and prints each end-to-end metric as
//! `name value unit`, a host line, and a final JSON line
//! `{"correct","attempted","failed","metrics"}`.
//! With `--trace` it instead measures half the time untraced and half
//! traced, writes the spans to FILE (`1` picks `perf/out/`), and the
//! final line carries the per-layer metrics. `golden` prints the
//! digests committed in `golden.txt`.
//!
//! The harness drives the system only through public entry points and
//! the documented environment variables; it never calls the
//! process-global engine, sweep, or cache setters.

mod campaign;
mod check;
mod engine;
mod host;
mod meter;
mod metrics;
mod service;
mod stats;
mod suite;
mod trace;

use check::{Checks, Golden};
use emu_core::obs;
use meter::{Meter, NOMINAL_REF_MS};
use metrics::{Kind, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Seconds measured when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Fresh set-ups per run; set-up time is their median.
const SETUPS: usize = 5;

/// Everything a workload needs to know about the run.
pub struct RunCfg {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    /// Wiring check at about a tenth of the size; never for numbers.
    pub quick: bool,
    /// The repository root (inputs such as `scenarios/` live here).
    pub root: PathBuf,
    /// Where a traced run writes its spans; `None` runs untraced.
    pub trace: Option<PathBuf>,
    pub golden: Golden,
}

/// What one measured window saw. Times are scaled by the meter (see
/// `meter.rs`) unless noted.
pub struct Window {
    /// Time of every op completed in the window, in ms.
    pub op_ms: Vec<f64>,
    /// Ops per second of each round.
    pub round_rates: Vec<f64>,
    /// Time spent in rounds, in s.
    pub busy_s: f64,
    /// Unscaled wall seconds spent in rounds (not in the meter's
    /// reference kernel).
    pub wall_s: f64,
    /// Process CPU seconds spent in rounds.
    pub cpu_s: f64,
    /// Reference kernel times measured during the window, in ms.
    pub ref_ms: Vec<f64>,
    /// Growth of the live-metrics registry over the window.
    pub obs: obs::Snapshot,
}

impl Window {
    /// Throughput as the median over rounds, so a burst of load from
    /// outside the process moves it less than a window-wide mean.
    fn ops_per_s(&self) -> f64 {
        stats::median(&self.round_rates)
    }

    /// Simulated engine events per second over the whole window (on the
    /// service, events per round swing with the request mix).
    fn events_per_s(&self) -> f64 {
        self.obs.counter("emu_engine_events_total") as f64 / self.busy_s
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// A benchmark workload: set up, then rounds of ops.
pub trait Workload: Sized {
    /// Whether the meter scales this workload's times by the host's
    /// speed, which fits work on one thread (see `meter.rs`).
    fn scaled() -> bool {
        true
    }
    /// Build the inputs and start the system under test (including any
    /// warm-up op), from scratch.
    fn setup(cfg: &RunCfg, checks: &mut Checks) -> Result<Self, String>;
    /// Run one round of ops, timing its sequential parts with `meter`,
    /// and return each op's time in ms. A round is a fixed batch of ops,
    /// except that an open-ended round (the service's closed loop) stops
    /// at `deadline`.
    fn round(
        &mut self,
        deadline: Instant,
        trace: &mut Tracer,
        meter: &mut Meter,
        checks: &mut Checks,
    ) -> Vec<f64>;
    /// Per-layer metrics of the traced window `win`.
    fn layers(&mut self, win: &Window, trace: &Tracer, out: &mut Metrics, checks: &mut Checks);
    /// Stop what `setup` started and make the checks that need the
    /// system at rest.
    fn teardown(self, _checks: &mut Checks) {}
}

/// Run rounds until the next one would likely end past `seconds`
/// (always at least one).
fn window<W: Workload>(
    w: &mut W,
    seconds: f64,
    trace: &mut Tracer,
    meter: &mut Meter,
    checks: &mut Checks,
) -> Window {
    let obs0 = obs::snapshot();
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let (ms0, wall0, refs0) = (meter.total_ms, meter.total_wall_ms, meter.ref_ms.len());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut op_ms = Vec::new();
    let mut round_rates = Vec::new();
    loop {
        let before = meter.total_ms;
        let ops = w.round(deadline, trace, meter, checks);
        round_rates.push(ops.len() as f64 / ((meter.total_ms - before) / 1e3));
        op_ms.extend(ops);
        let el = t0.elapsed().as_secs_f64();
        if el + el / round_rates.len() as f64 > seconds {
            break;
        }
    }
    let ref_ms = meter.ref_ms[refs0..].to_vec();
    // The reference kernel keeps this thread busy between rounds.
    let ref_cpu_s = ref_ms.iter().sum::<f64>() / 1e3;
    Window {
        op_ms,
        round_rates,
        busy_s: (meter.total_ms - ms0) / 1e3,
        wall_s: (meter.total_wall_ms - wall0) / 1e3,
        cpu_s: host::cpu_seconds().unwrap_or(0.0) - cpu0 - ref_cpu_s,
        ref_ms,
        obs: obs::snapshot().delta(&obs0),
    }
}

/// Mean ns per `schedule` + `pop` pair of the event queue, holding 1024
/// pending events with seeded near/far times (median of three
/// passes of 2^20 pairs).
fn queue_probe(seed: u64) -> f64 {
    const PENDING: u64 = 1024;
    const PAIRS: u64 = 1 << 20;
    let mut rng = desim::rng::Rng64::new(seed);
    let mut delay = move || {
        if rng.gen_below(64) == 0 {
            1_000_000 + rng.gen_below(500_000)
        } else {
            rng.gen_below(5_000)
        }
    };
    let mut ns = Vec::new();
    for _ in 0..3 {
        let mut q = desim::EventQueue::<u64>::with_capacity(PENDING as usize);
        for i in 0..PENDING {
            q.schedule(desim::Time::from_ns(delay()), i);
        }
        let t0 = Instant::now();
        let mut sum = 0u64;
        for i in 0..PAIRS {
            let (at, e) = q.pop().expect("queue holds PENDING events");
            sum = sum.wrapping_add(e);
            q.schedule(desim::Time::from_ps(at.ps() + delay() * 1000), i);
        }
        black_box(sum);
        ns.push(t0.elapsed().as_nanos() as f64 / PAIRS as f64);
    }
    stats::median(&ns)
}

/// Set up, measure and check one workload; returns the reported
/// metrics and the human-readable lines.
fn measure<W: Workload>(cfg: &RunCfg, checks: &mut Checks) -> (Metrics, Vec<String>) {
    let scaled = W::scaled();
    let mut meter = Meter::new(scaled);
    let mut setup_s = Vec::new();
    let mut w: Option<W> = None;
    for _ in 0..if cfg.quick { 1 } else { SETUPS } {
        if let Some(old) = w.take() {
            old.teardown(checks);
        }
        let setup = meter.time(|| W::setup(cfg, checks));
        setup_s.push(setup.ms() / 1e3);
        match setup.value {
            Ok(x) => w = Some(x),
            Err(e) => {
                checks.fail(|| format!("set-up: {e}"));
                return (Metrics::new(), Vec::new());
            }
        }
    }
    let mut w = w.expect("at least one set-up");

    // End-to-end numbers always come from an untraced window; a traced
    // run splits its time between that and a traced window.
    let secs = if cfg.trace.is_some() {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let base = window(&mut w, secs, &mut Tracer::new(false), &mut meter, checks);
    let mut e2e = Metrics::new();
    e2e.insert("setup_s", stats::median(&setup_s));
    e2e.insert("ops_per_s", base.ops_per_s());
    e2e.insert("op_p50_ms", stats::percentile(&base.op_ms, 50.0));
    e2e.insert("events_per_s", base.events_per_s());
    let mut lines: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| Some(format!("{} {} {}", m.name, e2e.get(m.name)?, m.unit)))
        .collect();
    lines.push(format!(
        "ops {} in {} rounds, {:.3} s ({:.3} s wall); op p90 {:.3} ms",
        base.op_ms.len(),
        base.round_rates.len(),
        base.busy_s,
        base.wall_s,
        stats::percentile(&base.op_ms, 90.0),
    ));
    lines.push(if scaled {
        format!(
            "times scaled to host speed: reference kernel median {:.3} ms over {} runs (nominal {NOMINAL_REF_MS} ms)",
            stats::median(&base.ref_ms),
            base.ref_ms.len(),
        )
    } else {
        "times unscaled (wall clock)".to_string()
    });

    let mut out = e2e;
    if let Some(path) = &cfg.trace {
        let mut tracer = Tracer::new(true);
        let win = window(&mut w, secs, &mut tracer, &mut meter, checks);
        let mut layers = Metrics::new();
        w.layers(&win, &tracer, &mut layers, checks);
        let (coverage, worst) = tracer.child_coverage();
        let ops = win.op_ms.len().max(1) as f64;
        layers.insert(
            "trace.overhead_pct",
            100.0 * (base.ops_per_s() / win.ops_per_s() - 1.0),
        );
        layers.insert("trace.child_coverage", coverage);
        layers.insert("op_p90_ms", stats::percentile(&win.op_ms, 90.0));
        if scaled {
            layers.insert("host.ref_ms", stats::median(&win.ref_ms));
        }
        if let Some(rss) = host::peak_rss_mb() {
            layers.insert("peak_rss_mb", rss);
        }
        layers.insert("desim.queue_ns_per_op", queue_probe(cfg.seed));
        layers.insert(
            "engine.events_per_op",
            win.obs.counter("emu_engine_events_total") as f64 / ops,
        );
        layers.insert(
            "engine.runs_per_op",
            win.obs.counter("emu_engine_runs_total") as f64 / ops,
        );
        lines.push(format!(
            "traced ops {} in {:.3} s; child spans cover {:.2}% of op time (worst op {:.2}%)",
            win.op_ms.len(),
            win.wall_s,
            100.0 * coverage,
            100.0 * worst
        ));
        for (name, t) in tracer.totals() {
            lines.push(format!(
                "span {name}: {} calls, {:.3} ms total, {:.3} ms self",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out = Metrics::new();
        for m in PER_LAYER {
            let value = layers.get(m.name).copied();
            if m.owners.contains(&cfg.kind) && value.is_none() && !cfg.quick {
                checks.fail(|| format!("per-layer metric {} was not measured", m.name));
            }
            if let Some(v) = value {
                lines.push(format!("{} {v} {}", m.name, m.unit));
            }
            out.insert(m.name, value.unwrap_or(0.0));
        }
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"seconds\":{}",
            cfg.kind.name(),
            cfg.seed,
            secs
        );
        match path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, tracer.json(&header)))
        {
            Ok(()) => lines.push(format!("trace written to {}", path.display())),
            Err(e) => checks.fail(|| format!("write {}: {e}", path.display())),
        }
    }
    w.teardown(checks);
    (out, lines)
}

/// Pin the environment the system reads, so a caller's shell cannot
/// change what is measured. Runs first thing in `main`, before any
/// thread exists.
fn pin_env(kind: Option<Kind>, out: &std::path::Path) {
    for var in [
        "EMU_QUICK",
        "EMU_CACHE",
        "EMU_CACHE_DIR",
        "EMU_SIM_THREADS",
        "EMU_PDES_PHASES",
        "EMU_PDES_FUSE",
        "EMU_PDES_MERGE",
        "EMU_PDES_MERGE_MIN",
        "EMU_PDES_RING",
    ] {
        std::env::remove_var(var);
    }
    // Sweeps run on one job, on the calling thread. On a host whose
    // cores other tenants share, work spread over both cores slows with
    // whichever core is taken, which the meter cannot scale for (a
    // competing process in the guest moved a two-job suite pass by 20-28%
    // after scaling, against 2-4% for the one-threaded engine).
    std::env::set_var("EMU_JOBS", "1");
    match kind {
        // The campaign is the quick figure campaign; the golden
        // digests pin its tables.
        Some(Kind::Campaign) | None => std::env::set_var("EMU_QUICK", "1"),
        Some(Kind::Service) => {
            std::env::set_var("EMU_CACHE", "1");
            std::env::set_var(
                "EMU_CACHE_DIR",
                out.join(format!("service-cache-{}", std::process::id())),
            );
        }
        Some(_) => {}
    }
}

const USAGE: &str = "usage:
  emu-perf run <engine|campaign|suite|service> [--seed N] [--seconds S] [--trace 0|1|FILE] [--quick]
  emu-perf --workload <name> --seed N --seconds S --trace 0|1
  emu-perf golden";

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<Option<PathBuf>>,
    quick: bool,
    golden: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        kind: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        golden: false,
    };
    let mut it = args.iter();
    let workload = |s: &str| Kind::parse(s).ok_or_else(|| format!("unknown workload {s:?}"));
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "golden" if a.kind.is_none() => a.golden = true,
            "run" => a.kind = Some(workload(value()?)?),
            "--workload" => a.kind = Some(workload(value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                }
            }
            "--quick" => a.quick = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if a.kind.is_none() && !a.golden {
        return Err("no workload given".into());
    }
    Ok(a)
}

fn json_line(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter_map(|m| {
            let v = metrics.get(m.name)?;
            Some(format!(
                "\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emu-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let perf_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = perf_dir.join("out");
    pin_env(args.kind, &out);
    let root = perf_dir
        .parent()
        .map_or_else(|| perf_dir.clone(), PathBuf::from);

    if args.golden {
        print!("{}", golden_text(&root));
        return ExitCode::SUCCESS;
    }
    let kind = args.kind.expect("parse_args requires a workload");
    let cfg = RunCfg {
        kind,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            DEFAULT_SECONDS / 10.0
        } else {
            DEFAULT_SECONDS
        }),
        quick: args.quick,
        root: root.clone(),
        trace: args
            .trace
            .map(|file| file.unwrap_or_else(|| out.join(format!("trace-{}.json", kind.name())))),
        golden: Golden::committed(),
    };
    let traced = cfg.trace.is_some();
    let mut checks = Checks::default();
    let (metrics, lines) = match kind {
        Kind::Engine => measure::<engine::EngineWl>(&cfg, &mut checks),
        Kind::Campaign => measure::<campaign::Campaign>(&cfg, &mut checks),
        Kind::Suite => measure::<suite::Suite>(&cfg, &mut checks),
        Kind::Service => measure::<service::Service>(&cfg, &mut checks),
    };
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    for m in wanted {
        if !metrics.contains_key(m.name) {
            checks.fail(|| format!("metric {} was not measured", m.name));
        }
    }
    for line in &lines {
        println!("{line}");
    }
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    println!(
        "error_rate {} failed/attempted ({}/{})",
        checks.error_rate(),
        checks.failed,
        checks.attempted
    );
    println!(
        "{{\"host\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{traced},\"quick\":{},\"nproc\":{},\"cpu\":{},\"rev\":\"{}\"}}}}",
        kind.name(),
        cfg.seed,
        cfg.seconds,
        cfg.quick,
        host::nproc(),
        emu_core::json::jstr(&host::cpu_model()),
        host::git_rev(&root)
    );
    println!("{}", json_line(&checks, &metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `golden.txt` this build would commit.
fn golden_text(root: &std::path::Path) -> String {
    let mut lines = vec![
        "# Golden digests of the benchmark's seed-independent outputs (and the".to_string(),
        "# engine chase reports at seed 1). Regenerate: emu-perf golden > perf/golden.txt"
            .to_string(),
    ];
    let entries = engine::golden()
        .into_iter()
        .chain(campaign::golden())
        .chain(suite::golden(root))
        .chain(service::golden());
    for (key, payload) in entries {
        lines.push(format!("{key} {}", check::digest(&payload)));
    }
    lines.join("\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn both_command_forms_parse() {
        let a = args("--workload suite --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds),
            (Some(Kind::Suite), 7, Some(15.0))
        );
        assert_eq!(a.trace, Some(None));
        let a = args("run engine --trace out.json --quick").unwrap();
        assert_eq!(a.kind, Some(Kind::Engine));
        assert_eq!(a.trace, Some(Some(PathBuf::from("out.json"))));
        assert!(a.quick);
        assert!(args("--workload engine --trace 0").unwrap().trace.is_none());
        assert!(args("golden").unwrap().golden);
        assert!(args("run nope").is_err());
        assert!(args("--seconds 5").is_err());
        assert!(args("run engine --seconds 0").is_err());
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        use emu_core::jsonread::{parse, Value};
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let mut m = Metrics::new();
        m.insert("setup_s", 0.8127);
        let line = json_line(&checks, &m);
        let Value::Obj(pairs) = parse(&line).unwrap() else {
            panic!("{line}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}"));
    }
}
