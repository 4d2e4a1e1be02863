//! `engine`: the per-core event rate, with nothing around the engine.
//!
//! One op is a rep of four points on the calling thread at the default
//! single scheduler thread: (a) emu64 STREAM add, 2^17 elements, 512
//! threadlets, recursive-remote; (b) chick STREAM add, 2^16 elements,
//! 256 threadlets. Each of those builds a cold engine, runs, audits and
//! renders the report, resets the engine and runs again, and the reset
//! run's report must equal the cold run's byte for byte. (c) emu64 and
//! (d) chick pointer chase, 64 lists x 2048 elements, full-block
//! shuffle, blocks of 1 and 16, seeded with `--seed`. The desim queue
//! and the engine's handlers do nearly all the work; the sweep pool,
//! result cache, scenario layer and Xeon model are bypassed.

use crate::check::Checks;
use crate::meter::Meter;
use crate::trace::{OpTrace, Tracer};
use crate::{stats, Metrics, RunCfg, Window, Workload};
use emu_core::json::report_json;
use emu_core::metrics::PhaseBreakdown;
use emu_core::prelude::*;
use membench::chase::{run_chase_emu, ChaseConfig, ShuffleMode};
use membench::stream::{run_stream_on, stream_checksum, EmuStreamConfig};
use std::time::Instant;

struct StreamPoint {
    name: &'static str,
    cfg: MachineConfig,
    sc: EmuStreamConfig,
}

struct ChasePoint {
    name: &'static str,
    cfg: MachineConfig,
    cc: ChaseConfig,
}

fn streams() -> [StreamPoint; 2] {
    let point = |name, cfg, elems, threads| StreamPoint {
        name,
        cfg,
        sc: EmuStreamConfig {
            total_elems: elems,
            nthreads: threads,
            strategy: SpawnStrategy::RecursiveRemote,
            ..Default::default()
        },
    };
    [
        point("stream-emu64", presets::emu64_full_speed(), 1 << 17, 512),
        point("stream-chick", presets::chick_prototype(), 1 << 16, 256),
    ]
}

fn chases(seed: u64) -> [ChasePoint; 2] {
    let point = |name, cfg, block| ChasePoint {
        name,
        cfg,
        cc: ChaseConfig {
            elems_per_list: 2048,
            nlists: 64,
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed,
        },
    };
    [
        point("chase-emu64-b1", presets::emu64_full_speed(), 1),
        point("chase-chick-b16", presets::chick_prototype(), 16),
    ]
}

/// Audit a report (an empty violation list passes) and render it.
fn audited_json(
    op: &mut OpTrace,
    checks: &mut Checks,
    name: &str,
    cfg: &MachineConfig,
    r: &RunReport,
) -> String {
    let v = op.span("audit", |_| audit(cfg, r));
    checks.check(v.is_empty(), || format!("{name}: audit: {}", v[0]));
    op.span("report_json", |_| report_json(name, r))
}

/// One STREAM run on `e`: its report bytes and event count.
fn stream_run(
    op: &mut OpTrace,
    checks: &mut Checks,
    e: &mut Engine,
    p: &StreamPoint,
) -> Option<(String, u64)> {
    let r = match op.span("run_stream_on", |_| run_stream_on(e, &p.sc)) {
        Ok(r) => r,
        Err(err) => {
            checks.fail(|| format!("{}: {err}", p.name));
            return None;
        }
    };
    let want = stream_checksum(p.sc.total_elems, p.sc.kernel);
    checks.check(r.checksum == want, || {
        format!("{}: STREAM checksum {} != {want}", p.name, r.checksum)
    });
    Some((
        audited_json(op, checks, p.name, &p.cfg, &r.report),
        r.report.events,
    ))
}

/// Build, run, reset, run again. Returns the cold report and the events
/// of both runs.
fn stream_point(op: &mut OpTrace, checks: &mut Checks, p: &StreamPoint) -> Option<(String, u64)> {
    op.span(p.name, |op| {
        let mut e = match op.span("Engine::new", |_| Engine::new(p.cfg.clone())) {
            Ok(e) => e,
            Err(err) => {
                checks.fail(|| format!("{}: {err}", p.name));
                return None;
            }
        };
        let (cold, cold_events) = stream_run(op, checks, &mut e, p)?;
        op.span("Engine::reset", |_| e.reset());
        let (warm, warm_events) = stream_run(op, checks, &mut e, p)?;
        checks.check(warm == cold, || {
            format!(
                "{}: the reset engine's report differs from the cold engine's",
                p.name
            )
        });
        Some((cold, cold_events + warm_events))
    })
}

fn chase_point(op: &mut OpTrace, checks: &mut Checks, p: &ChasePoint) -> Option<(String, u64)> {
    op.span(p.name, |op| {
        let r = match op.span("run_chase_emu", |_| run_chase_emu(&p.cfg, &p.cc)) {
            Ok(r) => r,
            Err(err) => {
                checks.fail(|| format!("{}: {err}", p.name));
                return None;
            }
        };
        let want = p.cc.expected_checksum();
        checks.check(r.checksum == want, || {
            format!("{}: chase checksum {} != {want}", p.name, r.checksum)
        });
        let Some(report) = &r.report else {
            checks.fail(|| format!("{}: no engine report", p.name));
            return None;
        };
        Some((audited_json(op, checks, p.name, &p.cfg, report), r.events))
    })
}

/// The report bytes of one rep, point by point, and its event counts.
struct Rep {
    reports: Vec<Option<String>>,
    stream_events: u64,
    chase_events: u64,
}

fn rep(
    op: &mut OpTrace,
    checks: &mut Checks,
    streams: &[StreamPoint],
    chases: &[ChasePoint],
) -> Rep {
    let mut out = Rep {
        reports: Vec::new(),
        stream_events: 0,
        chase_events: 0,
    };
    for p in streams {
        let r = stream_point(op, checks, p);
        out.stream_events += r.as_ref().map_or(0, |r| r.1);
        out.reports.push(r.map(|r| r.0));
    }
    for p in chases {
        let r = chase_point(op, checks, p);
        out.chase_events += r.as_ref().map_or(0, |r| r.1);
        out.reports.push(r.map(|r| r.0));
    }
    out
}

/// Golden payloads: the STREAM reports (seed-independent) and the chase
/// reports at seed 1.
fn golden_payloads(reports: &[Option<String>]) -> [(&'static str, String); 2] {
    let join = |r: &[Option<String>]| r.iter().flatten().cloned().collect::<Vec<_>>().join("\n");
    [
        ("engine.stream", join(&reports[..2])),
        ("engine.chase.seed1", join(&reports[2..])),
    ]
}

pub fn golden() -> Vec<(String, String)> {
    let mut checks = Checks::default();
    let r = rep(
        &mut Tracer::new(false).op("rep"),
        &mut checks,
        &streams(),
        &chases(1),
    );
    assert_eq!(
        checks.failed, 0,
        "engine golden run failed: {:?}",
        checks.notes
    );
    golden_payloads(&r.reports)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

pub struct EngineWl {
    streams: [StreamPoint; 2],
    chases: [ChasePoint; 2],
    /// Report bytes of the warm-up rep; every timed rep must repeat them.
    reference: Vec<Option<String>>,
    /// Events simulated while tracing, split by workload kind.
    traced_stream_events: u64,
    traced_chase_events: u64,
}

impl Workload for EngineWl {
    fn setup(cfg: &RunCfg, checks: &mut Checks) -> Result<Self, String> {
        let mut w = EngineWl {
            streams: streams(),
            chases: chases(cfg.seed),
            reference: Vec::new(),
            traced_stream_events: 0,
            traced_chase_events: 0,
        };
        let warm = rep(
            &mut Tracer::new(false).op("rep"),
            checks,
            &w.streams,
            &w.chases,
        );
        for (key, payload) in golden_payloads(&warm.reports) {
            if key == "engine.stream" || cfg.seed == 1 {
                checks.golden(&cfg.golden, key, &payload);
            }
        }
        w.reference = warm.reports;
        Ok(w)
    }

    fn round(
        &mut self,
        _deadline: Instant,
        trace: &mut Tracer,
        meter: &mut Meter,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let shared: &Tracer = trace;
        let t = meter.time(|| {
            let mut op = shared.op("rep");
            let r = rep(&mut op, checks, &self.streams, &self.chases);
            (r, op.finish().1)
        });
        let ms = t.ms();
        let (r, spans) = t.value;
        trace.add(spans);
        for (i, (got, want)) in r.reports.iter().zip(&self.reference).enumerate() {
            checks.check(got.is_some() && got == want, || {
                format!("engine point {i}: report differs from the warm-up rep's")
            });
        }
        if trace.on() {
            self.traced_stream_events += r.stream_events;
            self.traced_chase_events += r.chase_events;
        }
        vec![ms]
    }

    fn layers(&mut self, _win: &Window, trace: &Tracer, out: &mut Metrics, checks: &mut Checks) {
        let per = |ns: u64, events: u64| ns as f64 / events.max(1) as f64;
        out.insert(
            "engine.ns_per_event",
            per(trace.total_ns("run_stream_on"), self.traced_stream_events),
        );
        out.insert(
            "membench.chase_ns_per_event",
            per(trace.total_ns("run_chase_emu"), self.traced_chase_events),
        );
        out.insert("engine.build_us", trace.mean_us("Engine::new"));
        out.insert("engine.reset_us", trace.mean_us("Engine::reset"));
        out.insert("audit.us_per_report", trace.mean_us("audit"));
        out.insert("json.render_us_per_report", trace.mean_us("report_json"));
        self.pdes_probe(out, checks);
    }
}

impl EngineWl {
    /// Point (a) at one scheduler thread and again on one engine set to
    /// `nproc` threads with its phase profiler on (never the process
    /// globals, whose wall-clock phases would leak into other reports).
    /// Medians of three pairs.
    fn pdes_probe(&self, out: &mut Metrics, checks: &mut Checks) {
        let p = &self.streams[0];
        let threads = crate::host::nproc();
        let mut cols: [Vec<f64>; 7] = Default::default();
        for _ in 0..3 {
            let timed = |e: Result<Engine, SimError>| {
                let mut e = e?;
                let t0 = Instant::now();
                let r = run_stream_on(&mut e, &p.sc)?;
                Ok::<_, SimError>((t0.elapsed().as_secs_f64(), r))
            };
            let serial = timed(Engine::new(p.cfg.clone()));
            let sharded = timed(Engine::new(p.cfg.clone()).map(|mut e| {
                e.set_sim_threads(threads);
                e.enable_phase_profile(true);
                e
            }));
            let ((t1, r1), (tn, rn)) = match (serial, sharded) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    checks.fail(|| format!("PDES probe: {e}"));
                    return;
                }
            };
            checks.check(
                rn.checksum == r1.checksum && rn.report.events == r1.report.events,
                || "PDES probe: sharded run diverged from the serial run".into(),
            );
            let Some(ph) = &rn.report.phases else {
                checks.fail(|| "PDES probe: no phase profile".into());
                return;
            };
            let sum = |f: fn(&PhaseBreakdown) -> u64| ph.workers.iter().map(f).sum::<u64>() as f64;
            for (col, v) in cols.iter_mut().zip([
                sum(|w| w.drain_ns),
                sum(|w| w.barrier_ns),
                sum(|w| w.exchange_ns),
                sum(|w| w.merge_ns),
                ph.epochs as f64,
                t1,
                tn,
            ]) {
                col.push(v);
            }
        }
        let m = |i: usize| stats::median(&cols[i]);
        out.insert("pdes.drain_ns", m(0));
        out.insert("pdes.barrier_ns", m(1));
        out.insert("pdes.exchange_ns", m(2));
        out.insert("pdes.merge_ns", m(3));
        out.insert("pdes.epochs", m(4));
        out.insert("pdes.speedup", m(5) / m(6));
    }
}
