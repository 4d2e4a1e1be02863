//! `simctl top`: a polling terminal dashboard over the daemon's live
//! metrics.
//!
//! Each tick sends `{"op":"metrics"}` to the daemon, parses the
//! registry snapshot out of the reply, and redraws a compact summary:
//! request throughput and outcomes, admission pressure, warm-vs-cold
//! engine reuse (including sticky-routing wins), queue-wait and
//! execute latency quantiles, per-worker busy ratios, and the
//! engine/PDES totals underneath it all. Rates and busy ratios come
//! from deltas between consecutive polls.
//!
//! `--once` prints a single plain snapshot (no ANSI control codes) and
//! exits — that mode is what CI archives as an artifact.

use crate::client::{request, ClientOpts};
use emu_core::jsonread::{parse, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Dashboard options (see `simctl top --help` via the usage text).
#[derive(Debug, Clone)]
pub struct TopOpts {
    /// Daemon address.
    pub addr: String,
    /// Poll interval in milliseconds.
    pub interval_ms: u64,
    /// Print one snapshot without ANSI redraw, then exit.
    pub once: bool,
    /// Stop after this many polls (`None` = until interrupted).
    pub count: Option<u64>,
}

impl Default for TopOpts {
    fn default() -> Self {
        TopOpts {
            addr: std::env::var("EMU_SIMD_ADDR").unwrap_or_else(|_| "127.0.0.1:7677".into()),
            interval_ms: 1000,
            once: false,
            count: None,
        }
    }
}

/// One histogram as the metrics op reports it.
#[derive(Debug, Clone, Copy, Default)]
struct HistView {
    count: u64,
    sum: u64,
    p50: u64,
    p90: u64,
    p99: u64,
}

/// One parsed registry snapshot.
#[derive(Debug, Clone, Default)]
struct Sample {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, HistView>,
}

impl Sample {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

fn obj_pairs(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Obj(pairs) => Some(pairs),
        _ => None,
    }
}

/// Parse the `"metrics"` object of a metrics-op reply.
fn parse_sample(reply: &str) -> Result<Sample, String> {
    let v = parse(reply)?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("daemon refused metrics op: {reply}"));
    }
    let m = v.get("metrics").ok_or("reply has no \"metrics\" object")?;
    let mut sample = Sample::default();
    if let Some(pairs) = m.get("counters").and_then(obj_pairs) {
        for (name, val) in pairs {
            sample
                .counters
                .insert(name.clone(), val.as_u64().unwrap_or(0));
        }
    }
    if let Some(pairs) = m.get("gauges").and_then(obj_pairs) {
        for (name, val) in pairs {
            sample
                .gauges
                .insert(name.clone(), val.as_f64().unwrap_or(0.0) as i64);
        }
    }
    if let Some(pairs) = m.get("histograms").and_then(obj_pairs) {
        for (name, h) in pairs {
            let f = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
            sample.hists.insert(
                name.clone(),
                HistView {
                    count: f("count"),
                    sum: f("sum"),
                    p50: f("p50"),
                    p90: f("p90"),
                    p99: f("p99"),
                },
            );
        }
    }
    Ok(sample)
}

fn fetch(opts: &ClientOpts) -> Result<Sample, String> {
    let reply = request(opts, "{\"op\":\"metrics\",\"id\":1}")?;
    parse_sample(&reply)
}

/// Human duration from nanoseconds.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn rate(delta: u64, dt: Duration) -> f64 {
    let secs = dt.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        delta as f64 / secs
    }
}

/// Extract the `worker="N"` index from a labeled series name.
fn worker_index(name: &str) -> Option<&str> {
    name.split("worker=\"").nth(1)?.split('"').next()
}

/// Render one dashboard frame. `prev` (and the wall-clock gap since
/// it) powers the rate and busy-ratio lines; the first frame shows
/// totals only.
fn render(opts: &TopOpts, prev: Option<(&Sample, Duration)>, cur: &Sample) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    line(format!(
        "simd top — {} — every {}ms",
        opts.addr, opts.interval_ms
    ));
    let d = |name: &str| -> u64 {
        let now = cur.counter(name);
        match prev {
            Some((p, _)) => now.saturating_sub(p.counter(name)),
            None => 0,
        }
    };
    let dt = prev.map(|(_, gap)| gap).unwrap_or_default();

    let submitted = cur.counter("simd_pool_submitted_total");
    let accepted = cur.counter("simd_pool_accepted_total");
    let rejected = cur.counter("simd_pool_rejected_busy_total")
        + cur.counter("simd_pool_rejected_draining_total");
    line(format!(
        "pool     submitted {submitted}  accepted {accepted}  rejected {rejected}  in-flight {}  req/s {:.1}",
        cur.gauge("simd_pool_in_flight"),
        rate(d("simd_pool_submitted_total"), dt),
    ));
    let ok = cur.counter("simd_pool_completed_ok_total");
    let failed = [
        "simd_pool_failed_proto_total",
        "simd_pool_failed_sim_total",
        "simd_pool_failed_audit_total",
        "simd_pool_failed_event_cap_total",
        "simd_pool_failed_deadline_total",
        "simd_pool_failed_panic_total",
    ]
    .iter()
    .map(|n| cur.counter(n))
    .sum::<u64>();
    line(format!(
        "runs     ok {ok}  failed {failed}  deadline {}  event-cap {}  panic {}  respawns {}",
        cur.counter("simd_pool_failed_deadline_total"),
        cur.counter("simd_pool_failed_event_cap_total"),
        cur.counter("simd_pool_failed_panic_total"),
        cur.counter("simd_pool_respawns_total"),
    ));
    let warm = cur.counter("simd_pool_warm_hits_total");
    let cold = cur.counter("simd_pool_cold_builds_total");
    let warm_pct = if warm + cold > 0 {
        100.0 * warm as f64 / (warm + cold) as f64
    } else {
        0.0
    };
    line(format!(
        "engines  warm {warm}  cold {cold}  warm-rate {warm_pct:.0}%  sticky-routed {}  selfchecks {}",
        cur.counter("simd_pool_routed_sticky_total"),
        cur.counter("simd_pool_selfcheck_runs_total"),
    ));
    // Result-cache line: daemon-side admission hits plus the process
    // cache counters. All zeros (and a quiet line) unless EMU_CACHE is
    // on in the daemon.
    let cache_hits = cur.counter("emu_cache_hits_total");
    let cache_misses = cur.counter("emu_cache_misses_total");
    if cache_hits + cache_misses + cur.counter("emu_cache_stores_total") > 0 {
        line(format!(
            "cache    served {}  hits {cache_hits}  misses {cache_misses}  stores {}  bytes {}",
            cur.counter("simd_pool_served_from_cache_total"),
            cur.counter("emu_cache_stores_total"),
            cur.counter("emu_cache_bytes_written_total"),
        ));
    }
    for (title, name) in [
        ("queue-wait", "simd_pool_queue_wait_ns"),
        ("execute", "simd_pool_execute_ns"),
    ] {
        let h = cur.hists.get(name).copied().unwrap_or_default();
        let mean = h.sum.checked_div(h.count).unwrap_or(0);
        line(format!(
            "{title:<8} n {}  mean {}  p50 {}  p90 {}  p99 {}",
            h.count,
            fmt_ns(mean),
            fmt_ns(h.p50),
            fmt_ns(h.p90),
            fmt_ns(h.p99),
        ));
    }

    // Per-worker busy ratios from busy-ns growth over the poll gap.
    let mut workers: Vec<String> = Vec::new();
    for name in cur.counters.keys() {
        if !name.starts_with("simd_worker_busy_ns_total{") {
            continue;
        }
        let Some(idx) = worker_index(name) else {
            continue;
        };
        let jobs = cur.counter(&format!("simd_worker_jobs_total{{worker=\"{idx}\"}}"));
        let busy = match prev {
            Some((p, gap)) if gap.as_nanos() > 0 => {
                let grew = cur.counter(name).saturating_sub(p.counter(name));
                100.0 * grew as f64 / gap.as_nanos() as f64
            }
            _ => 0.0,
        };
        workers.push(format!("w{idx} {busy:.0}% ({jobs} jobs)"));
    }
    if !workers.is_empty() {
        line(format!("workers  {}", workers.join("  ")));
    }

    line(format!(
        "server   conns {} (active {})  bytes in {} out {}  parse-errors {}  scrapes {}",
        cur.counter("simd_server_connections_total"),
        cur.gauge("simd_server_connections_active"),
        cur.counter("simd_server_bytes_in_total"),
        cur.counter("simd_server_bytes_out_total"),
        cur.counter("simd_server_parse_errors_total"),
        cur.counter("simd_server_metrics_scrapes_total"),
    ));
    line(format!(
        "sim      runs {}  events {}  epochs {}  events/s {:.0}  mailbox hwm {}",
        cur.counter("emu_engine_runs_total"),
        cur.counter("emu_engine_events_total"),
        cur.counter("emu_pdes_epochs_total"),
        rate(d("emu_engine_events_total"), dt),
        cur.gauge("emu_pdes_mailbox_depth_hwm"),
    ));
    out
}

/// Run the dashboard loop. Blocks until `--once`/`--count` is
/// satisfied or a poll fails.
pub fn run(opts: &TopOpts) -> Result<(), String> {
    let client = ClientOpts {
        addr: opts.addr.clone(),
        ..ClientOpts::default()
    };
    let mut prev: Option<(Sample, Instant)> = None;
    let max_polls = if opts.once {
        1
    } else {
        opts.count.unwrap_or(u64::MAX)
    };
    let mut stdout = std::io::stdout();
    let mut polls = 0u64;
    while polls < max_polls {
        let cur = fetch(&client)?;
        let now = Instant::now();
        let frame = render(
            opts,
            prev.as_ref().map(|(s, at)| (s, now.duration_since(*at))),
            &cur,
        );
        if !opts.once {
            // Clear + home: redraw in place like top(1).
            let _ = write!(stdout, "\x1b[2J\x1b[H");
        }
        write!(stdout, "{frame}").map_err(|e| e.to_string())?;
        stdout.flush().map_err(|e| e.to_string())?;
        prev = Some((cur, now));
        polls += 1;
        if polls < max_polls {
            std::thread::sleep(Duration::from_millis(opts.interval_ms.max(50)));
        }
    }
    Ok(())
}

/// The `top` subcommand front-end.
pub fn run_cli(args: &[String]) -> Result<(), String> {
    let mut opts = TopOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val =
            || -> Result<&String, String> { it.next().ok_or_else(|| format!("{a} needs a value")) };
        match a.as_str() {
            "--addr" => opts.addr = val()?.clone(),
            "--interval" => opts.interval_ms = val()?.parse().map_err(|_| "bad --interval")?,
            "--once" => opts.once = true,
            "--count" => opts.count = Some(val()?.parse().map_err(|_| "bad --count")?),
            other => return Err(format!("unknown top flag {other:?}")),
        }
    }
    run(&opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = "{\"id\":1,\"ok\":true,\"metrics\":{\
        \"counters\":{\"simd_pool_submitted_total\":10,\
        \"simd_pool_accepted_total\":9,\
        \"simd_pool_completed_ok_total\":8,\
        \"simd_pool_warm_hits_total\":6,\
        \"simd_pool_cold_builds_total\":2,\
        \"simd_worker_busy_ns_total{worker=\\\"0\\\"}\":500,\
        \"simd_worker_jobs_total{worker=\\\"0\\\"}\":8},\
        \"gauges\":{\"simd_pool_in_flight\":1},\
        \"histograms\":{\"simd_pool_execute_ns\":{\
        \"count\":8,\"sum\":800,\"p50\":90,\"p90\":120,\"p99\":127,\
        \"buckets\":[[6,8]]}}}}";

    #[test]
    fn sample_parses_counters_gauges_and_histograms() {
        let s = parse_sample(REPLY).unwrap();
        assert_eq!(s.counter("simd_pool_submitted_total"), 10);
        assert_eq!(s.gauge("simd_pool_in_flight"), 1);
        let h = s.hists["simd_pool_execute_ns"];
        assert_eq!((h.count, h.p50, h.p99), (8, 90, 127));
        assert_eq!(s.counter("simd_worker_jobs_total{worker=\"0\"}"), 8);
    }

    #[test]
    fn render_produces_the_expected_sections() {
        let s = parse_sample(REPLY).unwrap();
        let opts = TopOpts {
            once: true,
            ..TopOpts::default()
        };
        let frame = render(&opts, None, &s);
        assert!(
            frame.contains("pool     submitted 10  accepted 9"),
            "{frame}"
        );
        assert!(frame.contains("warm 6  cold 2  warm-rate 75%"), "{frame}");
        assert!(frame.contains("w0 0% (8 jobs)"), "{frame}");
        assert!(
            frame.contains("execute  n 8  mean 100ns  p50 90ns"),
            "{frame}"
        );
        assert!(!frame.contains('\x1b'), "frames carry no ANSI codes");
    }

    #[test]
    fn render_rates_use_the_previous_sample() {
        let a = parse_sample(REPLY).unwrap();
        let mut b = a.clone();
        b.counters.insert("simd_pool_submitted_total".into(), 30);
        b.counters.insert(
            "simd_worker_busy_ns_total{worker=\"0\"}".into(),
            500 + 500_000_000,
        );
        let opts = TopOpts::default();
        let frame = render(&opts, Some((&a, Duration::from_secs(2))), &b);
        assert!(frame.contains("req/s 10.0"), "{frame}");
        assert!(frame.contains("w0 25%"), "{frame}");
    }

    #[test]
    fn cache_line_appears_only_when_the_cache_saw_traffic() {
        let quiet = parse_sample(REPLY).unwrap();
        let opts = TopOpts {
            once: true,
            ..TopOpts::default()
        };
        assert!(!render(&opts, None, &quiet).contains("cache    "));

        let mut busy = quiet.clone();
        busy.counters.insert("emu_cache_hits_total".into(), 5);
        busy.counters.insert("emu_cache_misses_total".into(), 2);
        busy.counters.insert("emu_cache_stores_total".into(), 2);
        busy.counters
            .insert("simd_pool_served_from_cache_total".into(), 5);
        let frame = render(&opts, None, &busy);
        assert!(
            frame.contains("cache    served 5  hits 5  misses 2  stores 2"),
            "{frame}"
        );
    }

    #[test]
    fn error_replies_are_surfaced() {
        assert!(parse_sample("{\"id\":1,\"ok\":false}").is_err());
        assert!(parse_sample("not json").is_err());
    }
}
