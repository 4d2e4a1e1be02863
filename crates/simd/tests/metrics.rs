//! End-to-end observability: drive a live daemon over TCP, then check
//! that the `{"op":"metrics"}` registry snapshot reconciles exactly
//! against the pool's own `health` counters, and that the hand-rolled
//! Prometheus endpoint exposes the same values in valid text format.
//!
//! Everything runs in one test function: the obs registry is
//! process-global, so a second in-process daemon would pollute the
//! deltas being reconciled.

use emu_core::jsonread::{parse, Value};
use simd::client::{request, ClientOpts};
use simd::pool::PoolConfig;
use simd::proto::{run_request_line, RunRequest, Spec};
use simd::server::{metrics_exporter, serve_with, ServeOpts, ServeSummary};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

fn stream_req(id: u64, elems: u64) -> RunRequest {
    RunRequest {
        id,
        spec: Spec::Stream {
            preset: "chick".into(),
            elems,
            threads: 8,
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

fn start_daemon() -> (SocketAddr, JoinHandle<ServeSummary>) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig {
                workers: 2,
                queue_cap: 8,
                ..PoolConfig::default()
            },
            drain_ms: 30_000,
            max_conns: 16,
            telemetry_path: None,
            handle_signals: false,
            metrics_addr: None,
        };
        serve_with(opts, move |addr| addr_tx.send(addr).unwrap()).expect("daemon failed")
    });
    let addr = addr_rx.recv().expect("daemon never became ready");
    (addr, handle)
}

/// Fetch one metrics-op snapshot and parse it.
fn metrics_op(opts: &ClientOpts) -> Value {
    let reply = request(opts, "{\"op\":\"metrics\",\"id\":77}").expect("metrics op failed");
    let v = parse(&reply).expect("metrics reply must be valid JSON");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{reply}");
    v
}

fn op_counter(v: &Value, name: &str) -> u64 {
    v.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn op_gauge(v: &Value, name: &str) -> i64 {
    v.get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as i64
}

fn op_hist_count(v: &Value, name: &str) -> u64 {
    v.get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn health_stat(v: &Value, name: &str) -> u64 {
    v.get("health")
        .and_then(|h| h.get("stats"))
        .and_then(|s| s.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("health stats missing {name}"))
}

/// One raw HTTP/1.0 exchange with the exporter.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect exporter");
    write!(s, "GET {path} HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read scrape");
    let (head, body) = raw.split_once("\r\n\r\n").expect("HTTP head/body split");
    (head.to_string(), body.to_string())
}

/// Value of one un-labeled series in a Prometheus text body.
fn prom_value(body: &str, name: &str) -> Option<i64> {
    body.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_op_and_prometheus_endpoint_reconcile_with_pool_stats() {
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 4;
    let (addr, daemon) = start_daemon();
    let opts = ClientOpts {
        addr: addr.to_string(),
        retries: 50,
        backoff_ms: 2,
        seed: 11,
    };

    // Baseline after daemon start: the registry is process-global and
    // cumulative, so all pool assertions are growth since this point.
    let base = metrics_op(&opts);

    // Load: concurrent clients, mixed sizes, plus one garbage line to
    // move the parse-error counter.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let opts = &opts;
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let id = (c * 100 + i) as u64;
                    let elems = [256u64, 512][(c + i) % 2];
                    let line = run_request_line(&stream_req(id, elems));
                    let reply = request(opts, &line).expect("run failed");
                    assert!(reply.contains("\"ok\":true"), "{reply}");
                }
            });
        }
    });
    {
        let stream = TcpStream::connect(addr).expect("connect daemon");
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "this is not json").unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.contains("\"kind\":\"proto\""), "{line}");
    }

    // Quiesced: the metrics-op growth must reconcile exactly against
    // the pool's own (fresh-per-daemon) health counters.
    let health = {
        let reply = request(&opts, "{\"op\":\"health\",\"id\":88}").unwrap();
        parse(&reply).unwrap()
    };
    let cur = metrics_op(&opts);
    let grew = |name: &str| op_counter(&cur, name) - op_counter(&base, name);
    for (series, stat) in [
        ("simd_pool_submitted_total", "submitted"),
        ("simd_pool_accepted_total", "accepted"),
        ("simd_pool_rejected_busy_total", "rejected_busy"),
        ("simd_pool_completed_ok_total", "completed_ok"),
        ("simd_pool_warm_hits_total", "warm_hits"),
        ("simd_pool_cold_builds_total", "cold_builds"),
        ("simd_pool_routed_sticky_total", "routed_sticky"),
        ("simd_pool_failed_panic_total", "failed_panic"),
        ("simd_pool_respawns_total", "respawns"),
    ] {
        assert_eq!(
            grew(series),
            health_stat(&health, stat),
            "{series} must mirror pool stat {stat}"
        );
    }
    let accepted = grew("simd_pool_accepted_total");
    assert_eq!(accepted, (CLIENTS * PER_CLIENT) as u64);
    assert!(
        grew("simd_pool_routed_sticky_total") > 0,
        "identical specs must hit the sticky router"
    );
    assert_eq!(op_gauge(&cur, "simd_pool_in_flight"), 0, "quiesced pool");
    // Every accepted run passed through both latency histograms.
    let hist_grew = |name: &str| op_hist_count(&cur, name) - op_hist_count(&base, name);
    assert_eq!(hist_grew("simd_pool_queue_wait_ns"), accepted);
    assert_eq!(hist_grew("simd_pool_execute_ns"), accepted);
    // Server-level traffic moved too (>=: the metrics ops themselves
    // keep these counters moving).
    assert!(grew("simd_server_connections_total") >= (CLIENTS * PER_CLIENT) as u64);
    assert!(grew("simd_server_bytes_in_total") > 0);
    assert!(grew("simd_server_bytes_out_total") > 0);
    assert_eq!(grew("simd_server_parse_errors_total"), 1);

    // The Prometheus endpoint reads the same registry: values for the
    // quiesced pool counters must match the metrics op exactly.
    let stop = Arc::new(AtomicBool::new(false));
    let (prom_addr, prom_thread) =
        metrics_exporter("127.0.0.1:0", Arc::clone(&stop)).expect("exporter failed to bind");
    let (head, body) = http_get(prom_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    for series in [
        "simd_pool_submitted_total",
        "simd_pool_accepted_total",
        "simd_pool_completed_ok_total",
        "simd_server_connections_total",
        "emu_engine_runs_total",
    ] {
        assert!(
            body.contains(&format!("# TYPE {series} counter")),
            "missing TYPE for {series}"
        );
        assert_eq!(
            prom_value(&body, series),
            Some(op_counter(&cur, series) as i64),
            "{series}: /metrics and the metrics op must agree"
        );
    }
    assert!(body.contains("# TYPE simd_pool_execute_ns summary"));
    assert_eq!(
        prom_value(&body, "simd_pool_execute_ns_count"),
        Some(op_hist_count(&cur, "simd_pool_execute_ns") as i64)
    );
    // A second scrape sees the first one counted.
    let (_, body2) = http_get(prom_addr, "/metrics");
    assert!(
        prom_value(&body2, "simd_server_metrics_scrapes_total") >= Some(1),
        "scrapes must count themselves"
    );
    let (head404, _) = http_get(prom_addr, "/nope");
    assert!(head404.starts_with("HTTP/1.0 404"), "{head404}");
    stop.store(true, Ordering::SeqCst);
    prom_thread.join().expect("exporter thread panicked");

    // Shutdown: the daemon's own conservation audit must stay clean.
    let bye = request(&opts, "{\"op\":\"shutdown\",\"id\":99}").unwrap();
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
    let summary = daemon.join().expect("daemon thread panicked");
    assert!(summary.drained);
    assert!(summary.violations.is_empty(), "{:?}", summary.violations);
}
