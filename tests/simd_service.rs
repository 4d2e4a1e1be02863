//! Multi-client soak of the resident simulation daemon: several
//! concurrent clients sweep the same request matrix against one live
//! daemon over TCP, at more than one pool size, and every successful
//! response must be byte-identical to a direct single-run execution of
//! the same spec. The daemon must then drain cleanly with reconciled
//! counters.

use simd::client::{request, ClientOpts};
use simd::exec::{execute, WarmSlot};
use simd::pool::{PoolConfig, Stat};
use simd::proto::{report_slice, run_request_line, RunRequest, Spec};
use simd::server::{serve_with, ServeOpts, ServeSummary};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::JoinHandle;

fn stream_req(id: u64, elems: u64, threads: usize) -> RunRequest {
    RunRequest {
        id,
        spec: Spec::Stream {
            preset: "chick".into(),
            elems,
            threads,
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

fn start_daemon(workers: usize, queue_cap: usize) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig {
                workers,
                queue_cap,
                selfcheck: true,
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

/// Direct single-run execution: the byte-identity oracle.
fn oracle(matrix: &[(u64, usize)]) -> HashMap<(u64, usize), String> {
    matrix
        .iter()
        .map(|&(elems, threads)| {
            let out = execute(&mut WarmSlot::new(), &stream_req(0, elems, threads), None)
                .expect("direct run failed");
            ((elems, threads), out.report_json)
        })
        .collect()
}

#[test]
fn concurrent_clients_get_byte_identical_reports_at_any_pool_size() {
    let matrix: Vec<(u64, usize)> = vec![(256, 4), (512, 8), (1024, 4)];
    let expected = oracle(&matrix);
    const CLIENTS: usize = 3;

    for &workers in &[1usize, 3] {
        // A tight queue on the multi-worker daemon exercises busy
        // rejections; the client's seeded backoff must absorb them.
        let queue_cap = if workers == 1 { 2 } else { 4 };
        let (addr, daemon) = start_daemon(workers, queue_cap);
        let opts = ClientOpts {
            addr: addr.to_string(),
            retries: 50,
            backoff_ms: 2,
            seed: 7,
        };

        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let opts = &opts;
                let matrix = &matrix;
                let expected = &expected;
                scope.spawn(move || {
                    for (i, &(elems, threads)) in matrix.iter().enumerate() {
                        let id = (c * 100 + i) as u64;
                        let line = run_request_line(&stream_req(id, elems, threads));
                        let reply = request(opts, &line).expect("request failed");
                        assert!(
                            reply.contains("\"ok\":true"),
                            "client {c} request {i}: {reply}"
                        );
                        assert!(reply.contains(&format!("\"id\":{id},")));
                        let report = report_slice(&reply).expect("missing report");
                        assert_eq!(
                            report,
                            expected[&(elems, threads)],
                            "pool size {workers}: daemon response diverged from direct run"
                        );
                    }
                });
            }
        });

        // Health endpoint reflects the completed work.
        let health = request(&opts, "{\"op\":\"health\",\"id\":999}").unwrap();
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"draining\":false"), "{health}");
        assert!(health.contains("\"selfcheck_failures\":0"), "{health}");

        // Graceful shutdown: drain must quiesce and counters reconcile.
        let bye = request(&opts, "{\"op\":\"shutdown\",\"id\":1000}").unwrap();
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        let summary = daemon.join().expect("daemon thread panicked");
        assert!(summary.drained, "drain did not quiesce: {summary:?}");
        assert!(
            summary.violations.is_empty(),
            "counter conservation violated: {:?}",
            summary.violations
        );
        let s = summary.stats;
        assert_eq!(s[Stat::CompletedOk], (CLIENTS * matrix.len()) as u64);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s[Stat::FailedPanic], 0);
        assert!(
            s[Stat::WarmHits] >= 1,
            "pool size {workers} never reused a warm engine: {s:?}"
        );
    }
}
