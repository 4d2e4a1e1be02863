//! End-to-end `{"op":"scenario"}`: a live daemon runs a swept `.scn`
//! document point-by-point through the warm pool, evaluates its expect
//! block, and answers one line — pass, assertion failures as data, or
//! a typed protocol error — then drains clean. `simd-once` holds each
//! point to the same budget.

use emu_core::jsonread::{parse, Value};
use simd::client::{request, ClientOpts};
use simd::pool::PoolConfig;
use simd::proto::{run_request_line, scenario_request_line, RunRequest, ScenarioRequest, Spec};
use simd::server::{serve_with, ServeOpts, ServeSummary};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::JoinHandle;

const SCN: &str = "\
scenario daemon-smoke

machine chick

workload stream
  elems = 64
  threads = 4

sweep elems = 32, 64

expect
  counter events >= 1
  counter threads == 4
  monotonic events nondecreasing over elems
  byte_identical_at_sim_threads = 1, 2
";

fn start_daemon() -> (SocketAddr, JoinHandle<ServeSummary>) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig {
                workers: 2,
                queue_cap: 4,
                ..PoolConfig::default()
            },
            drain_ms: 30_000,
            max_conns: 8,
            telemetry_path: None,
            handle_signals: false,
            metrics_addr: None,
        };
        serve_with(opts, move |addr| addr_tx.send(addr).unwrap()).expect("daemon failed")
    });
    let addr = addr_rx.recv().expect("daemon never became ready");
    (addr, handle)
}

fn scenario_req(id: u64, text: &str) -> String {
    scenario_request_line(&ScenarioRequest {
        id,
        text: text.into(),
        deadline_ms: None,
        max_events: None,
    })
}

#[test]
fn scenario_op_runs_sweeps_through_the_pool() {
    let (addr, handle) = start_daemon();
    let opts = ClientOpts {
        addr: addr.to_string(),
        ..ClientOpts::default()
    };

    // A clean scenario passes with no failures, both sweep points run.
    let reply = request(&opts, &scenario_req(1, SCN)).unwrap();
    let v = parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{reply}");
    let scn = v.get("scenario").expect("scenario object");
    assert_eq!(
        scn.get("pass").and_then(Value::as_bool),
        Some(true),
        "{reply}"
    );
    assert_eq!(
        scn.get("points").and_then(Value::as_u64),
        Some(2),
        "{reply}"
    );
    assert_eq!(
        scn.get("name").and_then(Value::as_str),
        Some("daemon-smoke"),
        "{reply}"
    );

    // An unmeetable bound is a *result* (ok:true, pass:false), and the
    // failure names the assertion.
    let failing = SCN.replace("counter events >= 1", "counter events >= 999999999999");
    let reply = request(&opts, &scenario_req(2, &failing)).unwrap();
    let v = parse(&reply).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{reply}");
    let scn = v.get("scenario").expect("scenario object");
    assert_eq!(
        scn.get("pass").and_then(Value::as_bool),
        Some(false),
        "{reply}"
    );
    assert!(reply.contains("counter events"), "{reply}");

    // A malformed document is a typed protocol error.
    let reply = request(&opts, &scenario_req(3, "workload warp\n")).unwrap();
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("\"kind\":\"proto\""), "{reply}");

    // A scripted run is a `workload script` scenario; `case` is not a
    // run spec kind.
    let script = "scenario scripted\n\nmachine chick\n  nodes = 2\n\n\
                  workload script\n  thread = 0 L9:8 C5 M3\n  thread = 12 A1:8\n";
    let reply = request(&opts, &scenario_req(5, script)).unwrap();
    assert!(reply.contains("\"pass\":true"), "{reply}");
    let case = r#"{"op":"run","id":6,"spec":{"kind":"case","case":"thread=0 C1"}}"#;
    let reply = request(&opts, case).unwrap();
    assert!(reply.contains("\"kind\":\"proto\""), "{reply}");

    // A single point replays through the ordinary run op, carrying the
    // outcome document as its report.
    let reply = request(
        &opts,
        &run_request_line(&RunRequest {
            id: 4,
            spec: Spec::ScenarioPoint {
                text: SCN.into(),
                index: 1,
            },
            deadline_ms: None,
            max_events: None,
            chaos: None,
        }),
    )
    .unwrap();
    let v = parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{reply}");
    let point = v.get("report").expect("report object");
    assert_eq!(
        point.get("point").and_then(Value::as_u64),
        Some(1),
        "{reply}"
    );
    assert!(
        matches!(point.get("problems"), Some(Value::Arr(p)) if p.is_empty()),
        "{reply}"
    );

    let bye = request(&opts, "{\"op\":\"shutdown\",\"id\":9}").unwrap();
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
    let summary = handle.join().expect("daemon thread");
    assert!(summary.drained, "daemon failed to drain");
    assert!(
        summary.violations.is_empty(),
        "conservation violated: {:?}",
        summary.violations
    );
}

/// One point that runs far longer than a millisecond and dispatches far
/// more than a thousand events.
const LONG: &str = "\
scenario over-budget

machine chick

workload stream
  elems = 65536
  threads = 64

expect
  counter events >= 1
";

/// Answer [`LONG`] under a 1 ms deadline and under a 1000-event cap
/// with `answer`, and require each reply to fail naming its budget.
fn assert_over_budget(answer: impl Fn(&str) -> String) {
    for (id, deadline_ms, max_events, named) in [
        (1, Some(1), None, "DeadlineExceeded { deadline_ms: 1 }"),
        (2, None, Some(1000), "EventCapExceeded { cap: 1000 }"),
    ] {
        let reply = answer(&scenario_request_line(&ScenarioRequest {
            id,
            text: LONG.into(),
            deadline_ms,
            max_events,
        }));
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(
            reply.contains("\"pass\":false"),
            "over budget, passed: {reply}"
        );
        assert!(reply.contains(named), "no failure names {named}: {reply}");
    }
}

#[test]
fn scenario_points_honour_their_deadline_and_event_cap() {
    let (addr, handle) = start_daemon();
    let opts = ClientOpts {
        addr: addr.to_string(),
        ..ClientOpts::default()
    };
    assert_over_budget(|line| request(&opts, line).unwrap());
    let bye = request(&opts, "{\"op\":\"shutdown\",\"id\":9}").unwrap();
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
    let summary = handle.join().expect("daemon thread");
    assert!(
        summary.drained && summary.violations.is_empty(),
        "{summary:?}"
    );
}

#[test]
fn once_holds_scenario_points_to_the_daemons_budget() {
    assert_over_budget(simd::once);
}
