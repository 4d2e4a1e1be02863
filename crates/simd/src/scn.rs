//! The `{"op":"scenario"}` handler: run a declarative `.scn` scenario
//! with every resolved sweep point routed through the warm pool.
//!
//! The connection thread parses and resolves the scenario, submits one
//! [`Spec::ScenarioPoint`] run per point (bounded busy retry, so a
//! scenario larger than the admission cap still drains), collects the
//! per-point outcome documents, and evaluates the scenario's `expect`
//! block over them with the pure [`scenario::evaluate`]. Point
//! execution therefore gets everything the pool gives ordinary runs —
//! admission control, panic isolation and recovery — while cross-point
//! assertions (monotonicity, byte identity) are checked exactly once,
//! server-side. `simd-once` runs the same point requests inline on cold
//! engines ([`handle_once`]), so both answer under one budget rule.
//!
//! A [`PointOutcome`] crosses the pool boundary as the "report" object
//! of an ordinary ok response, in its one JSON form
//! ([`PointOutcome::to_json`]).

use crate::pool::{Pool, Reject};
use crate::proto::{err_response, report_slice, ErrorKind, RunRequest, ScenarioRequest, Spec};
use emu_core::json::jstr;
use emu_core::jsonread::parse;
use scenario::run::PointOutcome;
use scenario::Scenario;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Busy-retry budget per point submission: the pool advertises ~25 ms
/// hints; 400 × 5 ms ≈ 2 s of pushback before the scenario gives up.
const BUSY_RETRIES: u32 = 400;

/// Summarize an error response line as a failure string (falls back to
/// the raw line if it is not the expected shape).
fn error_summary(line: &str) -> String {
    parse(line)
        .ok()
        .and_then(|v| {
            let err = v.get("error")?;
            Some(format!(
                "{}: {}",
                err.get("kind")?.as_str()?,
                err.get("message")?.as_str()?
            ))
        })
        .unwrap_or_else(|| line.to_string())
}

/// Handle one scenario request end to end. Always returns exactly one
/// response line: a typed error for bad scenarios or an unavailable
/// pool, else `{"id":..,"ok":true,"scenario":{..,"pass":..}}` whose
/// `pass` reflects the evaluated expect block (an assertion failure is
/// a *result*, not a protocol error).
pub fn handle(pool: &Pool, req: &ScenarioRequest) -> String {
    let (s, n) = match plan(req) {
        Ok(plan) => plan,
        Err(reply) => return reply,
    };

    // Fan out: submit every point before reading any response, so the
    // pool keeps all workers busy; accepted submissions always answer.
    let mut receivers = Vec::with_capacity(n);
    for i in 0..n {
        let sub = point_request(req, i);
        let (tx, rx) = mpsc::channel();
        let mut attempts = 0;
        loop {
            match pool.submit(sub.clone(), tx.clone()) {
                Ok(()) => break,
                Err(Reject::Busy { .. }) if attempts < BUSY_RETRIES => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(Reject::Busy { in_flight }) => {
                    return err_response(
                        req.id,
                        ErrorKind::Busy,
                        &format!("scenario point {i} starved ({in_flight} in flight)"),
                        Some(25),
                    );
                }
                Err(Reject::Draining) => {
                    return err_response(
                        req.id,
                        ErrorKind::ShuttingDown,
                        "daemon is draining",
                        None,
                    );
                }
            }
        }
        receivers.push(rx);
    }
    let replies = receivers.into_iter().map(|rx| {
        rx.recv().unwrap_or_else(|_| {
            err_response(req.id, ErrorKind::Panic, "response channel lost", None)
        })
    });
    respond(req.id, &s, n, replies)
}

/// The daemonless leg: run the points inline on this thread, in sweep
/// order, each on a cold engine under the request's budget (the
/// `simd-once` comparator has no pool); same response as [`handle`].
pub fn handle_once(req: &ScenarioRequest) -> String {
    let (s, n) = match plan(req) {
        Ok(plan) => plan,
        Err(reply) => return reply,
    };
    let replies = (0..n).map(|i| crate::run_cold(&point_request(req, i), Instant::now()));
    respond(req.id, &s, n, replies)
}

/// The parsed scenario and its point count, or the typed error reply.
fn plan(req: &ScenarioRequest) -> Result<(Scenario, usize), String> {
    let s = scenario::parse(&req.text).map_err(|e| {
        err_response(
            req.id,
            ErrorKind::Proto,
            &format!("bad scenario: {e}"),
            None,
        )
    })?;
    let points =
        scenario::resolve(&s).map_err(|e| err_response(req.id, ErrorKind::Proto, &e, None))?;
    Ok((s, points.len()))
}

/// Point `index` of a scenario request as a run request: the scenario's
/// text and the request's budget, which applies to each point.
fn point_request(req: &ScenarioRequest, index: usize) -> RunRequest {
    RunRequest {
        id: req.id,
        spec: Spec::ScenarioPoint {
            text: req.text.clone(),
            index,
        },
        deadline_ms: req.deadline_ms,
        max_events: req.max_events,
        chaos: None,
    }
}

/// Collect the `n` points' reply lines in sweep order and evaluate the
/// expect block. A point that failed (panic, typed sim error) becomes a
/// scenario failure; the expect block is still evaluated over the
/// points that did come back, so the response lists everything wrong,
/// not just the first transport loss.
fn respond(id: u64, s: &Scenario, n: usize, replies: impl Iterator<Item = String>) -> String {
    let mut outcomes: Vec<PointOutcome> = Vec::with_capacity(n);
    let mut failures: Vec<String> = Vec::new();
    for (i, line) in replies.enumerate() {
        match report_slice(&line) {
            Some(doc) => match PointOutcome::from_json(doc) {
                Ok(o) => outcomes.push(o),
                Err(e) => failures.push(format!("point {i}: {e}")),
            },
            None => failures.push(format!("point {i}: {}", error_summary(&line))),
        }
    }
    failures.extend(scenario::evaluate(s, &outcomes));
    scenario_response(id, &s.name, n, &failures)
}

/// Render the `ok` scenario response line.
fn scenario_response(id: u64, name: &str, points: usize, failures: &[String]) -> String {
    let pass = failures.is_empty();
    let listed: Vec<String> = failures.iter().map(|f| jstr(f)).collect();
    format!(
        "{{\"id\":{id},\"ok\":true,\"scenario\":{{\"name\":{},\"points\":{points},\"pass\":{pass},\"failures\":[{}]}}}}",
        jstr(name),
        listed.join(",")
    )
}
