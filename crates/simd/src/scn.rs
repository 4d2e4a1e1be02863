//! The `{"op":"scenario"}` handler: run a declarative `.scn` scenario
//! with every resolved sweep point routed through the warm pool.
//!
//! The connection thread parses and resolves the scenario, submits one
//! [`Spec::ScenarioPoint`] run per point (bounded busy retry, so a
//! scenario larger than the admission cap still drains), collects the
//! per-point outcome documents, and evaluates the scenario's `expect`
//! block over them with the pure [`scenario::evaluate`]. Point
//! execution therefore gets everything the pool gives ordinary runs —
//! admission control, panic isolation, respawn — while cross-point
//! assertions (monotonicity, byte identity) are checked exactly once,
//! server-side.
//!
//! A [`PointOutcome`] crosses the pool boundary as the "report" object
//! of an ordinary ok response, in its one JSON form
//! ([`PointOutcome::to_json`]).

use crate::pool::{Pool, Reject};
use crate::proto::{err_response, report_slice, ErrorKind, RunRequest, ScenarioRequest, Spec};
use emu_core::json::jstr;
use emu_core::jsonread::parse;
use scenario::run::PointOutcome;
use std::sync::mpsc;
use std::time::Duration;

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
    let s = match scenario::parse(&req.text) {
        Ok(s) => s,
        Err(e) => {
            return err_response(
                req.id,
                ErrorKind::Proto,
                &format!("bad scenario: {e}"),
                None,
            )
        }
    };
    let points = match scenario::resolve(&s) {
        Ok(p) => p,
        Err(e) => return err_response(req.id, ErrorKind::Proto, &e, None),
    };

    // Fan out: submit every point before reading any response, so the
    // pool keeps all workers busy; accepted submissions always answer.
    let mut receivers = Vec::with_capacity(points.len());
    for i in 0..points.len() {
        let sub = RunRequest {
            id: req.id,
            spec: Spec::ScenarioPoint {
                text: req.text.clone(),
                index: i,
            },
            deadline_ms: req.deadline_ms,
            max_events: req.max_events,
            chaos: None,
        };
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

    // Collect in sweep order. A point the pool failed (panic, typed
    // sim error) becomes a scenario failure; the expect block is still
    // evaluated over the points that did come back, so the response
    // lists everything wrong, not just the first transport loss.
    let mut outcomes: Vec<PointOutcome> = Vec::with_capacity(points.len());
    let mut failures: Vec<String> = Vec::new();
    for (i, rx) in receivers.into_iter().enumerate() {
        let line = rx.recv().unwrap_or_else(|_| {
            err_response(req.id, ErrorKind::Panic, "response channel lost", None)
        });
        match report_slice(&line) {
            Some(doc) => match PointOutcome::from_json(doc) {
                Ok(o) => outcomes.push(o),
                Err(e) => failures.push(format!("point {i}: {e}")),
            },
            None => failures.push(format!("point {i}: {}", error_summary(&line))),
        }
    }
    failures.extend(scenario::evaluate(&s, &outcomes));
    scenario_response(req.id, &s.name, points.len(), &failures)
}

/// The daemonless leg: run the scenario inline on this thread (the
/// `simd-once` comparator has no pool), same response shape as
/// [`handle`].
pub fn handle_once(req: &ScenarioRequest) -> String {
    match scenario::parse(&req.text) {
        Err(e) => err_response(
            req.id,
            ErrorKind::Proto,
            &format!("bad scenario: {e}"),
            None,
        ),
        Ok(s) => {
            let outcome = scenario::run_scenario(&s);
            scenario_response(
                req.id,
                &outcome.name,
                outcome.points.len(),
                &outcome.failures,
            )
        }
    }
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
