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
//! of an ordinary ok response:
//!
//! ```json
//! {"point":0,"axes":[["elems","64"]],"metrics":{"events":42},
//!  "fingerprints":[[1,"{...}"],[2,"{...}"]],"problems":[]}
//! ```

use crate::pool::{Pool, Reject};
use crate::proto::{err_response, report_slice, ErrorKind, RunRequest, ScenarioRequest, Spec};
use emu_core::json::{jnum, jstr};
use emu_core::jsonread::{parse, Value};
use scenario::run::PointOutcome;
use std::sync::mpsc;
use std::time::Duration;

/// Busy-retry budget per point submission: the pool advertises ~25 ms
/// hints; 400 × 5 ms ≈ 2 s of pushback before the scenario gives up.
const BUSY_RETRIES: u32 = 400;

/// Serialize one point outcome as a JSON object (strict-reader clean;
/// non-finite metrics become `null` and fail decoding loudly).
pub fn point_outcome_json(o: &PointOutcome) -> String {
    let axes: Vec<String> = o
        .axes
        .iter()
        .map(|(k, v)| format!("[{},{}]", jstr(k), jstr(v)))
        .collect();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", jstr(k), jnum(*v)))
        .collect();
    let fps: Vec<String> = o
        .fingerprints
        .iter()
        .map(|(n, fp)| format!("[{n},{}]", jstr(fp)))
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|p| jstr(p)).collect();
    format!(
        "{{\"point\":{},\"axes\":[{}],\"metrics\":{{{}}},\"fingerprints\":[{}],\"problems\":[{}]}}",
        o.index,
        axes.join(","),
        metrics.join(","),
        fps.join(","),
        problems.join(",")
    )
}

/// Decode [`point_outcome_json`]'s document.
pub fn point_outcome_from_json(text: &str) -> Result<PointOutcome, String> {
    let v = parse(text).map_err(|e| format!("bad point outcome: {e}"))?;
    let index = v
        .get("point")
        .and_then(Value::as_u64)
        .ok_or("point outcome missing \"point\"")? as usize;
    let mut axes = Vec::new();
    let Some(Value::Arr(items)) = v.get("axes") else {
        return Err("point outcome missing \"axes\"".into());
    };
    for item in items {
        match item {
            Value::Arr(kv) if kv.len() == 2 => {
                let k = kv[0].as_str().ok_or("axis key must be a string")?;
                let val = kv[1].as_str().ok_or("axis value must be a string")?;
                axes.push((k.to_string(), val.to_string()));
            }
            _ => return Err("each axis must be a [key, value] pair".into()),
        }
    }
    let mut metrics = std::collections::BTreeMap::new();
    let Some(Value::Obj(pairs)) = v.get("metrics") else {
        return Err("point outcome missing \"metrics\"".into());
    };
    for (k, val) in pairs {
        let x = val
            .as_f64()
            .ok_or_else(|| format!("metric {k:?} is not a finite number"))?;
        metrics.insert(k.clone(), x);
    }
    let mut fingerprints = Vec::new();
    let Some(Value::Arr(items)) = v.get("fingerprints") else {
        return Err("point outcome missing \"fingerprints\"".into());
    };
    for item in items {
        match item {
            Value::Arr(pair) if pair.len() == 2 => {
                let n = pair[0]
                    .as_u64()
                    .ok_or("fingerprint worker count must be an integer")?;
                let fp = pair[1].as_str().ok_or("fingerprint must be a string")?;
                fingerprints.push((n as usize, fp.to_string()));
            }
            _ => return Err("each fingerprint must be a [count, report] pair".into()),
        }
    }
    let mut problems = Vec::new();
    let Some(Value::Arr(items)) = v.get("problems") else {
        return Err("point outcome missing \"problems\"".into());
    };
    for item in items {
        problems.push(item.as_str().ok_or("problems must be strings")?.to_string());
    }
    Ok(PointOutcome {
        index,
        axes,
        metrics,
        fingerprints,
        problems,
    })
}

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
            Some(doc) => match point_outcome_from_json(doc) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::json::json_ok;

    fn sample() -> PointOutcome {
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("events".to_string(), 42.0);
        metrics.insert("bandwidth_bps".to_string(), 1.25e9);
        metrics.insert("oracle:stream-saturated".to_string(), 0.993);
        PointOutcome {
            index: 3,
            axes: vec![("elems".into(), "64".into())],
            metrics,
            fingerprints: vec![
                (1, "{\"label\":\"s\"}".into()),
                (2, "{\"label\":\"s\"}".into()),
            ],
            problems: vec!["audit: \"quoted\" detail".into()],
        }
    }

    #[test]
    fn point_outcome_round_trips() {
        let o = sample();
        let doc = point_outcome_json(&o);
        assert!(json_ok(&doc), "{doc}");
        assert_eq!(point_outcome_from_json(&doc).unwrap(), o);
    }

    #[test]
    fn empty_outcome_round_trips() {
        let o = PointOutcome {
            index: 0,
            axes: vec![],
            metrics: Default::default(),
            fingerprints: vec![],
            problems: vec![],
        };
        let doc = point_outcome_json(&o);
        assert!(json_ok(&doc), "{doc}");
        assert_eq!(point_outcome_from_json(&doc).unwrap(), o);
    }

    #[test]
    fn truncated_outcomes_are_rejected() {
        assert!(point_outcome_from_json("{}").is_err());
        assert!(point_outcome_from_json("{\"point\":0}").is_err());
        assert!(point_outcome_from_json("not json").is_err());
    }
}
