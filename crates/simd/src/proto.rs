//! The daemon's wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response line per request, in order.
//! Requests:
//!
//! ```json
//! {"op":"run","id":1,"spec":{...},"deadline_ms":250,"max_events":1000000}
//! {"op":"scenario","id":5,"scenario":"scenario s\n\nmachine chick\n..."}
//! {"op":"health","id":2}
//! {"op":"metrics","id":3}
//! {"op":"shutdown","id":4}
//! ```
//!
//! A `run` spec is a STREAM point,
//! `{"kind":"stream","preset":"chick","elems":4096,"threads":64,...}`,
//! or one point of a scenario,
//! `{"kind":"scenario_point","scenario":"<.scn text>","index":0}`.
//!
//! A `scenario` request carries a complete `.scn` document (the
//! declarative conformance language in the `scenario` crate); the
//! server resolves its sweep and routes every point through the warm
//! pool as a `scenario_point` spec, then evaluates the `expect` block
//! over the collected outcomes (see [`crate::scn`]). A scripted run —
//! a machine plus per-threadlet op scripts — is a `workload script`
//! scenario sent this way.
//!
//! Successful run responses put the report object **last** so its
//! bytes can be compared verbatim against a direct
//! [`emu_core::json::report_json`] call:
//!
//! ```json
//! {"id":1,"ok":true,"worker":0,"warm":true,"report":{...}}
//! ```
//!
//! Failures carry a typed error and, for admission rejections, a
//! retry hint:
//!
//! ```json
//! {"id":1,"ok":false,"error":{"kind":"busy","message":"..."},"retry_after_ms":25}
//! ```

use emu_core::json::jstr;
use emu_core::jsonread::{parse, Value};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a simulation run.
    Run(RunRequest),
    /// Run a full `.scn` scenario through the warm pool.
    Scenario(ScenarioRequest),
    /// Ask for a pool statistics snapshot.
    Health {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Ask for a live-metrics registry snapshot ([`emu_core::obs`]).
    Metrics {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Ask the daemon to drain and exit.
    Shutdown {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
}

/// A `run` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to simulate.
    pub spec: Spec,
    /// Wall-clock budget in milliseconds, counted from when a worker
    /// starts the request (`None` or 0 = none).
    pub deadline_ms: Option<u64>,
    /// Event-count budget of each engine run (`None` or 0 = the
    /// machine's own fault-plan cap).
    pub max_events: Option<u64>,
    /// Test-only fault injection directive.
    pub chaos: Option<Chaos>,
}

/// A `scenario` request: one `.scn` document, executed point by point
/// on the pool with the budgets below applied per point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The full `.scn` text (validated by [`scenario::parse()`]).
    pub text: String,
    /// Per-point wall-clock budget in milliseconds, reaching every
    /// engine the point builds (`None` or 0 = none).
    pub deadline_ms: Option<u64>,
    /// Per-engine-run event-count budget within each point.
    pub max_events: Option<u64>,
}

/// A run payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// One Emu STREAM point on a named preset.
    Stream {
        /// Preset name (same vocabulary as the bench CLI: `chick`,
        /// `chick-sim`, `full-speed`, `emu64`, `chick-8node`).
        preset: String,
        /// Total elements.
        elems: u64,
        /// Worker threadlets.
        threads: usize,
        /// Kernel: `add`, `copy`, `scale`, or `triad`.
        kernel: String,
        /// Spawn strategy: `serial`, `recursive`, `serial-remote`,
        /// `recursive-remote`.
        strategy: String,
        /// Pin data and workers to nodelet 0 (the Fig. 4 shape).
        single_nodelet: bool,
        /// Cilk-frame touch period (0 disables).
        stack_touch_period: u32,
    },
    /// One resolved point of a `.scn` scenario. This is how the
    /// server's `{"op":"scenario"}` handler fans a scenario out over
    /// the pool; it is also accepted on the wire so a client can replay
    /// a single sweep point in isolation.
    ScenarioPoint {
        /// The full `.scn` text (each worker re-parses it; scenarios
        /// are small and parsing is allocation-bound, not sim-bound).
        text: String,
        /// Which resolved point to run, in sweep order.
        index: usize,
    },
}

/// Test-only fault injection carried on a run request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// Panic inside the worker after admission, before execution.
    Panic,
}

/// Machine-readable failure categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control rejected the request: too many in flight.
    Busy,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The request line (or embedded spec) failed to parse/validate.
    Proto,
    /// The simulation itself faulted (deadlock, bad op, ...).
    Sim,
    /// The per-request wall-clock deadline expired.
    Deadline,
    /// The per-request event budget was exhausted.
    EventCap,
    /// The worker panicked while handling the request.
    Panic,
    /// The run finished but its report failed the audit invariants.
    Audit,
}

impl ErrorKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Proto => "proto",
            ErrorKind::Sim => "sim",
            ErrorKind::Deadline => "deadline",
            ErrorKind::EventCap => "event_cap",
            ErrorKind::Panic => "panic",
            ErrorKind::Audit => "audit",
        }
    }
}

/// Render a success response. `report` must be the exact
/// [`emu_core::json::report_json`] document; it is embedded verbatim,
/// last, so clients can slice it back out byte-for-byte.
pub fn ok_response(id: u64, worker: usize, warm: bool, report: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"worker\":{worker},\"warm\":{warm},\"report\":{report}}}")
}

/// Render a success response served from the content-addressed result
/// cache without dispatching to a worker. Same shape contract as
/// [`ok_response`] — the report is embedded verbatim and last — with a
/// `"cached":true` marker instead of worker/warm provenance.
pub fn cached_response(id: u64, report: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"cached\":true,\"warm\":false,\"report\":{report}}}")
}

/// Render a failure response.
pub fn err_response(
    id: u64,
    kind: ErrorKind,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let retry = match retry_after_ms {
        Some(ms) => format!(",\"retry_after_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":{},\"message\":{}}}{retry}}}",
        jstr(kind.name()),
        jstr(message)
    )
}

/// Extract the embedded report object from an `ok` response produced by
/// [`ok_response`]. Returns `None` for error responses.
pub fn report_slice(response: &str) -> Option<&str> {
    let marker = "\"report\":";
    let at = response.find(marker)?;
    let body = &response[at + marker.len()..];
    body.strip_suffix('}')
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line)?;
    let id = v
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("missing or invalid \"id\"")?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing \"op\"")?;
    match op {
        "health" => Ok(Request::Health { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "run" => {
            let spec = parse_spec(v.get("spec").ok_or("run request missing \"spec\"")?)?;
            let deadline_ms = opt_u64(&v, "deadline_ms")?;
            let max_events = opt_u64(&v, "max_events")?;
            let chaos = match v.get("chaos") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) if s == "panic" => Some(Chaos::Panic),
                Some(other) => return Err(format!("unknown chaos directive {other:?}")),
            };
            Ok(Request::Run(RunRequest {
                id,
                spec,
                deadline_ms,
                max_events,
                chaos,
            }))
        }
        "scenario" => {
            let text = v
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("scenario request missing \"scenario\" text")?;
            Ok(Request::Scenario(ScenarioRequest {
                id,
                text: text.to_string(),
                deadline_ms: opt_u64(&v, "deadline_ms")?,
                max_events: opt_u64(&v, "max_events")?,
            }))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn parse_spec(v: &Value) -> Result<Spec, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("spec missing \"kind\"")?;
    match kind {
        "stream" => {
            let field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
            let num = |k: &str, d: u64| v.get(k).and_then(Value::as_u64).unwrap_or(d);
            Ok(Spec::Stream {
                preset: field("preset").unwrap_or_else(|| "chick".into()),
                elems: num("elems", 4096),
                threads: num("threads", 64) as usize,
                kernel: field("kernel").unwrap_or_else(|| "add".into()),
                strategy: field("strategy").unwrap_or_else(|| "recursive-remote".into()),
                single_nodelet: v
                    .get("single_nodelet")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                stack_touch_period: num("stack_touch_period", 4) as u32,
            })
        }
        "scenario_point" => {
            let text = v
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("scenario_point spec missing \"scenario\" text")?;
            let index = v
                .get("index")
                .and_then(Value::as_u64)
                .ok_or("scenario_point spec missing \"index\"")?;
            Ok(Spec::ScenarioPoint {
                text: text.to_string(),
                index: index as usize,
            })
        }
        other => Err(format!("unknown spec kind {other:?}")),
    }
}

/// Render a run request line (the client side of [`parse_request`]).
pub fn run_request_line(req: &RunRequest) -> String {
    let spec = match &req.spec {
        Spec::Stream {
            preset,
            elems,
            threads,
            kernel,
            strategy,
            single_nodelet,
            stack_touch_period,
        } => format!(
            "{{\"kind\":\"stream\",\"preset\":{},\"elems\":{elems},\"threads\":{threads},\
             \"kernel\":{},\"strategy\":{},\"single_nodelet\":{single_nodelet},\
             \"stack_touch_period\":{stack_touch_period}}}",
            jstr(preset),
            jstr(kernel),
            jstr(strategy)
        ),
        Spec::ScenarioPoint { text, index } => format!(
            "{{\"kind\":\"scenario_point\",\"scenario\":{},\"index\":{index}}}",
            jstr(text)
        ),
    };
    let mut line = format!("{{\"op\":\"run\",\"id\":{},\"spec\":{spec}", req.id);
    if let Some(ms) = req.deadline_ms {
        line.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    if let Some(n) = req.max_events {
        line.push_str(&format!(",\"max_events\":{n}"));
    }
    if req.chaos == Some(Chaos::Panic) {
        line.push_str(",\"chaos\":\"panic\"");
    }
    line.push('}');
    line
}

/// Render a scenario request line (the client side of
/// [`parse_request`]'s `scenario` arm).
pub fn scenario_request_line(req: &ScenarioRequest) -> String {
    let mut line = format!(
        "{{\"op\":\"scenario\",\"id\":{},\"scenario\":{}",
        req.id,
        jstr(&req.text)
    );
    if let Some(ms) = req.deadline_ms {
        line.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    if let Some(n) = req.max_events {
        line.push_str(&format!(",\"max_events\":{n}"));
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let req = RunRequest {
            id: 42,
            spec: Spec::Stream {
                preset: "chick".into(),
                elems: 4096,
                threads: 64,
                kernel: "add".into(),
                strategy: "serial".into(),
                single_nodelet: true,
                stack_touch_period: 4,
            },
            deadline_ms: Some(250),
            max_events: Some(1_000_000),
            chaos: None,
        };
        let line = run_request_line(&req);
        assert_eq!(parse_request(&line).unwrap(), Request::Run(req));
    }

    #[test]
    fn scenario_point_spec_survives_newlines() {
        let req = RunRequest {
            id: 1,
            spec: Spec::ScenarioPoint {
                text: "scenario s\n\nmachine chick\n\nworkload script\n  thread = 0 L0:8 C5\n"
                    .into(),
                index: 0,
            },
            deadline_ms: None,
            max_events: None,
            chaos: Some(Chaos::Panic),
        };
        let line = run_request_line(&req);
        assert!(!line.contains('\n'), "request line must stay one line");
        assert_eq!(parse_request(&line).unwrap(), Request::Run(req));
    }

    #[test]
    fn scenario_request_round_trips() {
        let req = ScenarioRequest {
            id: 77,
            text: "scenario s\n\nmachine chick\n\nworkload stream\n  elems = 64\n".into(),
            deadline_ms: Some(500),
            max_events: None,
        };
        let line = scenario_request_line(&req);
        assert!(!line.contains('\n'), "request line must stay one line");
        assert_eq!(parse_request(&line).unwrap(), Request::Scenario(req));
        assert!(parse_request(r#"{"op":"scenario","id":1}"#).is_err());
    }

    #[test]
    fn scenario_point_spec_round_trips() {
        let req = RunRequest {
            id: 8,
            spec: Spec::ScenarioPoint {
                text: "scenario s\n\nmachine chick\n\nworkload stream\n".into(),
                index: 3,
            },
            deadline_ms: None,
            max_events: Some(1_000_000),
            chaos: None,
        };
        let line = run_request_line(&req);
        assert_eq!(parse_request(&line).unwrap(), Request::Run(req));
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(
            parse_request(r#"{"op":"health","id":9}"#).unwrap(),
            Request::Health { id: 9 }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","id":11}"#).unwrap(),
            Request::Metrics { id: 11 }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown","id":10}"#).unwrap(),
            Request::Shutdown { id: 10 }
        );
        assert!(parse_request(r#"{"op":"run","id":1}"#).is_err());
        assert!(parse_request(r#"{"op":"nope","id":1}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn responses_are_valid_json_and_sliceable() {
        use emu_core::json::json_ok;
        let ok = ok_response(3, 1, true, "{\"label\":\"run\"}");
        assert!(json_ok(&ok), "{ok}");
        assert_eq!(report_slice(&ok), Some("{\"label\":\"run\"}"));

        let err = err_response(4, ErrorKind::Busy, "queue full (8 in flight)", Some(25));
        assert!(json_ok(&err), "{err}");
        assert!(err.contains("\"kind\":\"busy\""));
        assert!(err.contains("\"retry_after_ms\":25"));
        assert_eq!(report_slice(&err), None);
    }
}
