//! Request execution on a (possibly warm) engine slot.
//!
//! Each pool worker owns one [`WarmSlot`]. A stream request resolves to
//! a [`MachineConfig`] plus a STREAM config; if the slot holds an
//! engine built for an identical config it is [`Engine::reset`] and
//! reused (`warm`), otherwise a fresh engine is built (`cold`). Warm
//! reuse is byte-identical to cold by the `reset_reuse` regression
//! suite in emu-core. Either way the run goes through
//! [`scenario::exec::execute_stream_on`], so its checksum is verified
//! and its report audited before it leaves the daemon. A scenario point
//! runs on engines of its own and leaves the slot as it found it.
//!
//! Any failed run discards the slot's engine: a partially drained or
//! faulted engine is never reused.

use crate::proto::{run_request_line, ErrorKind, RunRequest, Spec};
use emu_core::json::report_json;
use emu_core::prelude::*;
use membench::stream::{EmuStreamConfig, StreamKernel};
use scenario::exec::execute_stream_on;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A worker's persistent engine, keyed by the config that built it.
#[derive(Default)]
pub struct WarmSlot(Option<(String, Engine)>);

impl WarmSlot {
    /// An empty (cold) slot.
    pub fn new() -> Self {
        WarmSlot(None)
    }

    /// The config key (see [`spec_key`]) of the parked engine, if any:
    /// what the pool advertises to its sticky router.
    pub fn key(&self) -> Option<&str> {
        self.0.as_ref().map(|(k, _)| k.as_str())
    }
}

/// A typed execution failure, convertible to a wire error.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Wire category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ExecError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            kind,
            message: message.into(),
        }
    }
}

/// A successful execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The exact [`report_json`] document for the run, labeled `"run"`
    /// (for a scenario point, the point outcome's JSON form).
    pub report_json: String,
    /// Whether a warm engine was reused (vs built cold).
    pub warm: bool,
}

/// The warm-slot key a spec resolves to: the debug rendering of its
/// [`MachineConfig`]. Two requests with the same key can share a warm
/// engine, which is what the pool's sticky router matches on. `None`
/// for a scenario point (it never runs on the warm slot) and when the
/// spec does not resolve (the run would fail as `proto` anyway, so
/// routing it anywhere is fine).
pub fn spec_key(spec: &Spec) -> Option<String> {
    if let Spec::ScenarioPoint { .. } = spec {
        return None;
    }
    let Ok(Plan::Stream(cfg, _)) = resolve(spec) else {
        return None;
    };
    Some(format!("{cfg:?}"))
}

enum Plan {
    Stream(MachineConfig, EmuStreamConfig),
    ScenarioPoint(Box<scenario::Scenario>, scenario::Point),
}

/// Everything the pool needs to cache one run: the content digest, a
/// display label, and the self-contained re-run recipe consumed by
/// `simctl cache verify`.
pub struct CachePlan {
    /// Content digest the report is stored under.
    pub digest: String,
    /// Human-readable label for `cache stats`.
    pub label: String,
    /// Re-run recipe: the request's own wire line
    /// ([`run_request_line`], read back by
    /// [`crate::proto::parse_request`]) with id 0 and no budgets.
    pub recipe: String,
}

/// The cache plan for a run request, or `None` when the request is not
/// cacheable: cache not [`runcache::active`], unresolvable spec, or a
/// scenario point (those go through the scenario crate's own cache).
///
/// The digest hashes fully-resolved content — the resolved machine and
/// stream configs — so formatting differences hash identically and a
/// preset definition change lands on a new key. Event/deadline budgets
/// are excluded: they do not alter the report of a run that completes.
pub fn cache_plan(spec: &Spec) -> Option<CachePlan> {
    if !runcache::active() {
        return None;
    }
    let Spec::Stream {
        preset,
        elems,
        threads,
        ..
    } = spec
    else {
        return None;
    };
    let Ok(Plan::Stream(cfg, sc)) = resolve(spec) else {
        return None;
    };
    let mut k = runcache::Key::new("simd-stream");
    k.record_debug("machine", &cfg);
    k.record_debug("stream", &sc);
    Some(CachePlan {
        digest: k.digest(),
        label: format!("stream {preset} {elems}x{threads}"),
        recipe: run_request_line(&RunRequest {
            id: 0,
            spec: spec.clone(),
            deadline_ms: None,
            max_events: None,
            chaos: None,
        }),
    })
}

fn resolve(spec: &Spec) -> Result<Plan, ExecError> {
    let proto = |e| ExecError::new(ErrorKind::Proto, e);
    match spec {
        Spec::Stream {
            preset,
            elems,
            threads,
            kernel,
            strategy,
            single_nodelet,
            stack_touch_period,
        } => {
            let cfg = presets::by_name(preset).map_err(proto)?;
            if *elems == 0 || *threads == 0 {
                return Err(proto("stream spec needs elems > 0 and threads > 0".into()));
            }
            let sc = EmuStreamConfig {
                total_elems: *elems,
                nthreads: *threads,
                strategy: SpawnStrategy::from_name(strategy).map_err(proto)?,
                kernel: StreamKernel::from_name(kernel).map_err(proto)?,
                single_nodelet: *single_nodelet,
                stack_touch_period: *stack_touch_period,
            };
            Ok(Plan::Stream(cfg, sc))
        }
        Spec::ScenarioPoint { text, index } => {
            let s = scenario::parse(text).map_err(|e| proto(format!("bad scenario: {e}")))?;
            let mut points = scenario::resolve(&s).map_err(proto)?;
            if *index >= points.len() {
                return Err(proto(format!(
                    "scenario {:?} has {} points; index {index} is out of range",
                    s.name,
                    points.len()
                )));
            }
            Ok(Plan::ScenarioPoint(Box::new(s), points.swap_remove(*index)))
        }
    }
}

fn sim_error(e: SimError) -> ExecError {
    let kind = match e {
        SimError::DeadlineExceeded { .. } => ErrorKind::Deadline,
        SimError::EventCapExceeded { .. } => ErrorKind::EventCap,
        _ => ErrorKind::Sim,
    };
    ExecError::new(kind, e.to_string())
}

/// Execute one run request on `slot`.
///
/// `cancel` is the watchdog flag armed by the pool's deadline timer;
/// the engine polls it cooperatively and raises
/// [`SimError::DeadlineExceeded`] when it trips. On any error the
/// slot is left empty; a stream run that completes and passes its
/// audit parks its engine for the next request with a matching config.
pub fn execute(
    slot: &mut WarmSlot,
    req: &RunRequest,
    cancel: Option<(Arc<AtomicBool>, u64)>,
) -> Result<ExecOutcome, ExecError> {
    let parked = slot.0.take();
    let (cfg, sc) = match resolve(&req.spec)? {
        // A scenario point runs through the scenario crate's own runner
        // (which builds the workload's engines, audits every report,
        // and verifies the result against the functional oracle), so
        // the parked engine stays as it was. Deadline and event budgets
        // do not reach inside `run_point`; problems travel back as data
        // in the outcome document so the server can evaluate the
        // scenario's expect block over every point (see `crate::scn`).
        Plan::ScenarioPoint(s, point) => {
            slot.0 = parked;
            return Ok(ExecOutcome {
                report_json: scenario::run_point(&s, &point).to_json(),
                warm: false,
            });
        }
        Plan::Stream(cfg, sc) => (cfg, sc),
    };
    let key = format!("{cfg:?}");

    // Warm path: identical config => reset and reuse. Anything else is
    // a cold build (the old engine, if any, is simply replaced).
    let (mut engine, warm) = match parked {
        Some((k, mut e)) if k == key => {
            e.reset();
            (e, true)
        }
        _ => (Engine::new(cfg.clone()).map_err(sim_error)?, false),
    };

    engine.set_event_cap(req.max_events);
    if let Some((flag, ms)) = cancel {
        engine.set_cancel(flag, ms);
    }

    // A finished engine is drained but structurally sound; vouch for
    // its report only if the checksum and audit pass, then park the
    // engine for reuse.
    let x = execute_stream_on(&mut engine, &sc).map_err(sim_error)?;
    if !x.problems.is_empty() {
        return Err(ExecError::new(ErrorKind::Audit, x.problems.join("; ")));
    }
    engine.clear_cancel();
    slot.0 = Some((key, engine));

    Ok(ExecOutcome {
        report_json: report_json("run", &x.reports[0]),
        warm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Chaos;

    fn stream_req(id: u64, elems: u64) -> RunRequest {
        RunRequest {
            id,
            spec: Spec::Stream {
                preset: "chick".into(),
                elems,
                threads: 16,
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

    #[test]
    fn warm_reuse_is_byte_identical_to_cold() {
        let mut slot = WarmSlot::new();
        // First request builds cold; dirty the slot with a different size.
        let first = execute(&mut slot, &stream_req(1, 1024), None).unwrap();
        assert!(!first.warm);
        let warm = execute(&mut slot, &stream_req(2, 512), None).unwrap();
        assert!(warm.warm);

        let mut cold_slot = WarmSlot::new();
        let cold = execute(&mut cold_slot, &stream_req(3, 512), None).unwrap();
        assert_eq!(warm.report_json, cold.report_json);
    }

    #[test]
    fn proto_errors_are_typed_and_empty_the_slot() {
        let mut slot = WarmSlot::new();
        execute(&mut slot, &stream_req(1, 512), None).unwrap();
        let mut bad = stream_req(2, 0);
        bad.spec = Spec::ScenarioPoint {
            text: "scenario s\n\nmachine chick\n  nodes = 0\n\nworkload stream\n".into(),
            index: 0,
        };
        let e = execute(&mut slot, &bad, None).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Proto);
        assert_eq!(slot.key(), None);

        let mut req = stream_req(2, 1024);
        req.spec = Spec::Stream {
            preset: "nope".into(),
            elems: 1,
            threads: 1,
            kernel: "add".into(),
            strategy: "serial".into(),
            single_nodelet: true,
            stack_touch_period: 0,
        };
        assert_eq!(
            execute(&mut slot, &req, None).unwrap_err().kind,
            ErrorKind::Proto
        );
    }

    #[test]
    fn event_cap_and_deadline_map_to_typed_errors_and_recover() {
        let mut slot = WarmSlot::new();
        let mut req = stream_req(1, 2048);
        req.max_events = Some(50);
        let e = execute(&mut slot, &req, None).unwrap_err();
        assert_eq!(e.kind, ErrorKind::EventCap);

        // The failed run discarded the engine; the next run is cold and
        // still byte-identical to a fresh slot.
        let ok = execute(&mut slot, &stream_req(2, 512), None).unwrap();
        assert!(!ok.warm);

        let tripped = Arc::new(AtomicBool::new(true));
        let e = execute(&mut slot, &stream_req(3, 2048), Some((tripped, 9))).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Deadline);

        let mut fresh = WarmSlot::new();
        let cold = execute(&mut fresh, &stream_req(4, 512), None).unwrap();
        assert_eq!(ok.report_json, cold.report_json);
    }

    #[test]
    fn chaos_marker_is_inert_here() {
        // The panic directive is the pool's job; execute() ignores it.
        let mut slot = WarmSlot::new();
        let mut req = stream_req(1, 256);
        req.chaos = Some(Chaos::Panic);
        assert!(execute(&mut slot, &req, None).is_ok());
    }
}
