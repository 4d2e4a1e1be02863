//! Fault-tolerant experiment harness: run each sweep point under a
//! wall-clock deadline with a bounded retry policy, and keep partial
//! results when individual points fail.
//!
//! The paper's own campaign lost runs to system-software crashes and
//! hangs on the prototype; this harness is the simulation-side analogue,
//! so a single pathological configuration (a migration storm under a
//! high NACK rate, say) costs one labelled row instead of the whole
//! sweep.

use emu_core::ctx::{Deadline, RunCtx};
use emu_core::fault::SimError;
use std::time::{Duration, Instant};

/// Outcome of one sweep point, preserved row-by-row in the results.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<T> {
    /// The run completed and produced a value.
    Ok(T),
    /// The run returned a structured simulation error (after retries).
    Failed(SimError),
    /// The run exceeded the wall-clock budget (after retries).
    TimedOut(Duration),
}

impl<T> PointOutcome<T> {
    /// Short status token for CSV/status columns.
    pub fn status(&self) -> &'static str {
        match self {
            PointOutcome::Ok(_) => "ok",
            PointOutcome::Failed(_) => "error",
            PointOutcome::TimedOut(_) => "timeout",
        }
    }

    /// The value, if the point succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            PointOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// Retry/timeout policy for a sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunPolicy {
    /// Wall-clock budget per attempt.
    pub timeout: Duration,
    /// Attempts per point (1 = no retry). Deterministic simulations only
    /// benefit from retries on transient errors, i.e. timeouts on a
    /// loaded host — a structured `SimError` is replayed identically, so
    /// it is not retried.
    pub attempts: u32,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            timeout: Duration::from_secs(120),
            attempts: 2,
        }
    }
}

/// Run `f` under `policy`: each attempt inline, in a child of the
/// caller's [`RunCtx`] ([`RunCtx::child`]) whose deadline lies
/// `policy.timeout` after the attempt starts. Every engine run the
/// attempt starts stops with [`SimError::DeadlineExceeded`] once that
/// deadline passes; host-side work in `f` between runs is not cut
/// short. An attempt that ends in `DeadlineExceeded` is retried; any
/// other result ends the point, since deterministic errors replay
/// identically.
///
/// Telemetry: only the attempt that decides the point (the one whose
/// result is returned) has its reports appended to the caller's sink,
/// so the `runs` array under `--report-json` matches the table's rows,
/// in sweep order, at any `-j`.
pub fn run_point<T, F>(policy: RunPolicy, f: F) -> PointOutcome<T>
where
    F: Fn() -> Result<T, SimError>,
{
    let parent = RunCtx::current();
    for _ in 0..policy.attempts.max(1) {
        let ctx = RunCtx {
            deadline: Deadline::new(Instant::now(), policy.timeout),
            ..parent.child()
        };
        let out = match ctx.scope(&f) {
            Err(SimError::DeadlineExceeded { .. }) => continue,
            Ok(v) => PointOutcome::Ok(v),
            Err(e) => PointOutcome::Failed(e),
        };
        parent.adopt(&ctx);
        return out;
    }
    PointOutcome::TimedOut(policy.timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_point_passes_value_through() {
        let r = run_point(RunPolicy::default(), || Ok(42u64));
        assert_eq!(r, PointOutcome::Ok(42));
        assert_eq!(r.status(), "ok");
    }

    #[test]
    fn sim_error_is_not_retried() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let r: PointOutcome<u64> = run_point(
            RunPolicy {
                attempts: 3,
                ..Default::default()
            },
            || {
                CALLS.fetch_add(1, Ordering::SeqCst);
                Err(SimError::AllNodeletsDead)
            },
        );
        assert_eq!(r, PointOutcome::Failed(SimError::AllNodeletsDead));
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "errors replay; no retry");
    }

    #[test]
    fn hang_times_out_and_retries() {
        use emu_core::presets;
        use membench::stream::{run_stream_emu, EmuStreamConfig};
        use std::sync::atomic::{AtomicU32, Ordering};
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let r = run_point(
            RunPolicy {
                timeout: Duration::from_millis(1),
                attempts: 2,
            },
            || {
                TRIES.fetch_add(1, Ordering::SeqCst);
                // A STREAM of 2^18 elements runs far longer than 1 ms.
                let sc = EmuStreamConfig {
                    total_elems: 1 << 18,
                    nthreads: 64,
                    ..Default::default()
                };
                run_stream_emu(&presets::chick_prototype(), &sc).map(|r| r.report.events)
            },
        );
        assert!(matches!(r, PointOutcome::TimedOut(_)));
        assert_eq!(r.status(), "timeout");
        assert_eq!(TRIES.load(Ordering::SeqCst), 2, "timeouts retry");
    }
}
