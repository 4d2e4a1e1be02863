//! The run context: the run-wide settings and sinks that engine builds,
//! sweeps and cache probes consult.
//!
//! A [`RunCtx`] holds the scheduler worker count and phase profiling,
//! the [`TelemetryConfig`] engines collect under, an optional
//! [`ReportSink`] for finished runs' reports, the sweep job count and
//! quick sizing, the result-cache directory, and the budget of each
//! engine run: a wall-clock [`Deadline`] and an event cap.
//! [`RunCtx::scope`] makes it current on the calling thread for a
//! closure, and [`RunCtx::collect`] does the same with a fresh sink
//! whose reports it returns. Two callers in one process each enter
//! their own ctx and never see each other's settings. Work moved to
//! another thread carries the ctx along: sweeps run each point in a
//! [`RunCtx::child`], and the daemon's pool enters the ctx it was
//! started in.
//!
//! An engine reads the worker count, phase profiling and telemetry
//! when it is built, and the budget each time a run starts, so a warm
//! engine reused across scopes runs under each scope's own budget.
//!
//! Outside any scope the environment snapshot applies:
//! [`RunCtx::from_env`] parses `EMU_SIM_THREADS`, `EMU_PDES_PHASES`,
//! `EMU_JOBS`, `EMU_QUICK`, `EMU_CACHE` and `EMU_CACHE_DIR` once per
//! process, on first use, and is the only reader of those variables.

use crate::fault::SimError;
use crate::metrics::RunReport;
use crate::trace::TelemetryConfig;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Result-cache store directory (relative to the working directory)
/// when `EMU_CACHE_DIR` is unset.
pub const DEFAULT_CACHE_DIR: &str = ".emu-cache";

/// A shared, append-only list of finished runs' reports. Clones share
/// the list.
#[derive(Debug, Clone, Default)]
pub struct ReportSink(Arc<Mutex<Vec<RunReport>>>);

impl ReportSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RunReport>> {
        // A poisoned lock only means a panic mid-push; the list is
        // still valid, so recover rather than propagate the panic.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one report.
    pub fn push(&self, report: RunReport) {
        self.lock().push(report);
    }

    /// Append reports in order.
    pub fn extend(&self, reports: Vec<RunReport>) {
        self.lock().extend(reports);
    }

    /// Take every report received so far, in arrival order.
    pub fn take(&self) -> Vec<RunReport> {
        std::mem::take(&mut *self.lock())
    }
}

/// A wall-clock deadline for engine runs: the instant it passes and
/// the budget, in milliseconds, that [`SimError::DeadlineExceeded`]
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// When the budget runs out.
    pub at: Instant,
    /// The budget in milliseconds.
    pub ms: u64,
}

impl Deadline {
    /// The deadline `budget` after `start`, or `None` when that instant
    /// lies beyond what the clock can represent (no deadline at all).
    pub fn new(start: Instant, budget: Duration) -> Option<Deadline> {
        Some(Deadline {
            at: start.checked_add(budget)?,
            ms: u64::try_from(budget.as_millis()).unwrap_or(u64::MAX),
        })
    }

    /// Whether the deadline has passed (reads the clock).
    pub fn passed(&self) -> bool {
        Instant::now() >= self.at
    }

    /// The error a run stopped by this deadline returns.
    pub fn error(&self) -> SimError {
        SimError::DeadlineExceeded {
            deadline_ms: self.ms,
        }
    }
}

/// Run-wide settings and sinks, entered for a scope with
/// [`RunCtx::scope`].
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Scheduler workers each engine runs on (at least 1). Results are
    /// byte-identical at any value.
    pub sim_threads: usize,
    /// Wall-clock profiling of the epoch scheduler's phases. Profiled
    /// reports carry host timings, so they are not byte-identical run to
    /// run.
    pub phase_profile: bool,
    /// Telemetry every engine built in scope collects.
    pub telemetry: TelemetryConfig,
    /// Where finished runs' reports go (`None` drops them).
    pub reports: Option<ReportSink>,
    /// Worker threads a sweep fans its points across (at least 1).
    pub jobs: usize,
    /// Quick sizing: figure workloads shrink by 8.
    pub quick: bool,
    /// Result-cache store directory; `None` means the cache is off.
    pub cache: Option<PathBuf>,
    /// Wall-clock deadline of every engine run started in scope: a run
    /// still going when it passes stops with
    /// [`SimError::DeadlineExceeded`]. `None` sets no deadline.
    pub deadline: Option<Deadline>,
    /// Dispatched-event cap of every engine run started in scope,
    /// overriding the fault plan's `max_events`; a run past it stops
    /// with [`SimError::EventCapExceeded`]. `None` and `Some(0)` defer
    /// to the plan.
    pub max_events: Option<u64>,
}

impl Default for RunCtx {
    /// A plain sequential run: one scheduler worker, one sweep job,
    /// full sizes, no telemetry, no sink, no cache, no budget.
    fn default() -> Self {
        RunCtx {
            sim_threads: 1,
            phase_profile: false,
            telemetry: TelemetryConfig::off(),
            reports: None,
            jobs: 1,
            quick: false,
            cache: None,
            deadline: None,
            max_events: None,
        }
    }
}

/// The process's environment snapshot: the ctx outside any scope, plus
/// the store directory `EMU_CACHE_DIR` names whether or not caching is
/// on (the cache tooling opens the store either way).
struct EnvSnapshot {
    ctx: RunCtx,
    cache_dir: PathBuf,
}

fn env_snapshot() -> &'static EnvSnapshot {
    static ENV: OnceLock<EnvSnapshot> = OnceLock::new();
    ENV.get_or_init(|| {
        let get = |name: &str| std::env::var(name).ok();
        EnvSnapshot {
            ctx: RunCtx::parse_env(get),
            cache_dir: cache_dir_from(get),
        }
    })
}

fn cache_dir_from(get: impl Fn(&str) -> Option<String>) -> PathBuf {
    match get("EMU_CACHE_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(DEFAULT_CACHE_DIR),
    }
}

/// The host's available parallelism (1 if unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The store directory the environment names (`EMU_CACHE_DIR`, else
/// [`DEFAULT_CACHE_DIR`]), whether or not `EMU_CACHE` turns caching on.
pub fn env_cache_dir() -> &'static Path {
    &env_snapshot().cache_dir
}

std::thread_local! {
    /// The ctx entered on this thread (`None` = the env snapshot).
    static CURRENT: RefCell<Option<RunCtx>> = const { RefCell::new(None) };
}

impl RunCtx {
    /// The environment snapshot, parsed once per process on first use.
    pub fn from_env() -> RunCtx {
        env_snapshot().ctx.clone()
    }

    /// Parse the six environment variables through `get` (a lookup such
    /// as `std::env::var(..).ok()`). Unset or malformed values fall back
    /// to the defaults:
    ///
    /// - `EMU_SIM_THREADS`: a count of at least 1, else 1
    /// - `EMU_PDES_PHASES`: on iff `1`
    /// - `EMU_JOBS`: a count of at least 1 (surrounding blanks allowed),
    ///   else the host's available parallelism
    /// - `EMU_QUICK`: on iff `1`
    /// - `EMU_CACHE`: on iff `1` or `true` (any case), storing under
    ///   `EMU_CACHE_DIR` if non-empty, else [`DEFAULT_CACHE_DIR`]
    pub fn parse_env(get: impl Fn(&str) -> Option<String>) -> RunCtx {
        let count = |v: Option<String>| v.and_then(|s| s.parse::<usize>().ok()).filter(|&n| n > 0);
        let cache_on = get("EMU_CACHE").is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
        RunCtx {
            sim_threads: count(get("EMU_SIM_THREADS")).unwrap_or(1),
            phase_profile: get("EMU_PDES_PHASES").is_some_and(|v| v == "1"),
            telemetry: TelemetryConfig::off(),
            reports: None,
            jobs: count(get("EMU_JOBS").map(|v| v.trim().to_string())).unwrap_or_else(host_cores),
            quick: get("EMU_QUICK").is_some_and(|v| v == "1"),
            cache: cache_on.then(|| cache_dir_from(&get)),
            deadline: None,
            max_events: None,
        }
    }

    /// A clone of the ctx in force on this thread.
    pub fn current() -> RunCtx {
        RunCtx::with_current(RunCtx::clone)
    }

    /// Read the ctx in force on this thread without cloning it. `f`
    /// must not enter a scope.
    pub fn with_current<R>(f: impl FnOnce(&RunCtx) -> R) -> R {
        CURRENT.with(|c| match &*c.borrow() {
            Some(ctx) => f(ctx),
            None => f(&env_snapshot().ctx),
        })
    }

    /// Run `f` with this ctx current on the calling thread, restoring
    /// the previous one afterwards (also on unwind).
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<RunCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(Some(self.clone()))));
        f()
    }

    /// Run `f` in scope of a copy of this ctx with a fresh sink, and
    /// return its value with every report its runs finished, in order.
    pub fn collect<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<RunReport>) {
        let sink = ReportSink::default();
        let ctx = RunCtx {
            reports: Some(sink.clone()),
            ..self.clone()
        };
        let out = ctx.scope(f);
        (out, sink.take())
    }

    /// A ctx for one unit of work handed to another thread: the same
    /// settings, and a sink of its own if this ctx has one, so the
    /// caller decides when (and whether) the unit's reports join its
    /// own with [`RunCtx::adopt`].
    pub fn child(&self) -> RunCtx {
        RunCtx {
            reports: self.reports.as_ref().map(|_| ReportSink::default()),
            ..self.clone()
        }
    }

    /// Append the reports a [`RunCtx::child`] collected to this ctx's
    /// sink (a no-op when this ctx has none).
    pub fn adopt(&self, child: &RunCtx) {
        if let (Some(mine), Some(theirs)) = (&self.reports, &child.reports) {
            mine.extend(theirs.take());
        }
    }

    /// Whether runs in this ctx must execute rather than be answered
    /// from the result cache: a traced, profiled or report-collecting
    /// run needs every point's artifacts.
    pub fn observed(&self) -> bool {
        self.reports.is_some() || self.telemetry.enabled() || self.phase_profile
    }
}

/// Hand a finished run's report to the current ctx's sink, if any.
pub(crate) fn offer_report(report: &RunReport) {
    RunCtx::with_current(|c| {
        if let Some(sink) = &c.reports {
            sink.push(report.clone());
        }
    });
}
