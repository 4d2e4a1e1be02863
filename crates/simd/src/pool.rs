//! The warm worker pool: persistent per-thread engines, admission
//! control, and workers that recover from a panic in place.
//!
//! Requests are routed *sticky-first*: a request whose config matches
//! an engine some worker already has warm goes to that worker (a reset
//! is ~free; a cold build is not), and everything else falls back to
//! round-robin over the per-worker mpsc queues. Each worker owns its
//! queue and runs every job under `catch_unwind`: a job that panics is
//! answered on its behalf, the worker discards its (possibly corrupt)
//! warm engine, and the same thread goes back to its queue, so nothing
//! queued behind the panic is lost. Every accepted request gets
//! exactly one response — success, typed failure, or that panic
//! notice.
//!
//! A request's deadline counts from when its worker picks it up; the
//! engine checks it itself ([`exec::execute`]), so the pool runs no
//! timer.
//!
//! The pool's counters are one table, [`Stat`]. Each transition is one
//! [`PoolStats`] bump that advances both the pool's own count and its
//! series in the process-global [`emu_core::obs`] registry, so the
//! live views (`{"op":"metrics"}`, the Prometheus exporter, `simctl
//! top`) agree with the pool's accounting by construction. Next to
//! them the registry holds queue-wait/execute latency histograms and
//! per-worker busy counters the shutdown summary can't express.

use crate::exec::{self, WarmSlot};
use crate::proto::{cached_response, err_response, ok_response, Chaos, ErrorKind, RunRequest};
use emu_core::ctx::RunCtx;
use emu_core::obs;
use std::fmt::{self, Write};
use std::ops::Index;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Declares the pool's counters once: a [`Stat`] variant, its doc, and
/// its name per line.
macro_rules! stats {
    ($($(#[doc = $doc:literal])+ $stat:ident = $name:literal,)+) => {
        /// One monotonic pool counter. Its name is its key in
        /// [`StatsSnapshot::json`] and, as `simd_pool_<name>_total`,
        /// its series in the [`emu_core::obs`] registry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stat {
            $($(#[doc = $doc])+ $stat,)+
        }

        impl Stat {
            /// Every counter, in [`StatsSnapshot::json`] key order.
            const ALL: &'static [Stat] = &[$(Stat::$stat),+];

            /// The counter's name.
            fn name(self) -> &'static str {
                match self {
                    $(Stat::$stat => $name,)+
                }
            }
        }
    };
}

stats! {
    /// Requests offered to [`Pool::submit`].
    Submitted = "submitted",
    /// Requests admitted into a worker queue.
    Accepted = "accepted",
    /// Rejections because the in-flight cap was reached.
    RejectedBusy = "rejected_busy",
    /// Rejections because the pool was draining.
    RejectedDraining = "rejected_draining",
    // The terminal outcomes, `CompletedOk` through `FailedPanic`, stay
    // contiguous: `StatsSnapshot::finished` sums that range.
    /// Runs that finished and passed the audit.
    CompletedOk = "completed_ok",
    /// Failures: bad spec after admission.
    FailedProto = "failed_proto",
    /// Failures: the simulation faulted.
    FailedSim = "failed_sim",
    /// Failures: report audit or self-check mismatch.
    FailedAudit = "failed_audit",
    /// Failures: event budget exhausted.
    FailedEventCap = "failed_event_cap",
    /// Failures: wall-clock deadline exceeded.
    FailedDeadline = "failed_deadline",
    /// Failures: the worker panicked.
    FailedPanic = "failed_panic",
    /// Successful runs served by a reset warm engine.
    WarmHits = "warm_hits",
    /// Successful runs that built a fresh engine.
    ColdBuilds = "cold_builds",
    /// Successful runs answered from the content-addressed result
    /// cache at admission, without touching a worker.
    ServedFromCache = "served_from_cache",
    /// Worker restarts after a panic: the worker discarded its warm
    /// engine and went back to its queue on the same thread. Counted
    /// before the panic reply is sent.
    Respawns = "respawns",
    /// Warm results re-validated against a cold run.
    SelfcheckRuns = "selfcheck_runs",
    /// Self-check byte mismatches (must stay 0).
    SelfcheckFailures = "selfcheck_failures",
    /// Requests routed to the worker already warm on their config
    /// (each one is a reset the round-robin router would have wasted).
    RoutedSticky = "routed_sticky",
}

const STATS: usize = Stat::ALL.len();

/// One worker's live series: the pool-wide latency histograms, and its
/// own busy time and jobs served.
struct WorkerObs {
    queue_wait: &'static obs::Histogram,
    execute: &'static obs::Histogram,
    busy_ns: &'static obs::Counter,
    jobs: &'static obs::Counter,
}

impl WorkerObs {
    fn new(idx: usize) -> WorkerObs {
        WorkerObs {
            queue_wait: obs::histogram("simd_pool_queue_wait_ns"),
            execute: obs::histogram("simd_pool_execute_ns"),
            busy_ns: obs::counter(format!("simd_worker_busy_ns_total{{worker=\"{idx}\"}}")),
            jobs: obs::counter(format!("simd_worker_jobs_total{{worker=\"{idx}\"}}")),
        }
    }
}

/// Pool sizing and checking.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (each owns one warm engine slot).
    pub workers: usize,
    /// Admission cap: maximum requests in flight (queued + running).
    pub queue_cap: usize,
    /// Re-run every warm result cold and compare report bytes.
    pub selfcheck: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            queue_cap: 8,
            selfcheck: false,
        }
    }
}

/// The pool's counters: one atomic per [`Stat`] plus the requests in
/// flight, each mirrored into its registry series. All transitions are
/// recorded so the totals reconcile exactly once the pool has quiesced
/// (see [`PoolStats::reconcile`]).
pub struct PoolStats {
    counts: [AtomicU64; STATS],
    in_flight: AtomicU64,
    series: [&'static obs::Counter; STATS],
    in_flight_gauge: &'static obs::Gauge,
}

/// A plain-integer copy of [`PoolStats`] taken at one instant, read by
/// counter: `snapshot[Stat::WarmHits]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    counts: [u64; STATS],
    /// Requests admitted but not yet answered.
    pub in_flight: u64,
}

impl Index<Stat> for StatsSnapshot {
    type Output = u64;

    fn index(&self, stat: Stat) -> &u64 {
        &self.counts[stat as usize]
    }
}

/// Prints as [`StatsSnapshot::json`], so a failed assertion names
/// every counter.
impl fmt::Debug for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.json())
    }
}

impl StatsSnapshot {
    /// Sum of all terminal outcomes for admitted requests: the counters
    /// declared from `CompletedOk` through `FailedPanic`.
    pub fn finished(&self) -> u64 {
        self.counts[Stat::CompletedOk as usize..=Stat::FailedPanic as usize]
            .iter()
            .sum()
    }

    /// Serialize as a JSON object: every [`Stat`] by name in
    /// declaration order, then `in_flight`.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for &stat in Stat::ALL {
            let _ = write!(out, "\"{}\":{},", stat.name(), self[stat]);
        }
        let _ = write!(out, "\"in_flight\":{}}}", self.in_flight);
        out
    }
}

impl PoolStats {
    /// Zeroed counters whose registry series are all registered, so a
    /// scrape lists every series before the first request.
    fn new() -> PoolStats {
        PoolStats {
            counts: Default::default(),
            in_flight: AtomicU64::new(0),
            series: std::array::from_fn(|i| {
                obs::counter(format!("simd_pool_{}_total", Stat::ALL[i].name()))
            }),
            in_flight_gauge: obs::gauge("simd_pool_in_flight"),
        }
    }

    /// Record one transition: the pool's count and its registry series
    /// advance together.
    fn bump(&self, stat: Stat) {
        self.counts[stat as usize].fetch_add(1, SeqCst);
        self.series[stat as usize].inc();
    }

    /// Move the in-flight count and its `simd_pool_in_flight` gauge,
    /// the one place either changes: `Some(cap)` takes a slot while
    /// fewer than `cap` are taken (`Err` carries the count that refused
    /// it), `None` gives one back.
    fn step_in_flight(&self, cap: Option<u64>) -> Result<(), u64> {
        let delta = match cap {
            Some(cap) => {
                self.in_flight
                    .fetch_update(SeqCst, SeqCst, |n| (n < cap).then_some(n + 1))?;
                1
            }
            None => {
                self.in_flight.fetch_sub(1, SeqCst);
                -1
            }
        };
        self.in_flight_gauge.add(delta);
        Ok(())
    }

    /// Copy every counter. Individual loads are atomic but the snapshot
    /// as a whole is not; reconcile only a quiesced pool.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counts: self.counts.each_ref().map(|c| c.load(SeqCst)),
            in_flight: self.in_flight.load(SeqCst),
        }
    }

    /// Conservation checks for a quiesced pool (no requests in flight,
    /// no submissions racing). Returns one message per violated law.
    pub fn reconcile(&self) -> Vec<String> {
        use Stat::*;
        let s = self.snapshot();
        let mut out = Vec::new();
        if s[Submitted] != s[Accepted] + s[RejectedBusy] + s[RejectedDraining] {
            out.push(format!(
                "admission leak: submitted {} != accepted {} + rejected_busy {} + rejected_draining {}",
                s[Submitted], s[Accepted], s[RejectedBusy], s[RejectedDraining]
            ));
        }
        if s[Accepted] != s.finished() + s.in_flight {
            out.push(format!(
                "response leak: accepted {} != finished {} + in_flight {}",
                s[Accepted],
                s.finished(),
                s.in_flight
            ));
        }
        if s[CompletedOk] != s[WarmHits] + s[ColdBuilds] + s[ServedFromCache] {
            out.push(format!(
                "engine accounting leak: completed_ok {} != warm_hits {} + cold_builds {} \
                 + served_from_cache {}",
                s[CompletedOk], s[WarmHits], s[ColdBuilds], s[ServedFromCache]
            ));
        }
        if s[SelfcheckFailures] > 0 {
            out.push(format!(
                "warm reuse corruption: {} self-check mismatches",
                s[SelfcheckFailures]
            ));
        }
        if s[RoutedSticky] > s[Accepted] {
            out.push(format!(
                "routing overcount: routed_sticky {} exceeds accepted {}",
                s[RoutedSticky], s[Accepted]
            ));
        }
        out
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The in-flight cap was reached; retry after backoff.
    Busy {
        /// Requests in flight at rejection time.
        in_flight: u64,
    },
    /// The pool is draining and accepts no new work.
    Draining,
}

/// One admitted unit of work.
struct RunJob {
    req: RunRequest,
    resp: mpsc::Sender<String>,
    /// Admission time, for the queue-wait latency histogram.
    queued_at: Instant,
}

/// The shared state every worker can see.
struct Shared {
    stats: PoolStats,
    cfg: PoolConfig,
    /// The config key each worker's engine is currently warm on
    /// (`None` after a failure or before the first run). Written by
    /// the owning worker, read by the submit-side sticky router.
    warm_keys: Vec<Mutex<Option<String>>>,
    /// The run context the pool was started in: every worker, and the
    /// admission-side cache probe, run in it.
    ctx: RunCtx,
}

/// The resident worker pool.
pub struct Pool {
    senders: Vec<mpsc::Sender<RunJob>>,
    next: AtomicUsize,
    draining: AtomicBool,
    shared: Arc<Shared>,
}

impl Pool {
    /// Start `cfg.workers` warm workers. The workers (and
    /// [`Pool::submit`]'s cache probe) run in the caller's current
    /// [`RunCtx`]; they exit once the pool is dropped.
    pub fn start(cfg: PoolConfig) -> Pool {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            stats: PoolStats::new(),
            cfg,
            warm_keys: (0..workers).map(|_| Mutex::new(None)).collect(),
            ctx: RunCtx::current(),
        });
        let senders = (0..workers)
            .map(|idx| {
                let (tx, jobs) = mpsc::channel();
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("simd-worker-{idx}"))
                    .spawn(move || shared.ctx.scope(|| worker_main(idx, jobs, &shared)))
                    .expect("spawn worker");
                tx
            })
            .collect();
        Pool {
            senders,
            next: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shared,
        }
    }

    /// The pool's counters.
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Whether the pool has begun draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(SeqCst)
    }

    /// Offer a run for admission. On success exactly one response line
    /// will eventually arrive on `resp`.
    pub fn submit(&self, req: RunRequest, resp: mpsc::Sender<String>) -> Result<(), Reject> {
        let stats = self.stats();
        stats.bump(Stat::Submitted);
        if self.draining.load(SeqCst) {
            stats.bump(Stat::RejectedDraining);
            return Err(Reject::Draining);
        }
        // Result-cache short circuit: a request whose digest is already
        // stored is answered here, before it ever counts against the
        // in-flight cap or reaches a worker. `cache_plan` is `None`
        // unless the cache is enabled and no telemetry is armed, so the
        // probe is inert by default; chaos requests always dispatch so
        // fault injection is never masked by a stale hit.
        let cached = req.chaos.is_none().then(|| {
            self.shared.ctx.scope(|| {
                exec::cache_plan(&req.spec).and_then(|plan| runcache::lookup(&plan.digest))
            })
        });
        if let Some(entry) = cached.flatten() {
            stats.bump(Stat::Accepted);
            stats.bump(Stat::CompletedOk);
            stats.bump(Stat::ServedFromCache);
            let _ = resp.send(cached_response(req.id, &entry.payload));
            return Ok(());
        }
        let cap = self.shared.cfg.queue_cap.max(1) as u64;
        if let Err(in_flight) = stats.step_in_flight(Some(cap)) {
            stats.bump(Stat::RejectedBusy);
            return Err(Reject::Busy { in_flight });
        }
        stats.bump(Stat::Accepted);
        let w = self.pick_worker(&req);
        self.senders[w]
            .send(RunJob {
                req,
                resp,
                queued_at: Instant::now(),
            })
            .expect("workers serve until the pool is dropped");
        Ok(())
    }

    /// Sticky-first routing: prefer the worker whose parked engine is
    /// already warm on this request's config (a reset instead of a
    /// cold build), else fall back to round-robin. The scan is over
    /// `workers` tiny mutexes held for a comparison each — contention
    /// is bounded by the admission cap.
    fn pick_worker(&self, req: &RunRequest) -> usize {
        if let Some(key) = exec::spec_key(&req.spec) {
            for (i, slot) in self.shared.warm_keys.iter().enumerate() {
                let warm = slot.lock().expect("warm key lock never poisoned");
                if warm.as_deref() == Some(key.as_str()) {
                    self.stats().bump(Stat::RoutedSticky);
                    return i;
                }
            }
        }
        self.next.fetch_add(1, SeqCst) % self.senders.len()
    }

    /// Stop admitting and wait up to `timeout` for in-flight work.
    /// Returns `true` if the pool fully quiesced within the budget.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.draining.store(true, SeqCst);
        let in_flight = || self.stats().in_flight.load(SeqCst);
        let start = Instant::now();
        while in_flight() > 0 && start.elapsed() < timeout {
            thread::sleep(Duration::from_millis(5));
        }
        in_flight() == 0
    }
}

/// The error message a job whose worker panicked is answered with.
const PANIC_REPLY: &str = "worker panicked; engine discarded, worker respawned";

/// Serve `jobs` until the pool drops its sender. A job that panics is
/// answered here, and the worker recovers in place: it discards its
/// warm engine (possibly corrupt mid-panic) and takes the next job.
fn worker_main(idx: usize, jobs: mpsc::Receiver<RunJob>, shared: &Shared) {
    let mut slot = WarmSlot::new();
    let wobs = WorkerObs::new(idx);
    for job in jobs {
        let run = catch_unwind(AssertUnwindSafe(|| {
            handle_run(idx, &mut slot, &job, shared, &wobs)
        }));
        let (outcome, line) = run.unwrap_or_else(|_| {
            slot = WarmSlot::new();
            shared.stats.bump(Stat::Respawns);
            let line = err_response(job.req.id, ErrorKind::Panic, PANIC_REPLY, None);
            (Stat::FailedPanic, line)
        });
        // Advertise the engine the slot now holds (none after a failure;
        // a scenario point leaves it as it was) before answering, so a
        // client that submits its next request after reading this
        // response is routed sticky.
        *shared.warm_keys[idx]
            .lock()
            .expect("warm key lock never poisoned") = slot.key().map(str::to_string);
        shared.stats.bump(outcome);
        let _ = shared.stats.step_in_flight(None);
        let _ = job.resp.send(line);
    }
}

/// Run one job on worker `idx`'s engine: the outcome to count and the
/// reply line.
fn handle_run(
    idx: usize,
    slot: &mut WarmSlot,
    job: &RunJob,
    shared: &Shared,
    wobs: &WorkerObs,
) -> (Stat, String) {
    // The request's deadline counts from here.
    let started = Instant::now();
    let req = &job.req;
    let id = req.id;
    // Latency histograms honor the global obs switch; counters are one
    // relaxed atomic and stay on so the registry always reconciles
    // against `PoolStats`.
    let record_latency = obs::enabled();
    if record_latency {
        wobs.queue_wait
            .record(started.duration_since(job.queued_at).as_nanos() as u64);
    }

    if req.chaos == Some(Chaos::Panic) {
        panic!("chaos: poison request {id}");
    }

    let result = exec::execute(slot, req, Some(started));
    if record_latency {
        let busy = started.elapsed().as_nanos() as u64;
        wobs.execute.record(busy);
        wobs.busy_ns.add(busy);
        wobs.jobs.inc();
    }
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            let outcome = match e.kind {
                ErrorKind::Proto => Stat::FailedProto,
                ErrorKind::Deadline => Stat::FailedDeadline,
                ErrorKind::EventCap => Stat::FailedEventCap,
                ErrorKind::Audit => Stat::FailedAudit,
                _ => Stat::FailedSim,
            };
            return (outcome, err_response(id, e.kind, &e.message, None));
        }
    };
    let stats = &shared.stats;
    if out.warm && shared.cfg.selfcheck {
        stats.bump(Stat::SelfcheckRuns);
        let cold = exec::execute(&mut WarmSlot::new(), req, None);
        if cold.map(|c| c.report_json) != Ok(out.report_json.clone()) {
            stats.bump(Stat::SelfcheckFailures);
            // A warm engine that diverged from a cold run is never
            // reused.
            *slot = WarmSlot::new();
            let line = err_response(
                id,
                ErrorKind::Audit,
                "warm self-check diverged from cold run",
                None,
            );
            return (Stat::FailedAudit, line);
        }
    }
    stats.bump(if out.warm {
        Stat::WarmHits
    } else {
        Stat::ColdBuilds
    });
    // Publish for future `submit` probes. No-op unless the cache is on
    // and the run is cacheable (`cache_plan`).
    if req.chaos.is_none() {
        if let Some(plan) = exec::cache_plan(&req.spec) {
            runcache::publish(
                &plan.digest,
                &runcache::Entry {
                    kind: "simd-run".into(),
                    label: plan.label,
                    payload: out.report_json.clone(),
                    recipe: Some(plan.recipe),
                },
            );
        }
    }
    (
        Stat::CompletedOk,
        ok_response(id, idx, out.warm, &out.report_json),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Spec;

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

    fn submit_and_wait(pool: &Pool, req: RunRequest) -> String {
        let (tx, rx) = mpsc::channel();
        pool.submit(req, tx).expect("admitted");
        rx.recv().expect("one response per accepted request")
    }

    #[test]
    fn round_robin_pool_serves_and_reconciles() {
        let pool = Pool::start(PoolConfig {
            workers: 2,
            queue_cap: 8,
            selfcheck: true,
        });
        let mut responses = Vec::new();
        for i in 0..6 {
            responses.push(submit_and_wait(&pool, stream_req(i, 512)));
        }
        for (i, r) in responses.iter().enumerate() {
            assert!(r.contains("\"ok\":true"), "request {i}: {r}");
        }
        // With 2 workers and identical specs, later requests hit warm
        // engines; every response carries the same report bytes.
        let first = crate::proto::report_slice(&responses[0]).unwrap();
        for r in &responses[1..] {
            assert_eq!(crate::proto::report_slice(r).unwrap(), first);
        }
        assert!(pool.drain(Duration::from_secs(10)));
        let s = pool.stats().snapshot();
        assert_eq!(s[Stat::CompletedOk], 6);
        assert!(s[Stat::WarmHits] >= 4, "expected warm reuse, got {s:?}");
        assert_eq!(s[Stat::SelfcheckFailures], 0);
        assert!(
            pool.stats().reconcile().is_empty(),
            "{:?}",
            pool.stats().reconcile()
        );
    }

    #[test]
    fn sticky_routing_reuses_the_warm_worker() {
        let pool = Pool::start(PoolConfig {
            workers: 2,
            queue_cap: 8,
            ..PoolConfig::default()
        });
        // Warm both workers on different configs: the first request has
        // no warm match (round-robin -> worker 0), the second uses a
        // different preset (no match -> worker 1).
        let a = submit_and_wait(&pool, stream_req(1, 512));
        assert!(a.contains("\"ok\":true"), "{a}");
        let mut other = stream_req(2, 512);
        other.spec = Spec::Stream {
            preset: "chick-sim".into(),
            elems: 512,
            threads: 16,
            kernel: "add".into(),
            strategy: "serial".into(),
            single_nodelet: true,
            stack_touch_period: 4,
        };
        let b = submit_and_wait(&pool, other);
        assert!(b.contains("\"ok\":true"), "{b}");
        // Every further "chick" request must ride worker 0's warm
        // engine: sticky routing beats round-robin, which would have
        // bounced half of them onto worker 1 for cold builds.
        for i in 0..4 {
            let r = submit_and_wait(&pool, stream_req(10 + i, 512));
            assert!(r.contains("\"warm\":true"), "request {i} not warm: {r}");
        }
        assert!(pool.drain(Duration::from_secs(10)));
        let s = pool.stats().snapshot();
        assert_eq!(s[Stat::CompletedOk], 6);
        assert_eq!(
            s[Stat::ColdBuilds],
            2,
            "one cold build per distinct config: {s:?}"
        );
        assert_eq!(s[Stat::WarmHits], 4);
        assert_eq!(s[Stat::RoutedSticky], 4, "{s:?}");
        assert!(pool.stats().reconcile().is_empty());
    }

    #[test]
    fn a_scenario_point_keeps_the_workers_warm_engine_advertised() {
        let pool = Pool::start(PoolConfig {
            workers: 2,
            queue_cap: 8,
            ..PoolConfig::default()
        });
        let stream = |id, preset: &str| {
            let mut r = stream_req(id, 512);
            if let Spec::Stream { preset: p, .. } = &mut r.spec {
                *p = preset.into();
            }
            r
        };
        let mut point = stream_req(3, 0);
        point.spec = Spec::ScenarioPoint {
            text: "scenario p\n\nmachine full-speed\n\nworkload stream\n  elems = 64\n".into(),
            index: 0,
        };
        let replies: Vec<String> = [
            stream(1, "chick"),
            stream(2, "chick-sim"),
            point,
            stream(4, "chick"),
            stream(5, "full-speed"),
        ]
        .into_iter()
        .map(|r| submit_and_wait(&pool, r))
        .collect();
        for r in &replies {
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        // The point ran on worker 0 next to its parked `chick` engine,
        // which must still be advertised and reused.
        assert!(replies[3].contains("\"warm\":true"), "{}", replies[3]);
        assert!(pool.drain(Duration::from_secs(10)));
        let s = pool.stats().snapshot();
        assert!(s[Stat::RoutedSticky] <= s[Stat::WarmHits], "{s:?}");
        assert!(pool.stats().reconcile().is_empty());
    }

    #[test]
    fn panic_respawns_worker_without_losing_the_queue() {
        let pool = Pool::start(PoolConfig {
            workers: 1,
            queue_cap: 8,
            ..PoolConfig::default()
        });
        let point = |id| {
            let mut r = stream_req(id, 0);
            r.spec = Spec::ScenarioPoint {
                text: "scenario p\n\nmachine chick\n\nworkload stream\n  elems = 64\n".into(),
                index: 0,
            };
            r
        };
        let mut poison = point(1);
        poison.chaos = Some(Chaos::Panic);
        // Scenario points skip the sticky router's warm-key scan, so
        // holding the worker's warm-key lock parks it after the poison
        // panics and before the poison is answered.
        let parked = pool.shared.warm_keys[0].lock().unwrap();
        let (poison_tx, poison_rx) = mpsc::channel();
        pool.submit(poison, poison_tx).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(point(2), tx).unwrap();
        assert!(poison_rx.try_recv().is_err(), "poison answered early");
        drop(parked);
        let r = poison_rx.recv().unwrap();
        assert!(r.contains("\"kind\":\"panic\""), "{r}");
        let r2 = rx.recv().unwrap();
        assert!(r2.contains("\"ok\":true"), "{r2}");
        assert!(pool.drain(Duration::from_secs(10)));
        let s = pool.stats().snapshot();
        assert_eq!(s[Stat::Respawns], 1, "{s:?}");
        assert_eq!(s[Stat::FailedPanic], 1, "{s:?}");
        assert!(pool.stats().reconcile().is_empty());
    }

    #[test]
    fn snapshot_json_keeps_its_wire_bytes() {
        let s = StatsSnapshot {
            counts: std::array::from_fn(|i| i as u64 + 1),
            in_flight: 19,
        };
        assert_eq!(
            s.json(),
            "{\"submitted\":1,\"accepted\":2,\"rejected_busy\":3,\"rejected_draining\":4,\
             \"completed_ok\":5,\"failed_proto\":6,\"failed_sim\":7,\"failed_audit\":8,\
             \"failed_event_cap\":9,\"failed_deadline\":10,\"failed_panic\":11,\
             \"warm_hits\":12,\"cold_builds\":13,\"served_from_cache\":14,\"respawns\":15,\
             \"selfcheck_runs\":16,\"selfcheck_failures\":17,\"routed_sticky\":18,\
             \"in_flight\":19}"
        );
    }

    #[test]
    fn a_started_pool_registers_every_counter_series() {
        let _pool = Pool::start(PoolConfig::default());
        let registered = obs::snapshot().counters;
        for series in [
            "simd_pool_submitted_total",
            "simd_pool_accepted_total",
            "simd_pool_rejected_busy_total",
            "simd_pool_rejected_draining_total",
            "simd_pool_completed_ok_total",
            "simd_pool_failed_proto_total",
            "simd_pool_failed_sim_total",
            "simd_pool_failed_audit_total",
            "simd_pool_failed_event_cap_total",
            "simd_pool_failed_deadline_total",
            "simd_pool_failed_panic_total",
            "simd_pool_warm_hits_total",
            "simd_pool_cold_builds_total",
            "simd_pool_served_from_cache_total",
            "simd_pool_respawns_total",
            "simd_pool_selfcheck_runs_total",
            "simd_pool_selfcheck_failures_total",
            "simd_pool_routed_sticky_total",
        ] {
            assert!(
                registered.iter().any(|(name, _)| name == series),
                "{series} not registered"
            );
        }
    }

    #[test]
    fn admission_cap_rejects_with_busy() {
        let pool = Pool::start(PoolConfig {
            workers: 1,
            queue_cap: 1,
            ..PoolConfig::default()
        });
        // Fill the single slot with a real request, then overflow.
        let (tx, rx) = mpsc::channel();
        pool.submit(stream_req(1, 2048), tx).unwrap();
        let mut saw_busy = false;
        for i in 0..50 {
            let (tx2, _rx2) = mpsc::channel();
            match pool.submit(stream_req(100 + i, 256), tx2) {
                Err(Reject::Busy { .. }) => {
                    saw_busy = true;
                    break;
                }
                Ok(_) => {} // first one may have finished already
                Err(Reject::Draining) => panic!("not draining"),
            }
        }
        assert!(saw_busy, "cap of 1 never produced a busy rejection");
        let _ = rx.recv();
        pool.drain(Duration::from_secs(10));
        assert!(pool.stats().reconcile().is_empty());
    }

    #[test]
    fn draining_pool_rejects_new_work() {
        let pool = Pool::start(PoolConfig::default());
        pool.drain(Duration::from_secs(1));
        let (tx, _rx) = mpsc::channel();
        assert_eq!(pool.submit(stream_req(1, 256), tx), Err(Reject::Draining));
        let s = pool.stats().snapshot();
        assert_eq!(s[Stat::RejectedDraining], 1);
    }

    #[test]
    fn over_deadline_runs_fail_typed_and_the_worker_serves_on() {
        let pool = Pool::start(PoolConfig {
            workers: 1,
            queue_cap: 4,
            ..PoolConfig::default()
        });
        let mut req = stream_req(1, 1 << 18);
        req.spec = Spec::Stream {
            preset: "chick".into(),
            elems: 1 << 18,
            threads: 64,
            kernel: "add".into(),
            strategy: "recursive-remote".into(),
            single_nodelet: false,
            stack_touch_period: 4,
        };
        req.deadline_ms = Some(1);
        let r = submit_and_wait(&pool, req);
        assert!(r.contains("\"kind\":\"deadline\""), "{r}");
        // The worker survived the deadline kill and serves the next run.
        let r2 = submit_and_wait(&pool, stream_req(2, 256));
        assert!(r2.contains("\"ok\":true"), "{r2}");
        assert!(pool.drain(Duration::from_secs(10)));
        let s = pool.stats().snapshot();
        assert_eq!(s[Stat::FailedDeadline], 1);
        assert!(pool.stats().reconcile().is_empty());
    }
}
