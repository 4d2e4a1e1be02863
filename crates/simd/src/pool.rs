//! The warm worker pool: persistent per-thread engines, admission
//! control, and a supervisor that respawns faulted workers.
//!
//! Requests are routed *sticky-first*: a request whose config matches
//! an engine some worker already has warm goes to that worker (a reset
//! is ~free; a cold build is not), and everything else falls back to
//! round-robin over the per-worker mpsc queues. The pool (not the
//! worker) owns each queue's receiver, so a worker that dies mid-panic
//! never strands queued jobs: the supervisor's replacement picks up
//! the same queue. Every accepted request gets exactly one response —
//! success, typed failure, or the panic notice sent on the worker's
//! behalf after `catch_unwind`.
//!
//! A request's deadline counts from when its worker picks it up; the
//! engine checks it itself ([`exec::execute`]), so the pool runs no
//! timer.
//!
//! Every [`PoolStats`] transition is mirrored into the process-global
//! [`emu_core::obs`] registry (plus queue-wait/execute latency
//! histograms and per-worker busy counters the shutdown summary can't
//! express), so a live daemon is observable via `{"op":"metrics"}`,
//! the Prometheus exporter, and `simctl top`.

use crate::exec::{self, WarmSlot};
use crate::proto::{cached_response, err_response, ok_response, Chaos, ErrorKind, RunRequest};
use emu_core::ctx::RunCtx;
use emu_core::obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The pool's registered live metrics: handles resolved once, then
/// every update is one relaxed atomic next to the matching
/// [`PoolStats`] bump (the obs deltas must reconcile exactly against
/// the snapshot counters — `tests/metrics.rs` enforces it).
struct PoolObs {
    submitted: &'static obs::Counter,
    accepted: &'static obs::Counter,
    rejected_busy: &'static obs::Counter,
    rejected_draining: &'static obs::Counter,
    completed_ok: &'static obs::Counter,
    failed_proto: &'static obs::Counter,
    failed_sim: &'static obs::Counter,
    failed_audit: &'static obs::Counter,
    failed_event_cap: &'static obs::Counter,
    failed_deadline: &'static obs::Counter,
    failed_panic: &'static obs::Counter,
    warm_hits: &'static obs::Counter,
    cold_builds: &'static obs::Counter,
    served_from_cache: &'static obs::Counter,
    respawns: &'static obs::Counter,
    selfcheck_runs: &'static obs::Counter,
    selfcheck_failures: &'static obs::Counter,
    routed_sticky: &'static obs::Counter,
    in_flight: &'static obs::Gauge,
    queue_wait: &'static obs::Histogram,
    execute: &'static obs::Histogram,
}

fn pool_obs() -> &'static PoolObs {
    static CELLS: std::sync::OnceLock<PoolObs> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| PoolObs {
        submitted: obs::counter("simd_pool_submitted_total"),
        accepted: obs::counter("simd_pool_accepted_total"),
        rejected_busy: obs::counter("simd_pool_rejected_busy_total"),
        rejected_draining: obs::counter("simd_pool_rejected_draining_total"),
        completed_ok: obs::counter("simd_pool_completed_ok_total"),
        failed_proto: obs::counter("simd_pool_failed_proto_total"),
        failed_sim: obs::counter("simd_pool_failed_sim_total"),
        failed_audit: obs::counter("simd_pool_failed_audit_total"),
        failed_event_cap: obs::counter("simd_pool_failed_event_cap_total"),
        failed_deadline: obs::counter("simd_pool_failed_deadline_total"),
        failed_panic: obs::counter("simd_pool_failed_panic_total"),
        warm_hits: obs::counter("simd_pool_warm_hits_total"),
        cold_builds: obs::counter("simd_pool_cold_builds_total"),
        served_from_cache: obs::counter("simd_pool_served_from_cache_total"),
        respawns: obs::counter("simd_pool_respawns_total"),
        selfcheck_runs: obs::counter("simd_pool_selfcheck_runs_total"),
        selfcheck_failures: obs::counter("simd_pool_selfcheck_failures_total"),
        routed_sticky: obs::counter("simd_pool_routed_sticky_total"),
        in_flight: obs::gauge("simd_pool_in_flight"),
        queue_wait: obs::histogram("simd_pool_queue_wait_ns"),
        execute: obs::histogram("simd_pool_execute_ns"),
    })
}

/// Per-worker live series (busy time and jobs served). A respawned
/// worker resolves to the same handles, so the series survives panics.
struct WorkerObs {
    busy_ns: &'static obs::Counter,
    jobs: &'static obs::Counter,
}

impl WorkerObs {
    fn new(idx: usize) -> WorkerObs {
        WorkerObs {
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

/// Monotonic pool counters. All transitions are recorded so the totals
/// reconcile exactly once the pool has quiesced (see [`PoolStats::reconcile`]).
#[derive(Default)]
pub struct PoolStats {
    /// Requests offered to [`Pool::submit`].
    pub submitted: AtomicU64,
    /// Requests admitted into a worker queue.
    pub accepted: AtomicU64,
    /// Rejections because the in-flight cap was reached.
    pub rejected_busy: AtomicU64,
    /// Rejections because the pool was draining.
    pub rejected_draining: AtomicU64,
    /// Runs that finished and passed the audit.
    pub completed_ok: AtomicU64,
    /// Failures: bad spec after admission.
    pub failed_proto: AtomicU64,
    /// Failures: the simulation faulted.
    pub failed_sim: AtomicU64,
    /// Failures: report audit or self-check mismatch.
    pub failed_audit: AtomicU64,
    /// Failures: event budget exhausted.
    pub failed_event_cap: AtomicU64,
    /// Failures: wall-clock deadline exceeded.
    pub failed_deadline: AtomicU64,
    /// Failures: the worker panicked.
    pub failed_panic: AtomicU64,
    /// Successful runs served by a reset warm engine.
    pub warm_hits: AtomicU64,
    /// Successful runs that built a fresh engine.
    pub cold_builds: AtomicU64,
    /// Successful runs answered from the content-addressed result
    /// cache at admission, without touching a worker.
    pub served_from_cache: AtomicU64,
    /// Workers respawned by the supervisor.
    pub respawns: AtomicU64,
    /// Warm results re-validated against a cold run.
    pub selfcheck_runs: AtomicU64,
    /// Self-check byte mismatches (must stay 0).
    pub selfcheck_failures: AtomicU64,
    /// Requests routed to the worker already warm on their config
    /// (each one is a reset the round-robin router would have wasted).
    pub routed_sticky: AtomicU64,
    /// Requests admitted but not yet answered.
    pub in_flight: AtomicU64,
}

/// A plain-integer copy of [`PoolStats`] taken at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected_busy: u64,
    pub rejected_draining: u64,
    pub completed_ok: u64,
    pub failed_proto: u64,
    pub failed_sim: u64,
    pub failed_audit: u64,
    pub failed_event_cap: u64,
    pub failed_deadline: u64,
    pub failed_panic: u64,
    pub warm_hits: u64,
    pub cold_builds: u64,
    pub served_from_cache: u64,
    pub respawns: u64,
    pub selfcheck_runs: u64,
    pub selfcheck_failures: u64,
    pub routed_sticky: u64,
    pub in_flight: u64,
}

impl StatsSnapshot {
    /// Sum of all terminal outcomes for admitted requests.
    pub fn finished(&self) -> u64 {
        self.completed_ok
            + self.failed_proto
            + self.failed_sim
            + self.failed_audit
            + self.failed_event_cap
            + self.failed_deadline
            + self.failed_panic
    }

    /// Serialize as a JSON object (stable key order).
    pub fn json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"accepted\":{},\"rejected_busy\":{},\"rejected_draining\":{},\
             \"completed_ok\":{},\"failed_proto\":{},\"failed_sim\":{},\"failed_audit\":{},\
             \"failed_event_cap\":{},\"failed_deadline\":{},\"failed_panic\":{},\
             \"warm_hits\":{},\"cold_builds\":{},\"served_from_cache\":{},\"respawns\":{},\
             \"selfcheck_runs\":{},\"selfcheck_failures\":{},\"routed_sticky\":{},\
             \"in_flight\":{}}}",
            self.submitted,
            self.accepted,
            self.rejected_busy,
            self.rejected_draining,
            self.completed_ok,
            self.failed_proto,
            self.failed_sim,
            self.failed_audit,
            self.failed_event_cap,
            self.failed_deadline,
            self.failed_panic,
            self.warm_hits,
            self.cold_builds,
            self.served_from_cache,
            self.respawns,
            self.selfcheck_runs,
            self.selfcheck_failures,
            self.routed_sticky,
            self.in_flight
        )
    }
}

impl PoolStats {
    /// Copy every counter. Individual loads are atomic but the snapshot
    /// as a whole is not; reconcile only a quiesced pool.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = |a: &AtomicU64| a.load(Ordering::SeqCst);
        StatsSnapshot {
            submitted: g(&self.submitted),
            accepted: g(&self.accepted),
            rejected_busy: g(&self.rejected_busy),
            rejected_draining: g(&self.rejected_draining),
            completed_ok: g(&self.completed_ok),
            failed_proto: g(&self.failed_proto),
            failed_sim: g(&self.failed_sim),
            failed_audit: g(&self.failed_audit),
            failed_event_cap: g(&self.failed_event_cap),
            failed_deadline: g(&self.failed_deadline),
            failed_panic: g(&self.failed_panic),
            warm_hits: g(&self.warm_hits),
            cold_builds: g(&self.cold_builds),
            served_from_cache: g(&self.served_from_cache),
            respawns: g(&self.respawns),
            selfcheck_runs: g(&self.selfcheck_runs),
            selfcheck_failures: g(&self.selfcheck_failures),
            routed_sticky: g(&self.routed_sticky),
            in_flight: g(&self.in_flight),
        }
    }

    /// Conservation checks for a quiesced pool (no requests in flight,
    /// no submissions racing). Returns one message per violated law.
    pub fn reconcile(&self) -> Vec<String> {
        let s = self.snapshot();
        let mut out = Vec::new();
        if s.submitted != s.accepted + s.rejected_busy + s.rejected_draining {
            out.push(format!(
                "admission leak: submitted {} != accepted {} + rejected_busy {} + rejected_draining {}",
                s.submitted, s.accepted, s.rejected_busy, s.rejected_draining
            ));
        }
        if s.accepted != s.finished() + s.in_flight {
            out.push(format!(
                "response leak: accepted {} != finished {} + in_flight {}",
                s.accepted,
                s.finished(),
                s.in_flight
            ));
        }
        if s.completed_ok != s.warm_hits + s.cold_builds + s.served_from_cache {
            out.push(format!(
                "engine accounting leak: completed_ok {} != warm_hits {} + cold_builds {} \
                 + served_from_cache {}",
                s.completed_ok, s.warm_hits, s.cold_builds, s.served_from_cache
            ));
        }
        if s.selfcheck_failures > 0 {
            out.push(format!(
                "warm reuse corruption: {} self-check mismatches",
                s.selfcheck_failures
            ));
        }
        if s.routed_sticky > s.accepted {
            out.push(format!(
                "routing overcount: routed_sticky {} exceeds accepted {}",
                s.routed_sticky, s.accepted
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

enum Job {
    Run(Box<RunJob>),
    Stop,
}

enum SupMsg {
    Down(usize),
    Stop,
}

/// The shared state every worker and the supervisor can see.
struct Shared {
    stats: Arc<PoolStats>,
    queues: Vec<Arc<Mutex<mpsc::Receiver<Job>>>>,
    cfg: PoolConfig,
    sup_tx: mpsc::Sender<SupMsg>,
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
    senders: Vec<mpsc::Sender<Job>>,
    next: AtomicUsize,
    stats: Arc<PoolStats>,
    draining: Arc<AtomicBool>,
    shared: Arc<Shared>,
    supervisor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Pool {
    /// Start `cfg.workers` warm workers and the supervisor. The workers
    /// (and [`Pool::submit`]'s cache probe) run in the caller's current
    /// [`RunCtx`].
    pub fn start(cfg: PoolConfig) -> Pool {
        let workers = cfg.workers.max(1);
        let stats = Arc::new(PoolStats::default());
        let (sup_tx, sup_rx) = mpsc::channel();

        let mut senders = Vec::with_capacity(workers);
        let mut queues = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            queues.push(Arc::new(Mutex::new(rx)));
        }
        let shared = Arc::new(Shared {
            stats: Arc::clone(&stats),
            queues,
            cfg,
            sup_tx,
            warm_keys: (0..workers).map(|_| Mutex::new(None)).collect(),
            ctx: RunCtx::current(),
        });
        for idx in 0..workers {
            spawn_worker(idx, Arc::clone(&shared));
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("simd-supervisor".into())
                .spawn(move || {
                    while let Ok(msg) = sup_rx.recv() {
                        match msg {
                            SupMsg::Down(idx) => {
                                shared.stats.respawns.fetch_add(1, Ordering::SeqCst);
                                pool_obs().respawns.inc();
                                spawn_worker(idx, Arc::clone(&shared));
                            }
                            SupMsg::Stop => break,
                        }
                    }
                })
                .expect("spawn supervisor")
        };
        Pool {
            senders,
            next: AtomicUsize::new(0),
            stats,
            draining: Arc::new(AtomicBool::new(false)),
            shared,
            supervisor: Mutex::new(Some(supervisor)),
        }
    }

    /// The pool's counters.
    pub fn stats(&self) -> &Arc<PoolStats> {
        &self.stats
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Whether the pool has begun draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Offer a run for admission. On success exactly one response line
    /// will eventually arrive on `resp`.
    pub fn submit(&self, req: RunRequest, resp: mpsc::Sender<String>) -> Result<(), Reject> {
        let m = pool_obs();
        self.stats.submitted.fetch_add(1, Ordering::SeqCst);
        m.submitted.inc();
        if self.draining.load(Ordering::SeqCst) {
            self.stats.rejected_draining.fetch_add(1, Ordering::SeqCst);
            m.rejected_draining.inc();
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
            self.stats.accepted.fetch_add(1, Ordering::SeqCst);
            m.accepted.inc();
            self.stats.completed_ok.fetch_add(1, Ordering::SeqCst);
            m.completed_ok.inc();
            self.stats.served_from_cache.fetch_add(1, Ordering::SeqCst);
            m.served_from_cache.inc();
            let _ = resp.send(cached_response(req.id, &entry.payload));
            return Ok(());
        }
        let cap = self.shared.cfg.queue_cap.max(1) as u64;
        loop {
            let cur = self.stats.in_flight.load(Ordering::SeqCst);
            if cur >= cap {
                self.stats.rejected_busy.fetch_add(1, Ordering::SeqCst);
                m.rejected_busy.inc();
                return Err(Reject::Busy { in_flight: cur });
            }
            if self
                .stats
                .in_flight
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        self.stats.accepted.fetch_add(1, Ordering::SeqCst);
        m.accepted.inc();
        m.in_flight.add(1);
        let w = self.pick_worker(&req);
        self.senders[w]
            .send(Job::Run(Box::new(RunJob {
                req,
                resp,
                queued_at: Instant::now(),
            })))
            .expect("pool holds every queue receiver");
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
                    self.stats.routed_sticky.fetch_add(1, Ordering::SeqCst);
                    pool_obs().routed_sticky.inc();
                    return i;
                }
            }
        }
        self.next.fetch_add(1, Ordering::SeqCst) % self.senders.len()
    }

    /// Stop admitting, wait up to `timeout` for in-flight work, then
    /// stop the workers and supervisor. Returns `true` if the pool
    /// fully quiesced within the budget.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.draining.store(true, Ordering::SeqCst);
        let start = Instant::now();
        while self.stats.in_flight.load(Ordering::SeqCst) > 0 && start.elapsed() < timeout {
            thread::sleep(Duration::from_millis(5));
        }
        let quiesced = self.stats.in_flight.load(Ordering::SeqCst) == 0;
        for tx in &self.senders {
            let _ = tx.send(Job::Stop);
        }
        let _ = self.shared.sup_tx.send(SupMsg::Stop);
        if let Some(h) = self.supervisor.lock().unwrap().take() {
            let _ = h.join();
        }
        quiesced
    }
}

fn spawn_worker(idx: usize, shared: Arc<Shared>) {
    thread::Builder::new()
        .name(format!("simd-worker-{idx}"))
        .spawn(move || {
            let ctx = shared.ctx.clone();
            ctx.scope(|| worker_main(idx, shared))
        })
        .expect("spawn worker");
}

fn worker_main(idx: usize, shared: Arc<Shared>) {
    let rx = Arc::clone(&shared.queues[idx]);
    let mut slot = WarmSlot::new();
    let wobs = WorkerObs::new(idx);
    loop {
        // Hold the queue lock only for the blocking recv, never while
        // running a job, so a panicking job cannot poison the queue.
        let job = {
            let guard = rx.lock().expect("queue lock never poisoned");
            guard.recv()
        };
        let job = match job {
            Ok(j) => j,
            Err(_) => break,
        };
        let run = match job {
            Job::Run(r) => r,
            Job::Stop => break,
        };
        let id = run.req.id;
        let resp = run.resp.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_run(idx, &mut slot, *run, &shared, &wobs)
        }));
        if outcome.is_err() {
            // Fault isolation: record the failure, answer on the dead
            // job's behalf, and hand the queue to a fresh worker. The
            // warm engine (possibly corrupted mid-panic) dies with this
            // thread, so the router must forget it.
            shared.stats.failed_panic.fetch_add(1, Ordering::SeqCst);
            shared.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
            let m = pool_obs();
            m.failed_panic.inc();
            m.in_flight.add(-1);
            *shared.warm_keys[idx]
                .lock()
                .expect("warm key lock never poisoned") = None;
            let _ = resp.send(err_response(
                id,
                ErrorKind::Panic,
                "worker panicked; engine discarded, worker respawned",
                None,
            ));
            let _ = shared.sup_tx.send(SupMsg::Down(idx));
            return;
        }
    }
}

fn handle_run(idx: usize, slot: &mut WarmSlot, run: RunJob, shared: &Shared, wobs: &WorkerObs) {
    let RunJob {
        req,
        resp,
        queued_at,
    } = run;
    // The request's deadline counts from here.
    let started = Instant::now();
    let id = req.id;
    let stats = &shared.stats;
    let m = pool_obs();
    // Latency histograms honor the global obs switch; plain counter
    // mirrors are one relaxed atomic and stay on so the registry
    // always reconciles against `PoolStats`.
    let record_latency = obs::enabled();
    if record_latency {
        m.queue_wait
            .record(started.duration_since(queued_at).as_nanos() as u64);
    }

    if req.chaos == Some(Chaos::Panic) {
        panic!("chaos: poison request {id}");
    }

    let result = exec::execute(slot, &req, Some(started));
    if record_latency {
        let busy = started.elapsed().as_nanos() as u64;
        m.execute.record(busy);
        wobs.busy_ns.add(busy);
        wobs.jobs.inc();
    }
    let line = match result {
        Ok(out) => {
            let mut ok = true;
            if out.warm && shared.cfg.selfcheck {
                stats.selfcheck_runs.fetch_add(1, Ordering::SeqCst);
                m.selfcheck_runs.inc();
                let cold = exec::execute(&mut WarmSlot::new(), &req, None);
                if cold.map(|c| c.report_json) != Ok(out.report_json.clone()) {
                    stats.selfcheck_failures.fetch_add(1, Ordering::SeqCst);
                    m.selfcheck_failures.inc();
                    ok = false;
                }
            }
            if ok {
                stats.completed_ok.fetch_add(1, Ordering::SeqCst);
                m.completed_ok.inc();
                if out.warm {
                    stats.warm_hits.fetch_add(1, Ordering::SeqCst);
                    m.warm_hits.inc();
                } else {
                    stats.cold_builds.fetch_add(1, Ordering::SeqCst);
                    m.cold_builds.inc();
                }
                // Publish for future `submit` probes. No-op unless the
                // cache is on and the run is cacheable (`cache_plan`).
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
                ok_response(id, idx, out.warm, &out.report_json)
            } else {
                // A warm engine that diverged from a cold run is never
                // reused.
                *slot = WarmSlot::new();
                stats.failed_audit.fetch_add(1, Ordering::SeqCst);
                m.failed_audit.inc();
                err_response(
                    id,
                    ErrorKind::Audit,
                    "warm self-check diverged from cold run",
                    None,
                )
            }
        }
        Err(e) => {
            let (counter, mirror) = match e.kind {
                ErrorKind::Proto => (&stats.failed_proto, m.failed_proto),
                ErrorKind::Deadline => (&stats.failed_deadline, m.failed_deadline),
                ErrorKind::EventCap => (&stats.failed_event_cap, m.failed_event_cap),
                ErrorKind::Audit => (&stats.failed_audit, m.failed_audit),
                _ => (&stats.failed_sim, m.failed_sim),
            };
            counter.fetch_add(1, Ordering::SeqCst);
            mirror.inc();
            err_response(id, e.kind, &e.message, None)
        }
    };
    // Advertise the engine the slot now holds (none after a failure; a
    // scenario point leaves it as it was) before answering, so a client
    // that submits its next request after reading this response is
    // routed sticky.
    *shared.warm_keys[idx]
        .lock()
        .expect("warm key lock never poisoned") = slot.key().map(str::to_string);
    stats.in_flight.fetch_sub(1, Ordering::SeqCst);
    m.in_flight.add(-1);
    let _ = resp.send(line);
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
        assert_eq!(s.completed_ok, 6);
        assert!(s.warm_hits >= 4, "expected warm reuse, got {s:?}");
        assert_eq!(s.selfcheck_failures, 0);
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
        assert_eq!(s.completed_ok, 6);
        assert_eq!(
            s.cold_builds, 2,
            "one cold build per distinct config: {s:?}"
        );
        assert_eq!(s.warm_hits, 4);
        assert_eq!(s.routed_sticky, 4, "{s:?}");
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
        assert!(s.routed_sticky <= s.warm_hits, "{s:?}");
        assert!(pool.stats().reconcile().is_empty());
    }

    #[test]
    fn panic_respawns_worker_without_losing_the_queue() {
        let pool = Pool::start(PoolConfig {
            workers: 1,
            queue_cap: 8,
            ..PoolConfig::default()
        });
        let mut poison = stream_req(1, 256);
        poison.chaos = Some(Chaos::Panic);
        let r = submit_and_wait(&pool, poison);
        assert!(r.contains("\"kind\":\"panic\""), "{r}");
        // The sole worker died; the respawned one must serve this.
        let r2 = submit_and_wait(&pool, stream_req(2, 256));
        assert!(r2.contains("\"ok\":true"), "{r2}");
        assert!(pool.drain(Duration::from_secs(10)));
        let s = pool.stats().snapshot();
        assert_eq!(s.failed_panic, 1);
        assert!(s.respawns >= 1);
        assert!(pool.stats().reconcile().is_empty());
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
        assert_eq!(s.rejected_draining, 1);
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
        assert_eq!(s.failed_deadline, 1);
        assert!(pool.stats().reconcile().is_empty());
    }
}
