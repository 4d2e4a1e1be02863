//! `service`: the resident daemon under a closed loop.
//!
//! Set-up starts `simd::server::serve_with` in-process on
//! `127.0.0.1:0` with its default two-worker pool and the result cache
//! armed in a fresh directory under `perf/out/`, then connects two
//! clients, each on one persistent TCP connection (one per core of the
//! reference host). In the timed round each client sends seeded STREAM
//! requests (64 threadlets, serial spawn, striped) and waits for each
//! reply before sending the next:
//!
//! - 30% repeat one of 20 fixed specs (5 presets x 4 sizes): result-cache
//!   hits once the first copy is stored;
//! - 20% use a fresh size on a newly drawn preset: a cold engine build;
//! - 50% use a fresh size on the client's current preset: a warm engine
//!   reused through sticky routing.
//!
//! After every tenth request a client also sends `{"op":"health"}`,
//! which crosses the socket but not the pool. Every reply must be
//! `"ok":true`. At teardown every fixed spec and one in ten fresh
//! requests are re-run cold in-process through `simd::exec::execute`,
//! and the served report bytes must match; the fixed specs' reports
//! also match a golden digest.

use crate::check::{Checks, Golden};
use crate::meter::Meter;
use crate::trace::{Span, Tracer};
use crate::{stats, Metrics, RunCfg, Window, Workload};
use desim::rng::{trial_seed, Rng64};
use simd::exec::{self, WarmSlot};
use simd::proto::{report_slice, run_request_line, RunRequest, Spec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub const PRESETS: [&str; 5] = ["chick", "chick-sim", "full-speed", "emu64", "chick-8node"];
/// Sizes of the fixed (repeated) specs.
pub const FIXED_ELEMS: [u64; 4] = [768, 1024, 1280, 1536];
/// Fresh sizes start here, one parity per client so the two clients
/// never share a spec. A client's k-th block of `FRESH_BLOCK` fresh
/// sizes is the k-th run of `FRESH_BLOCK` sizes of its parity, dealt in
/// a seeded order, so the stream never repeats a size and never runs
/// dry. The first block (2048..4096) outlasts a 60 s run at the
/// reference host's request rate; a faster server reaches later blocks,
/// whose requests are somewhat larger.
const FRESH_LO: u64 = 2048;
const FRESH_BLOCK: u64 = 1024;
const CLIENTS: u64 = 2;
const HEALTH_EVERY: u64 = 10;
/// The closed loop is cut into rounds of this length, so throughput is
/// a median over rounds like every other workload's.
const ROUND: Duration = Duration::from_secs(1);
const RECHECK_EVERY: u64 = 10;

/// Which part of the mix a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Repeat,
    NewPreset,
    SamePreset,
}

/// The mix of every block of ten requests, dealt in a seeded order, so
/// any stretch of the stream keeps close to 30/20/50.
const BLOCK: [Mix; 10] = [
    Mix::Repeat,
    Mix::Repeat,
    Mix::Repeat,
    Mix::NewPreset,
    Mix::NewPreset,
    Mix::SamePreset,
    Mix::SamePreset,
    Mix::SamePreset,
    Mix::SamePreset,
    Mix::SamePreset,
];

/// One client's seeded request stream.
pub struct RequestGen {
    rng: Rng64,
    client: u64,
    block: Vec<Mix>,
    preset: usize,
    /// The rest of the current block of fresh sizes.
    fresh: Vec<u64>,
    fresh_blocks: u64,
}

impl RequestGen {
    pub fn new(seed: u64, client: u64) -> RequestGen {
        let mut rng = Rng64::new(trial_seed(seed, client));
        RequestGen {
            preset: rng.gen_below(PRESETS.len() as u64) as usize,
            rng,
            client,
            block: Vec::new(),
            fresh: Vec::new(),
            fresh_blocks: 0,
        }
    }

    /// The next request as `(mix, fixed-spec index if a repeat, spec)`.
    pub fn next(&mut self) -> (Mix, Option<usize>, Spec) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let mix = self.block.pop().expect("refilled above");
        match mix {
            Mix::Repeat => {
                let n = FIXED_ELEMS.len();
                let i = self.rng.gen_below((PRESETS.len() * n) as u64) as usize;
                return (mix, Some(i), spec(i / n, FIXED_ELEMS[i % n]));
            }
            Mix::NewPreset => {
                let hop = 1 + self.rng.gen_below(PRESETS.len() as u64 - 1) as usize;
                self.preset = (self.preset + hop) % PRESETS.len();
            }
            Mix::SamePreset => {}
        }
        if self.fresh.is_empty() {
            let first = self.fresh_blocks * FRESH_BLOCK;
            self.fresh = (first..first + FRESH_BLOCK)
                .map(|k| FRESH_LO + 2 * k + self.client % 2)
                .collect();
            self.rng.shuffle(&mut self.fresh);
            self.fresh_blocks += 1;
        }
        let elems = self.fresh.pop().expect("refilled above");
        (mix, None, spec(self.preset, elems))
    }
}

fn spec(preset: usize, elems: u64) -> Spec {
    Spec::Stream {
        preset: PRESETS[preset].into(),
        elems,
        threads: 64,
        kernel: "add".into(),
        strategy: "serial".into(),
        single_nodelet: false,
        stack_touch_period: 4,
    }
}

/// The 20 repeated specs, preset-major.
pub fn fixed_specs() -> Vec<Spec> {
    (0..PRESETS.len())
        .flat_map(|p| FIXED_ELEMS.iter().map(move |&e| spec(p, e)))
        .collect()
}

fn request(id: u64, spec: Spec) -> RunRequest {
    RunRequest {
        id,
        spec,
        deadline_ms: None,
        max_events: None,
        chaos: None,
    }
}

/// The report a cold in-process run of `spec` produces.
fn cold_report(spec: &Spec) -> Result<String, String> {
    exec::execute(&mut WarmSlot::new(), &request(0, spec.clone()), None)
        .map(|o| o.report_json)
        .map_err(|e| e.message)
}

pub fn golden() -> Vec<(String, String)> {
    let reports: Vec<String> = fixed_specs()
        .iter()
        .map(|s| cold_report(s).expect("fixed spec runs"))
        .collect();
    vec![("service.fixed".into(), reports.join("\n"))]
}

/// How the server answered a run request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Cold,
    Warm,
    Cached,
}

struct Client {
    id: u64,
    gen: RequestGen,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    sent: u64,
    fresh_sent: u64,
}

impl Client {
    fn connect(addr: SocketAddr, id: u64, seed: u64) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            id,
            gen: RequestGen::new(seed, id),
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            sent: 0,
            fresh_sent: 0,
        })
    }

    /// One request line out, one response line back.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("client {}: send: {e}", self.id))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err(format!("client {}: server closed the connection", self.id)),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("client {}: receive: {e}", self.id)),
        }
    }

    fn health(&mut self) -> Result<(), String> {
        let resp = self.call(&format!("{{\"op\":\"health\",\"id\":{}}}", self.id))?;
        if resp.contains("\"ok\":true") {
            Ok(())
        } else {
            Err(format!("client {}: health: {resp}", self.id))
        }
    }

    /// Closed loop until `deadline`.
    fn run_until(&mut self, deadline: Instant, trace: &Tracer) -> ClientLog {
        let mut log = ClientLog::default();
        while Instant::now() < deadline {
            let (_, fixed, spec) = self.gen.next();
            self.sent += 1;
            let line = run_request_line(&request(self.sent, spec.clone()));
            let mut op = trace.op("request");
            let resp = op.span("roundtrip", |_| self.call(&line));
            let (ms, spans) = op.finish();
            log.spans.push(spans);
            let resp = match resp {
                Ok(r) if r.contains("\"ok\":true") => r,
                Ok(r) => {
                    log.errors.push(format!("client {}: {r}", self.id));
                    continue;
                }
                Err(e) => {
                    log.errors.push(e);
                    break;
                }
            };
            log.ok += 1;
            let served = if resp.contains("\"cached\":true") {
                Served::Cached
            } else if resp.contains("\"warm\":true") {
                Served::Warm
            } else {
                Served::Cold
            };
            log.ops.push((ms, served));
            let report = report_slice(&resp).unwrap_or_default().to_string();
            match fixed {
                Some(i) => log.fixed.push((i, report)),
                None => {
                    self.fresh_sent += 1;
                    log.distinct.push(spec.clone());
                    if self.fresh_sent.is_multiple_of(RECHECK_EVERY) {
                        log.fresh.push((spec, report));
                    }
                }
            }
            if self.sent.is_multiple_of(HEALTH_EVERY) {
                let mut op = trace.op("health");
                let r = op.span("roundtrip", |_| self.health());
                let (ms, spans) = op.finish();
                log.spans.push(spans);
                match r {
                    Ok(()) => log.health_ms.push(ms),
                    Err(e) => log.errors.push(e),
                }
            }
        }
        log
    }
}

#[derive(Default)]
struct ClientLog {
    ok: u64,
    ops: Vec<(f64, Served)>,
    health_ms: Vec<f64>,
    spans: Vec<Vec<Span>>,
    errors: Vec<String>,
    /// Served reports of fixed specs, by fixed-spec index.
    fixed: Vec<(usize, String)>,
    /// Sampled fresh requests and their served reports.
    fresh: Vec<(Spec, String)>,
    /// Fresh specs served (each exactly once).
    distinct: Vec<Spec>,
}

type ServerHandle = JoinHandle<Result<simd::server::ServeSummary, String>>;

pub struct Service {
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    cache_dir: PathBuf,
    golden: Golden,
    fixed: Vec<(usize, String)>,
    fresh: Vec<(Spec, String)>,
    distinct: Vec<Spec>,
    /// Traced-window latencies by how the request was served, and of
    /// the health probes.
    traced: Vec<(f64, Served)>,
    traced_health_ms: Vec<f64>,
}

impl Workload for Service {
    /// A request's time is mostly a wait on the socket timers described
    /// in README.md, which do not slow with the host, so the service's
    /// times are plain wall time.
    fn scaled() -> bool {
        false
    }

    fn setup(cfg: &RunCfg, checks: &mut Checks) -> Result<Self, String> {
        let cache_dir = runcache::resolve_dir();
        let _ = std::fs::remove_dir_all(&cache_dir);
        let (tx, rx) = mpsc::channel();
        let opts = simd::server::ServeOpts {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        };
        let server = thread::Builder::new()
            .name("emu-perf-server".into())
            .spawn(move || {
                simd::server::serve_with(opts, move |addr| {
                    let _ = tx.send(addr);
                })
            })
            .map_err(|e| format!("spawn server: {e}"))?;
        let Ok(addr) = rx.recv() else {
            return Err(match server.join() {
                Ok(Err(e)) => format!("server: {e}"),
                _ => "server exited before it was ready".into(),
            });
        };
        let mut w = Service {
            server: Some(server),
            clients: Vec::new(),
            cache_dir,
            golden: cfg.golden.clone(),
            fixed: Vec::new(),
            fresh: Vec::new(),
            distinct: Vec::new(),
            traced: Vec::new(),
            traced_health_ms: Vec::new(),
        };
        for id in 0..CLIENTS {
            match Client::connect(addr, id, cfg.seed) {
                Ok(c) => w.clients.push(c),
                Err(e) => {
                    w.teardown(checks);
                    return Err(format!("connect: {e}"));
                }
            }
        }
        for c in &mut w.clients {
            let r = c.health();
            checks.check(r.is_ok(), || format!("set-up: {}", r.unwrap_err()));
        }
        Ok(w)
    }

    fn round(
        &mut self,
        deadline: Instant,
        trace: &mut Tracer,
        meter: &mut Meter,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let deadline = deadline.min(Instant::now() + ROUND);
        let shared: &Tracer = trace;
        let clients = &mut self.clients;
        let logs: Vec<ClientLog> = meter
            .time(|| {
                thread::scope(|s| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .map(|c| s.spawn(move || c.run_until(deadline, shared)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect()
                })
            })
            .value;
        let mut op_ms = Vec::new();
        for log in logs {
            checks.passed(log.ok);
            for e in log.errors {
                checks.fail(|| e);
            }
            for spans in log.spans {
                trace.add(spans);
            }
            op_ms.extend(log.ops.iter().map(|&(ms, _)| ms));
            if trace.on() {
                self.traced.extend(log.ops);
                self.traced_health_ms.extend(log.health_ms);
            }
            self.fixed.extend(log.fixed);
            self.fresh.extend(log.fresh);
            self.distinct.extend(log.distinct);
        }
        op_ms
    }

    fn layers(&mut self, win: &Window, _trace: &Tracer, out: &mut Metrics, checks: &mut Checks) {
        let o = &win.obs;
        let hits = o.counter("emu_cache_hits_total") as f64;
        let misses = o.counter("emu_cache_misses_total") as f64;
        out.insert("runcache.hit_ratio", hits / (hits + misses).max(1.0));
        out.insert(
            "runcache.stores",
            o.counter("emu_cache_stores_total") as f64,
        );
        let warm = o.counter("simd_pool_warm_hits_total") as f64;
        let cold = o.counter("simd_pool_cold_builds_total") as f64;
        out.insert("pool.warm_ratio", warm / (warm + cold).max(1.0));
        out.insert(
            "pool.routed_sticky",
            o.counter("simd_pool_routed_sticky_total") as f64,
        );
        out.insert(
            "pool.served_from_cache",
            o.counter("simd_pool_served_from_cache_total") as f64,
        );
        out.insert(
            "pool.rejected_busy",
            o.counter("simd_pool_rejected_busy_total") as f64,
        );
        // Log2-bucket upper bounds, as the registry reports them.
        let q = |name: &str, p: f64| o.hist(name).map_or(0.0, |h| h.quantile(p) as f64);
        out.insert(
            "pool.queue_wait_p50_us",
            q("simd_pool_queue_wait_ns", 0.5) / 1e3,
        );
        out.insert(
            "pool.queue_wait_p99_us",
            q("simd_pool_queue_wait_ns", 0.99) / 1e3,
        );
        out.insert("pool.execute_p50_ms", q("simd_pool_execute_ns", 0.5) / 1e6);
        out.insert("pool.execute_p99_ms", q("simd_pool_execute_ns", 0.99) / 1e6);

        let p50 = |kind: Served| {
            let ms: Vec<f64> = self
                .traced
                .iter()
                .filter(|o| o.1 == kind)
                .map(|o| o.0)
                .collect();
            stats::percentile(&ms, 50.0)
        };
        out.insert("service.cold_p50_ms", p50(Served::Cold));
        out.insert("service.warm_p50_ms", p50(Served::Warm));
        out.insert("service.cached_p50_ms", p50(Served::Cached));
        let all: Vec<f64> = self.traced.iter().map(|o| o.0).collect();
        let tail = stats::tail_percentile(all.len()).unwrap_or(50.0);
        out.insert("service.tail_ms", stats::percentile(&all, tail));
        out.insert(
            "server.health_rtt_ms",
            stats::percentile(&self.traced_health_ms, 50.0),
        );

        // Every spec the load phase ran was published; each must now be
        // a cache hit through the same probe the pool makes.
        let mut probe_ns = 0u128;
        let fixed = fixed_specs();
        let mut served: Vec<usize> = self.fixed.iter().map(|(i, _)| *i).collect();
        served.sort_unstable();
        served.dedup();
        let specs: Vec<&Spec> = served
            .iter()
            .map(|&i| &fixed[i])
            .chain(&self.distinct)
            .collect();
        for spec in &specs {
            let spec = *spec;
            let t0 = Instant::now();
            let hit = exec::cache_plan(spec).and_then(|plan| runcache::lookup(&plan.digest));
            probe_ns += t0.elapsed().as_nanos();
            checks.check(hit.is_some(), || format!("runcache probe missed {spec:?}"));
        }
        out.insert(
            "runcache.probe_us",
            probe_ns as f64 / specs.len().max(1) as f64 / 1e3,
        );
    }

    fn teardown(mut self, checks: &mut Checks) {
        if !self.fixed.is_empty() || !self.fresh.is_empty() {
            let fixed: Vec<Result<String, String>> =
                fixed_specs().iter().map(cold_report).collect();
            let joined: Vec<String> = fixed
                .iter()
                .map(|r| r.clone().unwrap_or_default())
                .collect();
            checks.golden(&self.golden, "service.fixed", &joined.join("\n"));
            for (i, served) in &self.fixed {
                checks.check(fixed[*i].as_ref() == Ok(served), || {
                    format!("fixed spec {i}: served report differs from a cold in-process run")
                });
            }
            for (spec, served) in &self.fresh {
                let cold = cold_report(spec);
                checks.check(cold.as_ref() == Ok(served), || {
                    format!("{spec:?}: served report differs from a cold in-process run")
                });
            }
        }
        if let Some(c) = self.clients.first_mut() {
            let r = c.call("{\"op\":\"shutdown\",\"id\":0}");
            checks.check(matches!(&r, Ok(s) if s.contains("\"ok\":true")), || {
                format!("shutdown: {r:?}")
            });
        }
        self.clients.clear();
        if let Some(server) = self.server.take() {
            match server.join() {
                Ok(Ok(summary)) => {
                    checks.check(summary.drained, || "server did not drain".into());
                    checks.check(summary.violations.is_empty(), || {
                        format!("pool invariants: {:?}", summary.violations)
                    });
                }
                Ok(Err(e)) => checks.fail(|| format!("server: {e}")),
                Err(_) => checks.fail(|| "server thread panicked".into()),
            }
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_reproducible() {
        let take = |seed, client| {
            let mut g = RequestGen::new(seed, client);
            (0..200)
                .map(|_| {
                    let (mix, _, spec) = g.next();
                    (mix, spec)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        assert_ne!(take(3, 0), take(3, 1));
    }

    #[test]
    fn mix_stays_within_three_points_of_30_20_50() {
        for seed in 1..=5 {
            let mut g = RequestGen::new(seed, 0);
            let mut n = [0u32; 3];
            for _ in 0..1000 {
                n[g.next().0 as usize] += 1;
            }
            for (got, want) in n.iter().zip([300, 200, 500]) {
                assert!(got.abs_diff(want) <= 30, "seed {seed}: mix {n:?}");
            }
        }
    }

    #[test]
    fn fresh_specs_never_repeat_collide_or_run_out() {
        // Well past the first block of fresh sizes: a fast server must
        // keep getting cache misses.
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..CLIENTS {
            let mut g = RequestGen::new(9, client);
            for _ in 0..100_000 {
                let (mix, fixed, spec) = g.next();
                let Spec::Stream { elems, .. } = spec else {
                    panic!("{spec:?}")
                };
                match mix {
                    Mix::Repeat => assert!(fixed.is_some()),
                    _ => {
                        assert!(fixed.is_none() && !FIXED_ELEMS.contains(&elems));
                        assert!(seen.insert(elems), "fresh size {elems} drawn twice");
                    }
                }
            }
        }
        // 7 in every block of 10 requests is fresh.
        assert_eq!(seen.len() as u64, CLIENTS * 70_000);
    }

    #[test]
    fn new_preset_requests_change_preset() {
        let mut g = RequestGen::new(1, 0);
        for _ in 0..500 {
            let before = g.preset;
            if g.next().0 == Mix::NewPreset {
                assert_ne!(g.preset, before);
            }
        }
    }
}
