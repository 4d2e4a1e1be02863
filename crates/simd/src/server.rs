//! The resident daemon: a TCP listener speaking the JSONL protocol,
//! feeding the warm [`Pool`], with graceful drain.
//!
//! Lifecycle: bind, announce readiness on stdout, serve until a
//! `shutdown` request or a SIGTERM/SIGINT arrives, then drain — stop
//! admitting (new runs get `shutting_down`), let in-flight work finish
//! or deadline out, and flush a final telemetry summary with the pool's
//! conservation audit.

use crate::pool::{Pool, PoolConfig, Reject, StatsSnapshot};
use crate::proto::{err_response, parse_request, ErrorKind, Request};
use emu_core::obs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// The server's live series: connection churn, wire traffic, and
/// scrape counts. Resolved once; every update is one relaxed atomic.
struct ServerObs {
    connections: &'static obs::Counter,
    active: &'static obs::Gauge,
    bytes_in: &'static obs::Counter,
    bytes_out: &'static obs::Counter,
    parse_errors: &'static obs::Counter,
    scrapes: &'static obs::Counter,
}

fn server_obs() -> &'static ServerObs {
    static CELLS: std::sync::OnceLock<ServerObs> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| ServerObs {
        connections: obs::counter("simd_server_connections_total"),
        active: obs::gauge("simd_server_connections_active"),
        bytes_in: obs::counter("simd_server_bytes_in_total"),
        bytes_out: obs::counter("simd_server_bytes_out_total"),
        parse_errors: obs::counter("simd_server_parse_errors_total"),
        scrapes: obs::counter("simd_server_metrics_scrapes_total"),
    })
}

/// Daemon configuration (see `EMU_SIMD_*` in EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Listen address, e.g. `127.0.0.1:7677` (port 0 picks a free port).
    pub addr: String,
    /// Worker pool sizing and per-request defaults.
    pub pool: PoolConfig,
    /// Budget for the graceful drain, in milliseconds.
    pub drain_ms: u64,
    /// Maximum concurrent client connections.
    pub max_conns: usize,
    /// Optional path for the final telemetry summary artifact.
    pub telemetry_path: Option<String>,
    /// Install SIGTERM/SIGINT handlers (the daemon binary does; tests
    /// and in-process servers use the `shutdown` op instead).
    pub handle_signals: bool,
    /// Optional bind address for the plain-text Prometheus exporter
    /// (`EMU_SIMD_METRICS_ADDR`; port 0 picks a free port; `None`
    /// disables the endpoint).
    pub metrics_addr: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:7677".into(),
            pool: PoolConfig::default(),
            drain_ms: 10_000,
            max_conns: 32,
            telemetry_path: None,
            handle_signals: false,
            metrics_addr: None,
        }
    }
}

/// What the daemon observed over its lifetime, returned after drain.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final pool counters.
    pub stats: StatsSnapshot,
    /// Conservation-law violations (must be empty for a healthy run).
    pub violations: Vec<String>,
    /// Whether every in-flight request finished within the drain budget.
    pub drained: bool,
}

impl ServeSummary {
    /// Serialize the drain summary as one JSON line.
    pub fn json(&self) -> String {
        let viol: Vec<String> = self
            .violations
            .iter()
            .map(|v| emu_core::json::jstr(v))
            .collect();
        format!(
            "{{\"event\":\"drain\",\"drained\":{},\"violations\":[{}],\"stats\":{}}}",
            self.drained,
            viol.join(","),
            self.stats.json()
        )
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Route SIGTERM and SIGINT to a stop flag (async-signal-safe: the
    /// handler only stores an atomic).
    pub fn install() {
        extern "C" {
            fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stop_requested() -> bool {
        false
    }
}

/// Run the daemon to completion. Blocks until shutdown + drain.
pub fn serve(opts: ServeOpts) -> Result<ServeSummary, String> {
    serve_with(opts, |_| {})
}

/// [`serve`], invoking `on_ready` with the bound address once the
/// listener is live (used by in-process tests and port-0 binds).
pub fn serve_with(
    opts: ServeOpts,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<ServeSummary, String> {
    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    if opts.handle_signals {
        sig::install();
    }

    let pool = Arc::new(Pool::start(opts.pool.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(AtomicUsize::new(0));

    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics = match &opts.metrics_addr {
        Some(addr) => Some(metrics_exporter(addr, Arc::clone(&metrics_stop))?),
        None => None,
    };

    {
        let metrics_field = match &metrics {
            Some((addr, _)) => format!(",\"metrics_addr\":\"{addr}\""),
            None => String::new(),
        };
        let mut out = std::io::stdout();
        let _ = writeln!(
            out,
            "{{\"event\":\"ready\",\"addr\":\"{local}\",\"workers\":{}{metrics_field}}}",
            pool.workers()
        );
        let _ = out.flush();
    }
    on_ready(local);

    while !(shutdown.load(Ordering::SeqCst) || opts.handle_signals && sig::stop_requested()) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.load(Ordering::SeqCst) >= opts.max_conns {
                    let mut s = stream;
                    let _ = writeln!(
                        s,
                        "{}",
                        err_response(0, ErrorKind::Busy, "too many connections", Some(50))
                    );
                    continue;
                }
                conns.fetch_add(1, Ordering::SeqCst);
                let so = server_obs();
                so.connections.inc();
                so.active.add(1);
                let pool = Arc::clone(&pool);
                let shutdown = Arc::clone(&shutdown);
                let conns = Arc::clone(&conns);
                thread::Builder::new()
                    .name("simd-conn".into())
                    .spawn(move || {
                        let _ = handle_conn(stream, &pool, &shutdown);
                        server_obs().active.add(-1);
                        conns.fetch_sub(1, Ordering::SeqCst);
                    })
                    .map_err(|e| format!("spawn connection handler: {e}"))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }

    if let Some((_, handle)) = metrics {
        metrics_stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }
    let drained = pool.drain(Duration::from_millis(opts.drain_ms));
    let summary = ServeSummary {
        stats: pool.stats().snapshot(),
        violations: pool.stats().reconcile(),
        drained,
    };
    let line = summary.json();
    {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
    if let Some(path) = &opts.telemetry_path {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, format!("{line}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(summary)
}

/// Serve one connection: requests in, responses out, strictly in order.
fn handle_conn(stream: TcpStream, pool: &Pool, shutdown: &AtomicBool) -> std::io::Result<()> {
    let so = server_obs();
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        so.bytes_in.add(line.len() as u64 + 1);
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_request(&line) {
            Err(e) => {
                so.parse_errors.inc();
                err_response(0, ErrorKind::Proto, &e, None)
            }
            Ok(Request::Health { id }) => {
                format!(
                    "{{\"id\":{id},\"ok\":true,\"health\":{{\"workers\":{},\"draining\":{},\"stats\":{}}}}}",
                    pool.workers(),
                    pool.is_draining(),
                    pool.stats().snapshot().json()
                )
            }
            Ok(Request::Metrics { id }) => {
                format!(
                    "{{\"id\":{id},\"ok\":true,\"metrics\":{}}}",
                    obs::snapshot().json()
                )
            }
            Ok(Request::Shutdown { id }) => {
                shutdown.store(true, Ordering::SeqCst);
                let reply = format!("{{\"id\":{id},\"ok\":true,\"shutting_down\":true}}");
                so.bytes_out.add(reply.len() as u64 + 1);
                writeln!(writer, "{reply}")?;
                writer.flush()?;
                break;
            }
            Ok(Request::Scenario(req)) => crate::scn::handle(pool, &req),
            Ok(Request::Run(req)) => {
                let id = req.id;
                let (tx, rx) = mpsc::channel();
                match pool.submit(req, tx) {
                    Ok(()) => rx.recv().unwrap_or_else(|_| {
                        err_response(id, ErrorKind::Panic, "response channel lost", None)
                    }),
                    Err(Reject::Busy { in_flight }) => err_response(
                        id,
                        ErrorKind::Busy,
                        &format!("admission cap reached ({in_flight} in flight)"),
                        Some(25),
                    ),
                    Err(Reject::Draining) => {
                        err_response(id, ErrorKind::ShuttingDown, "daemon is draining", None)
                    }
                }
            }
        };
        so.bytes_out.add(reply.len() as u64 + 1);
        writeln!(writer, "{reply}")?;
        writer.flush()?;
    }
    Ok(())
}

/// Bind the Prometheus endpoint and serve scrapes until `stop` trips.
/// Hand-rolled HTTP/1.0: read the request head, answer `GET /metrics`
/// with the text exposition format, 404 anything else, close. Returns
/// the bound address (port 0 picks a free one) and the serving thread.
pub fn metrics_exporter(
    addr: &str,
    stop: Arc<AtomicBool>,
) -> Result<(SocketAddr, thread::JoinHandle<()>), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind metrics {addr}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("metrics set_nonblocking: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let handle = thread::Builder::new()
        .name("simd-metrics".into())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = serve_scrape(stream);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            }
        })
        .map_err(|e| format!("spawn metrics exporter: {e}"))?;
    Ok((local, handle))
}

fn serve_scrape(stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the rest of the head so the client never sees a reset
    // before it finishes sending.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let is_metrics =
        parts.next() == Some("GET") && matches!(parts.next(), Some("/metrics") | Some("/metrics/"));
    let mut stream = stream;
    if is_metrics {
        server_obs().scrapes.inc();
        let body = obs::snapshot().prometheus();
        write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
    } else {
        let body = "not found; try GET /metrics\n";
        write!(
            stream,
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
    }
    stream.flush()
}
