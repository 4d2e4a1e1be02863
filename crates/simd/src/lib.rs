//! `simd` — the resident simulation daemon.
//!
//! Rebuilding an [`Engine`](emu_core::engine::Engine) for every run is
//! the dominant cost of short requests (figure sweeps, conformance
//! cases, CI probes). This crate keeps a pool of **warm** engines
//! resident behind a TCP/JSONL protocol and hardens every layer:
//!
//! - **Warm reuse** — each worker parks its engine after a successful
//!   run and [`Engine::reset`](emu_core::engine::Engine::reset)s it for
//!   the next request with the same machine config. Reset-vs-cold
//!   byte identity is enforced by emu-core's `reset_reuse` regression
//!   suite, by the report audit on every response, and optionally by
//!   an online self-check (`EMU_SIMD_SELFCHECK=1`).
//! - **Admission control** — a bounded in-flight cap; overload gets an
//!   explicit `busy` rejection with a retry hint instead of unbounded
//!   queueing.
//! - **Deadlines** — a request's wall-clock budget and event cap ride
//!   on the [`RunCtx`](emu_core::ctx::RunCtx) it runs in, and the
//!   engine enforces both itself, reading the clock only when a
//!   deadline is armed
//!   ([`SimError::DeadlineExceeded`](emu_core::fault::SimError)). A
//!   scenario request's budget applies to each of its points.
//! - **Fault isolation** — a panicking job is caught and answered on
//!   behalf of its worker, which discards its warm engine and serves on
//!   from its own queue on the same thread; nothing queued behind the
//!   panic is lost, and other in-flight requests are untouched.
//! - **Graceful drain** — shutdown stops admission, lets in-flight
//!   work finish or deadline out, then flushes a telemetry summary
//!   whose counters must reconcile exactly.
//!
//! Configuration is environment-driven (`EMU_SIMD_*`); the knobs are
//! documented in EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod client;
pub mod exec;
pub mod pool;
pub mod proto;
pub mod scn;
pub mod server;
pub mod top;

use pool::PoolConfig;
use server::ServeOpts;
use std::time::Instant;

/// Read a `u64` env knob, falling back to `default` when unset/invalid.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read a boolean env knob: set and not `0`/empty means on.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Build a [`PoolConfig`] from the `EMU_SIMD_*` environment.
pub fn pool_config_from_env() -> PoolConfig {
    let workers = env_u64("EMU_SIMD_WORKERS", 2).max(1) as usize;
    PoolConfig {
        workers,
        queue_cap: env_u64("EMU_SIMD_QUEUE", 2 * workers as u64 + 4).max(1) as usize,
        selfcheck: env_flag("EMU_SIMD_SELFCHECK"),
    }
}

/// Build [`ServeOpts`] from the `EMU_SIMD_*` environment.
pub fn serve_opts_from_env() -> ServeOpts {
    ServeOpts {
        addr: std::env::var("EMU_SIMD_ADDR").unwrap_or_else(|_| "127.0.0.1:7677".into()),
        pool: pool_config_from_env(),
        drain_ms: env_u64("EMU_SIMD_DRAIN_MS", 10_000),
        max_conns: env_u64("EMU_SIMD_MAX_CONNS", 32).max(1) as usize,
        telemetry_path: std::env::var("EMU_SIMD_TELEMETRY")
            .ok()
            .filter(|p| !p.is_empty()),
        handle_signals: true,
        metrics_addr: std::env::var("EMU_SIMD_METRICS_ADDR")
            .ok()
            .filter(|a| !a.is_empty()),
    }
}

/// The cold one-shot comparator: read one request line from stdin,
/// answer it with [`once`], write the reply line to stdout.
///
/// This is what a daemonless client pays per run — process startup
/// plus a cold engine build — and is the cold leg of the warm-pool
/// bound in `simctl gates` as well as the byte-identity oracle for
/// tests.
pub fn run_once_stdin() -> i32 {
    use std::io::{BufRead, Write};
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() || line.trim().is_empty() {
        eprintln!("simd-once: expected one request line on stdin");
        return 2;
    }
    let reply = once(line.trim_end());
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{reply}");
    let _ = out.flush();
    0
}

/// Answer one request line on cold engines, under the budget the daemon
/// would give it. A run's deadline counts from the call. A scenario's
/// points run in sweep order, and each point's deadline counts from its
/// own start, as a daemon worker counts it.
pub fn once(line: &str) -> String {
    let started = Instant::now();
    match proto::parse_request(line) {
        Err(e) => proto::err_response(0, proto::ErrorKind::Proto, &e, None),
        Ok(proto::Request::Run(req)) => run_cold(&req, started),
        Ok(proto::Request::Scenario(req)) => scn::handle_once(&req),
        Ok(proto::Request::Health { id })
        | Ok(proto::Request::Metrics { id })
        | Ok(proto::Request::Shutdown { id }) => proto::err_response(
            id,
            proto::ErrorKind::Proto,
            "simd-once only handles runs",
            None,
        ),
    }
}

/// Run `req` on a fresh engine, its deadline counted from `started`,
/// and render the reply line a daemon worker would send.
fn run_cold(req: &proto::RunRequest, started: Instant) -> String {
    match exec::execute(&mut exec::WarmSlot::new(), req, Some(started)) {
        Ok(out) => proto::ok_response(req.id, 0, false, &out.report_json),
        Err(e) => proto::err_response(req.id, e.kind, &e.message, None),
    }
}

/// Usage text for the daemon subcommands (shared by `simd` and
/// `simctl`).
pub const USAGE: &str = "\
simd subcommands:
  serve                       run the resident daemon (EMU_SIMD_* env knobs)
  client [flags]              submit runs / health / shutdown to a daemon
      --addr H:P --preset P --elems N --threads A,B,C --requests N
      --kernel K --strategy S --single-nodelet --deadline-ms N
      --max-events N --seed N --retries N --backoff-ms N
      --health --shutdown --out FILE
  simd-once                   execute one request line from stdin, cold
  top [flags]                 live dashboard over the daemon's metrics op
      --addr H:P --interval MS --once --count N
";

/// Dispatch a daemon subcommand (`serve`, `client`, `simd-once`,
/// `top`). Returns the process exit code.
pub fn dispatch(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let outcome = match (cmd.as_str(), rest) {
        ("serve", []) => server::serve(serve_opts_from_env()).map(|summary| {
            for v in &summary.violations {
                eprintln!("simd: invariant violated: {v}");
            }
            summary.violations.is_empty()
        }),
        ("once" | "simd-once", []) => return run_once_stdin(),
        ("client", _) => client::run_cli(rest).map(|()| true),
        ("top", _) => top::run_cli(rest).map(|()| true),
        // `serve` and `simd-once` read only the environment and stdin.
        ("serve" | "once" | "simd-once", [extra, ..]) => {
            eprintln!("simd {cmd}: unknown argument {extra:?}");
            eprint!("{USAGE}");
            return 2;
        }
        (other, _) => {
            eprintln!("unknown simd subcommand {other:?}");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(clean) => i32::from(!clean),
        Err(e) => {
            eprintln!("simd {cmd}: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn once_stops_a_run_at_its_deadline_as_the_daemon_does() {
        let line = r#"{"op":"run","id":1,"spec":{"kind":"stream","elems":262144,"threads":64},"deadline_ms":1}"#;
        let reply = super::once(line);
        assert!(reply.contains(r#""kind":"deadline""#), "{reply}");
    }
}
