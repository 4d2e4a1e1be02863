//! The daemon's client: one-shot requests with seeded, jittered
//! exponential backoff, plus the `simctl client` sweep front-end.
//!
//! Retry policy: connection failures, I/O errors, and `busy`
//! rejections are retryable (the daemon advertises `retry_after_ms`
//! on busy). `shutting_down` and every typed run failure are final.
//! Backoff is deterministic per seed so soak tests replay exactly.

use crate::proto::{run_request_line, RunRequest, Spec};
use desim::rng::{rng_from_seed, trial_seed};
use emu_core::jsonread::parse;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client connection and retry policy.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// Daemon address.
    pub addr: String,
    /// Retries after the first attempt.
    pub retries: u32,
    /// Base backoff in milliseconds (doubled per attempt, plus jitter).
    pub backoff_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for ClientOpts {
    fn default() -> Self {
        ClientOpts {
            addr: "127.0.0.1:7677".into(),
            retries: 5,
            backoff_ms: 10,
            seed: desim::rng::DEFAULT_SEED,
        }
    }
}

fn send_once(addr: &str, line: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(line.as_bytes())
        .and_then(|_| writer.write_all(b"\n"))
        .and_then(|_| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let n = reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    if n == 0 {
        return Err("connection closed before response".into());
    }
    Ok(reply.trim_end().to_string())
}

/// True if `reply` is a `busy` rejection; also yields the server's
/// retry hint when present.
fn busy_hint(reply: &str) -> Option<u64> {
    let v = parse(reply).ok()?;
    let err = v.get("error")?;
    if err.get("kind")?.as_str()? != "busy" {
        return None;
    }
    Some(
        v.get("retry_after_ms")
            .and_then(|h| h.as_u64())
            .unwrap_or(0),
    )
}

/// Send one request line, retrying transient failures with seeded
/// jittered exponential backoff. Returns the final response line.
pub fn request(opts: &ClientOpts, line: &str) -> Result<String, String> {
    let mut last_err = String::new();
    for attempt in 0..=opts.retries {
        match send_once(&opts.addr, line) {
            Ok(reply) => match busy_hint(&reply) {
                None => return Ok(reply),
                Some(hint) if attempt < opts.retries => {
                    backoff(opts, attempt, hint);
                    last_err = format!("busy after {} attempts", attempt + 1);
                }
                Some(_) => return Ok(reply), // out of retries: surface the rejection
            },
            Err(e) => {
                last_err = e;
                if attempt < opts.retries {
                    backoff(opts, attempt, 0);
                }
            }
        }
    }
    Err(format!("{}: giving up: {last_err}", opts.addr))
}

fn backoff(opts: &ClientOpts, attempt: u32, server_hint_ms: u64) {
    let base = opts.backoff_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(10));
    let jitter = rng_from_seed(trial_seed(opts.seed, attempt as u64)).gen_range(0..base);
    std::thread::sleep(Duration::from_millis(exp.max(server_hint_ms) + jitter));
}

/// The `client` subcommand: submit a run sweep (or health/shutdown)
/// and stream response lines to stdout.
pub fn run_cli(args: &[String]) -> Result<(), String> {
    let mut opts = ClientOpts {
        addr: std::env::var("EMU_SIMD_ADDR").unwrap_or_else(|_| "127.0.0.1:7677".into()),
        ..ClientOpts::default()
    };
    let mut preset = "chick".to_string();
    let mut kernel = "add".to_string();
    let mut strategy = "recursive-remote".to_string();
    let mut elems: u64 = 4096;
    let mut threads: Vec<usize> = vec![64];
    let mut requests: usize = 1;
    let mut single_nodelet = false;
    let mut stack_touch_period: u32 = 4;
    let mut deadline_ms = None;
    let mut max_events = None;
    let mut chaos = None;
    let mut health = false;
    let mut shutdown = false;
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val =
            || -> Result<&String, String> { it.next().ok_or_else(|| format!("{a} needs a value")) };
        match a.as_str() {
            "--addr" => opts.addr = val()?.clone(),
            "--retries" => opts.retries = val()?.parse().map_err(|_| "bad --retries")?,
            "--backoff-ms" => opts.backoff_ms = val()?.parse().map_err(|_| "bad --backoff-ms")?,
            "--seed" => opts.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--preset" => preset = val()?.clone(),
            "--kernel" => kernel = val()?.clone(),
            "--strategy" => strategy = val()?.clone(),
            "--elems" => elems = val()?.parse().map_err(|_| "bad --elems")?,
            "--threads" => {
                threads = val()?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|_| format!("bad --threads {t:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--requests" => requests = val()?.parse().map_err(|_| "bad --requests")?,
            "--single-nodelet" => single_nodelet = true,
            "--stack-touch-period" => {
                stack_touch_period = val()?.parse().map_err(|_| "bad --stack-touch-period")?;
            }
            "--deadline-ms" => deadline_ms = Some(val()?.parse().map_err(|_| "bad --deadline-ms")?),
            "--max-events" => max_events = Some(val()?.parse().map_err(|_| "bad --max-events")?),
            "--chaos" => {
                chaos = match val()?.as_str() {
                    "panic" => Some(crate::proto::Chaos::Panic),
                    other => return Err(format!("unknown chaos directive {other:?}")),
                };
            }
            "--health" => health = true,
            "--shutdown" => shutdown = true,
            "--out" => out = Some(val()?.clone()),
            other => return Err(format!("unknown client flag {other:?}")),
        }
    }

    let mut lines = Vec::new();
    let mut id: u64 = 1;
    if health {
        lines.push(request(
            &opts,
            &format!("{{\"op\":\"health\",\"id\":{id}}}"),
        )?);
        id += 1;
    }
    if !health && !shutdown {
        for &t in &threads {
            for _ in 0..requests {
                let req = RunRequest {
                    id,
                    spec: Spec::Stream {
                        preset: preset.clone(),
                        elems,
                        threads: t,
                        kernel: kernel.clone(),
                        strategy: strategy.clone(),
                        single_nodelet,
                        stack_touch_period,
                    },
                    deadline_ms,
                    max_events,
                    chaos,
                };
                id += 1;
                lines.push(request(&opts, &run_request_line(&req))?);
            }
        }
    }
    if shutdown {
        lines.push(request(
            &opts,
            &format!("{{\"op\":\"shutdown\",\"id\":{id}}}"),
        )?);
    }

    let mut stdout = std::io::stdout();
    for l in &lines {
        writeln!(stdout, "{l}").map_err(|e| e.to_string())?;
    }
    stdout.flush().map_err(|e| e.to_string())?;
    if let Some(path) = out {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let body = lines.join("\n") + "\n";
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}
