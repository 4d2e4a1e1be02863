//! `simctl cache …` — inspect, prune, and verify the on-disk
//! content-addressed result cache (`runcache`).
//!
//! ```sh
//! simctl cache stats
//! simctl cache gc [--max-mb N]        # default EMU_CACHE_MAX_MB or 512
//! simctl cache verify [--sample N]    # re-run recipes, compare bytes
//! ```
//!
//! `verify` is the trust audit: every cached object that carries a
//! self-contained recipe is re-simulated from scratch (through code
//! paths that never consult the cache) and the fresh payload is
//! compared byte-for-byte against the stored one. Keys carry the
//! source fingerprint (`runcache::MODEL_FINGERPRINT`), so a lookup
//! never reads an entry another build wrote; a mismatch means the same
//! source produced different bytes — the exit code is nonzero and the
//! stale digests are listed.

use runcache::Store;
use simd::exec::{self, WarmSlot};
use simd::proto::{parse_request, Request};

/// Entry point from `simctl`; `args` excludes the `cache` word.
/// Returns the process exit code.
pub fn dispatch(args: &[String]) -> i32 {
    let usage = "usage: simctl cache stats\n\
                 \u{20}      simctl cache gc [--max-mb N]\n\
                 \u{20}      simctl cache verify [--sample N]";
    crate::cli::exit_code("cache", usage, run(args))
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(verb) = args.first() else {
        return Err("missing subcommand".into());
    };
    match verb.as_str() {
        "stats" => cmd_stats(),
        "gc" => cmd_gc(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_stats() -> Result<bool, String> {
    let store = Store::open_default();
    let objs = store.scan();
    let total_bytes: u64 = objs.iter().map(|o| o.bytes).sum();
    println!("cache dir: {}", store.root().display());
    println!(
        "objects:   {} ({:.1} MB)",
        objs.len(),
        total_bytes as f64 / (1024.0 * 1024.0)
    );
    let mut by_kind: std::collections::BTreeMap<String, (usize, u64)> = Default::default();
    for o in &objs {
        let kind = store
            .load(&o.digest)
            .map(|e| e.kind)
            .unwrap_or_else(|| "<undecodable>".into());
        let slot = by_kind.entry(kind).or_default();
        slot.0 += 1;
        slot.1 += o.bytes;
    }
    for (kind, (n, bytes)) in &by_kind {
        println!("  {kind:<16} {n:>6} objects  {bytes:>10} bytes");
    }
    Ok(true)
}

/// The gc budget in bytes: `--max-mb` flag, else `EMU_CACHE_MAX_MB`,
/// else 512 MB.
fn gc_budget(args: &[String]) -> Result<u64, String> {
    let mut max_mb: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-mb" => {
                i += 1;
                let v = args.get(i).ok_or("--max-mb needs a value")?;
                max_mb = Some(
                    v.parse()
                        .map_err(|_| format!("--max-mb: bad value {v:?}"))?,
                );
            }
            other => return Err(format!("unknown gc flag {other:?}")),
        }
        i += 1;
    }
    let mb = match max_mb {
        Some(v) => v,
        None => match std::env::var("EMU_CACHE_MAX_MB") {
            Ok(v) => v
                .parse()
                .map_err(|_| format!("EMU_CACHE_MAX_MB: bad value {v:?}"))?,
            Err(_) => 512,
        },
    };
    Ok(mb.saturating_mul(1024 * 1024))
}

fn cmd_gc(args: &[String]) -> Result<bool, String> {
    let budget = gc_budget(args)?;
    let store = Store::open_default();
    let res = store.gc(budget);
    println!(
        "cache gc: removed {} ({} bytes), kept {} ({} bytes), budget {} bytes [{}]",
        res.removed,
        res.freed_bytes,
        res.kept,
        res.kept_bytes,
        budget,
        store.root().display()
    );
    Ok(true)
}

/// Re-run one recipe from scratch and return the fresh payload.
/// `Ok(None)` means the recipe kind is not verifiable (skip).
fn rerun(recipe: &str) -> Result<Option<String>, String> {
    if let Some(rest) = recipe.strip_prefix("scn:") {
        let (index, text) = rest
            .split_once('\n')
            .ok_or("scn recipe missing scenario text")?;
        let index: usize = index.parse().map_err(|_| "scn recipe: bad point index")?;
        let s = scenario::parse(text).map_err(|e| format!("scn recipe: {e}"))?;
        let points = scenario::resolve(&s).map_err(|e| format!("scn recipe: {e}"))?;
        let p = points
            .iter()
            .find(|p| p.index == index)
            .ok_or_else(|| format!("scn recipe: no point #{index}"))?;
        return Ok(Some(scenario::run_point(&s, p).to_json()));
    }
    // A daemon run's recipe is its own request line.
    if !recipe.starts_with('{') {
        return Ok(None);
    }
    let Request::Run(req) = parse_request(recipe)? else {
        return Err("recipe is not a run request".into());
    };
    // `exec::execute` never consults the cache, so this is a true
    // re-simulation even while the cache is enabled.
    let out = exec::execute(&mut WarmSlot::new(), &req, None)
        .map_err(|e| format!("re-run failed: {}", e.message))?;
    Ok(Some(out.report_json))
}

fn cmd_verify(args: &[String]) -> Result<bool, String> {
    let mut sample: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sample" => {
                i += 1;
                let v = args.get(i).ok_or("--sample needs a value")?;
                sample = Some(
                    v.parse()
                        .map_err(|_| format!("--sample: bad value {v:?}"))?,
                );
            }
            other => return Err(format!("unknown verify flag {other:?}")),
        }
        i += 1;
    }

    let store = Store::open_default();
    let mut objs = store.scan();
    // Digest order makes `--sample N` a deterministic subset.
    objs.sort_by(|a, b| a.digest.cmp(&b.digest));
    if let Some(n) = sample {
        objs.truncate(n);
    }

    let (mut checked, mut skipped, mut stale) = (0usize, 0usize, 0usize);
    for o in &objs {
        let Some(entry) = store.load(&o.digest) else {
            stale += 1;
            println!("STALE {} <undecodable object>", o.digest);
            continue;
        };
        let Some(recipe) = entry.recipe.as_deref() else {
            skipped += 1;
            continue;
        };
        match rerun(recipe) {
            Ok(Some(fresh)) if fresh == entry.payload => checked += 1,
            Ok(Some(_)) => {
                stale += 1;
                println!("STALE {} [{}] {}", o.digest, entry.kind, entry.label);
            }
            Ok(None) => skipped += 1,
            Err(e) => {
                stale += 1;
                println!("STALE {} [{}] {}: {e}", o.digest, entry.kind, entry.label);
            }
        }
    }
    println!(
        "cache verify: {checked} verified, {skipped} skipped (no recipe), {stale} stale [{}]",
        store.root().display()
    );
    Ok(stale == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_budget_prefers_flag_over_env_default() {
        let flag = gc_budget(&["--max-mb".into(), "3".into()]).unwrap();
        assert_eq!(flag, 3 * 1024 * 1024);
        // No flag, no env set in tests -> default 512 MB.
        if std::env::var("EMU_CACHE_MAX_MB").is_err() {
            assert_eq!(gc_budget(&[]).unwrap(), 512 * 1024 * 1024);
        }
        assert!(gc_budget(&["--bogus".into()]).is_err());
    }

    #[test]
    fn stream_and_scenario_recipes_rerun_byte_identically() {
        use simd::proto::{run_request_line, RunRequest, Spec};
        // A daemon stream entry: its recipe is the request's wire line
        // (id 0, no budgets), exactly as `exec::cache_plan` renders it.
        let req = RunRequest {
            id: 0,
            spec: Spec::Stream {
                preset: "chick".into(),
                elems: 512,
                threads: 2,
                kernel: "add".into(),
                strategy: "serial".into(),
                single_nodelet: false,
                stack_touch_period: 0,
            },
            deadline_ms: None,
            max_events: None,
            chaos: None,
        };
        let stored = exec::execute(&mut WarmSlot::new(), &req, None)
            .unwrap()
            .report_json;
        let recipe = run_request_line(&req);
        assert_eq!(rerun(&recipe).unwrap(), Some(stored.clone()));
        assert!(stored.contains("\"label\":\"run\""));

        // A scenario point entry, here a script workload.
        let scn = "scenario r\n\nmachine chick\n\nworkload script\n  thread = 0 L3:8 C5 M9\n";
        let recipe = format!("scn:0\n{scn}");
        let a = rerun(&recipe).unwrap().unwrap();
        assert_eq!(rerun(&recipe).unwrap(), Some(a.clone()));
        assert!(a.starts_with("{\"point\":0,"), "{a}");
    }

    #[test]
    fn unknown_recipes_are_skipped_not_errors() {
        assert_eq!(rerun("mystery:whatever").unwrap(), None);
    }
}
