//! `simctl scenario …` — the conformance-suite driver.
//!
//! ```sh
//! simctl scenario run scenarios/ --jobs 4 --report-json suite.json
//! simctl scenario check scenarios/stream-kernel-add-chick.scn
//! ```
//!
//! `run` executes every `.scn` under the given paths (scenarios in
//! parallel across `--jobs` workers, points sequentially within one
//! scenario), and `check` parses and resolves without running. The
//! committed `scenarios/` registry is kept by hand: add a scenario by
//! writing its `.scn` file and running `check` on it. The scenario
//! crate's `tests/registry.rs` holds every file to canonical form and
//! the registry to its coverage floors. Exit codes: 0 = all pass,
//! 1 = failures, 2 = bad usage.

use emu_core::ctx::RunCtx;
use emu_core::json::jstr;
use std::path::{Path, PathBuf};

/// Entry point from `simctl`; `args` excludes the `scenario` word.
/// Returns the process exit code.
pub fn dispatch(args: &[String]) -> i32 {
    let usage = "usage: simctl scenario run <path>... [--jobs N] [--cache] [--report-json FILE]\n\
                 \u{20}      simctl scenario check <path>...";
    crate::cli::exit_code("scenario", usage, run(args))
}

/// Collect `.scn` files below `path` (sorted for stable output).
fn collect(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for e in entries {
            collect(&e, out)?;
        }
        Ok(())
    } else if path.extension().is_some_and(|x| x == "scn") {
        out.push(path.to_path_buf());
        Ok(())
    } else if path.exists() {
        Ok(()) // non-scenario file inside a directory walk
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(verb) = args.first() else {
        return Err("missing subcommand".into());
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut report_json: Option<String> = None;
    let mut ctx = RunCtx::current();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                let v = args.get(i).ok_or("--jobs needs a value")?;
                ctx = crate::runcfg::with_flags(ctx, Some(v), None)?;
            }
            "--cache" => ctx.cache = Some(runcache::resolve_dir()),
            "--report-json" => {
                i += 1;
                report_json = Some(args.get(i).ok_or("--report-json needs a value")?.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => paths.push(PathBuf::from(other)),
        }
        i += 1;
    }
    if paths.is_empty() {
        return Err("no paths given".into());
    }

    match verb.as_str() {
        "check" => cmd_check(&paths),
        "run" => ctx.scope(|| cmd_run(&paths, report_json.as_deref())),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Parsed scenarios plus `(file, error)` entries for the ones that
/// failed to parse.
type Loaded = (Vec<(PathBuf, scenario::Scenario)>, Vec<(String, String)>);

/// Load and parse every `.scn` under `paths`; parse failures become
/// `(file, error)` entries.
fn load(paths: &[PathBuf]) -> Result<Loaded, String> {
    let mut files = Vec::new();
    for p in paths {
        collect(p, &mut files)?;
    }
    if files.is_empty() {
        return Err("no .scn files found".into());
    }
    let mut parsed = Vec::new();
    let mut bad = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        match scenario::parse(&text) {
            Ok(s) => parsed.push((f, s)),
            Err(e) => bad.push((f.display().to_string(), e)),
        }
    }
    Ok((parsed, bad))
}

fn cmd_check(paths: &[PathBuf]) -> Result<bool, String> {
    let (parsed, bad) = load(paths)?;
    for (f, s) in &parsed {
        let points = scenario::resolve(s).map(|p| p.len());
        match points {
            Ok(n) => println!(
                "ok   {} ({} point{})",
                f.display(),
                n,
                if n == 1 { "" } else { "s" }
            ),
            Err(e) => println!("FAIL {}: {e}", f.display()),
        }
    }
    for (f, e) in &bad {
        println!("FAIL {f}: {e}");
    }
    println!("scenario check: {} ok, {} failed", parsed.len(), bad.len());
    Ok(bad.is_empty())
}

fn cmd_run(paths: &[PathBuf], report_json: Option<&str>) -> Result<bool, String> {
    let (parsed, bad) = load(paths)?;
    let t0 = std::time::Instant::now();
    // Scenarios fan out across the sweep executor's worker pool;
    // each scenario's points stay sequential so per-scenario output
    // is deterministic.
    let outcomes: Vec<scenario::ScenarioOutcome> =
        crate::sweep::run_indexed(parsed.len(), |i| scenario::run_scenario(&parsed[i].1));

    let mut passed = 0usize;
    let mut failed = 0usize;
    for ((file, _), o) in parsed.iter().zip(&outcomes) {
        if o.pass() {
            passed += 1;
            println!(
                "PASS {} ({} point{})",
                o.name,
                o.points.len(),
                if o.points.len() == 1 { "" } else { "s" }
            );
        } else {
            failed += 1;
            println!("FAIL {} [{}]", o.name, file.display());
            for f in &o.failures {
                println!("     {f}");
            }
        }
    }
    for (f, e) in &bad {
        failed += 1;
        println!("FAIL {f}: parse: {e}");
    }
    println!(
        "scenario run: {passed} passed, {failed} failed ({} scenarios, {:.1}s)",
        passed + failed,
        t0.elapsed().as_secs_f64()
    );
    if runcache::enabled() {
        let s = runcache::session_stats();
        println!(
            "[runcache] hits={} misses={} stores={}",
            s.hits, s.misses, s.stores
        );
    }

    if let Some(path) = report_json {
        let mut items: Vec<String> = parsed
            .iter()
            .zip(&outcomes)
            .map(|((file, _), o)| {
                format!(
                    "{{\"name\":{},\"file\":{},\"pass\":{},\"points\":{},\"failures\":[{}]}}",
                    jstr(&o.name),
                    jstr(&file.display().to_string()),
                    o.pass(),
                    o.points.len(),
                    o.failures
                        .iter()
                        .map(|f| jstr(f))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        items.extend(bad.iter().map(|(f, e)| {
            format!(
                "{{\"name\":{},\"file\":{},\"pass\":false,\"points\":0,\"failures\":[{}]}}",
                jstr(f),
                jstr(f),
                jstr(&format!("parse: {e}"))
            )
        }));
        let doc = format!(
            "{{\"suite\":\"scenario\",\"total\":{},\"passed\":{passed},\"failed\":{failed},\"scenarios\":[{}]}}\n",
            passed + failed,
            items.join(",")
        );
        debug_assert!(emu_core::json::json_ok(doc.trim_end()));
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
        println!("scenario run: report written to {path}");
    }
    Ok(failed == 0)
}
