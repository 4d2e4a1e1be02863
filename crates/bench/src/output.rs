//! Result presentation: aligned ASCII tables (what the binaries print)
//! and CSV files (what plots consume), written under `results/`.

use emu_core::ctx::RunCtx;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with `columns`.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            let _ = writeln!(out);
        };
        line(&self.columns, &mut out);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }

    /// The CSV text [`Table::write_csv`] writes: the header line, then
    /// one line per row.
    pub fn csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.columns.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        s
    }

    /// Write as CSV to `results/<name>.csv` (relative to the workspace
    /// root when run via cargo). Returns the path written.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.csv())?;
        Ok(path)
    }

    /// Print the table and persist it as CSV, reporting the path.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        match self.write_csv(name) {
            Ok(p) => println!("[csv] {}", p.display()),
            Err(e) => eprintln!("[csv] write failed: {e}"),
        }
    }
}

/// Emit a fallible table, printing the error and exiting nonzero when
/// the simulation failed — the figure binaries are thin wrappers over
/// this, so a faulted machine config degrades to a clean error message
/// instead of a panic.
pub fn emit_result(name: &str, table: Result<Table, emu_core::fault::SimError>) {
    match table {
        Ok(t) => t.emit(name),
        Err(e) => {
            eprintln!("[{name}] simulation failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Flags shared by every figure binary (parsed from `std::env::args` by
/// [`run_figure`]): the telemetry artifacts and the parallelism knobs.
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// `--report-json PATH`: write the machine-readable run report.
    pub report_json: Option<PathBuf>,
    /// `--trace-out PATH`: write a Chrome `trace_event` JSON trace.
    pub trace_out: Option<PathBuf>,
    /// `--jsonl-out PATH`: write the JSONL event log.
    pub jsonl_out: Option<PathBuf>,
    /// `--trace-events N`: event ring capacity (default 16384).
    pub trace_events: usize,
    /// `--trace-bucket-us N`: timeline bucket width in µs (default 20).
    pub trace_bucket_us: u64,
    /// The current [`RunCtx`] with `--jobs N`/`-j N` (sweep worker
    /// threads) and `--sim-threads N|auto` (scheduler workers per engine
    /// run) applied by [`crate::runcfg::with_flags`]. Results are
    /// byte-identical at any value; both are purely speed knobs.
    pub ctx: RunCtx,
}

impl TelemetryArgs {
    /// Parse the shared flags from an argument iterator. An unknown
    /// argument, a flag without its value, or a count that is malformed
    /// or zero is an error.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        use crate::runcfg::count;
        let mut out = TelemetryArgs {
            trace_events: crate::runcfg::DEFAULT_TRACE_EVENTS,
            trace_bucket_us: crate::runcfg::DEFAULT_TRACE_BUCKET_US,
            ..TelemetryArgs::default()
        };
        let (mut jobs, mut sim_threads) = (None, None);
        let mut args = args;
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--report-json" => out.report_json = Some(value()?.into()),
                "--trace-out" => out.trace_out = Some(value()?.into()),
                "--jsonl-out" => out.jsonl_out = Some(value()?.into()),
                "--trace-events" => out.trace_events = count(&a, &value()?, "")?,
                "--trace-bucket-us" => out.trace_bucket_us = count(&a, &value()?, "")? as u64,
                "--jobs" | "-j" => jobs = Some(value()?),
                "--sim-threads" => sim_threads = Some(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        out.ctx =
            crate::runcfg::with_flags(RunCtx::current(), jobs.as_deref(), sim_threads.as_deref())?;
        Ok(out)
    }

    /// Whether any telemetry artifact was requested.
    pub fn any(&self) -> bool {
        self.report_json.is_some() || self.trace_out.is_some() || self.jsonl_out.is_some()
    }

    /// Whether per-event tracing (ring buffer + timelines) is needed.
    pub fn wants_trace(&self) -> bool {
        self.trace_out.is_some() || self.jsonl_out.is_some()
    }

    /// The engine-side telemetry config these flags imply.
    pub fn config(&self) -> emu_core::trace::TelemetryConfig {
        if self.wants_trace() {
            emu_core::trace::TelemetryConfig {
                event_capacity: self.trace_events,
                timeline_bucket: Some(desim::time::Time::from_us(self.trace_bucket_us)),
            }
        } else {
            emu_core::trace::TelemetryConfig::off()
        }
    }
}

/// Write a telemetry artifact, creating parent directories and
/// reporting the path (or the failure) on the console.
pub fn write_artifact(label: &str, path: &Path, body: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("[{label}] {}", path.display()),
        Err(e) => eprintln!("[{label}] write failed ({}): {e}", path.display()),
    }
}

/// Parse the shared flags from the process's command line. A usage
/// error (an unknown argument, a missing or malformed value) is printed
/// under `[label]` and exits 2.
pub fn args_or_exit(label: &str) -> TelemetryArgs {
    TelemetryArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("[{label}] {e}");
        std::process::exit(2);
    })
}

/// Run a figure with telemetry plumbing: parses the shared flags
/// ([`args_or_exit`]), then runs it as [`run_figure_with`] does.
pub fn run_figure(name: &str, f: impl FnOnce() -> Result<Table, emu_core::fault::SimError>) {
    run_figure_with(&args_or_exit(name), name, f);
}

/// Run a figure in the [`RunCtx`] that already-parsed flags describe
/// (collecting reports when an artifact is requested, tracing when a
/// trace is), write the requested artifacts, then emit the table
/// exactly like [`emit_result`]. With no flags the run is untraced and
/// uncollected.
pub fn run_figure_with(
    args: &TelemetryArgs,
    name: &str,
    f: impl FnOnce() -> Result<Table, emu_core::fault::SimError>,
) {
    let ctx = RunCtx {
        telemetry: args.config(),
        ..args.ctx.clone()
    };
    let (table, runs) = if args.any() {
        ctx.collect(f)
    } else {
        (ctx.scope(f), Vec::new())
    };

    if let Some(path) = &args.report_json {
        let body = crate::telemetry::report_set_json(name, table.as_ref().ok(), &runs);
        write_artifact("report-json", path, &body);
    }
    // Chrome trace / JSONL describe a single run: use the last traced
    // report (the figure's final emu configuration).
    let traced = runs.iter().rev().find(|r| r.trace.is_some());
    if let Some(path) = &args.trace_out {
        match traced {
            Some(r) => write_artifact("trace-out", path, &emu_core::json::chrome_trace(r)),
            None => eprintln!("[trace-out] no traced emu run to export"),
        }
    }
    if let Some(path) = &args.jsonl_out {
        match traced {
            Some(r) => write_artifact("jsonl-out", path, &emu_core::json::trace_jsonl(r)),
            None => eprintln!("[jsonl-out] no traced emu run to export"),
        }
    }
    emit_result(name, table);
}

/// The directory figure CSVs are written to: `$EMU_RESULTS_DIR` or
/// `results/` in the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("EMU_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("results").to_path_buf())
}

/// Format megabytes/second with sensible precision.
pub fn fmt_mbs(mbs: f64) -> String {
    if mbs >= 1000.0 {
        format!("{:.2} GB/s", mbs / 1000.0)
    } else if mbs >= 10.0 {
        format!("{mbs:.0} MB/s")
    } else {
        format!("{mbs:.2} MB/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("bbbb"));
        assert_eq!(r.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_mbs_scales() {
        assert_eq!(fmt_mbs(1234.0), "1.23 GB/s");
        assert_eq!(fmt_mbs(250.0), "250 MB/s");
        assert_eq!(fmt_mbs(3.5), "3.50 MB/s");
    }

    fn parse(s: &str) -> Result<TelemetryArgs, String> {
        RunCtx::default().scope(|| TelemetryArgs::parse(s.split_whitespace().map(String::from)))
    }

    #[test]
    fn telemetry_args_parse_round_trip() {
        let args =
            parse("--report-json r.json --trace-events 64 --jsonl-out t.jsonl -j 4").unwrap();
        assert_eq!(args.report_json.as_deref(), Some(Path::new("r.json")));
        assert_eq!(args.jsonl_out.as_deref(), Some(Path::new("t.jsonl")));
        assert!(args.trace_out.is_none());
        assert_eq!(args.trace_events, 64);
        assert_eq!(args.trace_bucket_us, 20);
        assert_eq!(args.ctx.jobs, 4);
        assert!(args.any() && args.wants_trace());
        assert!(args.config().enabled());

        // No flags: the current ctx, untouched.
        let off = parse("").unwrap();
        assert!(!off.any() && !off.wants_trace());
        assert!(!off.config().enabled());
        assert_eq!((off.ctx.jobs, off.ctx.sim_threads), (1, 1));
    }

    #[test]
    fn sim_threads_flag_parses_counts_and_auto() {
        let n = parse("--sim-threads 4").unwrap();
        assert_eq!(n.ctx.sim_threads, 4);

        let auto = parse("--sim-threads auto").unwrap();
        // Auto resolves to at least one shard regardless of host shape.
        assert!(auto.ctx.sim_threads >= 1);

        // Garbage, zero and missing values, and arguments no figure
        // binary takes, are usage errors.
        for bad in [
            "--sim-threads lots",
            "--sim-threads 0",
            "-j lots",
            "--jobs 0",
            "--jobs",
            "--trace-events lots",
            "--trace-events 0",
            "--trace-events",
            "--trace-bucket-us 2.5",
            "--trace-bucket-us 0",
            "--trace-bucket-us",
            "--report-json",
            "--trace-out",
            "--jsonl-out",
            "--quick",
            "--trace-event 64",
            "extra",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn csv_round_trip() {
        std::env::set_var(
            "EMU_RESULTS_DIR",
            std::env::temp_dir().join("emu_test_results"),
        );
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "2.5".into()]);
        let p = t.write_csv("unit_test_demo").unwrap();
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(body, "x,y\n1,2.5\n");
        std::env::remove_var("EMU_RESULTS_DIR");
    }
}
