//! The parallel sweep executor must not change results: quick-mode
//! figure CSVs and telemetry exports are byte-identical at `-j 1` and
//! `-j 4`.
//!
//! One test function: the jobs knob, the report collector, and the
//! `EMU_QUICK`/`EMU_RESULTS_DIR` environment are process-global, and
//! tests within one binary share the process.

use emu_bench::output::Table;
use emu_bench::telemetry::report_set_json;
use emu_bench::{figures, runcfg};
use emu_core::fault::SimError;
use emu_core::json::json_ok;
use emu_core::trace;
use std::path::PathBuf;

type FigureFn = fn() -> Result<Table, SimError>;

/// Run `f` with the collector armed; return (csv bytes, report json).
fn run_collected(
    name: &str,
    dir: &std::path::Path,
    f: impl FnOnce() -> Result<Table, SimError>,
) -> (Vec<u8>, String) {
    trace::collect_reports(true);
    let table = f().expect("figure must succeed");
    let runs = trace::take_reports();
    trace::collect_reports(false);
    let report = report_set_json(name, Some(&table), &runs);
    std::env::set_var("EMU_RESULTS_DIR", dir);
    let path = table.write_csv(name).expect("csv write");
    std::env::remove_var("EMU_RESULTS_DIR");
    (std::fs::read(path).expect("csv read"), report)
}

#[test]
fn figures_are_byte_identical_at_any_job_count() {
    std::env::set_var("EMU_QUICK", "1");
    let base = std::env::temp_dir().join(format!("emu_pardet_{}", std::process::id()));
    let figs: [(&str, FigureFn); 2] = [("fig04", figures::fig04), ("fig10", figures::fig10)];
    for (name, f) in figs {
        let mut outs: Vec<(Vec<u8>, String)> = Vec::new();
        for jobs in [1usize, 4] {
            runcfg::set_jobs(jobs);
            let dir: PathBuf = base.join(format!("{name}_j{jobs}"));
            outs.push(run_collected(name, &dir, f));
        }
        runcfg::set_jobs(0);
        let (csv1, rep1) = &outs[0];
        let (csv4, rep4) = &outs[1];
        assert!(!csv1.is_empty(), "{name}: empty CSV");
        assert_eq!(csv1, csv4, "{name}: CSV differs between -j1 and -j4");
        assert_eq!(
            rep1, rep4,
            "{name}: report JSON differs between -j1 and -j4"
        );
        assert!(json_ok(rep1), "{name}: report JSON invalid");
    }
    std::env::remove_var("EMU_QUICK");
    let _ = std::fs::remove_dir_all(&base);
}
