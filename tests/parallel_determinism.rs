//! The parallel sweep executor must not change results: quick-mode
//! figure CSVs and telemetry exports are byte-identical at `-j 1` and
//! `-j 4`.
//!
//! Quick sizing and the job count come from a `RunCtx` entered for each
//! run, and the reports come back from `RunCtx::collect`, so this test
//! shares nothing with other tests in the process.

use emu_bench::figures;
use emu_bench::output::Table;
use emu_bench::telemetry::report_set_json;
use emu_core::ctx::RunCtx;
use emu_core::fault::SimError;
use emu_core::json::json_ok;

type FigureFn = fn() -> Result<Table, SimError>;

/// Run `f` at `jobs` sweep workers, collecting its reports; return
/// (CSV text, report JSON).
fn run_collected(name: &str, jobs: usize, f: FigureFn) -> (String, String) {
    let ctx = RunCtx {
        quick: true,
        jobs,
        ..RunCtx::default()
    };
    let (table, runs) = ctx.collect(f);
    let table = table.expect("figure must succeed");
    (table.csv(), report_set_json(name, Some(&table), &runs))
}

#[test]
fn figures_are_byte_identical_at_any_job_count() {
    let figs: [(&str, FigureFn); 2] = [("fig04", figures::fig04), ("fig10", figures::fig10)];
    for (name, f) in figs {
        let (csv1, rep1) = run_collected(name, 1, f);
        let (csv4, rep4) = run_collected(name, 4, f);
        assert!(csv1.lines().count() > 1, "{name}: empty CSV");
        assert_eq!(csv1, csv4, "{name}: CSV differs between -j1 and -j4");
        assert_eq!(
            rep1, rep4,
            "{name}: report JSON differs between -j1 and -j4"
        );
        assert!(json_ok(&rep1), "{name}: report JSON invalid");
    }
}
