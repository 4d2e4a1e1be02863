//! Telemetry artifact export for the bench harness.
//!
//! The report-level serializers (report JSON, JSONL event logs, Chrome
//! traces, the `json_ok`/`jsonl_ok` validators) live in
//! [`emu_core::json`] — they are pure functions of a [`RunReport`] and
//! are shared with the `simd` daemon, which must produce byte-identical
//! documents. This module adds the harness-side documents that depend
//! on [`Table`]: [`table_json`] and the [`report_set_json`] top-level
//! artifact.

use crate::output::Table;
use emu_core::json::{jstr, report_json};
use emu_core::metrics::RunReport;
use std::fmt::Write as _;

/// Serialize a [`Table`] (title/columns/rows) as a JSON object.
pub fn table_json(t: &Table) -> String {
    let cols: Vec<String> = t.columns.iter().map(|c| jstr(c)).collect();
    let rows: Vec<String> = t
        .rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|c| jstr(c)).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!(
        "{{\"title\":{},\"columns\":[{}],\"rows\":[{}]}}",
        jstr(&t.title),
        cols.join(","),
        rows.join(",")
    )
}

/// The top-level report document of one tool invocation: the rendered
/// table (when the tool produced one) plus every collected emu run.
pub fn report_set_json(source: &str, table: Option<&Table>, runs: &[RunReport]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"source\":{},\"table\":", jstr(source));
    match table {
        Some(t) => out.push_str(&table_json(t)),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"run_count\":{},\"runs\":[", runs.len());
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&report_json(&format!("run_{i:03}"), r));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::json::json_ok;

    #[test]
    fn table_json_is_valid() {
        let mut t = Table::new("demo \"quoted\"", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        let j = table_json(&t);
        assert!(json_ok(&j), "{j}");
        assert!(j.contains("\\\"quoted\\\""));
    }

    #[test]
    fn report_set_json_is_valid_without_runs() {
        let j = report_set_json("unit", None, &[]);
        assert!(json_ok(&j), "{j}");
        assert!(j.contains("\"run_count\":0"));
    }
}
