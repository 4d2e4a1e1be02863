//! The committed `scenarios/` tree is the conformance registry. Every
//! file must be a canonical scenario named after itself, and the files
//! together must keep the registry's coverage guarantees.

use scenario::ast::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every committed `.scn` file and its text, sorted by path.
fn committed() -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect()
}

#[test]
fn every_committed_scenario_parses_and_resolves() {
    let files = committed();
    for (path, text) in &files {
        let shown = path.display();
        let s = scenario::parse(text).unwrap_or_else(|e| panic!("{shown}: {e}"));
        assert_eq!(
            &scenario::print(&s),
            text,
            "{shown}: not in canonical form; write it as `scenario::print` would"
        );
        assert_eq!(
            path.file_stem().and_then(|f| f.to_str()),
            Some(s.name.as_str()),
            "{shown}: file name differs from its scenario name"
        );
        let points = scenario::resolve(&s).unwrap_or_else(|e| panic!("{shown}: {e}"));
        assert!(!points.is_empty(), "{shown}: no points");
    }
    assert!(
        files.len() >= 200,
        "registry has {} scenarios; the suite requires at least 200",
        files.len()
    );
}

#[test]
fn registry_covers_every_preset_workload_pair_and_enough_faults() {
    let mut pairs = BTreeSet::new();
    let mut faulty = 0;
    let mut identity = 0;
    for (path, text) in committed() {
        let s = scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        pairs.insert((s.preset.clone(), s.workload.kind));
        if !s.faults.is_empty() {
            faulty += 1;
        }
        if s.expect
            .iter()
            .any(|e| matches!(e, Expect::ByteIdentical { .. }))
        {
            identity += 1;
        }
    }
    for (preset, _) in emu_core::presets::all() {
        for kind in WorkloadKind::ALL {
            assert!(
                pairs.contains(&(preset.to_string(), kind)),
                "no scenario for preset {preset} x workload {}",
                kind.name()
            );
        }
    }
    assert!(
        faulty >= 20,
        "only {faulty} fault-bearing scenarios (need 20+)"
    );
    assert!(identity >= 20, "only {identity} byte-identity scenarios");
}
