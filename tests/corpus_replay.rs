//! Replay the committed fuzz corpus. Every `tests/corpus/*.scn` file —
//! seeded exemplars and any shrunk repro `simctl fuzz` ever committed —
//! must run clean under the full scenario runner (sequential-vs-sharded
//! scheduler lockstep, run audit, expect blocks), forever. `.scn` is the
//! only text form of a scripted run: `simctl fuzz` writes its repros in
//! it directly.

use std::fs;
use std::path::Path;

#[test]
fn corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut replayed = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("scn") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let s = scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let outcome = scenario::run_scenario(&s);
        assert!(
            outcome.pass(),
            "{}: {:#?}",
            path.display(),
            outcome.failures
        );
        replayed += 1;
    }
    assert!(
        replayed >= 4,
        "corpus unexpectedly small ({replayed} scenarios)"
    );
}
