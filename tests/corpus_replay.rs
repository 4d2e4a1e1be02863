//! Replay the committed fuzz corpus. Every `tests/corpus/*.scn` file —
//! seeded exemplars and any shrunk repro `simctl fuzz` ever committed —
//! must run clean under the full scenario runner (sequential-vs-sharded
//! scheduler lockstep, run audit, expect blocks), forever.
//!
//! The corpus is `.scn`-only. The `.case` text codec itself remains
//! load-bearing (fuzz repros, `scenario promote`, and the result
//! cache's `case:` recipes all speak it), so its round-trip stays
//! pinned here on an in-memory fixture.

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

/// The `.case` codec round trip: encode ∘ decode is the identity on
/// encoded form, and decode normalizes whatever formatting a repro was
/// written with. The cache relies on this normalization for stable
/// `simd-case` digests.
#[test]
fn case_codec_round_trips_on_a_fixture() {
    let mut rng = desim::rng::rng_from_seed(3);
    let case = conformance::fuzz::gen_case(&mut rng);
    let encoded = conformance::fuzz::encode(&case);
    let decoded = conformance::fuzz::decode(&encoded).unwrap();
    assert_eq!(conformance::fuzz::encode(&decoded), encoded);

    // No committed .case files remain; repros land as .scn now.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        assert_ne!(
            path.extension().and_then(|e| e.to_str()),
            Some("case"),
            "{}: stray legacy .case file",
            path.display()
        );
    }
}
