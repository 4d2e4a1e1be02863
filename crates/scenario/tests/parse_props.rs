//! Parser properties: print→parse round trips structurally, and every
//! malformed input is rejected with a line-numbered error.

use scenario::ast::*;
use scenario::{parse, print};
use test_support::cases;

/// A random valid scenario: random preset, workload, params drawn from
/// each kind's schema, optional faults, sweep, and expects.
fn gen_random(case: u64, rng: &mut desim::rng::Rng64) -> Scenario {
    // Script scenarios come from the fuzzer's own generator.
    if rng.gen_range(0..4u32) == 0 {
        return scenario::fuzz::gen_scenario(&format!("prop-script-{case}"), rng);
    }
    let presets = emu_core::presets::all();
    let preset = presets[rng.gen_range(0..presets.len() as u32) as usize].0;
    let kinds = [
        WorkloadKind::Stream,
        WorkloadKind::Chase,
        WorkloadKind::Bfs,
        WorkloadKind::Mttkrp,
        WorkloadKind::Spmv,
    ];
    let kind = kinds[rng.gen_range(0..kinds.len() as u32) as usize];
    let mut text = format!("scenario prop-{case}\n\nmachine {preset}\n");
    if rng.gen_range(0..2u32) == 1 {
        text.push_str(&format!(
            "  gc_hz = {}\n",
            100_000_000 + rng.gen_range(0..8u32) as u64 * 25_000_000
        ));
    }
    text.push_str(&format!("\nworkload {}\n", kind.name()));
    match kind {
        WorkloadKind::Stream => {
            text.push_str(&format!("  elems = {}\n", 64 << rng.gen_range(0..4u32)));
            let kernel = membench::stream::StreamKernel::ALL[rng.gen_range(0..4u32) as usize];
            text.push_str(&format!("  kernel = {}\n", kernel.keyword()));
        }
        WorkloadKind::Chase => {
            text.push_str("  elems_per_list = 64\n  block = 16\n");
            text.push_str(&format!("  lists = {}\n", 1 + rng.gen_range(0..4u32)));
        }
        WorkloadKind::Bfs => {
            text.push_str(&format!(
                "  scale = {}\n  edges = 64\n",
                4 + rng.gen_range(0..3u32)
            ));
        }
        WorkloadKind::Mttkrp => {
            text.push_str(&format!(
                "  nnz = {}\n  rank = 2\n",
                16 + rng.gen_range(0..32u32)
            ));
        }
        WorkloadKind::Spmv => {
            text.push_str(&format!("  n = {}\n", 4 + rng.gen_range(0..4u32)));
            let layouts = ["local", "1d", "2d"];
            text.push_str(&format!(
                "  layout = {}\n",
                layouts[rng.gen_range(0..3u32) as usize]
            ));
        }
        WorkloadKind::Script => unreachable!(),
    }
    if rng.gen_range(0..2u32) == 1 {
        text.push_str("\nfaults\n  seed = 5\n  ecc_prob = 0.1\n  ecc_latency_ps = 50000\n");
    }
    if rng.gen_range(0..2u32) == 1 && kind == WorkloadKind::Stream {
        text.push_str("\nsweep elems = 64, 128\n");
        text.push_str("\nexpect\n  monotonic events nondecreasing over elems\n");
    } else {
        text.push_str("\nexpect\n  counter events >= 1\n  byte_identical_at_sim_threads = 1, 2\n");
    }
    parse(&text).unwrap_or_else(|e| panic!("case {case}: generated text invalid: {e}\n{text}"))
}

#[test]
fn print_parse_round_trips() {
    cases(60, 0x5C11, |case, rng| {
        let s = gen_random(case, rng);
        let text = print(&s);
        let back = parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: canonical form rejected: {e}\n{text}"));
        assert_eq!(back, s, "case {case}: round trip diverged\n{text}");
        // Printing is a fixed point: print(parse(print(s))) == print(s).
        assert_eq!(print(&back), text, "case {case}: print not canonical");
    });
}

#[test]
fn registry_round_trips() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "scn") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let s = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let printed = print(&s);
        let back = parse(&printed).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert_eq!(back, s, "{}: registry round trip diverged", s.name);
        assert_eq!(print(&back), printed, "{}: print not canonical", s.name);
    }
}

/// Every rejection must carry `line {n}:` with the offending line.
fn rejects_at(text: &str, line: usize, needle: &str) {
    let err = parse(text).expect_err(&format!("accepted:\n{text}"));
    assert!(
        err.starts_with(&format!("line {line}:")),
        "wrong line in {err:?} (want line {line}) for:\n{text}"
    );
    assert!(
        err.contains(needle),
        "error {err:?} does not mention {needle:?}"
    );
}

#[test]
fn rejections_carry_line_numbers() {
    rejects_at(
        "scenario x\nmachine warp9\nworkload stream\n",
        2,
        "unknown preset",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\n  elemz = 4\n",
        4,
        "unknown stream parameter",
    );
    rejects_at(
        "scenario x\nmachine chick\n  frobnicate = 3\nworkload stream\n",
        3,
        "unknown key",
    );
    rejects_at(
        "scenario x\nmachine chick\n  gc_hz = 0\nworkload stream\n",
        3,
        "gc_hz 0 out of range",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload quicksort\n",
        3,
        "unknown workload",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\nstray line here\n",
        4,
        "key = value",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\n\nexpect\n  counter warp >= 1\n",
        6,
        "unknown metric",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\n\nexpect\n  oracle psychic in 0.9..1.1\n",
        6,
        "unknown oracle",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\n\nexpect\n  byte_identical_at_sim_threads = 2\n",
        6,
        "at least two",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\n  elems = 8\n  elems = 9\n",
        5,
        "duplicate",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\nsweep elems = 1, 2\nsweep threads = 1, 2\nsweep kernel = add\n",
        6,
        "at most 2",
    );
    rejects_at(
        "scenario x\nmachine chick\n  fault_ecc_prob = 0.5\nworkload stream\n",
        3,
        "faults section",
    );
    rejects_at(
        "scenario x\nmachine chick\nworkload stream\n  thread = 0 C1\n",
        4,
        "script",
    );
    // Structural errors without a single offending line name the gap.
    assert!(parse("scenario x\nmachine chick\n")
        .unwrap_err()
        .contains("missing workload"));
    assert!(parse("machine chick\nworkload stream\n")
        .unwrap_err()
        .contains("scenario"));
    assert!(parse("scenario x\nmachine chick\nworkload script\n")
        .unwrap_err()
        .contains("no thread lines"));
    assert!(
        parse("scenario x\nmachine chick\nworkload stream\n\nexpect\n  monotonic events nondecreasing over elems\n")
            .unwrap_err()
            .contains("unswept axis")
    );
}

#[test]
fn semantic_validation_happens_at_parse_time() {
    // Structurally fine, semantically broken: chase geometry.
    let err =
        parse("scenario x\nmachine chick\nworkload chase\n  elems_per_list = 100\n  block = 64\n")
            .unwrap_err();
    assert!(err.contains("multiple"), "{err}");
    // BFS source outside the graph.
    let err =
        parse("scenario x\nmachine chick\nworkload bfs\n  scale = 4\n  src = 99\n").unwrap_err();
    assert!(err.contains("out of range"), "{err}");
}
