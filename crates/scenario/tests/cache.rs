//! Scenario points served from the result cache decode equal to the
//! fresh outcomes they were stored from.
//!
//! This lives in its own test binary because it arms the process-global
//! cache; the crate's other suites assume it is off.

const SCN: &str = "\
scenario cached

machine chick

workload stream
  elems = 64
  threads = 4

sweep elems = 32, 64

expect
  counter events >= 1
  oracle stream-single-thread in 0..100
  byte_identical_at_sim_threads = 1, 2
";

#[test]
fn cached_point_outcomes_decode_equal_to_fresh_ones() {
    let dir = std::env::temp_dir().join(format!("emu-cache-scn-test-{}", std::process::id()));
    runcache::set_dir(Some(&dir));
    runcache::set_enabled(true);

    let s = scenario::parse(SCN).unwrap();
    let fresh = scenario::run_scenario_cached(&s);
    let stored = runcache::session_stats();
    let cached = scenario::run_scenario_cached(&s);
    let after = runcache::session_stats();

    runcache::set_enabled(false);
    runcache::set_dir(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(fresh.pass(), "{:?}", fresh.failures);
    assert_eq!(stored.stores, 2, "{stored:?}");
    assert_eq!(after.hits - stored.hits, 2, "{after:?}");
    assert_eq!(cached.points, fresh.points);
    assert_eq!(cached.failures, fresh.failures);
}
