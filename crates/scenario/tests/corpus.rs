//! Potency checks on the promoted corpus exemplars: a repro that no
//! longer exercises its fault path guards nothing.

use emu_core::prelude::*;
use std::path::Path;

fn load(name: &str) -> scenario::Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/corpus/{name}"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn committed_cross_shard_nack_scenario_exercises_the_fault_path() {
    // The corpus exemplar for the sharded scheduler must actually
    // produce cross-shard mailbox traffic and migration NACKs.
    let s = load("cross-shard-nack.scn");
    let [p] = &scenario::resolve(&s).unwrap()[..] else {
        panic!("the exemplar is one point");
    };
    let scenario::ResolvedWorkload::Script(threads) = &p.workload else {
        panic!("the exemplar is a script scenario");
    };
    let mut e = Engine::new(p.cfg.clone()).unwrap();
    e.set_sim_threads(2);
    e.enable_merge(false);
    conformance::lockstep::seed_case(&mut e, threads).unwrap();
    let report = e.run().unwrap();
    assert!(report.fault_totals().nacks > 0, "case must NACK");
    assert!(report.pdes.mailbox_sent > 0, "case must cross shards");
    assert!(report.total_migrations() > 0, "case must migrate");
    assert!(scenario::fuzz::check(&s).is_empty());
}
