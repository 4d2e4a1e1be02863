//! Deterministic scenario fuzzing.
//!
//! The fuzzer generates randomized-but-valid `workload script`
//! scenarios — every machine key written out explicitly, an optional
//! seeded fault plan, one to five threadlet scripts — and checks each
//! with the lockstep ([`conformance::lockstep::run_case`]: sequential
//! vs two-worker sharded scheduler, both runs audited). A failure
//! shrinks greedily to a minimal scenario, which prints as a
//! ready-to-run `.scn` repro for `tests/corpus/`. Everything is seeded
//! via [`desim::rng`]: [`fuzz`] is a pure function of its arguments.

use crate::ast::{Scenario, Workload, WorkloadKind};
use crate::resolve::{resolve, ResolvedWorkload};
use conformance::lockstep::{self, OpSpec, ThreadScript};
use desim::rng::{rng_from_seed, trial_seed, Rng64};
use emu_core::config::MachineConfig;
use std::collections::BTreeMap;

/// Generate one random script scenario named `name`. Every value is
/// drawn from `rng`, and the result always resolves.
pub fn gen_scenario(name: &str, rng: &mut Rng64) -> Scenario {
    let ps = |ns: u64| ns * 1000;
    let nodes = rng.gen_range(1..3u32);
    let nodelets_per_node = rng.gen_range(1..9u32);
    let total = nodes * nodelets_per_node;
    let mut faults: Vec<(&str, String)> = Vec::new();
    if rng.gen_range(0..2u32) == 1 {
        faults.push(("seed", rng.next_u64().to_string()));
        faults.push(("mig_nack_prob", format!("{:?}", rng.gen_range(0.0..0.3))));
        faults.push(("mig_backoff_ps", ps(rng.gen_range(1..100u64)).to_string()));
        faults.push(("mig_retry_budget", "64".into()));
        faults.push(("ecc_prob", format!("{:?}", rng.gen_range(0.0..0.3))));
        faults.push(("ecc_latency_ps", ps(rng.gen_range(1..100u64)).to_string()));
        faults.push(("link_drop_prob", format!("{:?}", rng.gen_range(0.0..0.2))));
        faults.push(("link_retry_budget", "64".into()));
        if rng.gen_range(0..2u32) == 1 {
            let xs: Vec<String> = (0..total)
                .map(|_| format!("{:?}", rng.gen_range(1.0..4.0)))
                .collect();
            faults.push(("slowdown", xs.join(",")));
        }
        if total > 1 && rng.gen_range(0..2u32) == 1 {
            // Nodelet 0 stays alive so redirects always have a target.
            let xs: Vec<String> = (0..total)
                .map(|n| u8::from(n > 0 && rng.gen_range(0..5u32) == 0).to_string())
                .collect();
            faults.push(("dead", xs.join(",")));
        }
    }
    let machine: [(&str, u64); 21] = [
        ("nodes", nodes.into()),
        ("nodelets_per_node", nodelets_per_node.into()),
        ("gcs_per_nodelet", rng.gen_range(1..3u32).into()),
        ("threadlets_per_gc", rng.gen_range(2..17u32).into()),
        ("gc_hz", rng.gen_range(50..400u64) * 1_000_000),
        (
            "ncdram_bytes_per_sec",
            rng.gen_range(100_000_000..4_000_000_000u64),
        ),
        ("dram_latency_ps", ps(rng.gen_range(0..200u64))),
        ("dram_access_overhead_ps", ps(rng.gen_range(0..20u64))),
        ("dram_burst_bytes", rng.gen_range(1..65u32).into()),
        (
            "migration_rate_per_sec",
            rng.gen_range(100_000..20_000_000u64),
        ),
        ("intra_node_hop_ps", ps(rng.gen_range(0..500u64))),
        ("inter_node_hop_ps", ps(rng.gen_range(0..1000u64))),
        (
            "rapidio_bytes_per_sec",
            rng.gen_range(100_000_000..10_000_000_000u64),
        ),
        ("context_bytes", rng.gen_range(64..257u32).into()),
        ("mem_issue_cycles", rng.gen_range(1..11u32).into()),
        ("mem_pipeline_cycles", rng.gen_range(0..300u32).into()),
        ("compute_latency_factor", rng.gen_range(1..9u32).into()),
        ("spawn_issue_cycles", rng.gen_range(1..51u32).into()),
        ("spawn_local_latency_ps", ps(rng.gen_range(0..500u64))),
        ("migrate_issue_cycles", rng.gen_range(1..17u32).into()),
        ("atomic_extra_ps", ps(rng.gen_range(0..20u64))),
    ];
    let nthreads = rng.gen_range(1..6usize);
    let threads = (0..nthreads)
        .map(|_| ThreadScript {
            start: rng.gen_range(0..total),
            ops: gen_ops(rng, total),
        })
        .collect();
    Scenario {
        name: name.to_string(),
        preset: "chick".to_string(),
        machine_overrides: machine
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        workload: Workload {
            kind: WorkloadKind::Script,
            params: BTreeMap::new(),
            threads,
        },
        faults: faults
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        sweep: Vec::new(),
        expect: Vec::new(),
    }
}

fn gen_ops(rng: &mut Rng64, total: u32) -> Vec<OpSpec> {
    let len = rng.gen_range(0..25usize);
    (0..len)
        .map(|_| match rng.gen_range(0..5u32) {
            0 => OpSpec::Load {
                nodelet: rng.gen_range(0..total),
                bytes: rng.gen_range(1..257u32),
            },
            1 => OpSpec::Store {
                nodelet: rng.gen_range(0..total),
                bytes: rng.gen_range(1..257u32),
            },
            2 => OpSpec::Atomic {
                nodelet: rng.gen_range(0..total),
                bytes: rng.gen_range(1..65u32),
            },
            3 => OpSpec::Compute {
                cycles: rng.gen_range(1..300u32),
            },
            _ => OpSpec::Migrate {
                nodelet: rng.gen_range(0..total),
            },
        })
        .collect()
}

/// The machine a one-point scenario resolves to.
fn machine(s: &Scenario) -> Option<MachineConfig> {
    Some(resolve(s).ok()?.swap_remove(0).cfg)
}

/// A crude complexity measure used to prove shrinking progress:
/// threads + ops + nodelets + fault keys. A scenario that does not
/// resolve is infinitely large, so shrinking never lands on one.
pub fn size(s: &Scenario) -> usize {
    let Some(cfg) = machine(s) else {
        return usize::MAX;
    };
    let threads = &s.workload.threads;
    threads.len()
        + threads.iter().map(|t| t.ops.len()).sum::<usize>()
        + cfg.total_nodelets() as usize
        + s.faults.len()
}

/// Run every script point of `s` through the lockstep; every problem
/// found (empty = conforming).
pub fn check(s: &Scenario) -> Vec<String> {
    match resolve(s) {
        Err(e) => vec![format!("resolve: {e}")],
        Ok(points) => points
            .iter()
            .flat_map(|p| match &p.workload {
                ResolvedWorkload::Script(threads) => lockstep::run_case(&p.cfg, threads),
                other => vec![format!("not a script workload: {}", other.kind().name())],
            })
            .collect(),
    }
}

/// Greedily shrink `s` while `still_fails` holds, returning the
/// smallest failing scenario found. The predicate is re-evaluated on
/// every candidate, capped at `max_evals` evaluations.
pub fn shrink_with(
    s: &Scenario,
    max_evals: usize,
    still_fails: &mut dyn FnMut(&Scenario) -> bool,
) -> Scenario {
    let mut best = s.clone();
    let mut best_size = size(&best);
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if evals >= max_evals {
                return best;
            }
            let cand_size = size(&cand);
            if cand_size >= best_size {
                continue;
            }
            evals += 1;
            if still_fails(&cand) {
                best = cand;
                best_size = cand_size;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Shrink a scenario that fails [`check`] to a minimal failing repro.
pub fn shrink(s: &Scenario) -> Scenario {
    shrink_with(s, 400, &mut |c| !check(c).is_empty())
}

/// One round of shrink candidates, cheapest wins first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let threads = &s.workload.threads;
    // Drop a whole thread (keep at least one).
    if threads.len() > 1 {
        for i in 0..threads.len() {
            let mut c = s.clone();
            c.workload.threads.remove(i);
            out.push(c);
        }
    }
    // Halve, then single-step-trim each thread's script.
    for (i, t) in threads.iter().enumerate() {
        let len = t.ops.len();
        if len == 0 {
            continue;
        }
        let mut halved = s.clone();
        halved.workload.threads[i].ops.truncate(len / 2);
        out.push(halved);
        for k in 0..len {
            let mut c = s.clone();
            c.workload.threads[i].ops.remove(k);
            out.push(c);
        }
    }
    // Drop the fault plan, whole or key by key (a dropped key takes
    // the preset's fault-free default).
    if !s.faults.is_empty() {
        let mut c = s.clone();
        c.faults.clear();
        out.push(c);
        for i in 0..s.faults.len() {
            let mut c = s.clone();
            c.faults.remove(i);
            out.push(c);
        }
    }
    // Simplify the machine geometry. Op targets and thread starts are
    // taken modulo the nodelet count, so geometry shrinks stay valid
    // once the per-nodelet fault lists are cut to the new count.
    if let Some(cfg) = machine(s) {
        let (nodes, per_node) = (cfg.nodes, cfg.nodelets_per_node);
        if nodes > 1 {
            out.push(with_geometry(s, "nodes", 1, per_node));
        }
        if per_node > 1 {
            let half = per_node / 2;
            out.push(with_geometry(s, "nodelets_per_node", half, nodes * half));
        }
    }
    out
}

/// `s` with machine key `key` set to `val` and the per-nodelet fault
/// lists cut to the resulting `total` nodelets.
fn with_geometry(s: &Scenario, key: &str, val: u32, total: u32) -> Scenario {
    let mut c = s.clone();
    match c.machine_overrides.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = val.to_string(),
        None => c.machine_overrides.push((key.to_string(), val.to_string())),
    }
    for (k, v) in &mut c.faults {
        if k == "slowdown" || k == "dead" {
            *v = v
                .split(',')
                .take(total as usize)
                .collect::<Vec<_>>()
                .join(",");
        }
    }
    c
}

/// A conformance failure found by [`fuzz`]: which generated scenario
/// failed, its shrunk repro, and what went wrong.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Index of the failing scenario within the run.
    pub case_index: u64,
    /// The shrunk repro; [`crate::print`] renders it as a `.scn` file.
    pub minimized: Scenario,
    /// Problems [`check`] reported on the original scenario.
    pub problems: Vec<String>,
}

/// Run `n` generated scenarios from `seed`, named `fuzz-<seed>-<i>`.
/// Returns the number that ran clean, or the first failure, shrunk.
/// `progress` is called with the index of every scenario as it starts.
pub fn fuzz(seed: u64, n: u64, mut progress: impl FnMut(u64)) -> Result<u64, Box<FuzzFailure>> {
    for i in 0..n {
        progress(i);
        let mut rng = rng_from_seed(trial_seed(seed, i));
        let s = gen_scenario(&format!("fuzz-{seed}-{i}"), &mut rng);
        let problems = check(&s);
        if !problems.is_empty() {
            return Err(Box::new(FuzzFailure {
                case_index: i,
                minimized: shrink(&s),
                problems,
            }));
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::cases;

    #[test]
    fn generated_scenarios_round_trip_resolve_and_run_clean() {
        cases(16, 0xF022, |case, rng| {
            let s = gen_scenario(&format!("gen-{case}"), rng);
            let text = crate::print(&s);
            let back = crate::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, s, "case {case}");
            let problems = check(&s);
            assert!(problems.is_empty(), "case {case}: {problems:?}");
        });
    }

    #[test]
    fn shrink_strictly_shrinks_a_synthetic_failure() {
        let has_migrate = |s: &Scenario| {
            s.workload
                .threads
                .iter()
                .any(|t| t.ops.iter().any(|o| matches!(o, OpSpec::Migrate { .. })))
        };
        // Synthetic bug: "fails" whenever any Migrate op is present.
        let mut rng = rng_from_seed(0x51C1);
        let big = loop {
            let s = gen_scenario("big", &mut rng);
            if has_migrate(&s) {
                break s;
            }
        };
        let small = shrink_with(&big, 400, &mut |s| has_migrate(s));
        assert!(has_migrate(&small), "shrink lost the failure");
        assert!(
            size(&small) < size(&big),
            "no progress: {} vs {}",
            size(&small),
            size(&big)
        );
        // The repro should be down to a single op on a single thread,
        // and still a valid scenario.
        assert_eq!(small.workload.threads.len(), 1);
        assert_eq!(small.workload.threads[0].ops.len(), 1);
        assert_eq!(crate::parse(&crate::print(&small)).unwrap(), small);
    }

    #[test]
    fn fuzz_driver_is_deterministic() {
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        fuzz(7, 3, |i| seen_a.push(i)).unwrap();
        fuzz(7, 3, |i| seen_b.push(i)).unwrap();
        assert_eq!(seen_a, seen_b);
    }
}
