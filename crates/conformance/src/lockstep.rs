//! Lockstep conformance checking of scripted runs.
//!
//! A scripted run is a [`MachineConfig`] plus one [`ThreadScript`] per
//! root threadlet. [`run_case`] runs it twice — on the sequential
//! scheduler and on the sharded parallel scheduler with two workers —
//! and demands both runs agree **exactly** (counters, occupancy,
//! histograms, makespan, and the full event trace). Every run is then
//! audited by [`emu_core::audit`]. Because every stochastic fault
//! decision is keyed off a monotone draw counter, schedulers that pop
//! events in the same (time, key) order must produce byte-identical
//! reports; any divergence is a barrier or exchange bug, and any audit
//! violation is an accounting bug.
//!
//! The scripts' text form, generation, and shrinking live in the
//! `scenario` crate: a scripted run is a `workload script` scenario.

use emu_core::prelude::*;

/// Serializable op description (mirrors the subset of [`Op`] a script
/// can replay: memory traffic, compute, and explicit migration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// Load `bytes` from `nodelet` (migrates the thread if remote).
    Load {
        /// Target nodelet.
        nodelet: u32,
        /// Request size in bytes.
        bytes: u32,
    },
    /// Store `bytes` to `nodelet` (remote stores post a packet).
    Store {
        /// Target nodelet.
        nodelet: u32,
        /// Request size in bytes.
        bytes: u32,
    },
    /// Memory-side atomic add at `nodelet`.
    Atomic {
        /// Target nodelet.
        nodelet: u32,
        /// Request size in bytes.
        bytes: u32,
    },
    /// Occupy the core for `cycles`.
    Compute {
        /// Core-occupancy cycles.
        cycles: u32,
    },
    /// Explicitly migrate to `nodelet`.
    Migrate {
        /// Destination nodelet.
        nodelet: u32,
    },
}

impl OpSpec {
    /// Lower this spec to a concrete engine [`Op`] on a machine of
    /// `total` nodelets (targets are taken modulo `total`).
    pub fn to_op(&self, total: u32) -> Op {
        let node = |n: u32| NodeletId(n % total);
        match *self {
            OpSpec::Load { nodelet, bytes } => Op::Load {
                addr: GlobalAddr::new(node(nodelet), 0x40),
                bytes,
            },
            OpSpec::Store { nodelet, bytes } => Op::Store {
                addr: GlobalAddr::new(node(nodelet), 0x80),
                bytes,
            },
            OpSpec::Atomic { nodelet, bytes } => Op::AtomicAdd {
                addr: GlobalAddr::new(node(nodelet), 0xc0),
                bytes,
            },
            OpSpec::Compute { cycles } => Op::Compute { cycles },
            OpSpec::Migrate { nodelet } => Op::MigrateTo {
                nodelet: node(nodelet),
            },
        }
    }
}

/// One threadlet of a scripted run: where it starts and what it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadScript {
    /// Spawn nodelet (taken modulo the machine's nodelet count).
    pub start: u32,
    /// Ops replayed in order; an implicit `Quit` follows.
    pub ops: Vec<OpSpec>,
}

/// Trace ring capacity for lockstep runs — large enough that every
/// generated case traces losslessly, so the audit's trace/counter
/// reconciliation always applies.
const TRACE_CAP: usize = 1 << 16;

/// Seed `engine` with one [`ScriptKernel`] per thread script. Shared by
/// the lockstep runner and the scenario runner's script workload.
pub fn seed_case(engine: &mut Engine, threads: &[ThreadScript]) -> Result<(), SimError> {
    let total = engine.cfg().total_nodelets();
    for t in threads {
        let ops: Vec<Op> = t.ops.iter().map(|o| o.to_op(total)).collect();
        engine.spawn_at(NodeletId(t.start % total), Box::new(ScriptKernel::new(ops)))?;
    }
    Ok(())
}

fn run_once(
    cfg: &MachineConfig,
    threads: &[ThreadScript],
    sim_threads: usize,
) -> Result<RunReport, SimError> {
    let mut e = Engine::new(cfg.clone())?;
    e.set_sim_threads(sim_threads);
    // The sharded leg exists to lockstep-check the threaded scheduler,
    // so pin it on: adaptive merging would otherwise collapse the pool
    // to the inline path on a single-core host and the lockstep
    // comparison would silently lose its parallel witness.
    e.enable_merge(false);
    e.enable_trace(TRACE_CAP);
    seed_case(&mut e, threads)?;
    e.run()
}

/// Compare two reports field group by field group, returning a message
/// per divergence. Identical runs must match exactly (not within a
/// tolerance): both runs consume the same seeds in the same order.
fn diff_reports(a: &RunReport, b: &RunReport, la: &str, lb: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |what: &str, x: String, y: String| {
        if x != y {
            out.push(format!("{what} diverged:\n  {la}: {x}\n  {lb}: {y}"));
        }
    };
    check(
        "makespan",
        format!("{:?}", a.makespan),
        format!("{:?}", b.makespan),
    );
    check("threads", a.threads.to_string(), b.threads.to_string());
    check("events", a.events.to_string(), b.events.to_string());
    check(
        "nodelet counters",
        format!("{:?}", a.nodelets),
        format!("{:?}", b.nodelets),
    );
    check(
        "occupancy",
        format!("{:?}", a.occupancy),
        format!("{:?}", b.occupancy),
    );
    check(
        "migration latency",
        format!("{:?}", a.migration_latency),
        format!("{:?}", b.migration_latency),
    );
    check(
        "migrations per thread",
        format!("{:?}", a.migrations_per_thread),
        format!("{:?}", b.migrations_per_thread),
    );
    check(
        "time breakdown",
        format!("{:?}", a.breakdown),
        format!("{:?}", b.breakdown),
    );
    check(
        "pdes summary",
        format!("{:?}", a.pdes),
        format!("{:?}", b.pdes),
    );
    match (&a.trace, &b.trace) {
        (Some(ta), Some(tb)) => {
            if ta.events != tb.events || ta.dropped != tb.dropped {
                out.push("trace event streams diverged".into());
            }
        }
        (None, None) => {}
        _ => out.push("trace presence diverged".into()),
    }
    out
}

/// Run `threads` on `cfg` in lockstep on the sequential scheduler and
/// on the sharded parallel scheduler (two workers), audit both runs,
/// and return every problem found (empty = conforming).
pub fn run_case(cfg: &MachineConfig, threads: &[ThreadScript]) -> Vec<String> {
    let mut problems = Vec::new();
    match (run_once(cfg, threads, 1), run_once(cfg, threads, 2)) {
        (Ok(a), Ok(p)) => {
            problems.extend(diff_reports(&a, &p, "sequential", "pdes-2shard"));
            for (label, r) in [("sequential", &a), ("pdes-2shard", &p)] {
                for v in audit(cfg, r) {
                    problems.push(format!("audit ({label}): {v}"));
                }
            }
        }
        (Err(ea), Err(ep)) => {
            // A deterministic rejection is fine, but it must be the
            // same rejection on both schedulers.
            if ea.to_string() != ep.to_string() {
                problems.push(format!(
                    "errors diverged: sequential={ea}, pdes-2shard={ep}"
                ));
            }
        }
        (ra, rp) => {
            let d = |r: Result<RunReport, SimError>| match r {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("err ({e})"),
            };
            problems.push(format!(
                "outcomes diverged: sequential={}, pdes-2shard={}",
                d(ra),
                d(rp)
            ));
        }
    }
    problems
}
