//! Deterministic configuration fuzzing for the engine.
//!
//! The fuzzer generates randomized-but-valid [`MachineConfig`]s, fault
//! plans, and per-thread op scripts; runs each case twice — on the
//! sequential scheduler and on the sharded parallel scheduler with two
//! workers — and demands both runs agree **exactly** (counters,
//! occupancy, histograms, makespan, and the full event trace). Every
//! run is then audited by [`emu_core::audit`]. Because every stochastic
//! fault decision is keyed off a monotone draw counter, schedulers that
//! pop events in the same (time, key) order must produce byte-identical
//! reports; any divergence is a barrier or exchange bug, and any audit
//! violation is an accounting bug.
//!
//! Failures shrink greedily to a minimal reproducer and round-trip
//! through a plain-text codec ([`encode`]/[`decode`]) so they can be
//! committed to `tests/corpus/` and replayed by `cargo test` forever.
//! Everything is seeded via [`desim::rng`]: [`fuzz`] is a pure
//! function of its arguments.

use desim::rng::{rng_from_seed, trial_seed, Rng64};
use desim::time::Time;
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

/// One threadlet of a fuzz case: where it starts and what it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadScript {
    /// Spawn nodelet (taken modulo the machine's nodelet count).
    pub start: u32,
    /// Ops replayed in order; an implicit `Quit` follows.
    pub ops: Vec<OpSpec>,
}

/// A complete fuzz case: a machine plus a workload.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The machine (geometry, timing, fault plan).
    pub cfg: MachineConfig,
    /// The workload, one script per root threadlet.
    pub threads: Vec<ThreadScript>,
}

impl FuzzCase {
    /// A crude complexity measure used to prove shrinking progress:
    /// threads + ops + nodelets + active fault knobs.
    pub fn size(&self) -> usize {
        let f = &self.cfg.faults;
        let fault_knobs = [
            f.mig_nack_prob > 0.0,
            f.ecc_prob > 0.0,
            f.link_drop_prob > 0.0,
            !f.slowdown.is_empty(),
            f.dead.iter().any(|&d| d),
        ]
        .iter()
        .filter(|&&k| k)
        .count();
        self.threads.len()
            + self.threads.iter().map(|t| t.ops.len()).sum::<usize>()
            + self.cfg.total_nodelets() as usize
            + fault_knobs
    }
}

/// Generate one randomized-but-valid case. Every value is drawn from
/// `rng`, and the result always passes [`MachineConfig::validate`].
pub fn gen_case(rng: &mut Rng64) -> FuzzCase {
    let nodes = rng.gen_range(1..3u32);
    let nodelets_per_node = rng.gen_range(1..9u32);
    let total = nodes * nodelets_per_node;
    let mut faults = FaultPlan::none();
    if rng.gen_range(0..2u32) == 1 {
        faults.seed = rng.next_u64();
        faults.mig_nack_prob = rng.gen_range(0.0..0.3);
        faults.mig_backoff = Time::from_ns(rng.gen_range(1..100u64));
        faults.mig_retry_budget = 64;
        faults.ecc_prob = rng.gen_range(0.0..0.3);
        faults.ecc_latency = Time::from_ns(rng.gen_range(1..100u64));
        faults.link_drop_prob = rng.gen_range(0.0..0.2);
        faults.link_retry_budget = 64;
        if rng.gen_range(0..2u32) == 1 {
            faults.slowdown = (0..total).map(|_| rng.gen_range(1.0..4.0)).collect();
        }
        if total > 1 && rng.gen_range(0..2u32) == 1 {
            // Nodelet 0 stays alive so redirects always have a target.
            faults.dead = (0..total)
                .map(|n| n > 0 && rng.gen_range(0..5u32) == 0)
                .collect();
        }
    }
    let cfg = MachineConfig {
        nodes,
        nodelets_per_node,
        gcs_per_nodelet: rng.gen_range(1..3u32),
        threadlets_per_gc: rng.gen_range(2..17u32),
        gc_clock: desim::time::Clock::from_mhz(rng.gen_range(50..400u64)),
        ncdram_bytes_per_sec: rng.gen_range(100_000_000..4_000_000_000u64),
        dram_latency: Time::from_ns(rng.gen_range(0..200u64)),
        dram_access_overhead: Time::from_ns(rng.gen_range(0..20u64)),
        dram_burst_bytes: rng.gen_range(1..65u32),
        migration_rate_per_sec: rng.gen_range(100_000..20_000_000u64),
        intra_node_hop: Time::from_ns(rng.gen_range(0..500u64)),
        inter_node_hop: Time::from_ns(rng.gen_range(0..1000u64)),
        rapidio_bytes_per_sec: rng.gen_range(100_000_000..10_000_000_000u64),
        context_bytes: rng.gen_range(64..257u32),
        costs: CostModel {
            mem_issue_cycles: rng.gen_range(1..11u32),
            mem_pipeline_cycles: rng.gen_range(0..300u32),
            compute_latency_factor: rng.gen_range(1..9u32),
            spawn_issue_cycles: rng.gen_range(1..51u32),
            spawn_local_latency: Time::from_ns(rng.gen_range(0..500u64)),
            migrate_issue_cycles: rng.gen_range(1..17u32),
            atomic_extra: Time::from_ns(rng.gen_range(0..20u64)),
        },
        faults,
    };
    debug_assert!(cfg.validate().is_ok());
    let nthreads = rng.gen_range(1..6usize);
    let threads = (0..nthreads)
        .map(|_| ThreadScript {
            start: rng.gen_range(0..total),
            ops: gen_ops(rng, total),
        })
        .collect();
    FuzzCase { cfg, threads }
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

/// Trace ring capacity for lockstep runs — large enough that every
/// generated case traces losslessly, so the audit's trace/counter
/// reconciliation always applies.
const TRACE_CAP: usize = 1 << 16;

/// Seed `engine` (built from — or reset to — `case.cfg`) with one
/// [`ScriptKernel`] per thread script. Shared by the lockstep runner and
/// the `simd` daemon, which replays cases on warm engines.
pub fn seed_case(engine: &mut Engine, case: &FuzzCase) -> Result<(), SimError> {
    let total = engine.cfg().total_nodelets();
    for t in &case.threads {
        let ops: Vec<Op> = t.ops.iter().map(|o| o.to_op(total)).collect();
        engine.spawn_at(NodeletId(t.start % total), Box::new(ScriptKernel::new(ops)))?;
    }
    Ok(())
}

fn run_once(case: &FuzzCase, sim_threads: usize) -> Result<RunReport, SimError> {
    let mut e = Engine::new(case.cfg.clone())?;
    e.set_sim_threads(sim_threads);
    // The sharded leg exists to lockstep-check the threaded scheduler,
    // so pin it on: adaptive merging would otherwise collapse the pool
    // to the inline path on a single-core host and the lockstep
    // comparison would silently lose its parallel witness.
    e.enable_merge(false);
    e.enable_trace(TRACE_CAP);
    seed_case(&mut e, case)?;
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

/// Run one case in lockstep on the sequential scheduler and on the
/// sharded parallel scheduler (two workers), audit both runs, and
/// return every problem found (empty = conforming).
pub fn run_case(case: &FuzzCase) -> Vec<String> {
    let mut problems = Vec::new();
    match (run_once(case, 1), run_once(case, 2)) {
        (Ok(a), Ok(p)) => {
            problems.extend(diff_reports(&a, &p, "sequential", "pdes-2shard"));
            for (label, r) in [("sequential", &a), ("pdes-2shard", &p)] {
                for v in audit(&case.cfg, r) {
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

/// Greedily shrink `case` while `still_fails` holds, returning the
/// smallest failing case found. The predicate is re-evaluated on every
/// candidate, capped at `max_evals` evaluations.
pub fn shrink_with(
    case: &FuzzCase,
    max_evals: usize,
    still_fails: &mut dyn FnMut(&FuzzCase) -> bool,
) -> FuzzCase {
    let mut best = case.clone();
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if evals >= max_evals {
                return best;
            }
            if cand.size() >= best.size() {
                continue;
            }
            evals += 1;
            if still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Shrink a case that fails [`run_case`] to a minimal failing repro.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    shrink_with(case, 400, &mut |c| !run_case(c).is_empty())
}

/// One round of shrink candidates, cheapest wins first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Drop a whole thread (keep at least one).
    if case.threads.len() > 1 {
        for i in 0..case.threads.len() {
            let mut c = case.clone();
            c.threads.remove(i);
            out.push(c);
        }
    }
    // Halve, then single-step-trim each thread's script.
    for i in 0..case.threads.len() {
        let len = case.threads[i].ops.len();
        if len == 0 {
            continue;
        }
        let mut halved = case.clone();
        halved.threads[i].ops.truncate(len / 2);
        out.push(halved);
        for k in 0..len {
            let mut c = case.clone();
            c.threads[i].ops.remove(k);
            out.push(c);
        }
    }
    // Neutralize the fault plan, whole or knob by knob.
    let f = &case.cfg.faults;
    if !f.is_none() {
        let mut c = case.clone();
        c.cfg.faults = FaultPlan::none();
        out.push(c);
        for knob in 0..5 {
            let mut c = case.clone();
            let fp = &mut c.cfg.faults;
            match knob {
                0 => fp.mig_nack_prob = 0.0,
                1 => fp.ecc_prob = 0.0,
                2 => fp.link_drop_prob = 0.0,
                3 => fp.slowdown.clear(),
                _ => fp.dead.clear(),
            }
            out.push(c);
        }
    }
    // Simplify the machine geometry. Op targets and thread starts are
    // taken modulo the nodelet count, so geometry shrinks stay valid.
    if case.cfg.nodes > 1 {
        let mut c = case.clone();
        c.cfg.nodes = 1;
        let total = c.cfg.total_nodelets() as usize;
        c.cfg.faults.slowdown.truncate(total);
        c.cfg.faults.dead.truncate(total);
        out.push(c);
    }
    if case.cfg.nodelets_per_node > 1 {
        let mut c = case.clone();
        c.cfg.nodelets_per_node /= 2;
        let total = c.cfg.total_nodelets() as usize;
        c.cfg.faults.slowdown.truncate(total);
        c.cfg.faults.dead.truncate(total);
        if c.cfg.faults.dead.iter().all(|&d| d) {
            c.cfg.faults.dead.clear();
        }
        out.push(c);
    }
    out
}

/// A conformance failure found by [`fuzz`]: the first failing case, its
/// shrunk repro, and what went wrong.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Index of the failing case within the run.
    pub case_index: u64,
    /// The original failing case.
    pub case: FuzzCase,
    /// The shrunk repro (encode it for the corpus).
    pub minimized: FuzzCase,
    /// Problems reported by [`run_case`] on the original case.
    pub problems: Vec<String>,
}

/// Run `n` generated cases from `seed`. Returns the number of cases
/// that ran clean, or the first failure, shrunk. `progress` is called
/// with the index of every case as it starts.
pub fn fuzz(seed: u64, n: u64, mut progress: impl FnMut(u64)) -> Result<u64, Box<FuzzFailure>> {
    for i in 0..n {
        progress(i);
        let mut rng = rng_from_seed(trial_seed(seed, i));
        let case = gen_case(&mut rng);
        let problems = run_case(&case);
        if !problems.is_empty() {
            let minimized = shrink(&case);
            return Err(Box::new(FuzzFailure {
                case_index: i,
                case,
                minimized,
                problems,
            }));
        }
    }
    Ok(n)
}

// --- text codec -----------------------------------------------------------

/// Serialize a case to the corpus text format: one `key=value` per
/// line, threads last, `#` comments ignored on read.
pub fn encode(case: &FuzzCase) -> String {
    use std::fmt::Write as _;
    let c = &case.cfg;
    let f = &c.faults;
    let mut s = String::from("# conformance fuzz case v1\n");
    let hz = (desim::time::PS_PER_S + c.gc_clock.period().ps() / 2) / c.gc_clock.period().ps();
    let _ = write!(
        s,
        "nodes={}\nnodelets_per_node={}\ngcs_per_nodelet={}\nthreadlets_per_gc={}\n\
         gc_hz={hz}\nncdram_bytes_per_sec={}\ndram_latency_ps={}\ndram_access_overhead_ps={}\n\
         dram_burst_bytes={}\nmigration_rate_per_sec={}\nintra_node_hop_ps={}\n\
         inter_node_hop_ps={}\nrapidio_bytes_per_sec={}\ncontext_bytes={}\n\
         mem_issue_cycles={}\nmem_pipeline_cycles={}\ncompute_latency_factor={}\n\
         spawn_issue_cycles={}\nspawn_local_latency_ps={}\nmigrate_issue_cycles={}\n\
         atomic_extra_ps={}\n",
        c.nodes,
        c.nodelets_per_node,
        c.gcs_per_nodelet,
        c.threadlets_per_gc,
        c.ncdram_bytes_per_sec,
        c.dram_latency.ps(),
        c.dram_access_overhead.ps(),
        c.dram_burst_bytes,
        c.migration_rate_per_sec,
        c.intra_node_hop.ps(),
        c.inter_node_hop.ps(),
        c.rapidio_bytes_per_sec,
        c.context_bytes,
        c.costs.mem_issue_cycles,
        c.costs.mem_pipeline_cycles,
        c.costs.compute_latency_factor,
        c.costs.spawn_issue_cycles,
        c.costs.spawn_local_latency.ps(),
        c.costs.migrate_issue_cycles,
        c.costs.atomic_extra.ps(),
    );
    let _ = write!(
        s,
        "fault_seed={}\nfault_mig_nack_prob={:?}\nfault_mig_backoff_ps={}\n\
         fault_mig_retry_budget={}\nfault_ecc_prob={:?}\nfault_ecc_latency_ps={}\n\
         fault_link_drop_prob={:?}\nfault_link_retry_budget={}\nfault_max_events={}\n",
        f.seed,
        f.mig_nack_prob,
        f.mig_backoff.ps(),
        f.mig_retry_budget,
        f.ecc_prob,
        f.ecc_latency.ps(),
        f.link_drop_prob,
        f.link_retry_budget,
        f.max_events,
    );
    if !f.slowdown.is_empty() {
        let xs: Vec<String> = f.slowdown.iter().map(|x| format!("{x:?}")).collect();
        let _ = writeln!(s, "fault_slowdown={}", xs.join(","));
    }
    if !f.dead.is_empty() {
        let xs: Vec<String> = f.dead.iter().map(|&d| (d as u8).to_string()).collect();
        let _ = writeln!(s, "fault_dead={}", xs.join(","));
    }
    for t in &case.threads {
        let _ = write!(s, "thread={}", t.start);
        for op in &t.ops {
            let _ = match op {
                OpSpec::Load { nodelet, bytes } => write!(s, " L{nodelet}:{bytes}"),
                OpSpec::Store { nodelet, bytes } => write!(s, " S{nodelet}:{bytes}"),
                OpSpec::Atomic { nodelet, bytes } => write!(s, " A{nodelet}:{bytes}"),
                OpSpec::Compute { cycles } => write!(s, " C{cycles}"),
                OpSpec::Migrate { nodelet } => write!(s, " M{nodelet}"),
            };
        }
        s.push('\n');
    }
    s
}

fn parse<T: std::str::FromStr>(v: &str, key: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value for {key}: {v:?}"))
}

/// Render one [`OpSpec`] in the corpus token syntax (`L0:8`, `C5`,
/// `M3`, …) — the inverse of [`parse_op`].
pub fn op_token(op: &OpSpec) -> String {
    match op {
        OpSpec::Load { nodelet, bytes } => format!("L{nodelet}:{bytes}"),
        OpSpec::Store { nodelet, bytes } => format!("S{nodelet}:{bytes}"),
        OpSpec::Atomic { nodelet, bytes } => format!("A{nodelet}:{bytes}"),
        OpSpec::Compute { cycles } => format!("C{cycles}"),
        OpSpec::Migrate { nodelet } => format!("M{nodelet}"),
    }
}

/// Parse one op token of the corpus syntax back into an [`OpSpec`].
pub fn parse_op(tok: &str) -> Result<OpSpec, String> {
    if tok.is_empty() {
        return Err("empty op token".into());
    }
    let (kind, rest) = tok.split_at(1);
    let pair = |rest: &str| -> Result<(u32, u32), String> {
        let (n, b) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad op {tok:?}"))?;
        Ok((parse(n, "op nodelet")?, parse(b, "op bytes")?))
    };
    Ok(match kind {
        "L" => {
            let (nodelet, bytes) = pair(rest)?;
            OpSpec::Load { nodelet, bytes }
        }
        "S" => {
            let (nodelet, bytes) = pair(rest)?;
            OpSpec::Store { nodelet, bytes }
        }
        "A" => {
            let (nodelet, bytes) = pair(rest)?;
            OpSpec::Atomic { nodelet, bytes }
        }
        "C" => OpSpec::Compute {
            cycles: parse(rest, "op cycles")?,
        },
        "M" => OpSpec::Migrate {
            nodelet: parse(rest, "op nodelet")?,
        },
        _ => return Err(format!("unknown op {tok:?}")),
    })
}

/// Apply one `key=value` override to `cfg` using the corpus codec
/// vocabulary: machine geometry, clocking, cost-model, and `fault_*`
/// knobs. Shared by [`decode`] and the `.scn` scenario resolver, so a
/// scenario's `machine`/`faults` overrides and a corpus case speak
/// exactly the same language.
pub fn apply_config_key(cfg: &mut MachineConfig, key: &str, val: &str) -> Result<(), String> {
    match key {
        "nodes" => cfg.nodes = parse(val, key)?,
        "nodelets_per_node" => cfg.nodelets_per_node = parse(val, key)?,
        "gcs_per_nodelet" => cfg.gcs_per_nodelet = parse(val, key)?,
        "threadlets_per_gc" => cfg.threadlets_per_gc = parse(val, key)?,
        "gc_hz" => cfg.gc_clock = desim::time::Clock::from_hz(parse(val, key)?),
        "ncdram_bytes_per_sec" => cfg.ncdram_bytes_per_sec = parse(val, key)?,
        "dram_latency_ps" => cfg.dram_latency = Time::from_ps(parse(val, key)?),
        "dram_access_overhead_ps" => cfg.dram_access_overhead = Time::from_ps(parse(val, key)?),
        "dram_burst_bytes" => cfg.dram_burst_bytes = parse(val, key)?,
        "migration_rate_per_sec" => cfg.migration_rate_per_sec = parse(val, key)?,
        "intra_node_hop_ps" => cfg.intra_node_hop = Time::from_ps(parse(val, key)?),
        "inter_node_hop_ps" => cfg.inter_node_hop = Time::from_ps(parse(val, key)?),
        "rapidio_bytes_per_sec" => cfg.rapidio_bytes_per_sec = parse(val, key)?,
        "context_bytes" => cfg.context_bytes = parse(val, key)?,
        "mem_issue_cycles" => cfg.costs.mem_issue_cycles = parse(val, key)?,
        "mem_pipeline_cycles" => cfg.costs.mem_pipeline_cycles = parse(val, key)?,
        "compute_latency_factor" => cfg.costs.compute_latency_factor = parse(val, key)?,
        "spawn_issue_cycles" => cfg.costs.spawn_issue_cycles = parse(val, key)?,
        "spawn_local_latency_ps" => cfg.costs.spawn_local_latency = Time::from_ps(parse(val, key)?),
        "migrate_issue_cycles" => cfg.costs.migrate_issue_cycles = parse(val, key)?,
        "atomic_extra_ps" => cfg.costs.atomic_extra = Time::from_ps(parse(val, key)?),
        "fault_seed" => cfg.faults.seed = parse(val, key)?,
        "fault_mig_nack_prob" => cfg.faults.mig_nack_prob = parse(val, key)?,
        "fault_mig_backoff_ps" => cfg.faults.mig_backoff = Time::from_ps(parse(val, key)?),
        "fault_mig_retry_budget" => cfg.faults.mig_retry_budget = parse(val, key)?,
        "fault_ecc_prob" => cfg.faults.ecc_prob = parse(val, key)?,
        "fault_ecc_latency_ps" => cfg.faults.ecc_latency = Time::from_ps(parse(val, key)?),
        "fault_link_drop_prob" => cfg.faults.link_drop_prob = parse(val, key)?,
        "fault_link_retry_budget" => cfg.faults.link_retry_budget = parse(val, key)?,
        "fault_max_events" => cfg.faults.max_events = parse(val, key)?,
        "fault_slowdown" => {
            cfg.faults.slowdown = val
                .split(',')
                .map(|x| parse(x, key))
                .collect::<Result<_, _>>()?
        }
        "fault_dead" => {
            cfg.faults.dead = val
                .split(',')
                .map(|x| Ok::<bool, String>(parse::<u8>(x, key)? != 0))
                .collect::<Result<_, _>>()?
        }
        _ => return Err(format!("unknown key {key:?}")),
    }
    Ok(())
}

/// Parse one `thread=<start> <ops…>` payload (the part after `=`).
pub fn parse_thread(val: &str) -> Result<ThreadScript, String> {
    let mut toks = val.split_whitespace();
    let start = parse(toks.next().unwrap_or(""), "thread start")?;
    let ops = toks.map(parse_op).collect::<Result<_, _>>()?;
    Ok(ThreadScript { start, ops })
}

/// Parse the corpus text format back into a case. The decoded config is
/// re-validated, so a corrupt corpus file fails loudly, not subtly.
pub fn decode(text: &str) -> Result<FuzzCase, String> {
    let mut cfg = emu_core::presets::chick_prototype();
    cfg.faults = FaultPlan::none();
    let mut threads = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("bad line {line:?}"))?;
        if key == "thread" {
            threads.push(parse_thread(val)?);
        } else {
            apply_config_key(&mut cfg, key, val)?;
        }
    }
    cfg.validate()?;
    if threads.is_empty() {
        return Err("case has no threads".into());
    }
    Ok(FuzzCase { cfg, threads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::cases;

    #[test]
    fn generated_cases_validate_and_round_trip() {
        cases(32, 0xF022, |case, rng| {
            let c = gen_case(rng);
            c.cfg.validate().unwrap();
            let decoded = decode(&encode(&c)).unwrap();
            assert_eq!(decoded.threads, c.threads, "case {case}");
            assert_eq!(
                format!("{:?}", decoded.cfg),
                format!("{:?}", c.cfg),
                "case {case}"
            );
        });
    }

    #[test]
    fn lockstep_clean_on_a_seeded_sweep() {
        cases(12, 0x10CB, |case, rng| {
            let c = gen_case(rng);
            let problems = run_case(&c);
            assert!(problems.is_empty(), "case {case}: {problems:?}");
        });
    }

    #[test]
    fn shrink_strictly_shrinks_a_synthetic_failure() {
        let has_migrate = |c: &FuzzCase| {
            c.threads
                .iter()
                .any(|t| t.ops.iter().any(|o| matches!(o, OpSpec::Migrate { .. })))
        };
        // Synthetic bug: "fails" whenever any Migrate op is present.
        let mut rng = rng_from_seed(0x51C1);
        let big = loop {
            let c = gen_case(&mut rng);
            if has_migrate(&c) {
                break c;
            }
        };
        let small = shrink_with(&big, 400, &mut |c| has_migrate(c));
        assert!(has_migrate(&small), "shrink lost the failure");
        assert!(
            small.size() < big.size(),
            "no progress: {} vs {}",
            small.size(),
            big.size()
        );
        // The repro should be down to a single op on a single thread.
        assert_eq!(small.threads.len(), 1);
        assert_eq!(small.threads[0].ops.len(), 1);
    }

    // The cross-shard-nack corpus exemplar's potency check (it must
    // NACK, cross shards, and migrate) lives in the scenario crate's
    // corpus tests now that the corpus is committed as `.scn`.

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("nodes=0\nthread=0 C1").is_err());
        assert!(decode("nonsense").is_err());
        assert!(decode("frobnicate=3\nthread=0 C1").is_err());
        assert!(decode("nodes=1").is_err(), "no threads must be rejected");
        assert!(
            decode("thread=0 Z9").is_err(),
            "unknown op must be rejected"
        );
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
