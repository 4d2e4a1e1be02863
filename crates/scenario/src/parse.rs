//! Parser and canonical printer for the `.scn` text format.
//!
//! The format is line-oriented: a `scenario <name>` line, then
//! sections. Section headers are recognized by their first token
//! (`machine`, `workload`, `faults`, `sweep`, `expect`); every other
//! line belongs to the section above it. `#` lines are comments.
//!
//! ```text
//! scenario stream-chick-saturated
//!
//! machine chick
//!   gc_hz = 150000000          # optional machine-key overrides
//!
//! workload stream
//!   elems = 4096
//!   threads = 64
//!   kernel = add
//!   single_nodelet = 1
//!
//! faults
//!   seed = 7
//!   mig_nack_prob = 0.05
//!
//! sweep threads = 8, 16, 32
//!
//! expect
//!   counter nacks >= 1
//!   oracle stream-saturated in 0.95..1.02
//!   monotonic events nondecreasing over threads
//!   byte_identical_at_sim_threads = 1, 2
//! ```
//!
//! Everything is validated at parse time — section structure, key
//! vocabulary ([`apply_config_key`] for machine and fault keys,
//! [`parse_thread`] for script threads), value types, enum spellings,
//! sweep arity — and every rejection carries the offending line number.
//! [`print`] renders the canonical form; `parse(print(s)) == s` for
//! every valid scenario (the seeded property test in `tests/props.rs`).

use crate::ast::*;
use conformance::lockstep::{OpSpec, ThreadScript};
use desim::time::{Clock, Time};
use emu_core::config::MachineConfig;
use emu_core::spawn::SpawnStrategy;
use membench::stream::StreamKernel;
use std::collections::BTreeMap;

/// Metric names a `counter` / `monotonic` assertion may reference.
/// Per-point values are extracted from the run reports (and the
/// workload's semantic results) by `run::point_metrics`.
pub const METRICS: &[&str] = &[
    "makespan_ps",
    "events",
    "threads",
    "migrations",
    "spawns",
    "nacks",
    "retries",
    "ecc_retries",
    "link_retransmits",
    "redirects",
    "bytes",
    "bandwidth_bps",
    "core_utilization",
    "channel_utilization",
    "migration_rate",
    "depth",
    "edges_traversed",
    "teps",
];

/// Oracle names an `oracle` assertion may reference
/// (`conformance::oracle` vocabulary).
pub const ORACLES: &[&str] = &[
    "stream-saturated",
    "stream-single-thread",
    "migration-ceiling",
    "channel-peak",
];

/// Maximum swept axes per scenario.
pub const MAX_AXES: usize = 2;

fn err(line: usize, msg: impl std::fmt::Display) -> String {
    format!("line {line}: {msg}")
}

/// Check a scenario / axis-safe name: `[A-Za-z0-9._-]+`.
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

fn parse_val<T: std::str::FromStr>(v: &str, key: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value for {key}: {v:?}"))
}

/// Apply one `key = value` override to `cfg`: machine geometry,
/// clocking, and cost-model keys as written in the `machine` section,
/// fault-plan keys with a `fault_` prefix (the `faults` section's keys
/// and `faults.` sweep axes, prefixed by the resolver).
pub fn apply_config_key(cfg: &mut MachineConfig, key: &str, val: &str) -> Result<(), String> {
    match key {
        "nodes" => cfg.nodes = parse_val(val, key)?,
        "nodelets_per_node" => cfg.nodelets_per_node = parse_val(val, key)?,
        "gcs_per_nodelet" => cfg.gcs_per_nodelet = parse_val(val, key)?,
        "threadlets_per_gc" => cfg.threadlets_per_gc = parse_val(val, key)?,
        "gc_hz" => {
            // `Clock::from_hz` asserts a period of at least 1 ps.
            let hz: u64 = parse_val(val, key)?;
            if hz == 0 || hz > desim::time::PS_PER_S {
                return Err(format!("gc_hz {hz} out of range 1..=1000000000000"));
            }
            cfg.gc_clock = Clock::from_hz(hz);
        }
        "ncdram_bytes_per_sec" => cfg.ncdram_bytes_per_sec = parse_val(val, key)?,
        "dram_latency_ps" => cfg.dram_latency = Time::from_ps(parse_val(val, key)?),
        "dram_access_overhead_ps" => cfg.dram_access_overhead = Time::from_ps(parse_val(val, key)?),
        "dram_burst_bytes" => cfg.dram_burst_bytes = parse_val(val, key)?,
        "migration_rate_per_sec" => cfg.migration_rate_per_sec = parse_val(val, key)?,
        "intra_node_hop_ps" => cfg.intra_node_hop = Time::from_ps(parse_val(val, key)?),
        "inter_node_hop_ps" => cfg.inter_node_hop = Time::from_ps(parse_val(val, key)?),
        "rapidio_bytes_per_sec" => cfg.rapidio_bytes_per_sec = parse_val(val, key)?,
        "context_bytes" => cfg.context_bytes = parse_val(val, key)?,
        "mem_issue_cycles" => cfg.costs.mem_issue_cycles = parse_val(val, key)?,
        "mem_pipeline_cycles" => cfg.costs.mem_pipeline_cycles = parse_val(val, key)?,
        "compute_latency_factor" => cfg.costs.compute_latency_factor = parse_val(val, key)?,
        "spawn_issue_cycles" => cfg.costs.spawn_issue_cycles = parse_val(val, key)?,
        "spawn_local_latency_ps" => {
            cfg.costs.spawn_local_latency = Time::from_ps(parse_val(val, key)?)
        }
        "migrate_issue_cycles" => cfg.costs.migrate_issue_cycles = parse_val(val, key)?,
        "atomic_extra_ps" => cfg.costs.atomic_extra = Time::from_ps(parse_val(val, key)?),
        "fault_seed" => cfg.faults.seed = parse_val(val, key)?,
        "fault_mig_nack_prob" => cfg.faults.mig_nack_prob = parse_val(val, key)?,
        "fault_mig_backoff_ps" => cfg.faults.mig_backoff = Time::from_ps(parse_val(val, key)?),
        "fault_mig_retry_budget" => cfg.faults.mig_retry_budget = parse_val(val, key)?,
        "fault_ecc_prob" => cfg.faults.ecc_prob = parse_val(val, key)?,
        "fault_ecc_latency_ps" => cfg.faults.ecc_latency = Time::from_ps(parse_val(val, key)?),
        "fault_link_drop_prob" => cfg.faults.link_drop_prob = parse_val(val, key)?,
        "fault_link_retry_budget" => cfg.faults.link_retry_budget = parse_val(val, key)?,
        "fault_max_events" => cfg.faults.max_events = parse_val(val, key)?,
        "fault_slowdown" => {
            cfg.faults.slowdown = val
                .split(',')
                .map(|x| parse_val(x, key))
                .collect::<Result<_, _>>()?
        }
        "fault_dead" => {
            cfg.faults.dead = val
                .split(',')
                .map(|x| Ok::<bool, String>(parse_val::<u8>(x, key)? != 0))
                .collect::<Result<_, _>>()?
        }
        _ => return Err(format!("unknown key {key:?}")),
    }
    Ok(())
}

/// Render one [`OpSpec`] as a `thread` line token (`L0:8`, `C5`,
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

/// Parse one `thread` line token back into an [`OpSpec`].
pub fn parse_op(tok: &str) -> Result<OpSpec, String> {
    if tok.is_empty() {
        return Err("empty op token".into());
    }
    let (kind, rest) = tok.split_at(1);
    let pair = |rest: &str| -> Result<(u32, u32), String> {
        let (n, b) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad op {tok:?}"))?;
        Ok((parse_val(n, "op nodelet")?, parse_val(b, "op bytes")?))
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
            cycles: parse_val(rest, "op cycles")?,
        },
        "M" => OpSpec::Migrate {
            nodelet: parse_val(rest, "op nodelet")?,
        },
        _ => return Err(format!("unknown op {tok:?}")),
    })
}

/// Parse one `thread = <start> <ops…>` value (the part after `=`).
pub fn parse_thread(val: &str) -> Result<ThreadScript, String> {
    let mut toks = val.split_whitespace();
    let start = parse_val(toks.next().unwrap_or(""), "thread start")?;
    let ops = toks.map(parse_op).collect::<Result<_, _>>()?;
    Ok(ThreadScript { start, ops })
}

/// Validate one machine-override key/value by applying it to a scratch
/// config. Rejects `fault_*` keys (those belong in the `faults`
/// section) and the workload section's `thread` key.
fn check_machine_key(key: &str, val: &str) -> Result<(), String> {
    if let Some(bare) = key.strip_prefix("fault_") {
        return Err(format!(
            "fault key {key:?} belongs in the faults section (as {bare:?})"
        ));
    }
    let mut scratch = emu_core::presets::chick_prototype();
    apply_config_key(&mut scratch, key, val)
}

/// Validate one fault key/value (an [`apply_config_key`] key without
/// the `fault_` prefix) by applying it to a scratch config.
fn check_fault_key(key: &str, val: &str) -> Result<(), String> {
    let mut scratch = emu_core::presets::chick_prototype();
    apply_config_key(&mut scratch, &format!("fault_{key}"), val).map_err(|e| {
        if e.starts_with("unknown key") {
            format!("unknown fault key {key:?}")
        } else {
            e
        }
    })
}

/// A value validator for one workload parameter.
type Check = fn(&str) -> Result<(), String>;

fn chk_u64_pos(v: &str) -> Result<(), String> {
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(()),
        _ => Err(format!("expected a positive integer, got {v:?}")),
    }
}

fn chk_u64(v: &str) -> Result<(), String> {
    v.parse::<u64>()
        .map(|_| ())
        .map_err(|_| format!("expected an unsigned integer, got {v:?}"))
}

fn chk_bool01(v: &str) -> Result<(), String> {
    match v {
        "0" | "1" => Ok(()),
        _ => Err(format!("expected 0 or 1, got {v:?}")),
    }
}

fn chk_kernel(v: &str) -> Result<(), String> {
    StreamKernel::from_name(v).map(|_| ())
}

fn chk_strategy(v: &str) -> Result<(), String> {
    SpawnStrategy::from_name(v).map(|_| ())
}

fn chk_chase_mode(v: &str) -> Result<(), String> {
    match v {
        "ordered" | "intra-block" | "block-shuffle" | "full-block" => Ok(()),
        _ => Err(format!(
            "unknown mode {v:?}; one of: ordered, intra-block, block-shuffle, full-block"
        )),
    }
}

fn chk_bfs_mode(v: &str) -> Result<(), String> {
    match v {
        "migrating" | "remote-flags" => Ok(()),
        _ => Err(format!(
            "unknown mode {v:?}; one of: migrating, remote-flags"
        )),
    }
}

fn chk_tensor_layout(v: &str) -> Result<(), String> {
    match v {
        "1d" | "slice-blocked" => Ok(()),
        _ => Err(format!("unknown layout {v:?}; one of: 1d, slice-blocked")),
    }
}

fn chk_spmv_layout(v: &str) -> Result<(), String> {
    match v {
        "local" | "1d" | "2d" => Ok(()),
        _ => Err(format!("unknown layout {v:?}; one of: local, 1d, 2d")),
    }
}

/// The parameter schema (key, value check) for one workload kind.
pub fn workload_schema(kind: WorkloadKind) -> &'static [(&'static str, Check)] {
    match kind {
        WorkloadKind::Stream => &[
            ("elems", chk_u64_pos),
            ("threads", chk_u64_pos),
            ("kernel", chk_kernel),
            ("strategy", chk_strategy),
            ("single_nodelet", chk_bool01),
            ("stack_touch_period", chk_u64),
        ],
        WorkloadKind::Chase => &[
            ("elems_per_list", chk_u64_pos),
            ("lists", chk_u64_pos),
            ("block", chk_u64_pos),
            ("mode", chk_chase_mode),
            ("seed", chk_u64),
        ],
        WorkloadKind::Bfs => &[
            ("scale", chk_u64_pos),
            ("edges", chk_u64_pos),
            ("seed", chk_u64),
            ("src", chk_u64),
            ("mode", chk_bfs_mode),
            ("threads", chk_u64_pos),
        ],
        WorkloadKind::Mttkrp => &[
            ("i", chk_u64_pos),
            ("j", chk_u64_pos),
            ("k", chk_u64_pos),
            ("nnz", chk_u64_pos),
            ("rank", chk_u64_pos),
            ("layout", chk_tensor_layout),
            ("threads", chk_u64_pos),
            ("seed", chk_u64),
        ],
        WorkloadKind::Spmv => &[
            ("n", chk_u64_pos),
            ("layout", chk_spmv_layout),
            ("grain", chk_u64_pos),
        ],
        WorkloadKind::Script => &[],
    }
}

fn check_workload_key(kind: WorkloadKind, key: &str, val: &str) -> Result<(), String> {
    match workload_schema(kind).iter().find(|(k, _)| *k == key) {
        Some((_, chk)) => chk(val),
        None => Err(format!(
            "unknown {} parameter {key:?}; one of: {}",
            kind.name(),
            workload_schema(kind)
                .iter()
                .map(|(k, _)| *k)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Validate one sweep value for `axis_key` in the context of `kind`.
fn check_axis_value(kind: WorkloadKind, axis_key: &str, val: &str) -> Result<(), String> {
    if let Some(k) = axis_key.strip_prefix("machine.") {
        check_machine_key(k, val)
    } else if let Some(k) = axis_key.strip_prefix("faults.") {
        check_fault_key(k, val)
    } else {
        check_workload_key(kind, axis_key, val)
    }
}

fn parse_f64(v: &str) -> Result<f64, String> {
    let x: f64 = v
        .parse()
        .map_err(|_| format!("expected a number, got {v:?}"))?;
    if !x.is_finite() {
        return Err(format!("non-finite number {v:?}"));
    }
    Ok(x)
}

fn parse_expect_line(line: &str) -> Result<Expect, String> {
    if let Some(rest) = line.strip_prefix("byte_identical_at_sim_threads") {
        let rest = rest
            .trim_start()
            .strip_prefix('=')
            .ok_or("expected '=' after byte_identical_at_sim_threads")?;
        let mut sim_threads = Vec::new();
        for tok in rest.split(',') {
            let tok = tok.trim();
            let n: usize = tok
                .parse()
                .map_err(|_| format!("bad sim-thread count {tok:?}"))?;
            if n == 0 || n > 64 {
                return Err(format!("sim-thread count {n} out of range 1..=64"));
            }
            sim_threads.push(n);
        }
        if sim_threads.len() < 2 {
            return Err("byte_identical_at_sim_threads needs at least two counts".into());
        }
        return Ok(Expect::ByteIdentical { sim_threads });
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["counter", metric, op, value] => {
            if !METRICS.contains(metric) {
                return Err(format!("unknown metric {metric:?}"));
            }
            let op = CmpOp::from_name(op).ok_or_else(|| format!("unknown operator {op:?}"))?;
            Ok(Expect::Counter {
                metric: metric.to_string(),
                op,
                value: parse_f64(value)?,
            })
        }
        ["oracle", name, "in", band] => {
            if !ORACLES.contains(name) {
                return Err(format!("unknown oracle {name:?}"));
            }
            let (lo, hi) = band
                .split_once("..")
                .ok_or_else(|| format!("expected <lo>..<hi>, got {band:?}"))?;
            let (lo, hi) = (parse_f64(lo)?, parse_f64(hi)?);
            if lo > hi {
                return Err(format!("empty band {lo}..{hi}"));
            }
            Ok(Expect::Oracle {
                name: name.to_string(),
                lo,
                hi,
            })
        }
        ["monotonic", metric, dir, "over", axis] => {
            if !METRICS.contains(metric) {
                return Err(format!("unknown metric {metric:?}"));
            }
            let dir = Direction::from_name(dir)
                .ok_or_else(|| format!("unknown direction {dir:?} (nondecreasing|nonincreasing)"))?;
            Ok(Expect::Monotonic {
                metric: metric.to_string(),
                dir,
                axis: axis.to_string(),
            })
        }
        _ => Err(format!(
            "bad expect line {line:?} (counter | oracle | monotonic | byte_identical_at_sim_threads)"
        )),
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Section {
    None,
    Machine,
    Workload,
    Faults,
    Expect,
}

/// Parse one `.scn` document. Every rejection names its line.
pub fn parse(text: &str) -> Result<Scenario, String> {
    let mut name: Option<String> = None;
    let mut preset: Option<String> = None;
    let mut machine_overrides: Vec<(String, String)> = Vec::new();
    let mut workload: Option<Workload> = None;
    let mut faults: Vec<(String, String)> = Vec::new();
    let mut sweep: Vec<Axis> = Vec::new();
    let mut expect: Vec<Expect> = Vec::new();
    let mut seen_faults = false;
    let mut seen_expect = false;
    let mut section = Section::None;

    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let first = line.split_whitespace().next().unwrap();
        match first {
            "scenario" => {
                if name.is_some() {
                    return Err(err(ln, "duplicate scenario line"));
                }
                if preset.is_some() || workload.is_some() {
                    return Err(err(ln, "scenario line must come first"));
                }
                let n = line["scenario".len()..].trim();
                if !valid_name(n) {
                    return Err(err(ln, format!("bad scenario name {n:?}")));
                }
                name = Some(n.to_string());
                section = Section::None;
            }
            "machine" => {
                if preset.is_some() {
                    return Err(err(ln, "duplicate machine section"));
                }
                let p = line["machine".len()..].trim();
                emu_core::presets::by_name(p).map_err(|e| err(ln, e))?;
                preset = Some(p.to_string());
                section = Section::Machine;
            }
            "workload" => {
                if workload.is_some() {
                    return Err(err(ln, "duplicate workload section"));
                }
                let k = line["workload".len()..].trim();
                let kind = WorkloadKind::from_name(k).ok_or_else(|| {
                    err(
                        ln,
                        format!(
                            "unknown workload {k:?} (stream, chase, bfs, mttkrp, spmv, script)"
                        ),
                    )
                })?;
                workload = Some(Workload {
                    kind,
                    params: BTreeMap::new(),
                    threads: Vec::new(),
                });
                section = Section::Workload;
            }
            "faults" => {
                if seen_faults {
                    return Err(err(ln, "duplicate faults section"));
                }
                if line != "faults" {
                    return Err(err(ln, "faults section header takes no arguments"));
                }
                seen_faults = true;
                section = Section::Faults;
            }
            "sweep" => {
                let rest = line["sweep".len()..].trim();
                let (key, vals) = rest
                    .split_once('=')
                    .ok_or_else(|| err(ln, "expected: sweep <key> = v1, v2, …"))?;
                let key = key.trim();
                if key.is_empty() {
                    return Err(err(ln, "empty sweep key"));
                }
                if sweep.len() >= MAX_AXES {
                    return Err(err(ln, format!("at most {MAX_AXES} swept axes")));
                }
                if sweep.iter().any(|a| a.key == key) {
                    return Err(err(ln, format!("duplicate sweep axis {key:?}")));
                }
                let kind = workload
                    .as_ref()
                    .map(|w| w.kind)
                    .ok_or_else(|| err(ln, "sweep must come after the workload section"))?;
                let mut values = Vec::new();
                for v in vals.split(',') {
                    let v = v.trim();
                    if v.is_empty() {
                        return Err(err(ln, "empty sweep value"));
                    }
                    check_axis_value(kind, key, v).map_err(|e| err(ln, e))?;
                    values.push(v.to_string());
                }
                sweep.push(Axis {
                    key: key.to_string(),
                    values,
                });
                section = Section::None;
            }
            "expect" => {
                if seen_expect {
                    return Err(err(ln, "duplicate expect section"));
                }
                if line != "expect" {
                    return Err(err(ln, "expect section header takes no arguments"));
                }
                seen_expect = true;
                section = Section::Expect;
            }
            _ => match section {
                Section::None => {
                    return Err(err(ln, format!("unknown section or stray line {line:?}")))
                }
                Section::Expect => expect.push(parse_expect_line(line).map_err(|e| err(ln, e))?),
                Section::Machine | Section::Workload | Section::Faults => {
                    let (key, val) = line
                        .split_once('=')
                        .ok_or_else(|| err(ln, format!("expected key = value, got {line:?}")))?;
                    let (key, val) = (key.trim(), val.trim());
                    match section {
                        Section::Machine => {
                            check_machine_key(key, val).map_err(|e| err(ln, e))?;
                            if machine_overrides.iter().any(|(k, _)| k == key) {
                                return Err(err(ln, format!("duplicate machine key {key:?}")));
                            }
                            machine_overrides.push((key.to_string(), val.to_string()));
                        }
                        Section::Faults => {
                            check_fault_key(key, val).map_err(|e| err(ln, e))?;
                            if faults.iter().any(|(k, _)| k == key) {
                                return Err(err(ln, format!("duplicate fault key {key:?}")));
                            }
                            faults.push((key.to_string(), val.to_string()));
                        }
                        _ => {
                            let w = workload.as_mut().unwrap();
                            if key == "thread" {
                                if w.kind != WorkloadKind::Script {
                                    return Err(err(
                                        ln,
                                        "thread lines are only valid in a script workload",
                                    ));
                                }
                                w.threads.push(parse_thread(val).map_err(|e| err(ln, e))?);
                            } else {
                                check_workload_key(w.kind, key, val).map_err(|e| err(ln, e))?;
                                if w.params.contains_key(key) {
                                    return Err(err(
                                        ln,
                                        format!("duplicate workload parameter {key:?}"),
                                    ));
                                }
                                w.params.insert(key.to_string(), val.to_string());
                            }
                        }
                    }
                }
            },
        }
    }

    let name = name.ok_or("missing scenario line")?;
    let preset = preset.ok_or("missing machine section")?;
    let workload = workload.ok_or("missing workload section")?;
    if workload.kind == WorkloadKind::Script && workload.threads.is_empty() {
        return Err("script workload has no thread lines".into());
    }
    for e in &expect {
        if let Expect::Monotonic { axis, .. } = e {
            if !sweep.iter().any(|a| &a.key == axis) {
                return Err(format!("monotonic expect references unswept axis {axis:?}"));
            }
        }
    }
    let s = Scenario {
        name,
        preset,
        machine_overrides,
        workload,
        faults,
        sweep,
        expect,
    };
    // Dry-run the full resolution (machine builds, sweep expansion,
    // cross-key workload constraints) so a structurally valid file
    // with inconsistent semantics — nodes = 0 via override, a chase
    // whose list length is not a multiple of its block — fails at
    // parse time, not at run time.
    crate::resolve::resolve(&s)?;
    Ok(s)
}

/// Render the canonical form of a scenario. `parse(print(s)) == s`.
pub fn print(s: &Scenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", s.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "machine {}", s.preset);
    for (k, v) in &s.machine_overrides {
        let _ = writeln!(out, "  {k} = {v}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "workload {}", s.workload.kind.name());
    for (k, v) in &s.workload.params {
        let _ = writeln!(out, "  {k} = {v}");
    }
    for t in &s.workload.threads {
        let mut line = format!("  thread = {}", t.start);
        for op in &t.ops {
            line.push(' ');
            line.push_str(&op_token(op));
        }
        let _ = writeln!(out, "{line}");
    }
    if !s.faults.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "faults");
        for (k, v) in &s.faults {
            let _ = writeln!(out, "  {k} = {v}");
        }
    }
    if !s.sweep.is_empty() {
        let _ = writeln!(out);
        for a in &s.sweep {
            let _ = writeln!(out, "sweep {} = {}", a.key, a.values.join(", "));
        }
    }
    if !s.expect.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "expect");
        for e in &s.expect {
            let line = match e {
                Expect::Counter { metric, op, value } => {
                    format!("counter {metric} {} {value}", op.name())
                }
                Expect::Oracle { name, lo, hi } => format!("oracle {name} in {lo}..{hi}"),
                Expect::Monotonic { metric, dir, axis } => {
                    format!("monotonic {metric} {} over {axis}", dir.name())
                }
                Expect::ByteIdentical { sim_threads } => format!(
                    "byte_identical_at_sim_threads = {}",
                    sim_threads
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}
