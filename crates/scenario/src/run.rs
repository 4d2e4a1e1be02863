//! Executing scenario points and evaluating `expect` blocks.
//!
//! [`run_point`] executes one resolved point — the workload runs with
//! functional verification (checksums, reference BFS/MTTKRP/SpMV
//! results), every report is audited against the engine's physical
//! invariants, and the report totals become a flat metric map. When
//! the scenario carries a `byte_identical_at_sim_threads` assertion the
//! point is re-run at each listed scheduler worker count and the full
//! report JSON is captured as a fingerprint. When it names oracles,
//! their measured/predicted ratios are computed against the point's
//! machine and added as `oracle:<name>` metrics.
//!
//! [`evaluate`] is pure — it looks only at [`PointOutcome`] values, so
//! the mutation tests in `tests/mutation.rs` can tamper with outcomes
//! and prove each assertion kind actually rejects a seeded bug.

use crate::ast::*;
use crate::resolve::{Point, ResolvedWorkload};
use conformance::{lockstep, oracle};
use emu_core::audit::audit;
use emu_core::config::MachineConfig;
use emu_core::engine::Engine;
use emu_core::json::{jnum, jstr, report_json};
use emu_core::jsonread::{parse, Value};
use emu_core::metrics::RunReport;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Everything observed at one executed point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Index in sweep order.
    pub index: usize,
    /// The swept `(axis key, value)` pairs of this point.
    pub axes: Vec<(String, String)>,
    /// Flat metric map (see [`crate::parse::METRICS`], plus
    /// `oracle:<name>` ratios when the scenario asserts oracles).
    pub metrics: BTreeMap<String, f64>,
    /// `(sim_threads, full report JSON)` fingerprints, one per worker
    /// count listed in a `byte_identical_at_sim_threads` assertion.
    pub fingerprints: Vec<(usize, String)>,
    /// Functional / audit / simulation problems (empty = clean run).
    pub problems: Vec<String>,
}

impl PointOutcome {
    /// The outcome as one JSON object: the report of the daemon's
    /// `scenario_point` response and the result cache's payload.
    ///
    /// ```json
    /// {"point":0,"axes":[["elems","64"]],"metrics":{"events":42},
    ///  "fingerprints":[[1,"{...}"],[2,"{...}"]],"problems":[]}
    /// ```
    ///
    /// Metrics are written in shortest round-trip form, so a finite
    /// metric reads back bit-exactly; a non-finite one becomes `null`,
    /// which [`PointOutcome::from_json`] rejects.
    pub fn to_json(&self) -> String {
        let axes: Vec<String> = self
            .axes
            .iter()
            .map(|(k, v)| format!("[{},{}]", jstr(k), jstr(v)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", jstr(k), jnum(*v)))
            .collect();
        let fps: Vec<String> = self
            .fingerprints
            .iter()
            .map(|(n, fp)| format!("[{n},{}]", jstr(fp)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| jstr(p)).collect();
        format!(
            "{{\"point\":{},\"axes\":[{}],\"metrics\":{{{}}},\"fingerprints\":[{}],\"problems\":[{}]}}",
            self.index,
            axes.join(","),
            metrics.join(","),
            fps.join(","),
            problems.join(",")
        )
    }

    /// Parse [`PointOutcome::to_json`]'s document back. Strict: any
    /// shape mismatch is an error.
    pub fn from_json(text: &str) -> Result<PointOutcome, String> {
        let v = parse(text).map_err(|e| format!("bad point outcome: {e}"))?;
        let index = v
            .get("point")
            .and_then(Value::as_u64)
            .ok_or("point outcome missing \"point\"")? as usize;
        let mut axes = Vec::new();
        let Some(Value::Arr(items)) = v.get("axes") else {
            return Err("point outcome missing \"axes\"".into());
        };
        for item in items {
            match item {
                Value::Arr(kv) if kv.len() == 2 => {
                    let k = kv[0].as_str().ok_or("axis key must be a string")?;
                    let val = kv[1].as_str().ok_or("axis value must be a string")?;
                    axes.push((k.to_string(), val.to_string()));
                }
                _ => return Err("each axis must be a [key, value] pair".into()),
            }
        }
        let mut metrics = BTreeMap::new();
        let Some(Value::Obj(pairs)) = v.get("metrics") else {
            return Err("point outcome missing \"metrics\"".into());
        };
        for (k, val) in pairs {
            let x = val
                .as_f64()
                .ok_or_else(|| format!("metric {k:?} is not a finite number"))?;
            metrics.insert(k.clone(), x);
        }
        let mut fingerprints = Vec::new();
        let Some(Value::Arr(items)) = v.get("fingerprints") else {
            return Err("point outcome missing \"fingerprints\"".into());
        };
        for item in items {
            match item {
                Value::Arr(pair) if pair.len() == 2 => {
                    let n = pair[0]
                        .as_u64()
                        .ok_or("fingerprint worker count must be an integer")?;
                    let fp = pair[1].as_str().ok_or("fingerprint must be a string")?;
                    fingerprints.push((n as usize, fp.to_string()));
                }
                _ => return Err("each fingerprint must be a [count, report] pair".into()),
            }
        }
        let mut problems = Vec::new();
        let Some(Value::Arr(items)) = v.get("problems") else {
            return Err("point outcome missing \"problems\"".into());
        };
        for item in items {
            problems.push(item.as_str().ok_or("problems must be strings")?.to_string());
        }
        Ok(PointOutcome {
            index,
            axes,
            metrics,
            fingerprints,
            problems,
        })
    }
}

/// Result of running one whole scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Executed points, in sweep order.
    pub points: Vec<PointOutcome>,
    /// Failed assertions and per-point problems (empty = pass).
    pub failures: Vec<String>,
}

impl ScenarioOutcome {
    /// Did every point run clean and every assertion hold?
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Serializes save/set/restore cycles of the process-global scheduler
/// worker count during byte-identity fingerprinting. Plain runs do not
/// take it: the PR 5 invariant (reports are byte-identical at any
/// worker count) makes a concurrent temporary change harmless to them.
static SIM_THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Workload-level results that are not in the machine report.
#[derive(Default)]
struct Extras {
    bandwidth_bps: Option<f64>,
    depth: Option<f64>,
    edges_traversed: Option<f64>,
    teps: Option<f64>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Run the point's workload once under the current scheduler settings
/// (`sim_override` pins the worker count for script runs, which build
/// their own engine). Returns the run's reports; pushes functional and
/// audit problems.
fn exec_point(
    p: &Point,
    sim_override: Option<usize>,
    problems: &mut Vec<String>,
) -> (Vec<RunReport>, Extras) {
    let mut extras = Extras::default();
    let reports = match &p.workload {
        ResolvedWorkload::Stream(sc) => match membench::stream::run_stream_emu(&p.cfg, sc) {
            Err(e) => {
                problems.push(format!("stream: {e:?}"));
                Vec::new()
            }
            Ok(r) => {
                let want = membench::stream::stream_checksum(sc.total_elems, sc.kernel);
                if r.checksum != want {
                    problems.push(format!("stream checksum {} != expected {want}", r.checksum));
                }
                extras.bandwidth_bps = Some(r.bandwidth.bytes_per_sec);
                vec![r.report]
            }
        },
        ResolvedWorkload::Chase(cc) => match membench::chase::run_chase_emu(&p.cfg, cc) {
            Err(e) => {
                problems.push(format!("chase: {e:?}"));
                Vec::new()
            }
            Ok(r) => {
                let want = cc.expected_checksum();
                if r.checksum != want {
                    problems.push(format!("chase checksum {} != expected {want}", r.checksum));
                }
                extras.bandwidth_bps = Some(r.bandwidth.bytes_per_sec);
                r.report.into_iter().collect()
            }
        },
        ResolvedWorkload::Bfs {
            scale,
            edges,
            seed,
            src,
            mode,
            threads,
        } => {
            let el = emu_graph::gen::rmat(*scale, *edges, *seed);
            let g = Arc::new(emu_graph::stinger::Stinger::build_host(
                &el,
                4,
                p.cfg.total_nodelets(),
            ));
            match emu_graph::bfs::run_bfs_emu(&p.cfg, Arc::clone(&g), *src, *mode, *threads) {
                Err(e) => {
                    problems.push(format!("bfs: {e:?}"));
                    Vec::new()
                }
                Ok(r) => {
                    if r.levels != g.bfs_reference(*src) {
                        problems.push("bfs levels diverge from the reference traversal".into());
                    }
                    extras.depth = Some(r.depth as f64);
                    extras.edges_traversed = Some(r.edges_traversed as f64);
                    extras.teps = Some(r.teps);
                    r.reports
                }
            }
        }
        ResolvedWorkload::Mttkrp {
            dims,
            nnz,
            rank,
            layout,
            threads,
            seed,
        } => {
            let t = Arc::new(emu_tensor::coo::random_tensor(*dims, *nnz, *seed));
            let mc = emu_tensor::emu::EmuMttkrpConfig {
                layout: *layout,
                rank: *rank,
                nthreads: *threads,
            };
            match emu_tensor::emu::run_mttkrp_emu(&p.cfg, Arc::clone(&t), &mc) {
                Err(e) => {
                    problems.push(format!("mttkrp: {e:?}"));
                    Vec::new()
                }
                Ok(r) => {
                    let want = emu_tensor::coo::mttkrp_reference(&t, *rank);
                    if r.y.len() != want.len() || r.y.iter().zip(&want).any(|(&a, &b)| !close(a, b))
                    {
                        problems.push("mttkrp output diverges from the reference".into());
                    }
                    extras.bandwidth_bps = Some(r.bandwidth.bytes_per_sec);
                    vec![r.report]
                }
            }
        }
        ResolvedWorkload::Spmv { n, layout, grain } => {
            let m = Arc::new(spmat::laplacian(spmat::LaplacianSpec::paper(*n)));
            let sc = membench::spmv_emu::EmuSpmvConfig {
                layout: *layout,
                grain_nnz: *grain,
            };
            match membench::spmv_emu::run_spmv_emu(&p.cfg, Arc::clone(&m), &sc) {
                Err(e) => {
                    problems.push(format!("spmv: {e:?}"));
                    Vec::new()
                }
                Ok(r) => {
                    let x = membench::spmv_emu::x_vector(m.ncols());
                    let want = m.spmv(&x);
                    if r.y.len() != want.len() || r.y.iter().zip(&want).any(|(&a, &b)| !close(a, b))
                    {
                        problems.push("spmv output diverges from the reference".into());
                    }
                    extras.bandwidth_bps = Some(r.bandwidth.bytes_per_sec);
                    vec![r.report]
                }
            }
        }
        ResolvedWorkload::Script(threads) => {
            let run = || -> Result<RunReport, emu_core::fault::SimError> {
                let mut e = Engine::new(p.cfg.clone())?;
                if let Some(n) = sim_override {
                    e.set_sim_threads(n);
                }
                lockstep::seed_case(&mut e, threads)?;
                e.run()
            };
            match run() {
                Err(e) => {
                    problems.push(format!("script: {e:?}"));
                    Vec::new()
                }
                Ok(r) => vec![r],
            }
        }
    };
    for r in &reports {
        for v in audit(&p.cfg, r) {
            problems.push(format!("audit: {v}"));
        }
    }
    (reports, extras)
}

/// Flatten reports + workload extras into the metric map.
fn point_metrics(reports: &[RunReport], extras: &Extras) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    if !reports.is_empty() {
        let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        m.insert("makespan_ps".into(), sum(&|r| r.makespan.ps()));
        m.insert("events".into(), sum(&|r| r.events));
        m.insert("threads".into(), sum(&|r| r.threads));
        m.insert("migrations".into(), sum(&|r| r.total_migrations()));
        m.insert("spawns".into(), sum(&|r| r.total_spawns()));
        m.insert("nacks".into(), sum(&|r| r.total_nacks()));
        m.insert("retries".into(), sum(&|r| r.total_retries()));
        m.insert("ecc_retries".into(), sum(&|r| r.total_ecc_retries()));
        m.insert(
            "link_retransmits".into(),
            sum(&|r| r.total_link_retransmits()),
        );
        m.insert("redirects".into(), sum(&|r| r.total_redirects()));
        m.insert("bytes".into(), sum(&|r| r.total_bytes()));
        if let [r] = reports {
            // Rates and utilizations only make sense for a single
            // engine run; summing them across BFS levels would not.
            m.insert("core_utilization".into(), r.core_utilization());
            m.insert("channel_utilization".into(), r.channel_utilization());
            m.insert("migration_rate".into(), r.migration_rate());
        }
    }
    for (key, val) in [
        ("bandwidth_bps", extras.bandwidth_bps),
        ("depth", extras.depth),
        ("edges_traversed", extras.edges_traversed),
        ("teps", extras.teps),
    ] {
        if let Some(v) = val {
            m.insert(key.into(), v);
        }
    }
    m
}

/// Worker counts a `byte_identical_at_sim_threads` assertion wants
/// (union over assertions; empty = no fingerprinting).
fn wanted_sim_threads(s: &Scenario) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for e in &s.expect {
        if let Expect::ByteIdentical { sim_threads } = e {
            for &n in sim_threads {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
    }
    out
}

fn run_oracle(name: &str, cfg: &MachineConfig) -> Result<oracle::OracleCheck, String> {
    let r = match name {
        "stream-saturated" => oracle::check_stream_saturated(cfg),
        "stream-single-thread" => oracle::check_stream_single_thread(cfg),
        "migration-ceiling" => oracle::check_migration_ceiling(cfg),
        "channel-peak" => oracle::check_channel_peak(cfg),
        other => return Err(format!("unknown oracle {other:?}")),
    };
    r.map_err(|e| format!("oracle {name}: {e:?}"))
}

/// Execute one resolved point of `s`.
pub fn run_point(s: &Scenario, p: &Point) -> PointOutcome {
    let mut problems = Vec::new();

    // The lockstep conformance harness (sequential vs two-shard PDES,
    // plus trace/counter audits) runs once per point for script
    // workloads — it is the scenario-language form of the fuzzer's
    // check.
    if let ResolvedWorkload::Script(threads) = &p.workload {
        problems.extend(lockstep::run_case(&p.cfg, threads));
    }

    let counts = wanted_sim_threads(s);
    let mut fingerprints = Vec::new();
    let (reports, extras) = if counts.is_empty() {
        exec_point(p, None, &mut problems)
    } else {
        let guard = SIM_THREADS_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let prev = emu_core::engine::sim_threads();
        let mut first = None;
        for &n in &counts {
            emu_core::engine::set_sim_threads(n);
            let (reports, extras) = exec_point(p, Some(n), &mut problems);
            let fp = reports
                .iter()
                .map(|r| report_json(&s.name, r))
                .collect::<Vec<_>>()
                .join("\n");
            fingerprints.push((n, fp));
            if first.is_none() {
                first = Some((reports, extras));
            }
        }
        emu_core::engine::set_sim_threads(prev);
        drop(guard);
        first.unwrap()
    };

    let mut metrics = point_metrics(&reports, &extras);

    for e in &s.expect {
        if let Expect::Oracle { name, .. } = e {
            let key = format!("oracle:{name}");
            if metrics.contains_key(&key) {
                continue;
            }
            match run_oracle(name, &p.cfg) {
                Ok(check) => {
                    metrics.insert(key, check.ratio());
                }
                Err(e) => problems.push(e),
            }
        }
    }

    PointOutcome {
        index: p.index,
        axes: p.axes.clone(),
        metrics,
        fingerprints,
        problems,
    }
}

fn point_tag(index: usize, axes: &[(String, String)]) -> String {
    if axes.is_empty() {
        format!("point {index}")
    } else {
        let kv = axes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!("point {index} [{kv}]")
    }
}

/// Evaluate the scenario's assertions against executed points. Pure:
/// no engine access, only the outcome values.
pub fn evaluate(s: &Scenario, points: &[PointOutcome]) -> Vec<String> {
    let mut fails = Vec::new();
    for p in points {
        for prob in &p.problems {
            fails.push(format!("{}: {prob}", point_tag(p.index, &p.axes)));
        }
    }
    for e in &s.expect {
        match e {
            Expect::Counter { metric, op, value } => {
                for p in points {
                    match p.metrics.get(metric) {
                        None => fails.push(format!(
                            "{}: metric {metric} not produced by this workload",
                            point_tag(p.index, &p.axes)
                        )),
                        Some(&m) => {
                            if !op.eval(m, *value) {
                                fails.push(format!(
                                    "{}: counter {metric} = {m} violates `{metric} {} {value}`",
                                    point_tag(p.index, &p.axes),
                                    op.name()
                                ));
                            }
                        }
                    }
                }
            }
            Expect::Oracle { name, lo, hi } => {
                let key = format!("oracle:{name}");
                for p in points {
                    match p.metrics.get(&key) {
                        None => fails.push(format!(
                            "{}: oracle {name} ratio missing",
                            point_tag(p.index, &p.axes)
                        )),
                        Some(&r) => {
                            if !(r.is_finite() && r >= *lo && r <= *hi) {
                                fails.push(format!(
                                    "{}: oracle {name} ratio {r:.4} outside {lo}..{hi}",
                                    point_tag(p.index, &p.axes)
                                ));
                            }
                        }
                    }
                }
            }
            Expect::Monotonic { metric, dir, axis } => {
                let Some(ai) = s.sweep.iter().position(|a| &a.key == axis) else {
                    fails.push(format!("monotonic: axis {axis:?} is not swept"));
                    continue;
                };
                // Group points by the value of every *other* axis, then
                // order each group by the declared value order of the
                // monotone axis.
                let mut groups: BTreeMap<String, Vec<(usize, f64, usize)>> = BTreeMap::new();
                for p in points {
                    let Some(&m) = p.metrics.get(metric) else {
                        fails.push(format!(
                            "{}: metric {metric} not produced by this workload",
                            point_tag(p.index, &p.axes)
                        ));
                        continue;
                    };
                    let Some((_, axis_val)) = p.axes.get(ai) else {
                        continue;
                    };
                    let Some(vi) = s.sweep[ai].values.iter().position(|v| v == axis_val) else {
                        continue;
                    };
                    let gkey = p
                        .axes
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != ai)
                        .map(|(_, (k, v))| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    groups.entry(gkey).or_default().push((vi, m, p.index));
                }
                for (gkey, mut vs) in groups {
                    vs.sort_by_key(|&(vi, _, _)| vi);
                    for w in vs.windows(2) {
                        let ok = match dir {
                            Direction::NonDecreasing => w[1].1 >= w[0].1,
                            Direction::NonIncreasing => w[1].1 <= w[0].1,
                        };
                        if !ok {
                            let at = if gkey.is_empty() {
                                String::new()
                            } else {
                                format!(" (at {gkey})")
                            };
                            fails.push(format!(
                                "monotonic {metric} {} over {axis} violated{at}: \
                                 {axis}={} gives {} then {axis}={} gives {}",
                                dir.name(),
                                s.sweep[ai].values[w[0].0],
                                w[0].1,
                                s.sweep[ai].values[w[1].0],
                                w[1].1
                            ));
                            break;
                        }
                    }
                }
            }
            Expect::ByteIdentical { sim_threads } => {
                for p in points {
                    for &n in sim_threads {
                        if !p.fingerprints.iter().any(|(m, _)| *m == n) {
                            fails.push(format!(
                                "{}: no fingerprint captured at sim_threads={n}",
                                point_tag(p.index, &p.axes)
                            ));
                        }
                    }
                    if let Some((n0, fp0)) = p.fingerprints.first() {
                        for (n, fp) in &p.fingerprints[1..] {
                            if fp != fp0 {
                                fails.push(format!(
                                    "{}: report at sim_threads={n} is not byte-identical \
                                     to sim_threads={n0}",
                                    point_tag(p.index, &p.axes)
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    fails
}

/// Resolve and run every point of a scenario, then evaluate its
/// assertions. Points run sequentially; parallelism belongs one level
/// up (across scenarios).
pub fn run_scenario(s: &Scenario) -> ScenarioOutcome {
    let points = match crate::resolve::resolve(s) {
        Ok(p) => p,
        Err(e) => {
            return ScenarioOutcome {
                name: s.name.clone(),
                points: Vec::new(),
                failures: vec![format!("resolve: {e}")],
            }
        }
    };
    let outcomes: Vec<PointOutcome> = points.iter().map(|p| run_point(s, p)).collect();
    let failures = evaluate(s, &outcomes);
    ScenarioOutcome {
        name: s.name.clone(),
        points: outcomes,
        failures,
    }
}

// ---------------------------------------------------------------------------
// Content-addressed point memoization
// ---------------------------------------------------------------------------

/// The scenario text hashed into cache keys: the canonical print of a
/// copy whose machine-override and fault lines are stable-sorted by
/// key. Reordering semantically order-free lines must not change the
/// digest; duplicate keys keep their relative (last-wins) order.
pub fn digest_form(s: &Scenario) -> String {
    let mut c = s.clone();
    c.machine_overrides.sort_by(|a, b| a.0.cmp(&b.0));
    c.faults.sort_by(|a, b| a.0.cmp(&b.0));
    crate::parse::print(&c)
}

/// [`run_scenario`], serving unchanged points from the result cache.
///
/// The digest covers the scenario's canonical printed text (override
/// lines normalized by [`digest_form`]) plus the fully-resolved point
/// (machine config, workload config, sweep axes), so any edit to the
/// `.scn` file or to a preset lands on a different key. Assertions are
/// always re-evaluated over the (cached or fresh) outcomes. With the
/// cache disabled this is exactly [`run_scenario`].
pub fn run_scenario_cached(s: &Scenario) -> ScenarioOutcome {
    if !runcache::active() {
        return run_scenario(s);
    }
    let points = match crate::resolve::resolve(s) {
        Ok(p) => p,
        Err(e) => {
            return ScenarioOutcome {
                name: s.name.clone(),
                points: Vec::new(),
                failures: vec![format!("resolve: {e}")],
            }
        }
    };
    let printed = crate::parse::print(s);
    let hashed = digest_form(s);
    let outcomes: Vec<PointOutcome> = points
        .iter()
        .map(|p| {
            let mut k = runcache::Key::new("scn-point");
            k.record("scenario", &hashed);
            k.record("index", &p.index.to_string());
            k.record_debug("point", p);
            let digest = k.digest();
            if let Some(e) = runcache::lookup(&digest) {
                if let Ok(o) = PointOutcome::from_json(&e.payload) {
                    return o;
                }
            }
            let o = run_point(s, p);
            // A non-finite metric would not decode on load: decline it.
            if o.metrics.values().all(|v| v.is_finite()) {
                runcache::publish(
                    &digest,
                    &runcache::Entry {
                        kind: "scn-point".into(),
                        label: format!("{} #{}", s.name, p.index),
                        payload: o.to_json(),
                        recipe: Some(format!("scn:{}\n{printed}", p.index)),
                    },
                );
            }
            o
        })
        .collect();
    let failures = evaluate(s, &outcomes);
    ScenarioOutcome {
        name: s.name.clone(),
        points: outcomes,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::json::json_ok;

    fn sample() -> PointOutcome {
        let mut metrics = BTreeMap::new();
        metrics.insert("events".to_string(), 42.0);
        metrics.insert("bandwidth_bps".to_string(), 1.25e9);
        metrics.insert("oracle:stream-saturated".to_string(), 0.993);
        PointOutcome {
            index: 3,
            axes: vec![("elems".into(), "64".into())],
            metrics,
            fingerprints: vec![
                (1, "{\"label\":\"s\"}".into()),
                (2, "{\"label\":\"s\"}".into()),
            ],
            problems: vec!["audit: \"quoted\" detail".into()],
        }
    }

    #[test]
    fn point_outcomes_round_trip_through_json() {
        let empty = PointOutcome {
            index: 0,
            axes: vec![],
            metrics: BTreeMap::new(),
            fingerprints: vec![],
            problems: vec![],
        };
        for o in [sample(), empty] {
            let doc = o.to_json();
            assert!(json_ok(&doc), "{doc}");
            assert_eq!(PointOutcome::from_json(&doc).unwrap(), o);
        }
    }

    #[test]
    fn metrics_round_trip_bit_exactly() {
        let mut o = sample();
        for x in [1e-7, 1e21, -0.0, f64::MIN_POSITIVE, 0.1 + 0.2] {
            o.metrics.insert("x".into(), x);
            let back = PointOutcome::from_json(&o.to_json()).unwrap();
            assert_eq!(back.metrics["x"].to_bits(), x.to_bits(), "{x:e}");
        }
    }

    #[test]
    fn malformed_outcomes_are_rejected() {
        let mut o = sample();
        o.metrics.insert("bad".into(), f64::NAN);
        assert!(PointOutcome::from_json(&o.to_json()).is_err());
        assert!(PointOutcome::from_json("{}").is_err());
        assert!(PointOutcome::from_json("{\"point\":0}").is_err());
        assert!(PointOutcome::from_json("not json").is_err());
    }
}
