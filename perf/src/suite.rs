//! `suite`: the committed conformance registry, `scenarios/*.scn`.
//!
//! One round, and one op, is a pass over every scenario through the
//! sweep executor (`emu_bench::sweep::run_indexed`, on one job; see
//! `pin_env`) in an order shuffled by `--seed`. The op is the pass,
//! what `simctl scenario run` makes a user wait for; the meter rescales
//! between passes. Each scenario is traced as its own root span:
//! `parse`, then the public parts of `scenario::run_scenario` in its
//! order (`resolve`, `run_point` per point, `evaluate`). Each pass runs
//! a few hundred tiny points, so per-point overhead sets the cost:
//! engine build, audit, report rendering, the re-runs at other
//! scheduler thread counts for the byte-identity assertions, and the
//! script lockstep. Every scenario must pass and reproduce the set-up
//! pass's outcome exactly; the set-up pass's outcomes match a golden
//! digest.

use crate::check::Checks;
use crate::meter::Meter;
use crate::trace::{OpTrace, Tracer};
use crate::{stats, Metrics, RunCfg, Window, Workload};
use desim::rng::{trial_seed, Rng64};
use scenario::PointOutcome;
use std::path::Path;
use std::time::Instant;

/// Scenario families (file-name prefixes) reported separately; the
/// rest count as `other`.
const FAMILIES: [(&str, &str); 11] = [
    ("base", "scenario.family_s.base"),
    ("stream", "scenario.family_s.stream"),
    ("chase", "scenario.family_s.chase"),
    ("bfs", "scenario.family_s.bfs"),
    ("mttkrp", "scenario.family_s.mttkrp"),
    ("spmv", "scenario.family_s.spmv"),
    ("fault", "scenario.family_s.fault"),
    ("ident", "scenario.family_s.ident"),
    ("oracle", "scenario.family_s.oracle"),
    ("script", "scenario.family_s.script"),
    ("sweep", "scenario.family_s.sweep"),
];
const OTHER: &str = "scenario.family_s.other";

fn family(name: &str) -> &'static str {
    let prefix = name.split('-').next().unwrap_or(name);
    FAMILIES
        .iter()
        .find(|(f, _)| *f == prefix)
        .map_or(OTHER, |(_, metric)| metric)
}

/// What a scenario run produced, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    points: Vec<PointOutcome>,
    failures: Vec<String>,
}

/// Parse and run one scenario as one op: `scenario::run_scenario`'s
/// steps, each in its own span.
fn run_one(op: &mut OpTrace, text: &str) -> Outcome {
    let s = match op.span("parse", |_| scenario::parse(text)) {
        Ok(s) => s,
        Err(e) => {
            return Outcome {
                points: Vec::new(),
                failures: vec![format!("parse: {e}")],
            }
        }
    };
    let points = match op.span("resolve", |_| scenario::resolve(&s)) {
        Ok(p) => p,
        Err(e) => {
            return Outcome {
                points: Vec::new(),
                failures: vec![format!("resolve: {e}")],
            }
        }
    };
    let points: Vec<PointOutcome> = points
        .iter()
        .map(|p| op.span("run_point", |_| scenario::run_point(&s, p)))
        .collect();
    let failures = op.span("evaluate", |_| scenario::evaluate(&s, &points));
    Outcome { points, failures }
}

/// The registry files as `(name, text)`, sorted by name.
fn load(root: &Path) -> Result<Vec<(String, String)>, String> {
    let dir = root.join("scenarios");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "scn") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = path
                .file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            files.push((name, text));
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no scenarios under {}", dir.display()));
    }
    Ok(files)
}

/// Run every scenario once, untraced, in registry order.
fn reference_pass(files: &[(String, String)]) -> Vec<Outcome> {
    let off = Tracer::new(false);
    emu_bench::sweep::run_indexed(files.len(), |i| {
        run_one(&mut off.op("scenario"), &files[i].1)
    })
}

fn golden_payload(files: &[(String, String)], outcomes: &[Outcome]) -> String {
    files
        .iter()
        .zip(outcomes)
        .map(|((name, _), o)| format!("{name}\n{:?}\n{:?}\n", o.points, o.failures))
        .collect()
}

pub fn golden(root: &Path) -> Vec<(String, String)> {
    let files = load(root).expect("scenario registry");
    let outcomes = reference_pass(&files);
    vec![("suite.outcomes".into(), golden_payload(&files, &outcomes))]
}

pub struct Suite {
    seed: u64,
    files: Vec<(String, String)>,
    family: Vec<&'static str>,
    reference: Vec<Outcome>,
    passes: u64,
    /// Traced passes and their scenario time per family, in ms.
    traced_passes: u64,
    family_ms: Metrics,
}

impl Workload for Suite {
    /// Set-up reads the registry and runs one untimed pass, which is
    /// the reference every timed pass must reproduce.
    fn setup(cfg: &RunCfg, checks: &mut Checks) -> Result<Self, String> {
        let files = load(&cfg.root)?;
        let reference = reference_pass(&files);
        for ((name, _), o) in files.iter().zip(&reference) {
            checks.check(o.failures.is_empty(), || {
                format!("scenario {name}: {:?}", o.failures)
            });
        }
        checks.golden(
            &cfg.golden,
            "suite.outcomes",
            &golden_payload(&files, &reference),
        );
        Ok(Suite {
            seed: cfg.seed,
            family: files.iter().map(|(name, _)| family(name)).collect(),
            files,
            reference,
            passes: 0,
            traced_passes: 0,
            family_ms: Metrics::new(),
        })
    }

    fn round(
        &mut self,
        _deadline: Instant,
        trace: &mut Tracer,
        meter: &mut Meter,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.files.len()).collect();
        Rng64::new(trial_seed(self.seed, self.passes)).shuffle(&mut order);
        self.passes += 1;
        let shared: &Tracer = trace;
        let files = &self.files;
        let pass = meter.time(|| {
            emu_bench::sweep::run_indexed(order.len(), |k| {
                let mut op = shared.op("scenario");
                let out = run_one(&mut op, &files[order[k]].1);
                (out, op.finish())
            })
        });
        if trace.on() {
            self.traced_passes += 1;
        }
        let ms = pass.ms();
        for (&i, (out, (wall_ms, spans))) in order.iter().zip(pass.value) {
            let name = &self.files[i].0;
            checks.check(out.failures.is_empty(), || {
                format!("scenario {name}: {:?}", out.failures)
            });
            checks.check(out == self.reference[i], || {
                format!("scenario {name}: outcome differs from the set-up pass")
            });
            if trace.on() {
                *self.family_ms.entry(self.family[i]).or_default() += wall_ms;
            }
            trace.add(spans);
        }
        vec![ms]
    }

    fn layers(&mut self, win: &Window, trace: &Tracer, out: &mut Metrics, _checks: &mut Checks) {
        out.insert("scenario.parse_us", trace.mean_us("parse"));
        out.insert("scenario.resolve_us", trace.mean_us("resolve"));
        out.insert("scenario.evaluate_us", trace.mean_us("evaluate"));
        let point_ms: Vec<f64> = trace
            .durations("run_point")
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
        out.insert(
            "scenario.run_point_p50_ms",
            stats::percentile(&point_ms, 50.0),
        );
        out.insert(
            "scenario.run_point_p99_ms",
            stats::percentile(&point_ms, 99.0),
        );
        let passes = self.traced_passes.max(1) as f64;
        for metric in FAMILIES.iter().map(|(_, m)| *m).chain([OTHER]) {
            let ms = self.family_ms.get(metric).copied().unwrap_or(0.0);
            out.insert(metric, ms / 1e3 / passes);
        }
        out.insert(
            "sweep.cpu_util",
            win.cpu_s / (win.wall_s * emu_bench::runcfg::jobs() as f64),
        );
    }
}
