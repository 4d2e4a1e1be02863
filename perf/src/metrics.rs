//! The benchmark's metric catalogue: every name it reports, its unit,
//! and which workloads measure it. `BENCHMARK.json` at the repository
//! root must list exactly these (a test holds the two together).

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Engine,
    Campaign,
    Suite,
    Service,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Engine, Kind::Campaign, Kind::Suite, Kind::Service];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Engine => "engine",
            Kind::Campaign => "campaign",
            Kind::Suite => "suite",
            Kind::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads whose runs measure it; the others report 0 (the layer
    /// is not on their path).
    pub owners: &'static [Kind],
}

use Kind::*;

const ALL: &[Kind] = &Kind::ALL;

const fn m(name: &'static str, unit: &'static str, owners: &'static [Kind]) -> Metric {
    Metric { name, unit, owners }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one; an "op" is a rep of the four engine points, the
/// whole campaign, a suite pass, or a request. Times are scaled by the host's
/// speed on every workload but the service (see `meter.rs`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", ALL),
    m("ops_per_s", "1/s", ALL),
    m("op_p50_ms", "ms", ALL),
    m("events_per_s", "1/s", ALL),
];

const SWEEPS: &[Kind] = &[Campaign, Suite];
const SCALED: &[Kind] = &[Engine, Campaign, Suite];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("trace.overhead_pct", "%", ALL),
    m("trace.child_coverage", "ratio", ALL),
    // The op-time tail, scaled like the end-to-end times. Not bounded:
    // its run-to-run spread on a shared host is too wide to gate on.
    m("op_p90_ms", "ms", ALL),
    m("host.ref_ms", "ms", SCALED),
    // Not an end-to-end metric: it grows with the number of ops a run
    // makes, so a faster commit could read as a memory regression.
    m("peak_rss_mb", "MB", ALL),
    m("desim.queue_ns_per_op", "ns", ALL),
    m("engine.events_per_op", "count", ALL),
    m("engine.runs_per_op", "count", ALL),
    m("engine.ns_per_event", "ns", &[Engine]),
    m("engine.build_us", "us", &[Engine]),
    m("engine.reset_us", "us", &[Engine]),
    m("pdes.drain_ns", "ns", &[Engine]),
    m("pdes.barrier_ns", "ns", &[Engine]),
    m("pdes.exchange_ns", "ns", &[Engine]),
    m("pdes.merge_ns", "ns", &[Engine]),
    m("pdes.epochs", "count", &[Engine]),
    m("pdes.speedup", "x", &[Engine]),
    m("audit.us_per_report", "us", &[Engine]),
    m("json.render_us_per_report", "us", &[Engine]),
    m("membench.chase_ns_per_event", "ns", &[Engine]),
    m("scenario.parse_us", "us", &[Suite]),
    m("scenario.resolve_us", "us", &[Suite]),
    m("scenario.evaluate_us", "us", &[Suite]),
    m("scenario.run_point_p50_ms", "ms", &[Suite]),
    m("scenario.run_point_p99_ms", "ms", &[Suite]),
    m("scenario.family_s.base", "s", &[Suite]),
    m("scenario.family_s.stream", "s", &[Suite]),
    m("scenario.family_s.chase", "s", &[Suite]),
    m("scenario.family_s.bfs", "s", &[Suite]),
    m("scenario.family_s.mttkrp", "s", &[Suite]),
    m("scenario.family_s.spmv", "s", &[Suite]),
    m("scenario.family_s.fault", "s", &[Suite]),
    m("scenario.family_s.ident", "s", &[Suite]),
    m("scenario.family_s.oracle", "s", &[Suite]),
    m("scenario.family_s.script", "s", &[Suite]),
    m("scenario.family_s.sweep", "s", &[Suite]),
    m("scenario.family_s.other", "s", &[Suite]),
    m("figures.fig04_s", "s", &[Campaign]),
    m("figures.fig05_s", "s", &[Campaign]),
    m("figures.fig06_s", "s", &[Campaign]),
    m("figures.fig07_s", "s", &[Campaign]),
    m("figures.fig08_s", "s", &[Campaign]),
    m("figures.fig09a_s", "s", &[Campaign]),
    m("figures.fig09b_s", "s", &[Campaign]),
    m("figures.fig10_s", "s", &[Campaign]),
    m("figures.fig11_s", "s", &[Campaign]),
    m("figures.headline_s", "s", &[Campaign]),
    m("sweep.cpu_util", "ratio", SWEEPS),
    m("runcache.hit_ratio", "ratio", &[Service]),
    m("runcache.stores", "count", &[Service]),
    m("runcache.probe_us", "us", &[Service]),
    m("pool.queue_wait_p50_us", "us", &[Service]),
    m("pool.queue_wait_p99_us", "us", &[Service]),
    m("pool.execute_p50_ms", "ms", &[Service]),
    m("pool.execute_p99_ms", "ms", &[Service]),
    m("pool.warm_ratio", "ratio", &[Service]),
    m("pool.routed_sticky", "count", &[Service]),
    m("pool.served_from_cache", "count", &[Service]),
    m("pool.rejected_busy", "count", &[Service]),
    m("service.cold_p50_ms", "ms", &[Service]),
    m("service.warm_p50_ms", "ms", &[Service]),
    m("service.cached_p50_ms", "ms", &[Service]),
    m("service.tail_ms", "ms", &[Service]),
    m("server.health_rtt_ms", "ms", &[Service]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::jsonread::{parse, Value};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Arr(xs)) => xs,
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = list(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));

        let e2e = list(&doc, "end_to_end");
        let layer = list(&doc, "per_layer");
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        assert!(!layer.is_empty() && layer.len() <= 128);
        for (json, ours) in [(e2e, END_TO_END), (layer, PER_LAYER)] {
            let names: Vec<(&str, &str)> = json
                .iter()
                .map(|x| (field(x, "name"), field(x, "unit")))
                .collect();
            let want: Vec<(&str, &str)> = ours.iter().map(|x| (x.name, x.unit)).collect();
            assert_eq!(names, want);
        }

        let mut seen = std::collections::BTreeSet::new();
        for x in e2e.iter().chain(layer) {
            let name = field(x, "name");
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(field(x, "unit")), "bad unit for {name}");
            assert!(seen.insert(name), "{name} listed twice");
        }

        let bound = |x: &Value| x.get("bound").and_then(Value::as_f64).expect("bound");
        let setup = e2e
            .iter()
            .find(|x| field(x, "name") == "setup_s")
            .expect("setup_s");
        assert_eq!(
            (field(setup, "unit"), field(setup, "better")),
            ("s", "lower")
        );
        for x in e2e {
            assert!(bound(x) > 0.0 && bound(x) <= 0.25);
            assert!(
                bound(x) <= bound(setup),
                "setup_s must have the largest bound"
            );
        }
    }

    #[test]
    fn every_layer_metric_has_a_workload_that_measures_it() {
        for m in END_TO_END {
            assert_eq!(
                m.owners, ALL,
                "{} must be measured by every workload",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(
                !m.owners.is_empty(),
                "{} is measured by no workload",
                m.name
            );
        }
    }
}
