//! `campaign`: what a reproducer waits for.
//!
//! One round, and one op, is the cold quick campaign (`EMU_QUICK=1`,
//! result cache off, sweeps on one job; see `pin_env`): every
//! paper figure plus the headline table, each rendered. The op is the
//! whole campaign because that is what a reproducer waits for; the
//! median of ten unequal figures would rest on the two middle ones.
//! Each figure is timed on its own, so the meter rescales between
//! figures, and traced as its own root span. The workload adds the Xeon
//! model and the sweep executor to the engine's hot loop. Every table
//! must match its golden digest.

use crate::check::{Checks, Golden};
use crate::meter::Meter;
use crate::trace::Tracer;
use crate::{Metrics, RunCfg, Window, Workload};
use emu_bench::figures as f;
use emu_bench::output::Table;
use emu_core::fault::SimError;
use std::time::Instant;

type FigureFn = fn() -> Result<Table, SimError>;

/// `(figure, its per-layer metric, runner)` in campaign order.
const FIGURES: [(&str, &str, FigureFn); 10] = [
    ("fig04", "figures.fig04_s", f::fig04),
    ("fig05", "figures.fig05_s", f::fig05),
    ("fig06", "figures.fig06_s", f::fig06),
    ("fig07", "figures.fig07_s", f::fig07),
    ("fig08", "figures.fig08_s", f::fig08),
    ("fig09a", "figures.fig09a_s", f::fig09a),
    ("fig09b", "figures.fig09b_s", f::fig09b),
    ("fig10", "figures.fig10_s", f::fig10),
    ("fig11", "figures.fig11_s", f::fig11),
    ("headline", "figures.headline_s", f::headline),
];

/// `--quick` runs these three (about a tenth of the campaign's time).
const QUICK: [&str; 3] = ["fig04", "fig06", "fig10"];

fn golden_key(fig: &str) -> String {
    format!("campaign.{fig}")
}

pub fn golden() -> Vec<(String, String)> {
    FIGURES
        .iter()
        .map(|&(name, _, run)| {
            let t = run().unwrap_or_else(|e| panic!("{name}: {e}"));
            (golden_key(name), t.render())
        })
        .collect()
}

pub struct Campaign {
    figures: Vec<(&'static str, &'static str, FigureFn)>,
    golden: Golden,
}

impl Campaign {
    /// Run and render one figure as one traced op; returns its time in
    /// ms.
    fn figure(&self, i: usize, trace: &mut Tracer, meter: &mut Meter, checks: &mut Checks) -> f64 {
        let (name, _, run) = self.figures[i];
        let shared: &Tracer = trace;
        let t = meter.time(|| {
            let mut op = shared.op("figure");
            let text = op
                .span(name, |_| run())
                .map(|table| op.span("render", |_| table.render()));
            (text, op.finish().1)
        });
        let ms = t.ms();
        let (text, spans) = t.value;
        match text {
            Ok(text) => checks.golden(&self.golden, &golden_key(name), &text),
            Err(e) => checks.fail(|| format!("{name}: {e}")),
        }
        trace.add(spans);
        ms
    }
}

impl Workload for Campaign {
    /// Set-up warms the process (threads, allocator) with the cheapest
    /// figure, untimed.
    fn setup(cfg: &RunCfg, checks: &mut Checks) -> Result<Self, String> {
        let figures = FIGURES
            .into_iter()
            .filter(|(name, ..)| !cfg.quick || QUICK.contains(name))
            .collect();
        let c = Campaign {
            figures,
            golden: cfg.golden.clone(),
        };
        c.figure(0, &mut Tracer::new(false), &mut Meter::new(false), checks);
        Ok(c)
    }

    fn round(
        &mut self,
        _deadline: Instant,
        trace: &mut Tracer,
        meter: &mut Meter,
        checks: &mut Checks,
    ) -> Vec<f64> {
        vec![(0..self.figures.len())
            .map(|i| self.figure(i, trace, meter, checks))
            .sum()]
    }

    fn layers(&mut self, win: &Window, trace: &Tracer, out: &mut Metrics, _checks: &mut Checks) {
        for &(name, metric, _) in &self.figures {
            out.insert(metric, trace.mean_us(name) / 1e6);
        }
        out.insert(
            "sweep.cpu_util",
            win.cpu_s / (win.wall_s * emu_bench::runcfg::jobs() as f64),
        );
    }
}
