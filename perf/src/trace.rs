//! Harness-side span tracing.
//!
//! Every traced op (a rep of engine points, a figure, a scenario, a
//! request) is one root span; its children wrap the public calls the
//! op makes into the system, so the trace attributes host time to
//! layers without instrumenting the program itself. Spans of one op
//! are buffered in its [`OpTrace`] (which may live on a worker thread)
//! and handed to the [`Tracer`] when the op finishes; the whole trace
//! stays in memory until the run writes [`Tracer::json`] at exit.
//!
//! With tracing off an [`OpTrace`] still times its root, so traced and
//! untraced runs measure ops on the same code path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` indexes the same op's span list; the
/// op's root span is index 0 and has no parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span buffer of one in-flight op.
pub struct OpTrace {
    on: bool,
    epoch: Instant,
    started: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl OpTrace {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a child span of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Close the root span: the op's wall time in ms and its spans
    /// (empty when tracing is off).
    pub fn finish(mut self) -> (f64, Vec<Span>) {
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        if let Some(root) = self.spans.first_mut() {
            root.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
        (ms, self.spans)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// All finished ops of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    ops: Vec<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            ops: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start an op whose root span is `name`. The returned buffer is
    /// `Send`, so an op may run on a worker thread.
    pub fn op(&self, name: &'static str) -> OpTrace {
        let mut op = OpTrace {
            on: self.on,
            epoch: self.epoch,
            started: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        if self.on {
            let start_ns = op.now_ns();
            op.spans.push(Span {
                name,
                parent: None,
                start_ns,
                end_ns: start_ns,
            });
            op.open.push(0);
        }
        op
    }

    /// Record a finished op's spans.
    pub fn add(&mut self, spans: Vec<Span>) {
        if !spans.is_empty() {
            self.ops.push(spans);
        }
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ops.iter().flatten()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Sum of the durations (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Mean duration in microseconds of the spans called `name` (0 if
    /// none were recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<u64>() as f64 / d.len() as f64 / 1e3
        }
    }

    /// Share of root-span time that child spans cover: the
    /// time-weighted share over all ops, and the smallest share of any
    /// one op.
    pub fn child_coverage(&self) -> (f64, f64) {
        let (mut covered, mut total, mut worst) = (0u64, 0u64, 1.0f64);
        for op in &self.ops {
            let dur = op[0].dur_ns();
            let c = covered_ns(op, 0);
            covered += c;
            total += dur;
            if dur > 0 {
                worst = worst.min(c as f64 / dur as f64);
            }
        }
        let share = if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        };
        (share, worst)
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the part of it its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for op in &self.ops {
            for (i, s) in op.iter().enumerate() {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += s.dur_ns().saturating_sub(covered_ns(op, i));
            }
        }
        out
    }

    /// The trace as one JSON document: every span (with its op id and
    /// its index within the op) plus the per-name totals.
    pub fn json(&self, header: &str) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{{{header},\"spans\":[");
        let mut first = true;
        for (op_id, op) in self.ops.iter().enumerate() {
            for (i, sp) in op.iter().enumerate() {
                if !first {
                    s.push(',');
                }
                first = false;
                let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = write!(
                    s,
                    "\n{{\"op\":{op_id},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    sp.name, sp.start_ns, sp.end_ns
                );
            }
        }
        s.push_str("\n],\"totals\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("\n}}\n");
        s
    }
}

/// Length of the union of the intervals of span `i`'s direct children.
fn covered_ns(op: &[Span], i: usize) -> u64 {
    let mut iv: Vec<(u64, u64)> = op
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        // root [0,100): children [10,40) and [30,60) overlap -> 50 ns
        // covered; the grandchild does not count against the root.
        t.add(vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(1), 15, 35),
        ]);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["a"].self_ns, 10);
        assert_eq!(totals["b"].self_ns, 30);
        assert_eq!(totals["c"].self_ns, 20);
        let (share, worst) = t.child_coverage();
        assert!((share - 0.5).abs() < 1e-12 && (worst - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ops_nest_spans_and_time_the_root_when_off() {
        let t = Tracer::new(true);
        let mut op = t.op("op");
        let v = op.span("outer", |op| op.span("inner", |_| 7));
        assert_eq!(v, 7);
        let (ms, spans) = op.finish();
        assert!(ms >= 0.0);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("op", None), ("outer", Some(0)), ("inner", Some(1))]
        );

        let off = Tracer::new(false);
        let mut op = off.op("op");
        assert_eq!(op.span("x", |_| 3), 3);
        assert!(op.finish().1.is_empty());
    }
}
