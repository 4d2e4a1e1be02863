//! The scenario AST: what a parsed `.scn` file means.
//!
//! A scenario composes a machine (preset plus inline overrides), one
//! workload, an optional seeded fault plan, an optional sweep of at
//! most two axes, and a set of `expect` assertions evaluated against
//! the executed points. Every type here derives `PartialEq` so the
//! parser's print→parse round trip can be checked structurally.

use conformance::fuzz::ThreadScript;

/// A complete parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9._-]+`), from the `scenario` line.
    pub name: String,
    /// Machine preset name ([`emu_core::presets::by_name`] vocabulary).
    pub preset: String,
    /// Inline machine overrides in file order, using the corpus codec
    /// key vocabulary ([`conformance::fuzz::apply_config_key`]).
    pub machine_overrides: Vec<(String, String)>,
    /// The workload to run at every point.
    pub workload: Workload,
    /// Fault-plan fields in file order (codec keys without the
    /// `fault_` prefix; empty = no injected faults).
    pub faults: Vec<(String, String)>,
    /// Swept axes (at most two), in file order.
    pub sweep: Vec<Axis>,
    /// Assertions evaluated against the executed points.
    pub expect: Vec<Expect>,
}

/// Which benchmark a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadKind {
    /// STREAM (Fig 4/5): `membench::stream`.
    Stream,
    /// Blocked pointer chasing (Fig 6/7): `membench::chase`.
    Chase,
    /// Level-synchronous BFS: `emu_graph::bfs`.
    Bfs,
    /// Sparse MTTKRP: `emu_tensor::emu`.
    Mttkrp,
    /// Laplacian SpMV: `membench::spmv_emu`.
    Spmv,
    /// Raw threadlet scripts (the fuzz-case form), run through the
    /// two-way lockstep conformance harness.
    Script,
}

impl WorkloadKind {
    /// The keyword used in `.scn` files.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Stream => "stream",
            WorkloadKind::Chase => "chase",
            WorkloadKind::Bfs => "bfs",
            WorkloadKind::Mttkrp => "mttkrp",
            WorkloadKind::Spmv => "spmv",
            WorkloadKind::Script => "script",
        }
    }

    /// Every workload kind, in the paper's order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Stream,
        WorkloadKind::Chase,
        WorkloadKind::Bfs,
        WorkloadKind::Mttkrp,
        WorkloadKind::Spmv,
        WorkloadKind::Script,
    ];

    /// Parse the `.scn` keyword.
    pub fn from_name(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A workload: its kind, its `key = value` parameters (unset keys take
/// resolver defaults), and — for [`WorkloadKind::Script`] only — the
/// threadlet scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The benchmark family.
    pub kind: WorkloadKind,
    /// Parameters by key (validated against the kind's schema at parse
    /// time; stored sorted so printing is canonical).
    pub params: std::collections::BTreeMap<String, String>,
    /// Threadlet scripts (`thread = <start> <ops…>` lines); only
    /// non-empty for [`WorkloadKind::Script`].
    pub threads: Vec<ThreadScript>,
}

/// One swept axis: a key and the values it takes, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// What is swept: a workload parameter key, `machine.<codec key>`,
    /// or `faults.<key>`.
    pub key: String,
    /// The values, as written (validated against the key's schema).
    pub values: Vec<String>,
}

/// Comparison operator of a `counter` assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

impl CmpOp {
    /// The `.scn` spelling.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
        }
    }

    /// Parse the `.scn` spelling.
    pub fn from_name(s: &str) -> Option<CmpOp> {
        Some(match s {
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<=" => CmpOp::Le,
            ">=" => CmpOp::Ge,
            "<" => CmpOp::Lt,
            ">" => CmpOp::Gt,
            _ => return None,
        })
    }

    /// Apply the comparison.
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }
}

/// Direction of a `monotonic` assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Values must never decrease along the axis.
    NonDecreasing,
    /// Values must never increase along the axis.
    NonIncreasing,
}

impl Direction {
    /// The `.scn` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Direction::NonDecreasing => "nondecreasing",
            Direction::NonIncreasing => "nonincreasing",
        }
    }

    /// Parse the `.scn` spelling.
    pub fn from_name(s: &str) -> Option<Direction> {
        match s {
            "nondecreasing" => Some(Direction::NonDecreasing),
            "nonincreasing" => Some(Direction::NonIncreasing),
            _ => None,
        }
    }
}

/// One `expect` assertion.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `counter <metric> <op> <value>` — a per-point bound on one
    /// metric (see `run::METRICS` for the vocabulary).
    Counter {
        /// Metric name.
        metric: String,
        /// Comparison.
        op: CmpOp,
        /// Right-hand side.
        value: f64,
    },
    /// `oracle <name> in <lo>..<hi>` — the named closed-form oracle's
    /// measured/predicted ratio must fall in the band, per point.
    Oracle {
        /// Oracle name (`conformance::oracle` vocabulary).
        name: String,
        /// Inclusive lower ratio bound.
        lo: f64,
        /// Inclusive upper ratio bound.
        hi: f64,
    },
    /// `monotonic <metric> <dir> over <axis>` — along the named swept
    /// axis (the other axis held fixed), the metric is monotone.
    Monotonic {
        /// Metric name.
        metric: String,
        /// Required direction.
        dir: Direction,
        /// Key of the swept axis.
        axis: String,
    },
    /// `byte_identical_at_sim_threads = 1, 2, 4` — every point's full
    /// report JSON is byte-identical when re-run at each listed
    /// scheduler worker count (the PR 5 determinism invariant).
    ByteIdentical {
        /// Scheduler worker counts to compare (at least two).
        sim_threads: Vec<usize>,
    },
}
