//! A declarative scenario language for the Emu Chick simulator, and
//! the committed registry that serves as the main conformance suite.
//!
//! One `.scn` file names a machine (preset + inline overrides), a
//! workload (STREAM, pointer chase, BFS, MTTKRP, SpMV, or a raw
//! threadlet script), an optional seeded fault plan, a sweep of up to
//! two axes, and a block of `expect` assertions: counter bounds,
//! closed-form oracle ratio bands, monotonicity along a swept axis,
//! and byte-identical reports across scheduler worker counts. `.scn`
//! is also the only text form of a scripted run: fuzz repros, the
//! corpus, and the daemon's `{"op":"scenario"}` requests all use it.
//!
//! - [`ast`] — what a parsed scenario means.
//! - [`parse`] — the line-oriented parser (every error carries its
//!   line number), the canonical printer, and the machine-key and
//!   script-op vocabulary.
//! - [`resolve`] — lowering onto [`emu_core::config::MachineConfig`]
//!   and the benchmark crates' own configs; sweep expansion.
//! - [`run`] — point execution with functional verification and
//!   physical-invariant audits, the *pure* assertion evaluator, and
//!   the point outcome's JSON form.
//! - [`fuzz`] — generating, checking, and shrinking random script
//!   scenarios (`simctl fuzz`).
//! - [`registry`] — the deterministic generator of the committed
//!   `scenarios/` tree.
//!
//! The runner in `simctl scenario run` and the daemon's
//! `{"op":"scenario"}` request both sit on these modules; neither adds
//! semantics of its own.

pub mod ast;
pub mod fuzz;
pub mod parse;
pub mod registry;
pub mod resolve;
pub mod run;

pub use ast::{Axis, CmpOp, Direction, Expect, Scenario, Workload, WorkloadKind};
pub use parse::{parse, print};
pub use resolve::{resolve, Point, ResolvedWorkload};
pub use run::{
    evaluate, run_point, run_scenario, run_scenario_cached, PointOutcome, ScenarioOutcome,
};
