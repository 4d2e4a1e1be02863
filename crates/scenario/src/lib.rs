//! A declarative scenario language for the Emu Chick simulator.
//!
//! The main conformance suite is the committed `scenarios/` tree, kept
//! by hand: each file is in the canonical form [`fn@print`] writes and
//! is named after its `scenario` line. `tests/registry.rs` checks both,
//! and the registry's coverage floors: every preset x workload pair, at
//! least 20 fault-bearing and 20 byte-identity scenarios.
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
//! - [`mod@parse`] — the line-oriented parser (every error carries its
//!   line number), the canonical printer, and the machine-key and
//!   script-op vocabulary.
//! - [`mod@resolve`] — lowering onto [`emu_core::config::MachineConfig`]
//!   and the benchmark crates' own configs; sweep expansion.
//! - [`exec`] — running one point with functional verification and
//!   physical-invariant audits; the figures and the daemon run their
//!   Emu points through it too.
//! - [`run`] — scenario points and their result cache, the *pure*
//!   assertion evaluator, and the point outcome's JSON form.
//! - [`fuzz`] — generating, checking, and shrinking random script
//!   scenarios (`simctl fuzz`).
//!
//! The runner in `simctl scenario run` and the daemon's
//! `{"op":"scenario"}` request both sit on these modules; neither adds
//! semantics of its own.

pub mod ast;
pub mod exec;
pub mod fuzz;
pub mod parse;
pub mod resolve;
pub mod run;

pub use ast::{Axis, CmpOp, Direction, Expect, Scenario, Workload, WorkloadKind};
pub use parse::{parse, print};
pub use resolve::{resolve, Point, ResolvedWorkload};
pub use run::{evaluate, run_point, run_scenario, PointOutcome, ScenarioOutcome};
