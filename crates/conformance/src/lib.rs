//! Conformance checking for the Emu Chick simulator.
//!
//! Three pillars, each attacking model error from a different side:
//!
//! - [`oracle`] — closed-form queueing predictions (per-nodelet STREAM
//!   bandwidth, migration-rate ceilings, narrow-channel DRAM peaks)
//!   evaluated against the discrete-event engine for every machine
//!   preset, with explicit tolerance bands.
//! - [`fuzz`] — a deterministic configuration fuzzer that generates
//!   randomized-but-valid machine configs, fault plans, and kernel
//!   scripts, runs the sequential and two-worker sharded schedulers in
//!   lockstep, audits both runs with [`emu_core::audit`], and shrinks
//!   any failure to a minimal repro.
//!
//! The committed corpus under `tests/corpus/` at the workspace root
//! replays previously-shrunk failures on every `cargo test` run.

pub mod fuzz;
pub mod oracle;
