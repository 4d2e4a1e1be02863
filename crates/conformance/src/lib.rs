//! Conformance checking for the Emu Chick simulator.
//!
//! Two pillars, each attacking model error from a different side:
//!
//! - [`oracle`] — closed-form queueing predictions (per-nodelet STREAM
//!   bandwidth, migration-rate ceilings, narrow-channel DRAM peaks)
//!   evaluated against the discrete-event engine for every machine
//!   preset, with explicit tolerance bands.
//! - [`lockstep`] — a scripted run (machine config plus per-thread op
//!   scripts) executed on the sequential and two-worker sharded
//!   schedulers in lockstep, both runs audited with
//!   [`emu_core::audit`].
//!
//! This crate holds no text format. Scripted runs are written, fuzzed,
//! and shrunk as `workload script` scenarios in the `scenario` crate,
//! whose runner calls [`lockstep::run_case`] on every script point.

pub mod lockstep;
pub mod oracle;
