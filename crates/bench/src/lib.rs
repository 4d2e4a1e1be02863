//! # emu-bench — the experiment harness
//!
//! One runner per figure of "An Initial Characterization of the Emu
//! Chick" ([`figures`]), the paper's headline text numbers
//! ([`figures::headline`]), and ablation studies over the model's design
//! choices ([`ablations`]). Each `figNN` binary prints an aligned table
//! and writes `results/figNN.csv`.
//!
//! Set `EMU_QUICK=1` to shrink workloads ~8x for a fast smoke pass.

#![warn(missing_docs)]

pub mod ablations;
pub mod cache;
pub mod cachecmd;
pub mod cli;
pub mod degradation;
pub mod extensions;
pub mod figures;
pub mod gates;
pub mod harness;
pub mod output;
pub mod runcfg;
pub mod scncmd;
pub mod sweep;
pub mod telemetry;
pub mod validate;
