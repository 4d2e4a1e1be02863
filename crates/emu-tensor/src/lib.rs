//! # emu-tensor — sparse tensors on the Emu model
//!
//! The paper's stated larger goal includes porting ParTI tensor
//! decomposition (CP/Tucker) to the Emu. This crate takes that
//! direction: a 3-mode COO [`coo::SparseTensor`] and the **MTTKRP**
//! kernel (the dominant cost of CP-ALS) on both machines:
//!
//! * [`emu`] — MTTKRP on the Emu with 1D-striped vs slice-blocked entry
//!   placement (the tensor analogue of the paper's SpMV layout study),
//!   replicated factor matrices, and memory-side atomic Y updates;
//! * [`cpu`] — the Xeon comparison with slice-aligned privatized
//!   partitions.
//!
//! Every run verifies its Y against [`coo::mttkrp_reference`] exactly.

#![warn(missing_docs)]

pub mod coo;
pub mod cpu;
pub mod emu;

pub use coo::{mttkrp_reference, random_tensor, skewed_tensor, SparseTensor, TensorEntry};
pub use cpu::{run_mttkrp_cpu, CpuMttkrpConfig, CpuMttkrpResult};
pub use emu::{run_mttkrp_emu, EmuMttkrpConfig, EmuMttkrpResult, TensorLayout};
