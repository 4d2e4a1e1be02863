//! # spmat — sparse-matrix substrate for the Emu Chick reproduction
//!
//! The paper's SpMV experiments (Fig 9) run CSR sparse matrix–vector
//! multiply over synthetic Laplacian inputs with three different Emu data
//! layouts and three CPU parallelization strategies. This crate provides
//! the format ([`csr::CsrMatrix`]), the input generator
//! ([`laplacian::laplacian`]), row [`partition`]ers, and random
//! generators for tests ([`gen`]). The simulators' SpMV kernels verify
//! against [`csr::CsrMatrix::spmv`].

#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod gen;
pub mod laplacian;
pub mod partition;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use laplacian::{laplacian, LaplacianSpec};
pub use partition::{contiguous, nnz_balanced, round_robin, RowPartition};
