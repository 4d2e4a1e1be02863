//! # emu-graph — streaming graphs on the Emu model
//!
//! The paper's introduction motivates the Emu with streaming graph
//! analytics and names a STINGER port as the authors' larger goal. This
//! crate is that direction, built on the [`emu_core`] machine model:
//!
//! * [`stinger`] — a STINGER-style structure (per-vertex linked edge
//!   blocks, vertex-home placement) with functional queries and a host
//!   BFS reference;
//! * [`insert`] — streaming edge insertion as a simulated, verified,
//!   inherently migratory workload;
//! * [`bfs`] — level-synchronous BFS in naive (migrate-per-edge) and
//!   "smart migration" (remote-atomic discovery) variants, the graph
//!   analogue of the paper's 1D-vs-2D SpMV lesson;
//! * [`gen`] — uniform, RMAT, path, and star generators.

#![warn(missing_docs)]

pub mod bfs;
pub mod gen;
pub mod insert;
pub mod stinger;

pub use bfs::{run_bfs_emu, BfsMode, BfsResult};
pub use gen::EdgeList;
pub use insert::{run_insert_emu, InsertResult};
pub use stinger::{EdgeBlock, InsertOutcome, Stinger, DEFAULT_BLOCK_CAP};
