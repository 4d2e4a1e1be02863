//! Lowering a parsed [`Scenario`] onto the engine's own types.
//!
//! [`resolve`] expands the sweep into the cartesian product of its
//! axes and, for each point, builds the concrete [`MachineConfig`]
//! (preset + machine overrides + faults + any swept machine/fault
//! axes) and a fully-typed [`ResolvedWorkload`]. All cross-key
//! constraints (chase geometry, BFS source range, …) are checked here,
//! so resolution is also the scenario's semantic validation — the
//! parser calls it on a dry run before accepting a file.

use crate::ast::*;
use conformance::fuzz::{apply_config_key, ThreadScript};
use emu_core::config::MachineConfig;
use emu_core::spawn::SpawnStrategy;
use emu_graph::bfs::BfsMode;
use emu_tensor::emu::TensorLayout;
use membench::chase::{ChaseConfig, ShuffleMode};
use membench::spmv_emu::EmuLayout;
use membench::stream::{EmuStreamConfig, StreamKernel};
use std::collections::BTreeMap;

/// One workload, fully typed and ready to run.
#[derive(Debug, Clone)]
pub enum ResolvedWorkload {
    /// STREAM with its engine config.
    Stream(EmuStreamConfig),
    /// Pointer chase with its engine config.
    Chase(ChaseConfig),
    /// BFS over an R-MAT graph.
    Bfs {
        /// R-MAT scale (vertices = `1 << scale`).
        scale: u32,
        /// Directed edge count.
        edges: usize,
        /// Graph RNG seed.
        seed: u64,
        /// Source vertex.
        src: u32,
        /// Traversal strategy.
        mode: BfsMode,
        /// Worker threadlets per level.
        threads: usize,
    },
    /// MTTKRP over a random sparse tensor.
    Mttkrp {
        /// Tensor dimensions I×J×K.
        dims: [u32; 3],
        /// Nonzero count.
        nnz: usize,
        /// CP rank.
        rank: u32,
        /// Data placement.
        layout: TensorLayout,
        /// Worker threadlets.
        threads: usize,
        /// Tensor RNG seed.
        seed: u64,
    },
    /// SpMV over the paper's 2-D Laplacian.
    Spmv {
        /// Laplacian grid side (matrix is n²×n²).
        n: u32,
        /// Data layout.
        layout: EmuLayout,
        /// Nonzeros per spawned task.
        grain: usize,
    },
    /// Raw threadlet scripts for the two-way lockstep harness.
    Script(Vec<ThreadScript>),
}

impl ResolvedWorkload {
    /// The workload family this resolved to.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            ResolvedWorkload::Stream(_) => WorkloadKind::Stream,
            ResolvedWorkload::Chase(_) => WorkloadKind::Chase,
            ResolvedWorkload::Bfs { .. } => WorkloadKind::Bfs,
            ResolvedWorkload::Mttkrp { .. } => WorkloadKind::Mttkrp,
            ResolvedWorkload::Spmv { .. } => WorkloadKind::Spmv,
            ResolvedWorkload::Script(_) => WorkloadKind::Script,
        }
    }
}

/// One executable point of a scenario.
#[derive(Debug, Clone)]
pub struct Point {
    /// Index in sweep order (second axis fastest).
    pub index: usize,
    /// The swept `(axis key, value)` pairs of this point, in axis
    /// order; empty when the scenario has no sweep.
    pub axes: Vec<(String, String)>,
    /// The machine to simulate.
    pub cfg: MachineConfig,
    /// The workload to run on it.
    pub workload: ResolvedWorkload,
}

fn get_u64(params: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key}: expected an unsigned integer, got {v:?}")),
    }
}

fn get_usize(
    params: &BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    Ok(get_u64(params, key, default as u64)? as usize)
}

fn get_u32(params: &BTreeMap<String, String>, key: &str, default: u32) -> Result<u32, String> {
    let v = get_u64(params, key, default as u64)?;
    u32::try_from(v).map_err(|_| format!("{key}: {v} does not fit in 32 bits"))
}

/// Build the typed workload for one point's effective parameters.
fn build_workload(
    w: &Workload,
    params: &BTreeMap<String, String>,
) -> Result<ResolvedWorkload, String> {
    match w.kind {
        WorkloadKind::Stream => {
            let kernel = match params.get("kernel").map(String::as_str) {
                None | Some("add") => StreamKernel::Add,
                Some("copy") => StreamKernel::Copy,
                Some("scale") => StreamKernel::Scale,
                Some("triad") => StreamKernel::Triad,
                Some(other) => return Err(format!("kernel: unknown {other:?}")),
            };
            let strategy = match params.get("strategy").map(String::as_str) {
                None | Some("recursive-remote") => SpawnStrategy::RecursiveRemote,
                Some("serial") => SpawnStrategy::Serial,
                Some("recursive") => SpawnStrategy::Recursive,
                Some("serial-remote") => SpawnStrategy::SerialRemote,
                Some(other) => return Err(format!("strategy: unknown {other:?}")),
            };
            Ok(ResolvedWorkload::Stream(EmuStreamConfig {
                total_elems: get_u64(params, "elems", 4096)?,
                nthreads: get_usize(params, "threads", 64)?,
                strategy,
                kernel,
                single_nodelet: get_u64(params, "single_nodelet", 0)? != 0,
                stack_touch_period: get_u32(params, "stack_touch_period", 4)?,
            }))
        }
        WorkloadKind::Chase => {
            let mode = match params.get("mode").map(String::as_str) {
                None | Some("full-block") => ShuffleMode::FullBlock,
                Some("ordered") => ShuffleMode::Ordered,
                Some("intra-block") => ShuffleMode::IntraBlock,
                Some("block-shuffle") => ShuffleMode::BlockShuffle,
                Some(other) => return Err(format!("mode: unknown {other:?}")),
            };
            let cc = ChaseConfig {
                elems_per_list: get_usize(params, "elems_per_list", 512)?,
                nlists: get_usize(params, "lists", 8)?,
                block_elems: get_usize(params, "block", 32)?,
                mode,
                seed: get_u64(params, "seed", 1)?,
            };
            if !cc.elems_per_list.is_multiple_of(cc.block_elems) {
                return Err(format!(
                    "elems_per_list ({}) must be a multiple of block ({})",
                    cc.elems_per_list, cc.block_elems
                ));
            }
            Ok(ResolvedWorkload::Chase(cc))
        }
        WorkloadKind::Bfs => {
            let scale = get_u32(params, "scale", 7)?;
            if scale > 20 {
                return Err(format!("scale {scale} too large (max 20)"));
            }
            let src = get_u32(params, "src", 0)?;
            if src >= 1u32 << scale {
                return Err(format!("src {src} out of range for scale {scale}"));
            }
            let mode = match params.get("mode").map(String::as_str) {
                None | Some("migrating") => BfsMode::Migrating,
                Some("remote-flags") => BfsMode::RemoteFlags,
                Some(other) => return Err(format!("mode: unknown {other:?}")),
            };
            Ok(ResolvedWorkload::Bfs {
                scale,
                edges: get_usize(params, "edges", 512)?,
                seed: get_u64(params, "seed", 1)?,
                src,
                mode,
                threads: get_usize(params, "threads", 32)?,
            })
        }
        WorkloadKind::Mttkrp => {
            let layout = match params.get("layout").map(String::as_str) {
                None | Some("slice-blocked") => TensorLayout::SliceBlocked,
                Some("1d") => TensorLayout::OneD,
                Some(other) => return Err(format!("layout: unknown {other:?}")),
            };
            Ok(ResolvedWorkload::Mttkrp {
                dims: [
                    get_u32(params, "i", 12)?,
                    get_u32(params, "j", 10)?,
                    get_u32(params, "k", 10)?,
                ],
                nnz: get_usize(params, "nnz", 200)?,
                rank: get_u32(params, "rank", 4)?,
                layout,
                threads: get_usize(params, "threads", 64)?,
                seed: get_u64(params, "seed", 1)?,
            })
        }
        WorkloadKind::Spmv => {
            let layout = match params.get("layout").map(String::as_str) {
                None | Some("2d") => EmuLayout::TwoD,
                Some("local") => EmuLayout::Local,
                Some("1d") => EmuLayout::OneD,
                Some(other) => return Err(format!("layout: unknown {other:?}")),
            };
            Ok(ResolvedWorkload::Spmv {
                n: get_u32(params, "n", 12)?,
                layout,
                grain: get_usize(params, "grain", 16)?,
            })
        }
        WorkloadKind::Script => Ok(ResolvedWorkload::Script(w.threads.clone())),
    }
}

/// Expand a scenario into its executable points (sweep cartesian
/// product; the second axis varies fastest). Performs all semantic
/// validation; never runs the engine.
pub fn resolve(s: &Scenario) -> Result<Vec<Point>, String> {
    // Index tuples over the axes (one empty tuple when no sweep).
    let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
    for axis in &s.sweep {
        let mut next = Vec::with_capacity(tuples.len() * axis.values.len());
        for t in &tuples {
            for i in 0..axis.values.len() {
                let mut t = t.clone();
                t.push(i);
                next.push(t);
            }
        }
        tuples = next;
    }

    let mut points = Vec::with_capacity(tuples.len());
    for (index, tuple) in tuples.iter().enumerate() {
        let axes: Vec<(String, String)> = s
            .sweep
            .iter()
            .zip(tuple)
            .map(|(a, &i)| (a.key.clone(), a.values[i].clone()))
            .collect();

        let mut cfg = emu_core::presets::by_name(&s.preset)?;
        for (k, v) in &s.machine_overrides {
            apply_config_key(&mut cfg, k, v)?;
        }
        for (k, v) in &s.faults {
            apply_config_key(&mut cfg, &format!("fault_{k}"), v)?;
        }
        let mut params = s.workload.params.clone();
        for (key, val) in &axes {
            if let Some(k) = key.strip_prefix("machine.") {
                apply_config_key(&mut cfg, k, val).map_err(|e| format!("axis {key}: {e}"))?;
            } else if let Some(k) = key.strip_prefix("faults.") {
                apply_config_key(&mut cfg, &format!("fault_{k}"), val)
                    .map_err(|e| format!("axis {key}: {e}"))?;
            } else {
                params.insert(key.clone(), val.clone());
            }
        }
        cfg.validate()?;
        let workload =
            build_workload(&s.workload, &params).map_err(|e| format!("point {index}: {e}"))?;
        points.push(Point {
            index,
            axes,
            cfg,
            workload,
        });
    }
    Ok(points)
}
