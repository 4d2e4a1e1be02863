//! Running one Emu point: the workload, its functional check, and the
//! audit of every report.
//!
//! [`execute`] is the one path from a resolved machine and workload to
//! checked results. It runs the workload, compares the result with its
//! functional reference (the STREAM or chase checksum, or the host BFS,
//! MTTKRP or SpMV result), and audits every report against the engine's
//! physical invariants. A run that fails is a [`SimError`]; a run that
//! finishes but misses its reference or breaks an invariant returns
//! problems. Callers decide what a problem means: a scenario point
//! records it, a figure aborts, the daemon answers with an audit error.
//! [`execute_stream_on`] does the same for STREAM on a caller's engine,
//! which the daemon keeps warm between requests.

use crate::resolve::ResolvedWorkload;
use conformance::lockstep;
use desim::stats::Bandwidth;
use emu_core::config::MachineConfig;
use emu_core::engine::Engine;
use emu_core::fault::SimError;
use emu_core::metrics::RunReport;
use membench::stream::EmuStreamConfig;
use std::sync::Arc;

/// The checked results of one point.
#[derive(Debug, Clone, Default)]
pub struct Executed {
    /// Machine reports in run order (one per BFS level).
    pub reports: Vec<RunReport>,
    /// Achieved bandwidth of a STREAM, chase, MTTKRP or SpMV run.
    pub bandwidth: Option<Bandwidth>,
    /// A BFS run's `(levels executed, edges traversed, traversed edges
    /// per second)`.
    pub bfs: Option<(u32, u64, f64)>,
    /// Functional-check problems, then audit violations (empty = clean).
    pub problems: Vec<String>,
}

impl Executed {
    fn new(reports: Vec<RunReport>, bandwidth: Option<Bandwidth>) -> Self {
        Executed {
            reports,
            bandwidth,
            ..Executed::default()
        }
    }

    fn audit(mut self, cfg: &MachineConfig) -> Self {
        for r in &self.reports {
            for v in emu_core::audit::audit(cfg, r) {
                self.problems.push(format!("audit: {v}"));
            }
        }
        self
    }
}

/// Does `y` match the reference `want` element-wise under `ok`?
fn agrees(y: &[f64], want: &[f64], ok: impl Fn(f64, f64) -> bool) -> bool {
    y.len() == want.len() && y.iter().zip(want).all(|(&a, &b)| ok(a, b))
}

/// Run `w` on a fresh engine for `cfg` under the current
/// [`emu_core::ctx::RunCtx`], check its result, and audit every report.
pub fn execute(cfg: &MachineConfig, w: &ResolvedWorkload) -> Result<Executed, SimError> {
    let x = match w {
        ResolvedWorkload::Stream(sc) => {
            return execute_stream_on(&mut Engine::new(cfg.clone())?, sc)
        }
        ResolvedWorkload::Chase(cc) => {
            let r = membench::chase::run_chase_emu(cfg, cc)?;
            let want = cc.expected_checksum();
            let mut x = Executed::new(r.report.into_iter().collect(), Some(r.bandwidth));
            if r.checksum != want {
                x.problems
                    .push(format!("chase checksum {} != expected {want}", r.checksum));
            }
            x
        }
        ResolvedWorkload::Bfs {
            scale,
            edges,
            seed,
            src,
            mode,
            threads,
        } => {
            let el = emu_graph::gen::rmat(*scale, *edges, *seed);
            let g = Arc::new(emu_graph::stinger::Stinger::build_host(
                &el,
                4,
                cfg.total_nodelets(),
            ));
            let r = emu_graph::bfs::run_bfs_emu(cfg, Arc::clone(&g), *src, *mode, *threads)?;
            let mut x = Executed::new(r.reports, None);
            x.bfs = Some((r.depth, r.edges_traversed, r.teps));
            if r.levels != g.bfs_reference(*src) {
                x.problems
                    .push("bfs levels diverge from the reference traversal".into());
            }
            x
        }
        ResolvedWorkload::Mttkrp {
            dims,
            nnz,
            rank,
            layout,
            threads,
            seed,
        } => {
            let t = Arc::new(emu_tensor::coo::random_tensor(*dims, *nnz, *seed));
            let mc = emu_tensor::emu::EmuMttkrpConfig {
                layout: *layout,
                rank: *rank,
                nthreads: *threads,
            };
            let r = emu_tensor::emu::run_mttkrp_emu(cfg, Arc::clone(&t), &mc)?;
            let want = emu_tensor::coo::mttkrp_reference(&t, *rank);
            // Relative: the Emu run may sum in another order than the host.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
            let mut x = Executed::new(vec![r.report], Some(r.bandwidth));
            if !agrees(&r.y, &want, close) {
                x.problems
                    .push("mttkrp output diverges from the reference".into());
            }
            x
        }
        ResolvedWorkload::Spmv { n, layout, grain } => {
            let m = Arc::new(spmat::laplacian(spmat::LaplacianSpec::paper(*n)));
            let sc = membench::spmv_emu::EmuSpmvConfig {
                layout: *layout,
                grain_nnz: *grain,
            };
            let r = membench::spmv_emu::run_spmv_emu(cfg, Arc::clone(&m), &sc)?;
            let want = m.spmv(&membench::spmv_emu::x_vector(m.ncols()));
            // Absolute: the Laplacian's entries and x are small integers,
            // so y is exact in any summation order.
            let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
            let mut x = Executed::new(vec![r.report], Some(r.bandwidth));
            if !agrees(&r.y, &want, close) {
                x.problems
                    .push("spmv output diverges from the reference".into());
            }
            x
        }
        ResolvedWorkload::Script(threads) => {
            let mut e = Engine::new(cfg.clone())?;
            lockstep::seed_case(&mut e, threads)?;
            Executed::new(vec![e.run()?], None)
        }
    };
    Ok(x.audit(cfg))
}

/// [`execute`] for STREAM on `engine`, which must be freshly built or
/// [`Engine::reset`]. An event cap or cancellation flag armed on the
/// engine applies.
pub fn execute_stream_on(engine: &mut Engine, sc: &EmuStreamConfig) -> Result<Executed, SimError> {
    let r = membench::stream::run_stream_on(engine, sc)?;
    let want = membench::stream::stream_checksum(sc.total_elems, sc.kernel);
    let mut x = Executed::new(vec![r.report], Some(r.bandwidth));
    if r.checksum != want {
        x.problems
            .push(format!("stream checksum {} != expected {want}", r.checksum));
    }
    Ok(x.audit(engine.cfg()))
}
