//! The pointer-chasing benchmark (Section III-E, Figs 6–8).
//!
//! Each thread walks a linked list of 16-byte elements (8 B payload +
//! 8 B next pointer), summing the payloads. Elements are grouped into
//! *blocks*; a permutation may shuffle the order of elements within each
//! block, the order of the blocks, or both, and the block size sweeps the
//! amount of spatial locality:
//!
//! * data-dependent loads — one outstanding access per thread;
//! * fine-grained 16 B accesses — a quarter of an x86 cache line;
//! * each element read exactly once — caches and prefetchers largely
//!   useless.
//!
//! On the Emu, each block lives on one nodelet and consecutive blocks
//! round-robin across nodelets, so a thread migrates (at most) once per
//! block transition; on the Xeon, blocks are contiguous memory, so a
//! block is a region of cache lines and DRAM rows.

use desim::rng::{permutation, trial_seed};
use desim::stats::Bandwidth;
use emu_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes per list element (8 B payload + 8 B next pointer).
pub const ELEM_BYTES: u64 = 16;

/// Which permutation is applied to the traversal order (Fig 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShuffleMode {
    /// No shuffle: fully sequential traversal.
    Ordered,
    /// Shuffle elements within each block; blocks in order.
    IntraBlock,
    /// Shuffle block order; elements within a block sequential.
    BlockShuffle,
    /// Shuffle both (the paper's headline configuration).
    FullBlock,
}

impl ShuffleMode {
    /// All modes, for sweeps.
    pub const ALL: [ShuffleMode; 4] = [
        ShuffleMode::Ordered,
        ShuffleMode::IntraBlock,
        ShuffleMode::BlockShuffle,
        ShuffleMode::FullBlock,
    ];

    /// The paper's name for the mode.
    pub fn name(self) -> &'static str {
        match self {
            ShuffleMode::Ordered => "ordered",
            ShuffleMode::IntraBlock => "intra_block_shuffle",
            ShuffleMode::BlockShuffle => "block_shuffle",
            ShuffleMode::FullBlock => "full_block_shuffle",
        }
    }
}

/// Traversal order of `n` elements in blocks of `block` under `mode`:
/// a permutation of `0..n` visiting whole blocks one after another.
pub fn traversal_order(n: usize, block: usize, mode: ShuffleMode, seed: u64) -> Vec<u32> {
    assert!(block > 0, "block must be > 0");
    assert!(n.is_multiple_of(block), "n must be a multiple of block");
    let nblocks = n / block;
    let block_order: Vec<u32> = match mode {
        ShuffleMode::BlockShuffle | ShuffleMode::FullBlock => {
            permutation(nblocks, trial_seed(seed, 0))
        }
        _ => (0..nblocks as u32).collect(),
    };
    let mut order = Vec::with_capacity(n);
    for (bi, &b) in block_order.iter().enumerate() {
        let base = b as usize * block;
        match mode {
            ShuffleMode::IntraBlock | ShuffleMode::FullBlock => {
                let inner = permutation(block, trial_seed(seed, 1 + bi as u64));
                order.extend(inner.iter().map(|&i| (base + i as usize) as u32));
            }
            _ => order.extend((base..base + block).map(|i| i as u32)),
        }
    }
    order
}

/// The workload: one list per thread, all the same geometry.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Elements per list (must be a multiple of `block_elems`).
    pub elems_per_list: usize,
    /// Number of lists == number of threads.
    pub nlists: usize,
    /// Elements per block.
    pub block_elems: usize,
    /// Permutation mode.
    pub mode: ShuffleMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            elems_per_list: 1 << 14,
            nlists: 64,
            block_elems: 64,
            mode: ShuffleMode::FullBlock,
            seed: desim::rng::DEFAULT_SEED,
        }
    }
}

impl ChaseConfig {
    /// Total elements across all lists.
    pub fn total_elems(&self) -> u64 {
        (self.elems_per_list * self.nlists) as u64
    }

    /// Semantic traffic: every element is read once (16 B).
    pub fn semantic_bytes(&self) -> u64 {
        self.total_elems() * ELEM_BYTES
    }

    /// Expected payload checksum: payloads are the global element ids.
    pub fn expected_checksum(&self) -> u64 {
        let n = self.total_elems();
        n.wrapping_mul(n.wrapping_sub(1)) / 2
    }
}

/// Result of a chase run on either platform.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// Semantic bytes (elements x 16 B).
    pub semantic_bytes: u64,
    /// Achieved bandwidth.
    pub bandwidth: Bandwidth,
    /// Payload checksum (must equal [`ChaseConfig::expected_checksum`]).
    pub checksum: u64,
    /// Total thread migrations (Emu runs; 0 on CPU).
    pub migrations: u64,
    /// Makespan of the run.
    pub makespan: desim::time::Time,
    /// Threadlet time breakdown (Emu runs; zeroed on CPU).
    pub breakdown: emu_core::engine::TimeBreakdown,
    /// Fault-recovery totals (Emu runs; zeroed on CPU).
    pub faults: emu_core::metrics::FaultTotals,
    /// Discrete events the engine processed (Emu runs; 0 on CPU).
    pub events: u64,
    /// Full machine report (Emu runs; `None` on CPU, which has no
    /// engine report to audit or fingerprint).
    pub report: Option<emu_core::metrics::RunReport>,
}

/// Per-element compute charged by the Emu chase kernel: pointer compare,
/// payload add, loop branch on the Gossamer soft core. Chosen so the
/// kernel's best-case byte rate lands near the measured-peak-STREAM
/// fraction the paper reports (≈80 %, Fig 8).
pub const EMU_CHASE_COMPUTE_CYCLES: u32 = 15;

struct EmuChaser {
    /// The list's walk: `(element id, owner nodelet)` in traversal
    /// order, built once so a step is one slice read.
    path: Box<[(u32, u32)]>,
    /// Offset of element 0 on its owner; element `e` sits `e` elements
    /// past it.
    base: u64,
    pos: usize,
    phase: u8,
    acc: u64,
    base_id: u64,
    total: Arc<AtomicU64>,
    done: bool,
}

impl EmuChaser {
    /// A chaser walking `elems` in `order`, whose payloads are the
    /// global ids `base_id + e`.
    fn new(order: &[u32], elems: &ArrayHandle, base_id: u64, total: Arc<AtomicU64>) -> Self {
        // A blocked list's owners and offsets do not depend on where
        // the reader stands.
        let anywhere = NodeletId(0);
        EmuChaser {
            path: order
                .iter()
                .map(|&e| (e, elems.owner(u64::from(e), anywhere).0))
                .collect(),
            base: elems.addr(0, anywhere).offset,
            pos: 0,
            phase: 0,
            acc: 0,
            base_id,
            total,
            done: false,
        }
    }

    /// The nodelet that holds the walk's first element.
    fn first_owner(&self) -> NodeletId {
        NodeletId(self.path[0].1)
    }
}

impl Kernel for EmuChaser {
    fn step(&mut self, _ctx: &KernelCtx) -> Op {
        let Some(&(e, owner)) = self.path.get(self.pos) else {
            if !self.done {
                self.done = true;
                self.total.fetch_add(self.acc, Ordering::Relaxed);
            }
            return Op::Quit;
        };
        if self.phase == 0 {
            self.phase = 1;
            let e = u64::from(e);
            self.acc = self.acc.wrapping_add(self.base_id + e);
            Op::Load {
                addr: GlobalAddr::new(NodeletId(owner), self.base + e * ELEM_BYTES),
                bytes: ELEM_BYTES as u32,
            }
        } else {
            self.phase = 0;
            self.pos += 1;
            Op::Compute {
                cycles: EMU_CHASE_COMPUTE_CYCLES,
            }
        }
    }
}

/// Run pointer chasing on the Emu machine `cfg`.
///
/// Each list's blocks are placed round-robin across nodelets (block `b`
/// on nodelet `b % nodelets`); each thread starts (remote-spawned in
/// spirit) on the nodelet of its first element.
pub fn run_chase_emu(cfg: &MachineConfig, cc: &ChaseConfig) -> Result<ChaseResult, SimError> {
    let nodelets = cfg.total_nodelets();
    let mut ms = MemSpace::new(nodelets);
    let total = Arc::new(AtomicU64::new(0));
    let mut engine = Engine::new(cfg.clone())?;
    for l in 0..cc.nlists {
        let n = cc.elems_per_list;
        let nblocks = n / cc.block_elems;
        // Stagger the round-robin start per list so that lists with few
        // blocks still spread over all nodelets (allocations from
        // different threads start on different nodelets).
        let owners: Vec<NodeletId> = (0..nblocks)
            .map(|b| NodeletId(((b + l) % nodelets as usize) as u32))
            .collect();
        let elems = ms.blocked(owners, cc.block_elems as u64, n as u64, ELEM_BYTES as u32);
        let order = traversal_order(n, cc.block_elems, cc.mode, trial_seed(cc.seed, l as u64));
        let chaser = EmuChaser::new(&order, &elems, (l * n) as u64, Arc::clone(&total));
        engine.spawn_at(chaser.first_owner(), Box::new(chaser))?;
    }
    let report = engine.run()?;
    Ok(ChaseResult {
        semantic_bytes: cc.semantic_bytes(),
        bandwidth: report.bandwidth_for(cc.semantic_bytes()),
        checksum: total.load(Ordering::Relaxed),
        migrations: report.total_migrations(),
        makespan: report.makespan,
        faults: report.fault_totals(),
        breakdown: report.breakdown,
        events: report.events,
        report: Some(report),
    })
}

/// CPU-side pointer chasing.
pub mod cpu {
    use super::*;
    use xeon_sim::prelude::*;

    /// Per-element compute on the Xeon (pointer compare + add + branch;
    /// out-of-order hides most of it behind the load).
    pub const CPU_CHASE_COMPUTE_CYCLES: u32 = 2;

    struct CpuChaser {
        order: Box<[u32]>,
        base_addr: u64,
        base_id: u64,
        pos: usize,
        phase: u8,
        acc: u64,
        total: Arc<AtomicU64>,
        done: bool,
    }

    impl CpuKernel for CpuChaser {
        fn step(&mut self, _ctx: &CpuCtx) -> CpuOp {
            if self.pos >= self.order.len() {
                if !self.done {
                    self.done = true;
                    self.total.fetch_add(self.acc, Ordering::Relaxed);
                }
                return CpuOp::Quit;
            }
            if self.phase == 0 {
                self.phase = 1;
                let e = self.order[self.pos] as u64;
                self.acc = self.acc.wrapping_add(self.base_id + e);
                CpuOp::Load {
                    addr: self.base_addr + e * ELEM_BYTES,
                    bytes: ELEM_BYTES as u32,
                }
            } else {
                self.phase = 0;
                self.pos += 1;
                CpuOp::Compute {
                    cycles: CPU_CHASE_COMPUTE_CYCLES,
                }
            }
        }
    }

    /// Run pointer chasing on the CPU platform `cfg`. Lists are
    /// contiguous 16 B-element arrays at well-separated bases.
    pub fn run_chase_cpu(cfg: &CpuConfig, cc: &ChaseConfig) -> ChaseResult {
        let total = Arc::new(AtomicU64::new(0));
        let mut engine = CpuEngine::new(cfg.clone());
        let list_bytes = (cc.elems_per_list as u64 * ELEM_BYTES).next_power_of_two();
        for l in 0..cc.nlists {
            let order = traversal_order(
                cc.elems_per_list,
                cc.block_elems,
                cc.mode,
                trial_seed(cc.seed, l as u64),
            )
            .into_boxed_slice();
            engine.add_thread(Box::new(CpuChaser {
                order,
                base_addr: 0x10_0000_0000 + l as u64 * list_bytes,
                base_id: (l * cc.elems_per_list) as u64,
                pos: 0,
                phase: 0,
                acc: 0,
                total: Arc::clone(&total),
                done: false,
            }));
        }
        let report = engine.run();
        ChaseResult {
            semantic_bytes: cc.semantic_bytes(),
            bandwidth: report.bandwidth_for(cc.semantic_bytes()),
            checksum: total.load(Ordering::Relaxed),
            migrations: 0,
            makespan: report.makespan,
            breakdown: emu_core::engine::TimeBreakdown::default(),
            faults: emu_core::metrics::FaultTotals::default(),
            events: 0,
            report: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::presets;

    #[test]
    fn traversal_order_is_a_permutation() {
        for mode in ShuffleMode::ALL {
            let mut o = traversal_order(256, 16, mode, 42);
            o.sort_unstable();
            assert_eq!(o, (0..256u32).collect::<Vec<_>>(), "{}", mode.name());
        }
    }

    #[test]
    fn ordered_mode_is_identity() {
        let o = traversal_order(64, 8, ShuffleMode::Ordered, 1);
        assert_eq!(o, (0..64u32).collect::<Vec<_>>());
    }

    #[test]
    fn intra_block_keeps_blocks_in_order() {
        let o = traversal_order(64, 16, ShuffleMode::IntraBlock, 9);
        for (k, &e) in o.iter().enumerate() {
            assert_eq!(k / 16, e as usize / 16, "element outside its block slot");
        }
        assert_ne!(o, (0..64u32).collect::<Vec<_>>(), "should actually shuffle");
    }

    #[test]
    fn block_shuffle_keeps_elements_in_order_within_block() {
        let o = traversal_order(64, 16, ShuffleMode::BlockShuffle, 9);
        for chunk in o.chunks(16) {
            for w in chunk.windows(2) {
                assert_eq!(w[1], w[0] + 1, "in-block order broken");
            }
        }
    }

    #[test]
    fn full_block_visits_whole_blocks() {
        let o = traversal_order(64, 16, ShuffleMode::FullBlock, 5);
        for chunk in o.chunks(16) {
            let b = chunk[0] / 16;
            assert!(chunk.iter().all(|&e| e / 16 == b), "block interleaved");
        }
    }

    #[test]
    fn emu_chaser_loads_what_the_array_handle_addresses() {
        // (list elements, layout block): whole blocks of 1, 3 and 16
        // elements, and a list whose last block holds 8 of 16.
        for (n, block) in [(48usize, 1usize), (48, 3), (48, 16), (40, 16)] {
            for mode in ShuffleMode::ALL {
                let mut ms = MemSpace::new(8);
                // An earlier allocation, so the list's base is not the
                // first one handed out.
                ms.local(NodeletId(2), 100, 8);
                let owners = (0..n.div_ceil(block))
                    .map(|b| NodeletId((b * 5 % 8) as u32))
                    .collect();
                let elems = ms.blocked(owners, block as u64, n as u64, ELEM_BYTES as u32);
                // The walk moves in whole blocks, so a short last block
                // needs a walk block that divides the list.
                let walk = if n % block == 0 { block } else { 8 };
                let order = traversal_order(n, walk, mode, 99);
                let total = Arc::new(AtomicU64::new(0));
                let mut c = EmuChaser::new(&order, &elems, 1000, Arc::clone(&total));
                let at = |here| KernelCtx {
                    tid: ThreadId(0),
                    here: NodeletId(here),
                    home: NodeletId(0),
                    now: desim::time::Time::ZERO,
                };
                assert_eq!(c.first_owner(), elems.owner(order[0].into(), NodeletId(0)));
                for (k, &e) in order.iter().enumerate() {
                    let ctx = at(k as u32 % 8);
                    let want = elems.addr(e.into(), ctx.here);
                    match c.step(&ctx) {
                        Op::Load { addr, bytes } => {
                            assert_eq!((addr, bytes), (want, 16), "{mode:?} block {block} step {k}")
                        }
                        op => panic!("{mode:?} block {block} step {k}: {op:?}"),
                    }
                    assert!(matches!(c.step(&ctx), Op::Compute { .. }));
                }
                assert!(matches!(c.step(&at(0)), Op::Quit));
                let sum: u64 = order.iter().map(|&e| 1000 + u64::from(e)).sum();
                assert_eq!(total.load(Ordering::Relaxed), sum);
            }
        }
    }

    #[test]
    fn emu_chase_checksum_and_migrations() {
        let cfg = presets::chick_prototype();
        let cc = ChaseConfig {
            elems_per_list: 512,
            nlists: 8,
            block_elems: 64,
            mode: ShuffleMode::FullBlock,
            seed: 7,
        };
        let r = run_chase_emu(&cfg, &cc).unwrap();
        assert_eq!(r.checksum, cc.expected_checksum());
        // One migration per block transition at most: 8 lists x 8 blocks.
        assert!(r.migrations <= 8 * 8, "migrations {}", r.migrations);
        assert!(r.migrations > 8, "suspiciously few migrations");
    }

    #[test]
    fn emu_block_one_migrates_per_element() {
        let cfg = presets::chick_prototype();
        let cc = ChaseConfig {
            elems_per_list: 256,
            nlists: 4,
            block_elems: 1,
            mode: ShuffleMode::FullBlock,
            seed: 7,
        };
        let r = run_chase_emu(&cfg, &cc).unwrap();
        assert_eq!(r.checksum, cc.expected_checksum());
        // Nearly every element is on a different nodelet than the last.
        let total = cc.total_elems();
        assert!(
            r.migrations as f64 > 0.8 * total as f64,
            "migrations {} of {total}",
            r.migrations
        );
    }

    #[test]
    fn emu_bandwidth_insensitive_to_block_size_above_threshold() {
        let cfg = presets::chick_prototype();
        let bw = |block: usize| {
            let cc = ChaseConfig {
                elems_per_list: 2048,
                nlists: 64,
                block_elems: block,
                mode: ShuffleMode::FullBlock,
                seed: 3,
            };
            run_chase_emu(&cfg, &cc).unwrap().bandwidth.mb_per_sec()
        };
        let b8 = bw(8);
        let b256 = bw(256);
        let ratio = b8 / b256;
        assert!(
            (0.7..1.3).contains(&ratio),
            "Emu should be flat: 8 -> {b8}, 256 -> {b256}"
        );
    }

    mod cpu_tests {
        use super::super::cpu::run_chase_cpu;
        use super::super::*;
        use xeon_sim::config::sandy_bridge;

        #[test]
        fn cpu_chase_checksum() {
            let cc = ChaseConfig {
                elems_per_list: 1024,
                nlists: 4,
                block_elems: 32,
                mode: ShuffleMode::FullBlock,
                seed: 11,
            };
            let r = run_chase_cpu(&sandy_bridge(), &cc);
            assert_eq!(r.checksum, cc.expected_checksum());
            assert_eq!(r.migrations, 0);
        }

        #[test]
        fn cpu_prefers_mid_size_blocks() {
            // The Fig 7 hump: one-DRAM-page blocks beat tiny blocks. The
            // paper's lists dwarf the LLC; to keep the test fast we shrink
            // the LLC instead of growing the list.
            let mut cfg = sandy_bridge();
            cfg.l3.capacity = 1 << 20;
            let bw = |block: usize| {
                let cc = ChaseConfig {
                    elems_per_list: 1 << 15,
                    nlists: 8,
                    block_elems: block,
                    mode: ShuffleMode::FullBlock,
                    seed: 13,
                };
                run_chase_cpu(&cfg, &cc).bandwidth.mb_per_sec()
            };
            let tiny = bw(1);
            let page = bw(512); // 512 x 16 B = 8 KiB = one DRAM page
            assert!(
                page > 2.0 * tiny,
                "page-sized blocks {page} should beat tiny {tiny}"
            );
        }
    }
}
