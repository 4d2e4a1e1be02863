//! Memory layout strategies over the partitioned global address space.
//!
//! Mirrors the allocation intrinsics the paper exercises:
//!
//! | Emu intrinsic        | Here                        |
//! |----------------------|-----------------------------|
//! | `mw_localmalloc`     | [`Layout::Local`]           |
//! | `mw_malloc1dlong`    | [`Layout::Striped`]         |
//! | two-stage 2D alloc   | [`Layout::Blocked`]         |
//! | replicated allocation| [`Layout::Replicated`]      |
//!
//! An [`ArrayHandle`] maps an element index to the [`GlobalAddr`] a
//! threadlet would touch; the engine uses only the owning nodelet, but
//! offsets are kept distinct per allocation for debuggability.

use crate::addr::{GlobalAddr, NodeletId};

/// How an allocation's elements are distributed across nodelets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    /// All elements contiguous on one nodelet (`mw_localmalloc`).
    Local(NodeletId),
    /// Element `i` on nodelet `i % nodelets` (`mw_malloc1dlong` — 8-byte
    /// round-robin striping across the whole system).
    Striped {
        /// Number of nodelets in the stripe.
        nodelets: u32,
    },
    /// Contiguous blocks of `block_elems` elements, block `b` on nodelet
    /// `owners[b]`. This is the paper's custom two-stage "2D" allocation:
    /// per-nodelet row segments sized after a first pass computed each
    /// nodelet's share.
    Blocked {
        /// Owner nodelet of each consecutive block.
        owners: Vec<NodeletId>,
        /// Elements per block (the last block may be short).
        block_elems: u64,
    },
    /// One copy on every nodelet; reads resolve to the reader's copy
    /// (used for the SpMV input vector `x`).
    Replicated {
        /// Number of nodelets holding a copy.
        nodelets: u32,
    },
}

/// A simulated allocation: element geometry plus a [`Layout`].
#[derive(Clone, Debug)]
pub struct ArrayHandle {
    elem_bytes: u32,
    len: u64,
    layout: Layout,
    /// Base offset within each owning nodelet, so distinct allocations
    /// have distinct address ranges.
    base: u64,
}

impl ArrayHandle {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the allocation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per element.
    #[inline]
    pub fn elem_bytes(&self) -> u32 {
        self.elem_bytes
    }

    /// The layout strategy.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The nodelet owning element `i`, from the perspective of a reader
    /// currently on `here` (only [`Layout::Replicated`] depends on the
    /// reader's location).
    pub fn owner(&self, i: u64, here: NodeletId) -> NodeletId {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match &self.layout {
            Layout::Local(n) => *n,
            Layout::Striped { nodelets } => NodeletId(div_rem(i, *nodelets as u64).1 as u32),
            Layout::Blocked {
                owners,
                block_elems,
            } => {
                let b = div_rem(i, *block_elems).0 as usize;
                owners[b.min(owners.len() - 1)]
            }
            Layout::Replicated { .. } => here,
        }
    }

    /// The global address of element `i` as seen by a reader on `here`.
    pub fn addr(&self, i: u64, here: NodeletId) -> GlobalAddr {
        let nodelet = self.owner(i, here);
        let offset = match &self.layout {
            // Striped allocations advance one element per round across the
            // stripe; local/blocked are contiguous per owner. Offsets are
            // approximate within the owner but unique per (alloc, index).
            Layout::Striped { nodelets } => {
                self.base + div_rem(i, *nodelets as u64).0 * self.elem_bytes as u64
            }
            _ => self.base + i * self.elem_bytes as u64,
        };
        GlobalAddr::new(nodelet, offset)
    }

    /// Total footprint in bytes (counting every replica).
    pub fn footprint_bytes(&self) -> u64 {
        let one = self.len * self.elem_bytes as u64;
        match &self.layout {
            Layout::Replicated { nodelets } => one * *nodelets as u64,
            _ => one,
        }
    }
}

/// `(i / w, i % w)` for a width `w > 0`. A power-of-two width (every
/// preset stripes over 8 or 64 nodelets) takes a shift and a mask,
/// since a runtime 64-bit division costs tens of cycles on the address
/// path of every simulated access; other widths divide.
#[inline]
fn div_rem(i: u64, w: u64) -> (u64, u64) {
    if w.is_power_of_two() {
        (i >> w.trailing_zeros(), i & (w - 1))
    } else {
        (i / w, i % w)
    }
}

/// Bump allocator over the global address space: hands out
/// [`ArrayHandle`]s with non-overlapping base offsets.
#[derive(Debug)]
pub struct MemSpace {
    nodelets: u32,
    next_base: u64,
}

impl MemSpace {
    /// A fresh address space over `nodelets` nodelets.
    pub fn new(nodelets: u32) -> Self {
        assert!(nodelets > 0, "need at least one nodelet");
        MemSpace {
            nodelets,
            next_base: 0x1000, // skip a guard page, purely cosmetic
        }
    }

    /// Number of nodelets this space spans.
    pub fn nodelets(&self) -> u32 {
        self.nodelets
    }

    fn reserve(&mut self, bytes: u64) -> u64 {
        let base = self.next_base;
        // Round each allocation to 4 KiB so bases stay readable in traces.
        self.next_base += bytes.div_ceil(4096).max(1) * 4096;
        base
    }

    /// `mw_localmalloc`: `len` elements contiguous on `nodelet`.
    pub fn local(&mut self, nodelet: NodeletId, len: u64, elem_bytes: u32) -> ArrayHandle {
        assert!(nodelet.0 < self.nodelets, "nodelet out of range");
        let base = self.reserve(len * elem_bytes as u64);
        ArrayHandle {
            elem_bytes,
            len,
            layout: Layout::Local(nodelet),
            base,
        }
    }

    /// `mw_malloc1dlong`: `len` elements striped element-wise round-robin
    /// across all nodelets.
    pub fn striped(&mut self, len: u64, elem_bytes: u32) -> ArrayHandle {
        let per = len.div_ceil(self.nodelets as u64) * elem_bytes as u64;
        let base = self.reserve(per);
        ArrayHandle {
            elem_bytes,
            len,
            layout: Layout::Striped {
                nodelets: self.nodelets,
            },
            base,
        }
    }

    /// The paper's two-stage "2D" allocation: caller supplies the owner of
    /// each consecutive block of `block_elems` elements (e.g. the nodelet
    /// that owns each matrix row).
    pub fn blocked(
        &mut self,
        owners: Vec<NodeletId>,
        block_elems: u64,
        len: u64,
        elem_bytes: u32,
    ) -> ArrayHandle {
        assert!(block_elems > 0, "block_elems must be > 0");
        assert!(!owners.is_empty(), "owners must be non-empty");
        assert!(
            owners.len() as u64 * block_elems >= len,
            "owners x block_elems must cover len"
        );
        assert!(
            owners.iter().all(|n| n.0 < self.nodelets),
            "owner nodelet out of range"
        );
        let base = self.reserve(block_elems * elem_bytes as u64 * owners.len() as u64);
        ArrayHandle {
            elem_bytes,
            len,
            layout: Layout::Blocked {
                owners,
                block_elems,
            },
            base,
        }
    }

    /// A replicated allocation: a private copy on every nodelet, reads
    /// resolve locally.
    pub fn replicated(&mut self, len: u64, elem_bytes: u32) -> ArrayHandle {
        let base = self.reserve(len * elem_bytes as u64);
        ArrayHandle {
            elem_bytes,
            len,
            layout: Layout::Replicated {
                nodelets: self.nodelets,
            },
            base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn here(n: u32) -> NodeletId {
        NodeletId(n)
    }

    #[test]
    fn local_always_one_owner() {
        let mut ms = MemSpace::new(8);
        let a = ms.local(here(3), 100, 8);
        for i in 0..100 {
            assert_eq!(a.owner(i, here(0)), here(3));
        }
        assert_eq!(a.footprint_bytes(), 800);
    }

    #[test]
    fn striped_round_robin() {
        let mut ms = MemSpace::new(8);
        let a = ms.striped(64, 8);
        for i in 0..64u64 {
            assert_eq!(a.owner(i, here(0)), here((i % 8) as u32));
        }
        // Consecutive elements land on different nodelets — the cause of
        // per-element migrations in the 1D SpMV layout.
        assert_ne!(a.owner(0, here(0)), a.owner(1, here(0)));
    }

    #[test]
    fn striped_offsets_advance_per_round() {
        let mut ms = MemSpace::new(4);
        let a = ms.striped(16, 8);
        let a0 = a.addr(0, here(0));
        let a4 = a.addr(4, here(0));
        assert_eq!(a0.nodelet, a4.nodelet);
        assert_eq!(a4.offset - a0.offset, 8);
    }

    #[test]
    fn blocked_respects_owner_list() {
        let mut ms = MemSpace::new(8);
        let owners = vec![here(5), here(2), here(7)];
        let a = ms.blocked(owners, 10, 30, 8);
        assert_eq!(a.owner(0, here(0)), here(5));
        assert_eq!(a.owner(9, here(0)), here(5));
        assert_eq!(a.owner(10, here(0)), here(2));
        assert_eq!(a.owner(29, here(0)), here(7));
    }

    #[test]
    fn owner_and_addr_match_division_at_any_width() {
        let mut rng = desim::rng::Rng64::new(0xADD2);
        for w in [1u32, 3, 6, 8, 48, 64] {
            let a = MemSpace::new(w).striped(1 << 48, 8);
            for _ in 0..1000 {
                let i = rng.gen_below(a.len());
                let n = here((i % w as u64) as u32);
                assert_eq!(a.owner(i, here(0)), n, "width {w}, index {i}");
                let want = GlobalAddr::new(n, a.base + i / w as u64 * 8);
                assert_eq!(a.addr(i, here(0)), want, "width {w}, index {i}");
            }
        }
        for block in [1u64, 3, 16, 100] {
            let len = 5000u64;
            let owners: Vec<NodeletId> = (0..len.div_ceil(block))
                .map(|_| here(rng.gen_below(8) as u32))
                .collect();
            let a = MemSpace::new(8).blocked(owners.clone(), block, len, 4);
            for _ in 0..1000 {
                let i = rng.gen_below(len);
                let n = owners[(i / block) as usize];
                assert_eq!(a.owner(i, here(0)), n, "block {block}, index {i}");
                let want = GlobalAddr::new(n, a.base + i * 4);
                assert_eq!(a.addr(i, here(0)), want, "block {block}, index {i}");
            }
        }
    }

    #[test]
    fn replicated_resolves_to_reader() {
        let mut ms = MemSpace::new(8);
        let a = ms.replicated(100, 8);
        assert_eq!(a.owner(42, here(6)), here(6));
        assert_eq!(a.owner(42, here(1)), here(1));
        assert_eq!(a.footprint_bytes(), 100 * 8 * 8);
    }

    #[test]
    fn allocations_do_not_alias() {
        let mut ms = MemSpace::new(8);
        let a = ms.local(here(0), 512, 8);
        let b = ms.local(here(0), 512, 8);
        let last_a = a.addr(511, here(0)).offset;
        let first_b = b.addr(0, here(0)).offset;
        assert!(first_b > last_a);
    }

    #[test]
    #[should_panic(expected = "cover len")]
    fn blocked_coverage_checked() {
        let mut ms = MemSpace::new(8);
        let _ = ms.blocked(vec![here(0)], 4, 30, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn owner_bounds_checked() {
        let mut ms = MemSpace::new(8);
        let a = ms.local(here(0), 4, 8);
        let _ = a.owner(4, here(0));
    }
}
