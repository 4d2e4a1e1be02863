//! Functional set-associative cache with true-LRU replacement.
//!
//! Tags only — the simulators never hold data. The pointer-chasing
//! comparison depends on *real* capacity/conflict behaviour (blocks that
//! fit in a level get their lines reused; bigger blocks thrash), so the
//! tag arrays are simulated exactly rather than approximated.
//!
//! **Recency-ordered sets.** Each way is one `u64`: 0 for an empty way,
//! else `(tag + 1) << 1 | dirty`. A set keeps its ways in recency order,
//! most recent first, with empty ways at the tail. A hit moves its way
//! to the front; an install shifts the set down by one and takes the
//! front, so the way it shifts out of the last slot is the victim: an
//! empty way while the set has one, else the least recently used line.
//! That is exactly true LRU, with no per-way timestamp. The tag array is
//! allocated zeroed (`vec![0u64; n]`), so building a cache never writes
//! its pages: a 20 MiB, 16-way L3 holds 2.5 MiB of tags, touched only
//! where lines land.
//!
//! **Set index.** Sets are `tag % sets`, and real LLCs have set counts
//! that are not powers of two (Sandy Bridge's 20 MiB L3 has 20,480), so
//! no mask will do. [`Reciprocal`] computes the remainder exactly by
//! multiplication.

use crate::config::CacheGeometry;

/// Result of a cache lookup+fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; it was installed, evicting nothing.
    Miss,
    /// Line absent; installing it evicted a clean line.
    MissEvictClean,
    /// Line absent; installing it evicted a dirty line (writeback needed).
    MissEvictDirty {
        /// The evicted line's address (line-aligned).
        line: u64,
    },
}

impl Access {
    /// Whether the lookup hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// A divisor `d` for `n % d` without a divide, exact for every `u64`
/// `n` and `d >= 1`: `n % Reciprocal::new(d) == n % d`.
///
/// A power of two takes a mask. Any other `d` takes Lemire, Kaser and
/// Kurz's direct remainder ("Faster Remainder by Direct Computation",
/// 2019) with a 128-bit reciprocal `m = ceil(2^128 / d)`: the low 128
/// bits of `m * n` are the fraction `n / d` scaled by 2^128, and
/// multiplying that fraction by `d` leaves the remainder in the bits
/// above 2^128. Two 64-bit and one 128-bit multiply replace a 64-bit
/// divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reciprocal {
    d: u64,
    /// `ceil(2^128 / d)`, or 0 when `d` is a power of two.
    m: u128,
}

impl Reciprocal {
    /// The reciprocal of `d`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "remainder by zero");
        let m = if d.is_power_of_two() {
            0
        } else {
            u128::MAX / d as u128 + 1
        };
        Reciprocal { d, m }
    }
}

impl std::ops::Rem<Reciprocal> for u64 {
    type Output = u64;

    #[inline]
    fn rem(self, r: Reciprocal) -> u64 {
        if r.m == 0 {
            return self & (r.d - 1);
        }
        let frac = r.m.wrapping_mul(self as u128);
        let d = r.d as u128;
        // Bits 128.. of the 192-bit product `frac * d`; the sum cannot
        // overflow because the high product is below 2^128 - 2^64.
        let low = (frac as u64 as u128 * d) >> 64;
        (((frac >> 64) * d + low) >> 64) as u64
    }
}

/// A set-associative, write-back, write-allocate cache level.
pub struct Cache {
    /// `sets x assoc` ways, row-major by set, each set in recency order
    /// (see the module docs for the encoding).
    ways: Vec<u64>,
    assoc: usize,
    sets: Reciprocal,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

/// Bit 0 of a way: the line is dirty.
const DIRTY: u64 = 1;

impl Cache {
    /// Build a cache with `geom`etry.
    ///
    /// # Panics
    /// Panics if the geometry has zero sets or a line size that is not a
    /// power of two of at least 4 bytes: a way holds `(tag + 1) << 1`,
    /// which fits in 64 bits for every address only when the line offset
    /// takes at least two address bits. Non-power-of-two set counts are
    /// fine, as real LLCs like Sandy Bridge's 20 MiB slice-hashed L3
    /// have them.
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(
            geom.line_bytes.is_power_of_two() && geom.line_bytes >= 4,
            "line size must be a power of two of at least 4 bytes"
        );
        let sets = geom.sets();
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            ways: vec![0; (sets * geom.assoc as u64) as usize],
            assoc: geom.assoc as usize,
            sets: Reciprocal::new(sets),
            line_shift: geom.line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The way key of `addr`'s line (`tag + 1`, so never 0) and its set.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, std::ops::Range<usize>) {
        let tag = addr >> self.line_shift;
        let set = (tag % self.sets) as usize;
        (tag + 1, set * self.assoc..(set + 1) * self.assoc)
    }

    /// Probe without filling: true if the line holding `addr` is present
    /// (touches LRU, sets dirty on writes).
    pub fn probe(&mut self, addr: u64, write: bool) -> bool {
        let (key, range) = self.locate(addr);
        let set = &mut self.ways[range];
        match set.iter().position(|&w| w >> 1 == key) {
            Some(i) => {
                // Move the hit to the front, shifting the more recent
                // ways down one.
                let mut moving = set[i] | write as u64;
                for w in &mut set[..=i] {
                    moving = std::mem::replace(w, moving);
                }
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Look up `addr`; on miss, install its line (LRU victim). Returns
    /// what happened, including any dirty eviction.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        if self.probe(addr, write) {
            return Access::Hit;
        }
        self.install(addr, write)
    }

    /// Install the line holding `addr` (no hit check — caller knows it
    /// missed). Returns the miss flavour.
    pub fn install(&mut self, addr: u64, dirty: bool) -> Access {
        debug_assert!(!self.contains(addr), "installing a resident line");
        let (key, range) = self.locate(addr);
        let set = &mut self.ways[range];
        // Shift the whole set down one; what falls out of the last way
        // is the victim.
        let mut moving = key << 1 | dirty as u64;
        for w in set.iter_mut() {
            moving = std::mem::replace(w, moving);
        }
        if moving == 0 {
            Access::Miss
        } else if moving & DIRTY != 0 {
            Access::MissEvictDirty {
                line: ((moving >> 1) - 1) << self.line_shift,
            }
        } else {
            Access::MissEvictClean
        }
    }

    /// Whether the line holding `addr` is present (no LRU side effects).
    pub fn contains(&self, addr: u64) -> bool {
        let (key, range) = self.locate(addr);
        self.ways[range].iter().any(|&w| w >> 1 == key)
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheGeometry {
            capacity: 256,
            assoc: 2,
            line_bytes: 64,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_install() {
        let mut c = tiny();
        assert!(!c.probe(0x100, false));
        c.install(0x100, false);
        assert!(c.probe(0x100, false));
        assert!(c.probe(0x13f, false), "same line, different offset");
        assert!(!c.probe(0x140, false), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // With 2 sets, set = (addr >> 6) % 2: lines 0x000 (0), 0x080 (2)
        // and 0x100 (4) all map to set 0.
        c.install(0x000, false);
        c.install(0x080, false);
        assert!(c.contains(0x000) && c.contains(0x080));
        c.probe(0x000, false); // touch 0x000, making 0x080 LRU
        c.install(0x100, false);
        assert!(c.contains(0x000), "recently touched survives");
        assert!(!c.contains(0x080), "LRU way evicted");
    }

    #[test]
    fn dirty_eviction_reports_line() {
        let mut c = tiny();
        c.install(0x000, true); // dirty
        c.install(0x080, false);
        // Next install in set 0 must evict dirty 0x000.
        match c.install(0x100, false) {
            Access::MissEvictDirty { line } => assert_eq!(line, 0x000),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_probe_sets_dirty() {
        let mut c = tiny();
        c.install(0x000, false);
        assert!(c.probe(0x000, true)); // write hit dirties the line
        c.install(0x080, false);
        match c.install(0x100, false) {
            Access::MissEvictDirty { line } => assert_eq!(line, 0x000),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn capacity_behaviour() {
        // A working set equal to capacity hits; 2x capacity thrashes.
        let geom = CacheGeometry {
            capacity: 4096,
            assoc: 4,
            line_bytes: 64,
            latency_cycles: 1,
        };
        let mut c = Cache::new(geom);
        let lines_in_cache = 4096 / 64;
        for pass in 0..3 {
            for i in 0..lines_in_cache {
                let r = c.access(i * 64, false);
                if pass > 0 {
                    assert!(r.is_hit(), "pass {pass} line {i}");
                }
            }
        }
        // Double working set with sequential sweep: LRU thrashes to 0%.
        let mut c = Cache::new(geom);
        for _ in 0..3 {
            for i in 0..2 * lines_in_cache {
                c.access(i * 64, false);
            }
        }
        let (h, m) = c.stats();
        assert_eq!(h, 0, "sequential over-capacity sweep never hits ({h}/{m})");
    }

    #[test]
    fn stats_count() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 2));
    }

    #[test]
    fn top_of_address_space_round_trips() {
        // The largest tag still packs: its dirty eviction reports the
        // right line.
        let mut c = Cache::new(CacheGeometry {
            capacity: 4,
            assoc: 1,
            line_bytes: 4,
            latency_cycles: 1,
        });
        let top = !3;
        c.install(top, true);
        assert!(c.contains(u64::MAX));
        assert_eq!(c.install(0, false), Access::MissEvictDirty { line: top });
    }
}
