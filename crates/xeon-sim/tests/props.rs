//! Randomized (seeded, deterministic) tests of the CPU model's
//! invariants. Each test sweeps a fixed set of seeds so failures are
//! reproducible without any external property-testing framework.

use reference::RefCache;
use test_support::{cases, Rng64};
use xeon_sim::cache::{Cache, Reciprocal};
use xeon_sim::config::{sandy_bridge, CacheGeometry};
use xeon_sim::prelude::*;

const CASES: u64 = 64;

fn tiny_geom(assoc: u32, sets: u32) -> CacheGeometry {
    CacheGeometry {
        capacity: (assoc * sets * 64) as u64,
        assoc,
        line_bytes: 64,
        latency_cycles: 1,
    }
}

/// A cache never holds more distinct lines than its capacity, and a
/// line just installed is always present.
#[test]
fn cache_capacity_bound() {
    cases(CASES, 0xCAB, |_case, rng| {
        let assoc = rng.gen_range(1..8u32);
        let sets = rng.gen_range(1..16u32);
        let len = rng.gen_range(1..400usize);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let geom = tiny_geom(assoc, sets);
        let mut c = Cache::new(geom);
        for &a in &addrs {
            c.access(a, false);
            assert!(c.contains(a), "just-installed line missing");
        }
        // Count resident lines by probing all distinct lines we touched.
        let mut distinct: Vec<u64> = addrs.iter().map(|a| a / 64 * 64).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let resident = distinct.iter().filter(|&&l| c.contains(l)).count();
        assert!(resident as u64 <= geom.sets() * assoc as u64);
    });
}

/// hits + misses equals the number of accesses, always.
#[test]
fn cache_stats_partition() {
    cases(CASES, 0x57A7, |_case, rng| {
        let len = rng.gen_range(1..300usize);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..100_000u64)).collect();
        let mut c = Cache::new(tiny_geom(4, 8));
        for &a in &addrs {
            c.access(a, a % 3 == 0);
        }
        let (h, m) = c.stats();
        assert_eq!(h + m, addrs.len() as u64);
    });
}

/// Within one set, an access pattern that fits the associativity
/// never misses after the warmup pass (LRU stack property).
#[test]
fn cache_lru_stack_property() {
    for assoc in 2u32..8 {
        for rounds in 2usize..6 {
            let geom = tiny_geom(assoc, 4);
            let mut c = Cache::new(geom);
            // `assoc` distinct lines in set 0 (stride = sets*64).
            let lines: Vec<u64> = (0..assoc as u64).map(|i| i * 4 * 64).collect();
            for round in 0..rounds {
                for &l in &lines {
                    let hit = c.probe(l, false);
                    if !hit {
                        c.install(l, false);
                        assert_eq!(round, 0, "miss after warmup");
                    }
                }
            }
        }
    }
}

/// The timestamp-LRU cache that the recency-ordered [`Cache`] replaced,
/// kept as its oracle: each way holds a tag, valid and dirty flags and
/// the tick of its last touch; an install takes the first invalid way,
/// else the least recently touched one.
mod reference {
    use xeon_sim::cache::Access;
    use xeon_sim::config::CacheGeometry;

    #[derive(Clone, Copy, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    pub struct RefCache {
        ways: Vec<Way>,
        assoc: usize,
        sets: u64,
        line_shift: u32,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        pub fn new(geom: CacheGeometry) -> Self {
            let sets = geom.sets();
            RefCache {
                ways: vec![Way::default(); (sets * geom.assoc as u64) as usize],
                assoc: geom.assoc as usize,
                sets,
                line_shift: geom.line_bytes.trailing_zeros(),
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_range(&self, tag: u64) -> std::ops::Range<usize> {
            let set = (tag % self.sets) as usize;
            set * self.assoc..(set + 1) * self.assoc
        }

        pub fn probe(&mut self, addr: u64, write: bool) -> bool {
            self.tick += 1;
            let tag = addr >> self.line_shift;
            let range = self.set_range(tag);
            for w in &mut self.ways[range] {
                if w.valid && w.tag == tag {
                    w.lru = self.tick;
                    w.dirty |= write;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            false
        }

        pub fn access(&mut self, addr: u64, write: bool) -> Access {
            if self.probe(addr, write) {
                return Access::Hit;
            }
            self.install(addr, write)
        }

        pub fn install(&mut self, addr: u64, dirty: bool) -> Access {
            self.tick += 1;
            let tag = addr >> self.line_shift;
            let line_shift = self.line_shift;
            let tick = self.tick;
            let range = self.set_range(tag);
            let set = &mut self.ways[range];
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| (w.valid, w.lru))
                .map(|(i, _)| i)
                .expect("nonzero associativity");
            let w = &mut set[victim];
            let result = if !w.valid {
                Access::Miss
            } else if w.dirty {
                Access::MissEvictDirty {
                    line: w.tag << line_shift,
                }
            } else {
                Access::MissEvictClean
            };
            *w = Way {
                tag,
                valid: true,
                dirty,
                lru: tick,
            };
            result
        }

        pub fn contains(&self, addr: u64) -> bool {
            let tag = addr >> self.line_shift;
            let range = self.set_range(tag);
            self.ways[range].iter().any(|w| w.valid && w.tag == tag)
        }

        pub fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }
}

/// Drive `Cache` and the reference with the same `ops` seeded calls on
/// addresses drawn by `addr`, asserting equal results (every `Access`
/// variant and evicted line) and equal stats after each. `install` is
/// only called on a line the reference does not hold, as its contract
/// requires.
fn lockstep(
    geom: CacheGeometry,
    ops: usize,
    rng: &mut Rng64,
    mut addr: impl FnMut(&mut Rng64) -> u64,
) {
    let mut c = Cache::new(geom);
    let mut r = RefCache::new(geom);
    for step in 0..ops {
        let a = addr(rng);
        let write = rng.next_u64() & 1 == 0;
        match rng.gen_range(0..4u32) {
            0 => assert_eq!(c.probe(a, write), r.probe(a, write), "probe {a:#x} @{step}"),
            1 if !r.contains(a) => {
                assert_eq!(
                    c.install(a, write),
                    r.install(a, write),
                    "install {a:#x} @{step}"
                )
            }
            2 => assert_eq!(
                c.access(a, write),
                r.access(a, write),
                "access {a:#x} @{step}"
            ),
            _ => assert_eq!(c.contains(a), r.contains(a), "contains {a:#x} @{step}"),
        }
        assert_eq!(c.stats(), r.stats(), "stats @{step}");
    }
}

/// The recency-ordered cache matches the timestamp-LRU reference on
/// every small geometry: assoc 1-16, 1-16 sets.
#[test]
fn cache_matches_timestamp_lru_reference() {
    cases(CASES, 0x0C1E, |_case, rng| {
        let assoc = rng.gen_range(1..17u32);
        let sets = rng.gen_range(1..17u32);
        // Up to 4x the capacity in distinct lines, so sets both fill
        // and thrash, at random offsets within each line.
        let lines = rng.gen_range(1..4 * (assoc * sets) as u64 + 2);
        lockstep(tiny_geom(assoc, sets), 600, rng, |rng| {
            rng.gen_range(0..lines) * 64 + rng.gen_range(0..64u64)
        });
    });
}

/// The same on Sandy Bridge's 20,480-set, 16-way L3, whose set count is
/// not a power of two. The calls land on three sets (the first, the
/// last and one drawn at random), with tags spread up to the top of
/// the address space.
#[test]
fn sandy_bridge_l3_matches_timestamp_lru_reference() {
    let l3 = sandy_bridge().l3;
    let sets = l3.sets();
    assert_eq!(sets, 20_480);
    cases(8, 0x5B13, |_case, rng| {
        let picked = [0, sets - 1, rng.gen_range(0..sets)];
        let pool: Vec<u64> = (0..3 * 24)
            .map(|i| picked[i % 3] + sets * rng.gen_range(0..(u64::MAX >> 6) / sets))
            .collect();
        lockstep(l3, 1500, rng, |rng| {
            pool[rng.gen_range(0..pool.len())] << 6 | rng.gen_range(0..64u64)
        });
    });
}

/// The set-index remainder equals `%` at the edges and on random values.
#[test]
fn reciprocal_remainder_matches_modulo() {
    cases(16, 0x2E4, |_case, rng| {
        for d in [1u64, 2, 3, 20_480, 1 << 17, rng.gen_range(1..u64::MAX)] {
            let r = Reciprocal::new(d);
            let edges = [0, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            for n in edges.into_iter().chain((0..256).map(|_| rng.next_u64())) {
                assert_eq!(n % r, n % d, "{n} % {d}");
            }
        }
    });
}

/// DRAM request completion is monotone when arrivals are monotone,
/// and row stats partition the accesses.
#[test]
fn dram_monotone() {
    use desim::time::Time;
    cases(CASES, 0xD7A8, |_case, rng| {
        let len = rng.gen_range(1..200usize);
        let reqs: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.gen_range(0..1u64 << 24), rng.next_u64() & 1 == 0))
            .collect();
        let mut d = xeon_sim::dram::Dram::new(sandy_bridge().dram, 64);
        let mut at = Time::ZERO;
        for (i, &(addr, w)) in reqs.iter().enumerate() {
            let addr = addr / 64 * 64;
            let done = d.request(at, addr, w);
            assert!(done > at);
            at += Time::from_ns((i % 7) as u64);
        }
        let s = d.stats();
        assert_eq!(s.reads + s.writes, reqs.len() as u64);
        assert_eq!(s.row_hits + s.row_misses, reqs.len() as u64);
        let r = s.row_hit_rate();
        assert!((0.0..=1.0).contains(&r));
    });
}

/// The engine terminates for arbitrary single-thread programs and
/// counts every load at exactly one level.
#[test]
fn cpu_engine_levels_partition() {
    cases(CASES, 0x1E7E15, |_case, rng| {
        let len = rng.gen_range(1..200usize);
        let ops: Vec<(u64, u8)> = (0..len)
            .map(|_| (rng.gen_range(0..1u64 << 20), rng.gen_range(0..3u32) as u8))
            .collect();
        let mut e = CpuEngine::new(sandy_bridge());
        let script: Vec<CpuOp> = ops
            .iter()
            .map(|&(addr, kind)| {
                let addr = addr / 8 * 8; // aligned, never line-crossing
                match kind {
                    0 => CpuOp::Load { addr, bytes: 8 },
                    1 => CpuOp::Store { addr, bytes: 8 },
                    _ => CpuOp::Compute { cycles: 3 },
                }
            })
            .collect();
        let loads = ops.iter().filter(|&&(_, k)| k == 0).count() as u64;
        e.add_thread(Box::new(CpuScript::new(script)));
        let r = e.run();
        let c = &r.counters;
        assert_eq!(
            c.l1_hits + c.l2_hits + c.l3_hits + c.prefetch_hits + c.dram_loads,
            loads
        );
    });
}

/// Determinism of the CPU engine under arbitrary multi-thread loads.
#[test]
fn cpu_engine_deterministic() {
    cases(16, 0xDE7C, |_case, rng| {
        let nthreads = rng.gen_range(1..4usize);
        let seqs: Vec<Vec<u64>> = (0..nthreads)
            .map(|_| {
                let len = rng.gen_range(1..50usize);
                (0..len).map(|_| rng.gen_range(0..1u64 << 18)).collect()
            })
            .collect();
        let run = || {
            let mut e = CpuEngine::new(sandy_bridge());
            for s in &seqs {
                let script: Vec<CpuOp> = s
                    .iter()
                    .map(|&a| CpuOp::Load {
                        addr: a / 8 * 8,
                        bytes: 8,
                    })
                    .collect();
                e.add_thread(Box::new(CpuScript::new(script)));
            }
            e.run().makespan
        };
        assert_eq!(run(), run());
    });
}
