//! The CPU discrete-event engine: stall-on-use threads over a functional
//! cache hierarchy, a stream prefetcher, and the banked open-page DRAM.
//!
//! Unlike the Emu engine, there is no thread migration and no slot
//! management: a thread is pinned to core `tid % cores` and every memory
//! access resolves through that core's L1/L2, the shared L3, the
//! in-flight prefetch table, and finally DRAM.
//!
//! **Inline continuation.** Every event is one thread's `Ready`, and a
//! step schedules nothing but that thread's next `Ready`. So when a
//! step's wake time is strictly earlier than the queue's head, the
//! parent order would pop that very event next (it sorts first by
//! time), and [`CpuEngine::run`] runs the thread on at once instead of
//! pushing and popping it. A wake time equal to the head's goes through
//! the queue, where the head's earlier insertion wins the tie as before.
//! Steps therefore run in the same order at the same times as with a
//! push and pop per step; the queue's clock lags during a continuation,
//! so the engine passes each step's `now` down instead of reading it,
//! and the makespan is the time of the last step.

use crate::cache::{Access, Cache};
use crate::config::CpuConfig;
use crate::dram::{Dram, DramStats};
use crate::kernel::{CpuCtx, CpuKernel, CpuOp, CpuThreadId};
use crate::prefetch::Prefetcher;
use desim::queue::EventQueue;
use desim::server::FifoServer;
use desim::time::Time;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Where a demand access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HitLevel {
    L1,
    L2,
    L3,
    InFlight,
    Dram,
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Default)]
pub struct CpuCounters {
    /// Demand loads that hit L1 / L2 / L3 / an in-flight prefetch / DRAM.
    pub l1_hits: u64,
    /// See [`CpuCounters::l1_hits`].
    pub l2_hits: u64,
    /// See [`CpuCounters::l1_hits`].
    pub l3_hits: u64,
    /// Demand loads satisfied by an in-flight (or just-landed) prefetch.
    pub prefetch_hits: u64,
    /// Demand loads that went all the way to DRAM.
    pub dram_loads: u64,
    /// Stores executed (cached path).
    pub stores: u64,
    /// Non-temporal stores executed.
    pub nt_stores: u64,
    /// Dirty-line writebacks sent to DRAM.
    pub writebacks: u64,
    /// Prefetch requests sent to DRAM.
    pub prefetches: u64,
}

/// Report of one CPU engine run.
#[derive(Debug, Clone)]
pub struct CpuReport {
    /// Time of the final event.
    pub makespan: Time,
    /// Demand/prefetch counters.
    pub counters: CpuCounters,
    /// DRAM subsystem counters.
    pub dram: DramStats,
    /// Aggregate DRAM bus utilization over the run.
    pub dram_bus_utilization: f64,
    /// Number of software threads run.
    pub threads: u64,
}

impl CpuReport {
    /// Bandwidth for an externally accounted (semantic) byte count.
    pub fn bandwidth_for(&self, semantic_bytes: u64) -> desim::stats::Bandwidth {
        desim::stats::Bandwidth::from_bytes(semantic_bytes, self.makespan)
    }

    /// Bytes physically moved to/from DRAM (lines x 64 B).
    pub fn dram_bytes(&self, line_bytes: u64) -> u64 {
        (self.dram.reads + self.dram.writes) * line_bytes
    }
}

#[derive(Clone, Copy)]
enum Event {
    Ready(CpuThreadId),
}

/// Multiplicative (Fibonacci) hash of a line index for the in-flight
/// map. The map is only probed, inserted into, removed from and
/// `retain`ed, so its iteration order never reaches a result, and
/// SipHash's resistance to chosen keys buys nothing here.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line indices hash through write_u64")
    }

    #[inline]
    fn write_u64(&mut self, line: u64) {
        self.0 = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

struct Thread {
    kernel: Option<Box<dyn CpuKernel>>,
    core: u32,
    /// Line currently merging in this thread's write-combining buffer.
    nt_line: Option<u64>,
}

/// The CPU machine simulator.
pub struct CpuEngine {
    cfg: CpuConfig,
    q: EventQueue<Event>,
    threads: Vec<Thread>,
    cores: Vec<FifoServer>,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    dram: Dram,
    prefetchers: Vec<Prefetcher>,
    /// Lines requested from DRAM (prefetch or demand) that have not been
    /// installed yet: line index -> fill time.
    inflight: HashMap<u64, Time, BuildHasherDefault<LineHasher>>,
    /// log2 of the line size shared by every level.
    line_shift: u32,
    counters: CpuCounters,
    live: u64,
}

impl CpuEngine {
    /// Build an engine over `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: CpuConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CpuConfig: {e}");
        }
        let cores = cfg.cores as usize;
        CpuEngine {
            q: EventQueue::new(),
            threads: Vec::new(),
            cores: (0..cores).map(|_| FifoServer::new()).collect(),
            l1: (0..cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(cfg.l2)).collect(),
            l3: Cache::new(cfg.l3),
            dram: Dram::new(cfg.dram, cfg.l1.line_bytes),
            prefetchers: (0..cores).map(|_| Prefetcher::new(cfg.prefetch)).collect(),
            inflight: HashMap::default(),
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            counters: CpuCounters::default(),
            live: 0,
            cfg,
        }
    }

    /// The platform configuration.
    pub fn cfg(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Add a software thread (pinned to core `index % cores`).
    pub fn add_thread(&mut self, kernel: Box<dyn CpuKernel>) -> CpuThreadId {
        let tid = CpuThreadId(self.threads.len() as u32);
        let core = tid.0 % self.cfg.cores;
        self.threads.push(Thread {
            kernel: Some(kernel),
            core,
            nt_line: None,
        });
        self.live += 1;
        self.q.schedule(Time::ZERO, Event::Ready(tid));
        tid
    }

    /// Run all threads to completion.
    pub fn run(mut self) -> CpuReport {
        let mut makespan = Time::ZERO;
        while let Some((mut now, Event::Ready(tid))) = self.q.pop() {
            // Run the thread on while it wakes strictly before the head
            // (see the module docs).
            loop {
                makespan = now;
                let Some(next) = self.step_thread(tid, now) else {
                    break;
                };
                if self.q.peek_key().is_some_and(|(head, _)| head <= next) {
                    self.q.schedule(next, Event::Ready(tid));
                    break;
                }
                now = next;
            }
        }
        assert_eq!(self.live, 0, "threads leaked");
        self.counters.prefetches = self.prefetchers.iter().map(Prefetcher::issued).sum();
        CpuReport {
            makespan,
            counters: self.counters.clone(),
            dram: self.dram.stats(),
            dram_bus_utilization: self.dram.bus_utilization(makespan),
            threads: self.threads.len() as u64,
        }
    }

    /// Run one step of `tid` at `now`; returns when the thread is next
    /// ready, or `None` once it quits.
    fn step_thread(&mut self, tid: CpuThreadId, now: Time) -> Option<Time> {
        let core = self.threads[tid.0 as usize].core;
        let ctx = CpuCtx { tid, core, now };
        let op = self.threads[tid.0 as usize]
            .kernel
            .as_mut()
            .expect("live thread has a kernel")
            .step(&ctx);
        let next = match op {
            CpuOp::Compute { cycles } => {
                self.cores[core as usize]
                    .offer(now, self.cfg.cycles(cycles))
                    .done
            }
            CpuOp::Load { addr, bytes } => {
                self.assert_in_line(addr, bytes);
                let (level, avail) = self.demand_load(core, addr, now);
                let lat = match level {
                    HitLevel::L1 => self.cfg.cycles(self.cfg.l1.latency_cycles),
                    HitLevel::L2 => self.cfg.cycles(self.cfg.l2.latency_cycles),
                    HitLevel::L3 | HitLevel::InFlight => {
                        self.cfg.cycles(self.cfg.l3.latency_cycles)
                    }
                    HitLevel::Dram => self.cfg.cycles(self.cfg.l3.latency_cycles),
                };
                // Issue occupies the core for one cycle; the thread
                // resumes when the data is back.
                let grant = self.cores[core as usize].offer(now, self.cfg.cycles(1));
                avail.max(grant.done) + lat
            }
            CpuOp::Store { addr, bytes } => {
                self.assert_in_line(addr, bytes);
                self.counters.stores += 1;
                let hit = self.store_allocate(core, addr, now);
                let stall = if hit {
                    1
                } else {
                    self.cfg.store_miss_stall_cycles
                };
                self.cores[core as usize]
                    .offer(now, self.cfg.cycles(stall))
                    .done
            }
            CpuOp::StoreNt { addr, bytes } => {
                self.assert_in_line(addr, bytes);
                self.counters.nt_stores += 1;
                // Write-combining buffer: consecutive NT stores to one
                // line merge; DRAM is charged once per distinct line.
                let line = self.l3.line_of(addr);
                if self.threads[tid.0 as usize].nt_line != Some(line) {
                    self.threads[tid.0 as usize].nt_line = Some(line);
                    let _ = self.dram.request(now, addr, true);
                }
                self.cores[core as usize]
                    .offer(now, self.cfg.cycles(1))
                    .done
            }
            CpuOp::Quit => {
                self.threads[tid.0 as usize].kernel = None;
                self.live -= 1;
                return None;
            }
        };
        Some(next)
    }

    fn assert_in_line(&self, addr: u64, bytes: u32) {
        let shift = self.line_shift;
        assert!(
            bytes > 0 && bytes as u64 <= 1 << shift,
            "access size {bytes}"
        );
        assert_eq!(
            addr >> shift,
            (addr + bytes as u64 - 1) >> shift,
            "access {addr:#x}+{bytes} crosses a cache line"
        );
    }

    /// Resolve a demand load: returns the satisfying level and the time
    /// the line is available at L1.
    fn demand_load(&mut self, core: u32, addr: u64, now: Time) -> (HitLevel, Time) {
        let c = core as usize;
        if self.l1[c].probe(addr, false) {
            self.counters.l1_hits += 1;
            return (HitLevel::L1, now);
        }
        if self.l2[c].probe(addr, false) {
            self.counters.l2_hits += 1;
            self.fill_l1(c, addr, false);
            return (HitLevel::L2, now);
        }
        let line_idx = addr >> self.line_shift;
        if self.l3.probe(addr, false) {
            // Present in L3 — possibly a prefetch still in flight (the
            // tag is installed at prefetch-issue time; the data arrives
            // at its recorded fill time).
            if let Some(fill) = self.inflight.remove(&line_idx) {
                self.counters.prefetch_hits += 1;
                // Prefetch hits keep training the streamer, so confirmed
                // streams run ahead continuously instead of stalling at
                // each horizon.
                self.train_and_prefetch(c, line_idx, now);
                self.fill_l2(c, addr, false);
                self.fill_l1(c, addr, false);
                return (HitLevel::InFlight, fill.max(now));
            }
            self.counters.l3_hits += 1;
            self.fill_l2(c, addr, false);
            self.fill_l1(c, addr, false);
            return (HitLevel::L3, now);
        }
        // Miss everywhere. Any in-flight record for this line is stale
        // (the tag was evicted before the data was ever used).
        self.inflight.remove(&line_idx);
        self.train_and_prefetch(c, line_idx, now);
        self.gc_inflight(now);
        self.counters.dram_loads += 1;
        let fill = self.dram.request(now, addr, false);
        self.install_all(c, addr, false, now);
        (HitLevel::Dram, fill)
    }

    /// Feed the streamer one access and issue whatever it asks for.
    /// Prefetched lines install their L3 tags immediately — and are
    /// therefore subject to normal capacity eviction, so prefetching far
    /// ahead of use buys nothing once the intervening working set
    /// exceeds the LLC.
    fn train_and_prefetch(&mut self, c: usize, line_idx: u64, now: Time) {
        for pf_line in self.prefetchers[c].on_miss(line_idx) {
            let pf_addr = pf_line << self.line_shift;
            if self.l3.contains(pf_addr) {
                continue;
            }
            let fill = self.dram.request(now, pf_addr, false);
            self.fill_l3(pf_addr, false, now);
            self.inflight.insert(pf_line, fill);
        }
    }

    /// Bound the in-flight map: entries whose fill time has passed are
    /// either already resident in L3 (the tag check serves them) or were
    /// evicted unused — both safe to forget.
    fn gc_inflight(&mut self, now: Time) {
        if self.inflight.len() > 1 << 18 {
            self.inflight.retain(|_, &mut fill| fill > now);
        }
    }

    /// Write-allocate store path; returns whether it hit in L1 or L2.
    fn store_allocate(&mut self, core: u32, addr: u64, now: Time) -> bool {
        let c = core as usize;
        if self.l1[c].probe(addr, true) {
            return true;
        }
        if self.l2[c].probe(addr, true) {
            self.fill_l1(c, addr, true);
            return true;
        }
        if self.l3.probe(addr, true) {
            self.fill_l2(c, addr, true);
            self.fill_l1(c, addr, true);
            return false;
        }
        // Read-for-ownership from DRAM (fire and forget for timing; the
        // store buffer hides most of it, modeled by the fixed stall).
        let _ = self.dram.request(now, addr, false);
        self.install_all(c, addr, true, now);
        false
    }

    fn install_all(&mut self, c: usize, addr: u64, dirty: bool, now: Time) {
        self.fill_l3(addr, dirty, now);
        self.fill_l2(c, addr, dirty);
        self.fill_l1(c, addr, dirty);
    }

    fn fill_l1(&mut self, c: usize, addr: u64, dirty: bool) {
        if let Access::MissEvictDirty { line } = self.l1[c].install(addr, dirty) {
            // Dirty L1 victims write back into L2.
            self.l2[c].probe(line, true);
        }
    }

    fn fill_l2(&mut self, c: usize, addr: u64, dirty: bool) {
        if let Access::MissEvictDirty { line } = self.l2[c].install(addr, dirty) {
            self.l3.probe(line, true);
        }
    }

    /// Install into L3 at `now`, writing a dirty victim back to DRAM.
    fn fill_l3(&mut self, addr: u64, dirty: bool, now: Time) {
        if let Access::MissEvictDirty { line } = self.l3.install(addr, dirty) {
            self.counters.writebacks += 1;
            let _ = self.dram.request(now, line, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sandy_bridge;
    use crate::kernel::CpuScript;

    fn run_ops(ops: Vec<CpuOp>) -> CpuReport {
        let mut e = CpuEngine::new(sandy_bridge());
        e.add_thread(Box::new(CpuScript::new(ops)));
        e.run()
    }

    #[test]
    fn repeat_loads_hit_l1() {
        let r = run_ops(vec![
            CpuOp::Load {
                addr: 0x1000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x1008,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x1010,
                bytes: 8,
            },
        ]);
        assert_eq!(r.counters.dram_loads, 1);
        assert_eq!(r.counters.l1_hits, 2);
    }

    #[test]
    fn dram_load_is_slow_l1_hit_is_fast() {
        let miss = run_ops(vec![CpuOp::Load {
            addr: 0x1000,
            bytes: 8,
        }])
        .makespan;
        let hit2 = run_ops(vec![
            CpuOp::Load {
                addr: 0x1000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x1000,
                bytes: 8,
            },
        ])
        .makespan;
        // The second (L1-hit) load adds far less than the first.
        assert!(hit2 - miss < miss / 4, "miss {miss}, +hit {hit2}");
        // A cold DRAM load costs tens of ns.
        assert!(
            miss > Time::from_ns(40) && miss < Time::from_ns(400),
            "{miss}"
        );
    }

    #[test]
    fn sequential_loads_trigger_prefetch() {
        let ops: Vec<CpuOp> = (0..64u64)
            .map(|i| CpuOp::Load {
                addr: i * 64,
                bytes: 8,
            })
            .collect();
        let r = run_ops(ops);
        assert!(r.counters.prefetches > 0, "prefetcher silent");
        assert!(
            r.counters.prefetch_hits > 30,
            "few prefetch hits: {:?}",
            r.counters
        );
        // Far fewer demand DRAM loads than lines.
        assert!(r.counters.dram_loads < 10, "{:?}", r.counters);
    }

    #[test]
    fn random_loads_defeat_prefetcher() {
        let addrs = desim::rng::uniform_indices(256, 1 << 30, 42);
        let ops: Vec<CpuOp> = addrs
            .iter()
            .map(|&a| CpuOp::Load {
                addr: (a / 64) * 64,
                bytes: 8,
            })
            .collect();
        let r = run_ops(ops);
        assert_eq!(r.counters.prefetch_hits, 0);
        assert!(r.counters.dram_loads as usize > 200);
    }

    #[test]
    fn store_then_load_hits() {
        let r = run_ops(vec![
            CpuOp::Store {
                addr: 0x2000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x2000,
                bytes: 8,
            },
        ]);
        assert_eq!(r.counters.l1_hits, 1);
        assert_eq!(r.counters.stores, 1);
    }

    #[test]
    fn nt_stores_bypass_cache() {
        let r = run_ops(vec![
            CpuOp::StoreNt {
                addr: 0x3000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x3000,
                bytes: 8,
            },
        ]);
        // The NT store did not allocate, so the load misses to DRAM.
        assert_eq!(r.counters.dram_loads, 1);
        assert_eq!(r.counters.nt_stores, 1);
        assert!(r.dram.writes >= 1);
    }

    #[test]
    fn capacity_thrash_produces_writebacks() {
        // Dirty a working set far beyond L3 (20 MiB): sweep 40 MiB twice.
        let line = 64u64;
        let lines = (40 << 20) / line;
        let mut ops = Vec::new();
        for pass in 0..2 {
            let _ = pass;
            for i in (0..lines).step_by(64) {
                ops.push(CpuOp::Store {
                    addr: i * line,
                    bytes: 8,
                });
            }
        }
        let r = run_ops(ops);
        assert!(r.counters.writebacks > 0, "{:?}", r.counters);
    }

    #[test]
    #[should_panic(expected = "crosses a cache line")]
    fn line_crossing_rejected() {
        run_ops(vec![CpuOp::Load { addr: 60, bytes: 8 }]);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_ops(
                (0..128u64)
                    .map(|i| CpuOp::Load {
                        addr: i * 128,
                        bytes: 8,
                    })
                    .collect(),
            )
        };
        assert_eq!(mk().makespan, mk().makespan);
    }
}
