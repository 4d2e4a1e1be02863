//! The paper's four thread-spawn strategies (Section III-E, Figs 4–5).
//!
//! `cilk_for` was unsupported on the Chick, so the benchmarks hand-roll
//! spawn trees out of `cilk_spawn`:
//!
//! * **serial_spawn** — one thread for-loops over `cilk_spawn`, creating
//!   every worker locally;
//! * **recursive_spawn** — a local binary spawn tree;
//! * **serial_remote_spawn** — one *leader* is remote-spawned onto each
//!   nodelet, then each leader serially spawns its local workers;
//! * **recursive_remote_spawn** — leaders are created by a recursive
//!   remote-spawn tree over nodelets, and each leader spawns its local
//!   workers with a recursive tree.
//!
//! Workers are numbered `0..nworkers`; worker `i`'s *intended* nodelet is
//! `i % nodelets`, matching how the benchmarks stripe data. The
//! non-remote strategies create every worker on the root's nodelet — the
//! workers' stacks stay there, and any kernel that touches its stack
//! (`KernelCtx::home`) keeps migrating back: the mechanism behind the
//! remote-spawn bandwidth gap in Fig 5.

use crate::addr::NodeletId;
use crate::kernel::{Kernel, KernelCtx, Op, Placement};
use std::sync::Arc;

/// Produces the kernel for worker `i`. Shared by every node of a spawn
/// tree, hence `Arc` + `Sync`.
pub type WorkerFactory = Arc<dyn Fn(usize) -> Box<dyn Kernel> + Send + Sync>;

/// Which spawn tree to use (Figs 4–5 compare all four).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpawnStrategy {
    /// `serial_spawn`: local for-loop of spawns.
    Serial,
    /// `recursive_spawn`: local binary spawn tree.
    Recursive,
    /// `serial_remote_spawn`: serial loop of remote spawns, one leader
    /// per nodelet, each leader loops locally.
    SerialRemote,
    /// `recursive_remote_spawn`: recursive remote tree over nodelets,
    /// recursive local tree per nodelet.
    RecursiveRemote,
}

impl SpawnStrategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [SpawnStrategy; 4] = [
        SpawnStrategy::Serial,
        SpawnStrategy::Recursive,
        SpawnStrategy::SerialRemote,
        SpawnStrategy::RecursiveRemote,
    ];

    /// The paper's name for this strategy.
    pub fn name(self) -> &'static str {
        match self {
            SpawnStrategy::Serial => "serial_spawn",
            SpawnStrategy::Recursive => "recursive_spawn",
            SpawnStrategy::SerialRemote => "serial_remote_spawn",
            SpawnStrategy::RecursiveRemote => "recursive_remote_spawn",
        }
    }

    /// The keyword `.scn` files, `simctl` flags, and the daemon's wire
    /// protocol spell this strategy with.
    pub fn keyword(self) -> &'static str {
        match self {
            SpawnStrategy::Serial => "serial",
            SpawnStrategy::Recursive => "recursive",
            SpawnStrategy::SerialRemote => "serial-remote",
            SpawnStrategy::RecursiveRemote => "recursive-remote",
        }
    }

    /// Parse a [`keyword`](Self::keyword); the error lists every valid
    /// one.
    pub fn from_name(name: &str) -> Result<SpawnStrategy, String> {
        Self::ALL
            .into_iter()
            .find(|s| s.keyword() == name)
            .ok_or_else(|| {
                let all: Vec<&str> = Self::ALL.iter().map(|s| s.keyword()).collect();
                format!("unknown strategy {name:?}; one of: {}", all.join(", "))
            })
    }

    /// Whether this strategy uses remote spawns.
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            SpawnStrategy::SerialRemote | SpawnStrategy::RecursiveRemote
        )
    }
}

/// Number of workers assigned to `nodelet` when `nworkers` workers are
/// dealt round-robin over `nodelets`.
pub fn workers_on(nodelet: u32, nworkers: usize, nodelets: u32) -> usize {
    let k = nodelet as usize;
    let n = nodelets as usize;
    if k >= nworkers {
        0
    } else {
        (nworkers - k - 1) / n + 1
    }
}

/// Build the root kernel implementing `strategy` for `nworkers` workers
/// over `nodelets` nodelets. Spawn the result on nodelet 0.
pub fn root_kernel(
    strategy: SpawnStrategy,
    nworkers: usize,
    nodelets: u32,
    factory: WorkerFactory,
) -> Box<dyn Kernel> {
    assert!(nworkers > 0, "need at least one worker");
    assert!(nodelets > 0, "need at least one nodelet");
    match strategy {
        SpawnStrategy::Serial => Box::new(SerialSpawner {
            next: 0,
            nworkers,
            factory,
        }),
        SpawnStrategy::Recursive => Box::new(RecursiveSpawner::new(0, nworkers, factory)),
        SpawnStrategy::SerialRemote => Box::new(SerialRemoteSpawner {
            next_nodelet: 0,
            nworkers,
            nodelets,
            factory,
        }),
        SpawnStrategy::RecursiveRemote => Box::new(RecursiveRemoteSpawner {
            lo: 0,
            hi: nodelets,
            nworkers,
            nodelets,
            factory,
            leader: None,
        }),
    }
}

/// `serial_spawn`: worker `i` is created locally for each `i` in turn.
struct SerialSpawner {
    next: usize,
    nworkers: usize,
    factory: WorkerFactory,
}

impl Kernel for SerialSpawner {
    fn step(&mut self, _ctx: &KernelCtx) -> Op {
        if self.next < self.nworkers {
            let k = (self.factory)(self.next);
            self.next += 1;
            Op::Spawn {
                kernel: k,
                place: Placement::Here,
            }
        } else {
            Op::Quit
        }
    }
}

/// `recursive_spawn`: splits `[lo, hi)` in half, spawning the upper half
/// and recursing into the lower until this thread *becomes* worker `lo`.
struct RecursiveSpawner {
    lo: usize,
    hi: usize,
    factory: WorkerFactory,
    /// Once the range narrows to one worker, the kernel delegates to it.
    worker: Option<Box<dyn Kernel>>,
}

impl RecursiveSpawner {
    fn new(lo: usize, hi: usize, factory: WorkerFactory) -> Self {
        RecursiveSpawner {
            lo,
            hi,
            factory,
            worker: None,
        }
    }
}

impl Kernel for RecursiveSpawner {
    fn step(&mut self, ctx: &KernelCtx) -> Op {
        if let Some(w) = self.worker.as_mut() {
            return w.step(ctx);
        }
        if self.hi - self.lo > 1 {
            let mid = self.lo + (self.hi - self.lo) / 2;
            let child = Box::new(RecursiveSpawner::new(
                mid,
                self.hi,
                Arc::clone(&self.factory),
            ));
            self.hi = mid;
            return Op::Spawn {
                kernel: child,
                place: Placement::Here,
            };
        }
        // Range is a single worker: become it.
        self.worker = Some((self.factory)(self.lo));
        self.worker.as_mut().unwrap().step(ctx)
    }
}

/// A per-nodelet leader that serially spawns its local workers
/// (`i = nodelet, nodelet + nodelets, …`).
struct SerialLeader {
    nodelet: u32,
    next_local: usize,
    nworkers: usize,
    nodelets: u32,
    factory: WorkerFactory,
}

impl Kernel for SerialLeader {
    fn step(&mut self, _ctx: &KernelCtx) -> Op {
        let i = self.nodelet as usize + self.next_local * self.nodelets as usize;
        if i < self.nworkers {
            self.next_local += 1;
            Op::Spawn {
                kernel: (self.factory)(i),
                place: Placement::Here,
            }
        } else {
            Op::Quit
        }
    }
}

/// `serial_remote_spawn`: remote-spawn one [`SerialLeader`] per nodelet.
struct SerialRemoteSpawner {
    next_nodelet: u32,
    nworkers: usize,
    nodelets: u32,
    factory: WorkerFactory,
}

impl Kernel for SerialRemoteSpawner {
    fn step(&mut self, _ctx: &KernelCtx) -> Op {
        while self.next_nodelet < self.nodelets {
            let k = self.next_nodelet;
            self.next_nodelet += 1;
            if workers_on(k, self.nworkers, self.nodelets) == 0 {
                continue;
            }
            return Op::Spawn {
                kernel: Box::new(SerialLeader {
                    nodelet: k,
                    next_local: 0,
                    nworkers: self.nworkers,
                    nodelets: self.nodelets,
                    factory: Arc::clone(&self.factory),
                }),
                place: Placement::On(NodeletId(k)),
            };
        }
        Op::Quit
    }
}

/// A per-nodelet leader that spawns local workers with a recursive tree,
/// becoming its first local worker.
struct RecursiveLeader {
    nodelet: u32,
    lo: usize,
    hi: usize, // local worker indices [lo, hi)
    nworkers: usize,
    nodelets: u32,
    factory: WorkerFactory,
    worker: Option<Box<dyn Kernel>>,
}

impl RecursiveLeader {
    fn worker_index(&self, local: usize) -> usize {
        self.nodelet as usize + local * self.nodelets as usize
    }
}

impl Kernel for RecursiveLeader {
    fn step(&mut self, ctx: &KernelCtx) -> Op {
        if let Some(w) = self.worker.as_mut() {
            return w.step(ctx);
        }
        if self.hi - self.lo > 1 {
            let mid = self.lo + (self.hi - self.lo) / 2;
            let child = Box::new(RecursiveLeader {
                nodelet: self.nodelet,
                lo: mid,
                hi: self.hi,
                nworkers: self.nworkers,
                nodelets: self.nodelets,
                factory: Arc::clone(&self.factory),
                worker: None,
            });
            self.hi = mid;
            return Op::Spawn {
                kernel: child,
                place: Placement::Here,
            };
        }
        let i = self.worker_index(self.lo);
        debug_assert!(i < self.nworkers);
        self.worker = Some((self.factory)(i));
        self.worker.as_mut().unwrap().step(ctx)
    }
}

/// `recursive_remote_spawn`: splits the nodelet range in half with remote
/// spawns, then becomes the [`RecursiveLeader`] of its own nodelet.
struct RecursiveRemoteSpawner {
    lo: u32,
    hi: u32, // nodelet range [lo, hi)
    nworkers: usize,
    nodelets: u32,
    factory: WorkerFactory,
    leader: Option<RecursiveLeader>,
}

impl Kernel for RecursiveRemoteSpawner {
    fn step(&mut self, ctx: &KernelCtx) -> Op {
        if let Some(l) = self.leader.as_mut() {
            return l.step(ctx);
        }
        while self.hi - self.lo > 1 {
            let mid = self.lo + (self.hi - self.lo) / 2;
            // Skip empty upper halves (more nodelets than workers).
            if (mid..self.hi).all(|k| workers_on(k, self.nworkers, self.nodelets) == 0) {
                self.hi = mid;
                continue;
            }
            let child = Box::new(RecursiveRemoteSpawner {
                lo: mid,
                hi: self.hi,
                nworkers: self.nworkers,
                nodelets: self.nodelets,
                factory: Arc::clone(&self.factory),
                leader: None,
            });
            self.hi = mid;
            return Op::Spawn {
                kernel: child,
                place: Placement::On(NodeletId(mid)),
            };
        }
        let k = self.lo;
        let m = workers_on(k, self.nworkers, self.nodelets);
        if m == 0 {
            return Op::Quit;
        }
        self.leader = Some(RecursiveLeader {
            nodelet: k,
            lo: 0,
            hi: m,
            nworkers: self.nworkers,
            nodelets: self.nodelets,
            factory: Arc::clone(&self.factory),
            worker: None,
        });
        self.leader.as_mut().unwrap().step(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::presets;
    use std::sync::Mutex;

    /// A worker that records where it ran, then quits.
    fn probe_factory(log: Arc<Mutex<Vec<(usize, u32)>>>) -> WorkerFactory {
        Arc::new(move |i| {
            let log = Arc::clone(&log);
            let mut fired = false;
            Box::new(move |ctx: &KernelCtx| {
                if !fired {
                    fired = true;
                    log.lock().unwrap().push((i, ctx.here.0));
                }
                Op::Quit
            })
        })
    }

    fn run_strategy(strategy: SpawnStrategy, nworkers: usize) -> Vec<(usize, u32)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let factory = probe_factory(Arc::clone(&log));
        let mut e = Engine::new(presets::chick_prototype()).unwrap();
        let root = root_kernel(strategy, nworkers, 8, factory);
        e.spawn_at(NodeletId(0), root).unwrap();
        let _ = e.run().unwrap();
        let mut out = log.lock().unwrap().clone();
        out.sort_unstable();
        out
    }

    #[test]
    fn workers_on_deals_round_robin() {
        // 10 workers over 8 nodelets: nodelets 0,1 get 2; rest get 1.
        assert_eq!(workers_on(0, 10, 8), 2);
        assert_eq!(workers_on(1, 10, 8), 2);
        assert_eq!(workers_on(2, 10, 8), 1);
        assert_eq!(workers_on(7, 10, 8), 1);
        // 4 workers over 8 nodelets: high nodelets idle.
        assert_eq!(workers_on(5, 4, 8), 0);
        let total: usize = (0..8).map(|k| workers_on(k, 13, 8)).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn every_strategy_runs_every_worker_exactly_once() {
        for s in SpawnStrategy::ALL {
            for n in [1usize, 2, 7, 8, 16, 65] {
                let ran = run_strategy(s, n);
                let ids: Vec<usize> = ran.iter().map(|&(i, _)| i).collect();
                assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{} n={}", s.name(), n);
            }
        }
    }

    #[test]
    fn local_strategies_start_workers_on_nodelet_zero() {
        for s in [SpawnStrategy::Serial, SpawnStrategy::Recursive] {
            let ran = run_strategy(s, 16);
            assert!(
                ran.iter().all(|&(_, here)| here == 0),
                "{} should create all workers on nodelet 0",
                s.name()
            );
        }
    }

    #[test]
    fn remote_strategies_start_workers_on_their_data_nodelet() {
        for s in [SpawnStrategy::SerialRemote, SpawnStrategy::RecursiveRemote] {
            let ran = run_strategy(s, 16);
            for &(i, here) in &ran {
                assert_eq!(
                    here,
                    (i % 8) as u32,
                    "{}: worker {} on wrong nodelet",
                    s.name(),
                    i
                );
            }
        }
    }

    #[test]
    fn remote_strategies_fewer_workers_than_nodelets() {
        for s in [SpawnStrategy::SerialRemote, SpawnStrategy::RecursiveRemote] {
            let ran = run_strategy(s, 3);
            assert_eq!(ran.len(), 3, "{}", s.name());
            for &(i, here) in &ran {
                assert_eq!(here, (i % 8) as u32);
            }
        }
    }

    #[test]
    fn recursive_ramp_is_faster_than_serial() {
        // With many workers that do trivial work, the recursive tree's
        // logarithmic depth must beat the serial loop's linear ramp.
        let time_of = |s: SpawnStrategy| {
            let factory: WorkerFactory =
                Arc::new(|_| Box::new(crate::kernel::ScriptKernel::new(vec![])));
            let mut e = Engine::new(presets::chick_prototype()).unwrap();
            e.spawn_at(NodeletId(0), root_kernel(s, 64, 8, factory))
                .unwrap();
            e.run().unwrap().makespan
        };
        let serial = time_of(SpawnStrategy::Serial);
        let recursive = time_of(SpawnStrategy::Recursive);
        assert!(
            recursive < serial,
            "recursive {recursive} should beat serial {serial}"
        );
    }

    #[test]
    fn strategy_names() {
        assert_eq!(SpawnStrategy::Serial.name(), "serial_spawn");
        assert_eq!(
            SpawnStrategy::RecursiveRemote.name(),
            "recursive_remote_spawn"
        );
        assert!(SpawnStrategy::SerialRemote.is_remote());
        assert!(!SpawnStrategy::Recursive.is_remote());
    }

    #[test]
    fn keywords_round_trip_and_unknown_names_are_rejected() {
        for s in SpawnStrategy::ALL {
            assert_eq!(SpawnStrategy::from_name(s.keyword()), Ok(s));
        }
        let e = SpawnStrategy::from_name("serial_spawn").unwrap_err();
        assert!(e.contains("one of: serial, recursive, serial-remote, recursive-remote"));
    }
}
