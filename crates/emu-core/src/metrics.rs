//! Per-run measurement: the counters the Emu toolchain simulator exposes
//! (spawns, migrations, memory ops per nodelet) plus the bandwidth and
//! latency reductions the paper reports.

use desim::stats::{Bandwidth, LogHistogram, Summary};
use desim::time::Time;

/// Event counters for one nodelet.
#[derive(Debug, Clone, Default)]
pub struct NodeletCounters {
    /// Threadlets created on this nodelet (local + remote spawns landing here).
    pub spawns: u64,
    /// Thread contexts that migrated away from this nodelet.
    pub migrations_out: u64,
    /// Thread contexts that arrived by migration.
    pub migrations_in: u64,
    /// Loads served by the local memory channel.
    pub local_loads: u64,
    /// Stores served by the local memory channel.
    pub local_stores: u64,
    /// Memory-side atomics served by the local channel.
    pub atomics: u64,
    /// Remote packets (stores/atomics) that arrived from other nodelets.
    pub remote_packets_in: u64,
    /// Bytes read from this nodelet's memory.
    pub bytes_loaded: u64,
    /// Bytes written to this nodelet's memory.
    pub bytes_stored: u64,
    /// Times a thread had to wait for a free hardware context (slot).
    pub slot_waits: u64,
    /// Migration-engine NACKs issued by this nodelet's engine.
    pub mig_nacks: u64,
    /// Migration retries scheduled after a NACK (backoff re-offers).
    pub mig_retries: u64,
    /// ECC-style retries on this nodelet's memory channel.
    pub ecc_retries: u64,
    /// Packets retransmitted on this node's outbound link.
    pub link_retransmits: u64,
    /// Arrivals/accesses absorbed here on behalf of a dead nodelet.
    pub redirects: u64,
}

impl NodeletCounters {
    /// Total bytes moved through this nodelet's channel.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }
}

/// Machine-wide fault-recovery totals, aggregated from the per-nodelet
/// counters — one value per injected-fault class, in the order the
/// degradation sweeps report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Migration-engine NACKs.
    pub nacks: u64,
    /// Migration retries (backoff re-offers).
    pub retries: u64,
    /// ECC-style memory-channel retries.
    pub ecc_retries: u64,
    /// Inter-node link retransmits.
    pub link_retransmits: u64,
    /// Arrivals/accesses redirected away from dead nodelets.
    pub redirects: u64,
}

impl FaultTotals {
    /// Sum of every fault-recovery event class.
    pub fn total(&self) -> u64 {
        self.nacks + self.retries + self.ecc_retries + self.link_retransmits + self.redirects
    }
}

/// Resource occupancy for one nodelet over a run.
#[derive(Debug, Clone, Default)]
pub struct NodeletOccupancy {
    /// Gossamer-core busy time (summed over cores).
    pub core_busy: Time,
    /// Memory-channel busy time.
    pub channel_busy: Time,
    /// When the memory channel last became free. A posted store takes
    /// the channel with no completion event, so this can lie past the
    /// makespan. Not rendered into the report JSON.
    pub channel_free: Time,
    /// Migration-engine busy time.
    pub migration_busy: Time,
    /// Mean queueing delay at the memory channel.
    pub channel_mean_wait: Time,
    /// Mean queueing delay at the migration engine.
    pub migration_mean_wait: Time,
}

/// Complete report of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Time of the final event (the makespan of the whole run).
    pub makespan: Time,
    /// Per-nodelet event counters.
    pub nodelets: Vec<NodeletCounters>,
    /// Per-nodelet resource occupancy.
    pub occupancy: Vec<NodeletOccupancy>,
    /// Number of Gossamer cores per nodelet (for utilization math).
    pub gcs_per_nodelet: u32,
    /// Total threadlets that ran.
    pub threads: u64,
    /// Discrete events the engine processed (the scheduler's unit of
    /// work; events/sec is the simulator's own throughput metric).
    pub events: u64,
    /// Distribution of single-migration latency (issue to arrival).
    pub migration_latency: LogHistogram,
    /// Distribution of per-thread lifetime migration counts.
    pub migrations_per_thread: Summary,
    /// Per-nodelet time series, when timeline tracing was enabled
    /// (see [`crate::engine::Engine::enable_timeline`]).
    pub timelines: Option<crate::engine::RunTimelines>,
    /// Where threadlet wall-time went, summed across threads.
    pub breakdown: crate::engine::TimeBreakdown,
    /// Structured event log, when event tracing was enabled
    /// (see [`crate::engine::Engine::enable_trace`]).
    pub trace: Option<crate::trace::TraceLog>,
    /// How the sharded scheduler ran. Worker-count-invariant by
    /// construction: the same config yields the same summary whether
    /// the run used one worker or many.
    pub pdes: PdesSummary,
    /// Wall-clock phase breakdown of the epoch loop, present only when
    /// phase profiling was explicitly enabled (see
    /// [`crate::engine::Engine::enable_phase_profile`]). `None` by
    /// default so reports stay byte-identical across worker counts.
    pub phases: Option<PdesPhaseProfile>,
}

/// Summary of the conservative parallel scheduler for one run.
///
/// Every field is a function of the configuration and workload alone —
/// not of the worker count — because shards, lookahead, and the epoch
/// schedule are decided before any worker starts, and mailbox traffic
/// is the deterministic cross-shard event stream. The audit leans on
/// this: any worker-count-dependent value here is a scheduler bug.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PdesSummary {
    /// Number of nodelet shards (always the total nodelet count).
    pub shards: u64,
    /// Conservative lookahead window in picoseconds: the minimum
    /// latency any cross-shard interaction can incur. `Time::MAX.ps()`
    /// when the machine has a single shard (no cross-shard path).
    pub lookahead_ps: u64,
    /// Epoch barriers crossed. Zero when the run used the merged
    /// fallback scheduler (zero lookahead leaves no window to exploit).
    pub epochs: u64,
    /// Windows after which no shard had posted any cross-shard event —
    /// the all-local case the threaded scheduler commits on its gate
    /// crossing alone, with no mailbox take. A function of the simulated
    /// event stream (which shards talk when), not of worker placement,
    /// so it is worker-count- and merge-invariant like every other
    /// field here.
    pub clean_windows: u64,
    /// Cross-shard events posted to mailboxes.
    pub mailbox_sent: u64,
    /// Cross-shard events delivered out of mailboxes.
    pub mailbox_delivered: u64,
    /// Smallest cross-shard scheduling delay observed, in picoseconds.
    /// `u64::MAX` when no cross-shard event occurred. Must never fall
    /// below `lookahead_ps` — that would falsify the conservatism the
    /// epoch windows rely on.
    pub min_cross_delay_ps: u64,
    /// High-water mark of mailbox depth: the most cross-shard events
    /// any single shard had delivered to it in one exchange. Counted
    /// per destination shard per epoch (per dispatch batch under the
    /// merged fallback), so it is worker-count-invariant like every
    /// other field here.
    pub mailbox_depth_hwm: u64,
}

/// Wall-clock time split of one epoch-scheduler worker's loop.
///
/// Unlike [`PdesSummary`], these are *measurements of the host*, not
/// of the simulated machine: they vary run to run and with the worker
/// count. They exist to diagnose where real time goes — the ROADMAP's
/// "make PDES win" item needs exactly this split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Worker index (0-based; the inline scheduler reports worker 0).
    pub worker: u32,
    /// Time spent draining shard event queues inside epoch windows.
    pub drain_ns: u64,
    /// Time spent blocked at the epoch gate.
    pub barrier_ns: u64,
    /// Time spent posting to and delivering from mailboxes.
    pub exchange_ns: u64,
    /// Time spent in the per-epoch decision/merge step (reading every
    /// worker's published earliest-event slot, picking the next window).
    pub merge_ns: u64,
    /// Total wall-clock time of this worker's epoch loop. The audit
    /// checks the four phases above sum to this within tolerance.
    pub loop_ns: u64,
}

impl PhaseBreakdown {
    /// Sum of the four measured phases.
    pub fn phase_sum_ns(&self) -> u64 {
        self.drain_ns + self.barrier_ns + self.exchange_ns + self.merge_ns
    }
}

/// Per-worker wall-clock phase profile of the PDES epoch loop, plus
/// loop-level throughput. Attached to [`RunReport::phases`] only when
/// profiling is enabled; absent otherwise so byte-identity across
/// `--sim-threads` is preserved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PdesPhaseProfile {
    /// One breakdown per worker, ascending by worker index.
    pub workers: Vec<PhaseBreakdown>,
    /// Epoch barriers crossed (mirrors [`PdesSummary::epochs`]).
    pub epochs: u64,
    /// Wall-clock duration of the whole epoch scheduler, in ns.
    pub wall_ns: u64,
    /// Gate crossings the worker pool performed: one per window plus
    /// the closing one, zero for inline/merged runs.
    pub barrier_crossings: u64,
    /// Clean windows the worker pool committed on the gate crossing
    /// alone, with no mailbox take: every clean window of a threaded run,
    /// zero for inline/merged runs.
    pub fused_windows: u64,
    /// Worker-pool size the run-start merge planner chose (1 for
    /// inline and merged runs).
    pub merge_groups: u64,
    /// Owning worker of each shard, indexed by shard id — the merge
    /// map the audit validates against `merge_groups`.
    pub shard_owners: Vec<u32>,
}

impl PdesPhaseProfile {
    /// Epochs per wall-clock second (0 for an instantaneous run).
    pub fn epochs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.epochs as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

impl RunReport {
    /// Total bytes moved through all memory channels.
    pub fn total_bytes(&self) -> u64 {
        self.nodelets.iter().map(NodeletCounters::bytes_total).sum()
    }

    /// Total thread migrations (counted at the source).
    pub fn total_migrations(&self) -> u64 {
        self.nodelets.iter().map(|n| n.migrations_out).sum()
    }

    /// Total threadlet spawns.
    pub fn total_spawns(&self) -> u64 {
        self.nodelets.iter().map(|n| n.spawns).sum()
    }

    /// Total migration-engine NACKs across the machine.
    pub fn total_nacks(&self) -> u64 {
        self.nodelets.iter().map(|n| n.mig_nacks).sum()
    }

    /// Total migration retries (backoff re-offers) across the machine.
    pub fn total_retries(&self) -> u64 {
        self.nodelets.iter().map(|n| n.mig_retries).sum()
    }

    /// Total ECC-style channel retries across the machine.
    pub fn total_ecc_retries(&self) -> u64 {
        self.nodelets.iter().map(|n| n.ecc_retries).sum()
    }

    /// Total link retransmits across the machine.
    pub fn total_link_retransmits(&self) -> u64 {
        self.nodelets.iter().map(|n| n.link_retransmits).sum()
    }

    /// Total redirected arrivals/accesses absorbed for dead nodelets.
    pub fn total_redirects(&self) -> u64 {
        self.nodelets.iter().map(|n| n.redirects).sum()
    }

    /// Machine-wide fault-recovery totals as one copyable record.
    pub fn fault_totals(&self) -> FaultTotals {
        FaultTotals {
            nacks: self.total_nacks(),
            retries: self.total_retries(),
            ecc_retries: self.total_ecc_retries(),
            link_retransmits: self.total_link_retransmits(),
            redirects: self.total_redirects(),
        }
    }

    /// Aggregate memory bandwidth over the run (channel traffic).
    pub fn memory_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes(self.total_bytes(), self.makespan)
    }

    /// Bandwidth for an externally accounted byte count (benchmarks count
    /// their *semantic* bytes, e.g. 24 B per STREAM-ADD element).
    pub fn bandwidth_for(&self, semantic_bytes: u64) -> Bandwidth {
        Bandwidth::from_bytes(semantic_bytes, self.makespan)
    }

    /// Migrations per second over the run.
    pub fn migration_rate(&self) -> f64 {
        if self.makespan == Time::ZERO {
            0.0
        } else {
            self.total_migrations() as f64 / self.makespan.secs_f64()
        }
    }

    /// Aggregate Gossamer-core utilization in [0, 1].
    pub fn core_utilization(&self) -> f64 {
        if self.makespan == Time::ZERO {
            return 0.0;
        }
        let busy: Time = self.occupancy.iter().map(|o| o.core_busy).sum();
        let capacity =
            self.makespan.ps() as f64 * self.nodelets.len() as f64 * self.gcs_per_nodelet as f64;
        busy.ps() as f64 / capacity
    }

    /// Aggregate memory-channel utilization in [0, 1].
    pub fn channel_utilization(&self) -> f64 {
        if self.makespan == Time::ZERO {
            return 0.0;
        }
        let busy: Time = self.occupancy.iter().map(|o| o.channel_busy).sum();
        busy.ps() as f64 / (self.makespan.ps() as f64 * self.nodelets.len() as f64)
    }

    /// Coefficient of variation of per-nodelet channel traffic — a
    /// load-balance indicator (0 = perfectly balanced).
    pub fn channel_balance_cv(&self) -> f64 {
        let mut s = Summary::new();
        for n in &self.nodelets {
            s.record(n.bytes_total() as f64);
        }
        if s.mean() == 0.0 {
            0.0
        } else {
            s.stddev() / s.mean()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(counters: Vec<NodeletCounters>, makespan: Time) -> RunReport {
        let n = counters.len();
        RunReport {
            makespan,
            nodelets: counters,
            occupancy: vec![NodeletOccupancy::default(); n],
            gcs_per_nodelet: 1,
            threads: 0,
            events: 0,
            migration_latency: LogHistogram::new(),
            migrations_per_thread: Summary::new(),
            timelines: None,
            breakdown: crate::engine::TimeBreakdown::default(),
            trace: None,
            pdes: PdesSummary::default(),
            phases: None,
        }
    }

    #[test]
    fn totals_and_bandwidth() {
        let a = NodeletCounters {
            bytes_loaded: 600,
            bytes_stored: 400,
            migrations_out: 5,
            ..Default::default()
        };
        let b = NodeletCounters {
            bytes_loaded: 1000,
            migrations_out: 3,
            ..Default::default()
        };
        let r = report_with(vec![a, b], Time::from_us(2));
        assert_eq!(r.total_bytes(), 2000);
        assert_eq!(r.total_migrations(), 8);
        // 2000 B / 2 us = 1e9 B/s.
        assert!((r.memory_bandwidth().bytes_per_sec - 1e9).abs() < 1.0);
        assert!((r.migration_rate() - 4e6).abs() < 1.0);
    }

    #[test]
    fn balance_cv_zero_when_even() {
        let a = NodeletCounters {
            bytes_loaded: 500,
            ..Default::default()
        };
        let r = report_with(vec![a.clone(), a], Time::from_us(1));
        assert_eq!(r.channel_balance_cv(), 0.0);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = report_with(vec![NodeletCounters::default()], Time::ZERO);
        assert_eq!(r.memory_bandwidth().bytes_per_sec, 0.0);
        assert_eq!(r.migration_rate(), 0.0);
        assert_eq!(r.core_utilization(), 0.0);
    }
}
