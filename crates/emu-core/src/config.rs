//! Machine description and timing cost model.
//!
//! Everything the paper varies between hardware generations — Gossamer
//! core count and clock, threadlet capacity, DRAM speed, migration-engine
//! rate — is a field here, so the same engine reproduces the Chick
//! prototype, the Emu toolchain simulator's idealized machine, and the
//! projected full-speed systems (see [`crate::presets`]).

use crate::fault::FaultPlan;
use desim::time::{Clock, Time};

/// Structural and timing description of an Emu system.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of node cards. The Chick has 8, but firmware bugs limited
    /// the paper's hardware runs to a single node.
    pub nodes: u32,
    /// Nodelets per node card (8 on the Chick).
    pub nodelets_per_node: u32,
    /// Gossamer cores per nodelet (1 on the prototype, 4 planned).
    pub gcs_per_nodelet: u32,
    /// Concurrent threadlet contexts per Gossamer core (64).
    pub threadlets_per_gc: u32,
    /// Gossamer core clock (150 MHz prototype, 300 MHz planned).
    pub gc_clock: Clock,
    /// Narrow-channel DRAM bandwidth per nodelet, bytes/second.
    /// 8-bit bus at 1600 MT/s = 1.6 GB/s on the prototype.
    pub ncdram_bytes_per_sec: u64,
    /// Fixed DRAM access latency (controller + CAS) after channel grant.
    pub dram_latency: Time,
    /// Per-access channel overhead (command/row handling) added to the
    /// bus occupancy of every request.
    pub dram_access_overhead: Time,
    /// Minimum burst size on the narrow channel, bytes. Requests smaller
    /// than this still occupy one burst (8 B = one beat-group).
    pub dram_burst_bytes: u32,
    /// Sustained migration-engine throughput per nodelet, migrations/sec.
    pub migration_rate_per_sec: u64,
    /// One-way network latency for a migration between nodelets on the
    /// same node card.
    pub intra_node_hop: Time,
    /// One-way latency across the RapidIO fabric between node cards.
    pub inter_node_hop: Time,
    /// RapidIO per-node link bandwidth (bytes/sec) for inter-node
    /// migrations and remote packets.
    pub rapidio_bytes_per_sec: u64,
    /// Size of a migrated threadlet context, bytes (< 200 B on Emu:
    /// 16 GPRs + PC + SP + status).
    pub context_bytes: u32,
    /// Timing cost model for instruction issue.
    pub costs: CostModel,
    /// Fault-injection plan. [`FaultPlan::none`] (the default) leaves the
    /// machine pristine and the engine's timing bit-for-bit unchanged.
    pub faults: FaultPlan,
}

/// Instruction-level timing of the Gossamer cores.
///
/// The Gossamer core is an in-order, fine-grained multithreaded, cache-less
/// core: a threadlet has at most one operation in flight, and single-thread
/// latency is much worse than aggregate issue throughput (that gap is what
/// the thread-count scaling curves in Figs 4–5 measure). Two numbers model
/// this: `*_issue_cycles` is how long an op occupies the core's issue
/// machinery (sets saturated throughput); `*_latency_cycles` is the
/// additional time before the *same thread* may proceed (sets single-thread
/// performance and thus the saturation knee).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Core-occupancy cycles to issue a memory operation.
    pub mem_issue_cycles: u32,
    /// Extra thread-blocking cycles for a memory op before it reaches the
    /// memory channel (pipeline traversal, address translation).
    pub mem_pipeline_cycles: u32,
    /// Multiplier on `Compute` cycles for thread-side latency: a compute
    /// op occupies the core for `cycles` but blocks its thread for
    /// `cycles * compute_latency_factor` (no forwarding; threads are
    /// descheduled between dependent instructions).
    pub compute_latency_factor: u32,
    /// Core-occupancy cycles to execute a spawn instruction.
    pub spawn_issue_cycles: u32,
    /// Latency before a locally spawned threadlet is runnable.
    pub spawn_local_latency: Time,
    /// Core-occupancy cycles to issue a migration (packing the context).
    pub migrate_issue_cycles: u32,
    /// Extra channel service time for a memory-side atomic
    /// (read-modify-write occupies the channel longer than a write).
    pub atomic_extra: Time,
}

impl MachineConfig {
    /// Total number of nodelets in the system.
    #[inline]
    pub fn total_nodelets(&self) -> u32 {
        self.nodes * self.nodelets_per_node
    }

    /// Maximum concurrent threadlets per nodelet.
    #[inline]
    pub fn slots_per_nodelet(&self) -> u32 {
        self.gcs_per_nodelet * self.threadlets_per_gc
    }

    /// Maximum concurrent threadlets in the whole system.
    #[inline]
    pub fn total_slots(&self) -> u64 {
        self.total_nodelets() as u64 * self.slots_per_nodelet() as u64
    }

    /// Duration of `n` Gossamer-core cycles.
    #[inline]
    pub fn cycles(&self, n: u32) -> Time {
        self.gc_clock.cycles(n as u64)
    }

    /// Mean service time of one migration at the migration engine.
    #[inline]
    pub fn migration_service(&self) -> Time {
        Time::from_ps(desim::time::PS_PER_S / self.migration_rate_per_sec)
    }

    /// NCDRAM channel occupancy of a request of `bytes` (rounded up to
    /// whole bursts), excluding the per-access overhead.
    pub fn channel_transfer(&self, bytes: u32) -> Time {
        transfer(bytes, self.dram_burst_bytes, self.ncdram_bytes_per_sec)
    }

    /// Total channel service time for a request (overhead + transfer).
    pub fn channel_service(&self, bytes: u32) -> Time {
        self.dram_access_overhead + self.channel_transfer(bytes)
    }

    /// Network hop latency between two nodelets (zero if same nodelet).
    pub fn hop_latency(&self, from: crate::addr::NodeletId, to: crate::addr::NodeletId) -> Time {
        if from == to {
            Time::ZERO
        } else if from.same_node(to, self.nodelets_per_node) {
            self.intra_node_hop
        } else {
            self.inter_node_hop
        }
    }

    /// Aggregate peak NCDRAM bandwidth of the system, bytes/sec.
    pub fn peak_memory_bandwidth(&self) -> u64 {
        self.total_nodelets() as u64 * self.ncdram_bytes_per_sec
    }

    /// Validate structural invariants; returns a description of the first
    /// violation, if any. Called by the engine constructor.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be > 0".into());
        }
        if self.nodelets_per_node == 0 {
            return Err("nodelets_per_node must be > 0".into());
        }
        if self.gcs_per_nodelet == 0 {
            return Err("gcs_per_nodelet must be > 0".into());
        }
        if self.threadlets_per_gc == 0 {
            return Err("threadlets_per_gc must be > 0".into());
        }
        if self.ncdram_bytes_per_sec == 0 {
            return Err("ncdram_bytes_per_sec must be > 0".into());
        }
        if self.migration_rate_per_sec == 0 {
            return Err("migration_rate_per_sec must be > 0".into());
        }
        if self.dram_burst_bytes == 0 {
            return Err("dram_burst_bytes must be > 0".into());
        }
        if self.rapidio_bytes_per_sec == 0 {
            return Err("rapidio_bytes_per_sec must be > 0".into());
        }
        if self.context_bytes == 0 {
            return Err("context_bytes must be > 0".into());
        }
        self.faults.validate(self.total_nodelets())?;
        Ok(())
    }
}

/// [`MachineConfig::channel_transfer`] from its two parameters, by
/// division.
fn transfer(bytes: u32, burst: u32, bytes_per_sec: u64) -> Time {
    // Rounded in u64: within one burst of `u32::MAX` the rounded size
    // exceeds `u32`.
    let burst = burst.max(1) as u64;
    let rounded = (bytes as u64).div_ceil(burst) * burst;
    // ps = bytes * 1e12 / B/s, computed in u128 to avoid overflow.
    let ps = rounded as u128 * desim::time::PS_PER_S as u128 / bytes_per_sec as u128;
    Time::from_ps(ps as u64)
}

/// Exact `floor(x * num / den)` for every `x: u32`, as
/// `x * q + (x * m) >> k` with `q = num / den`, `r = num % den`,
/// `2^k >= 2^32 * den` and `m = ceil(2^k * r / den)`. The product
/// `x * m / 2^k` exceeds `x * r / den` by less than `x / 2^k < 1 / den`,
/// and the fractional part of `x * r / den` is at most
/// `(den - 1) / den`, so the excess never reaches the next integer.
#[derive(Clone, Copy, Debug)]
struct MulDiv {
    q: u128,
    m: u128,
    k: u32,
}

impl MulDiv {
    /// [`None`] when `den >= 2^48`, where `2^k * r` would overflow.
    fn new(num: u128, den: u64) -> Option<Self> {
        let k = 32 + (u64::BITS - den.leading_zeros());
        if den == 0 || k > 80 {
            return None;
        }
        let den = den as u128;
        let r = num % den;
        Some(MulDiv {
            q: num / den,
            m: (r << k).div_ceil(den),
            k,
        })
    }

    #[inline]
    fn apply(&self, x: u32) -> u128 {
        let x = x as u128;
        x * self.q + ((x * self.m) >> self.k)
    }
}

/// The per-access service times of one [`MachineConfig`], derived once
/// so the per-event path multiplies where the config's own methods
/// divide. Each value equals its [`MachineConfig`] counterpart exactly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServiceTimes {
    migration: Time,
    overhead: Time,
    burst: u32,
    bytes_per_sec: u64,
    /// `ceil(bytes / burst)` from `bytes - 1`, and the picoseconds of
    /// that many bursts; [`None`] for a bandwidth of `2^48` B/s or more.
    channel: Option<(MulDiv, MulDiv)>,
}

impl ServiceTimes {
    /// Derive the service times of `cfg`, which must have passed
    /// [`MachineConfig::validate`] (nonzero rates and burst).
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let burst = cfg.dram_burst_bytes.max(1);
        let ps_per_burst = burst as u128 * desim::time::PS_PER_S as u128;
        let bursts = MulDiv::new(1, burst as u64);
        let ps = MulDiv::new(ps_per_burst, cfg.ncdram_bytes_per_sec);
        ServiceTimes {
            migration: cfg.migration_service(),
            overhead: cfg.dram_access_overhead,
            burst,
            bytes_per_sec: cfg.ncdram_bytes_per_sec,
            channel: bursts.zip(ps),
        }
    }

    /// [`MachineConfig::migration_service`].
    #[inline]
    pub(crate) fn migration(&self) -> Time {
        self.migration
    }

    /// [`MachineConfig::channel_service`]`(bytes)`.
    #[inline]
    pub(crate) fn channel(&self, bytes: u32) -> Time {
        let transfer = match (&self.channel, bytes) {
            (_, 0) => Time::ZERO,
            (Some((bursts, ps)), _) => {
                let n = bursts.apply(bytes - 1) as u32 + 1;
                Time::from_ps(ps.apply(n) as u64)
            }
            (None, _) => transfer(bytes, self.burst, self.bytes_per_sec),
        };
        self.overhead + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn chick_prototype_shape() {
        let c = presets::chick_prototype();
        assert_eq!(c.total_nodelets(), 8);
        assert_eq!(c.slots_per_nodelet(), 64);
        assert_eq!(c.total_slots(), 512);
        c.validate().unwrap();
    }

    #[test]
    fn channel_service_rounds_to_bursts() {
        let c = presets::chick_prototype();
        // 1.6 GB/s, 8 B burst: 8 bytes = 5 ns transfer.
        assert_eq!(c.channel_transfer(8), Time::from_ns(5));
        // 1 byte still occupies a full burst.
        assert_eq!(c.channel_transfer(1), c.channel_transfer(8));
        // 16 bytes = two bursts.
        assert_eq!(c.channel_transfer(16), Time::from_ns(10));
        assert!(c.channel_service(8) > c.channel_transfer(8));
    }

    #[test]
    fn channel_transfer_is_monotone_up_to_u32_max() {
        for burst in [1, 3, 8, 64, 1 << 20] {
            let mut c = presets::chick_prototype();
            c.dram_burst_bytes = burst;
            // Powers of two, then the last two bursts below `u32::MAX`,
            // whose rounded sizes no longer fit a `u32`.
            let mut sizes: Vec<u32> = (0..32).map(|s| 1 << s).collect();
            sizes.extend(u32::MAX - 2 * burst..=u32::MAX);
            sizes.sort_unstable();
            let mut prev = Time::ZERO;
            for bytes in sizes {
                let t = c.channel_transfer(bytes);
                assert!(t >= prev, "burst {burst}: {bytes} B took {t} < {prev}");
                prev = t;
            }
            assert!(prev > c.channel_transfer(8));
        }
    }

    #[test]
    fn migration_service_matches_rate() {
        let mut c = presets::chick_prototype();
        c.migration_rate_per_sec = 4_500_000;
        let s = c.migration_service();
        // 1/4.5e6 s = 222222 ps
        assert_eq!(s.ps(), 222_222);
    }

    #[test]
    fn service_times_equal_the_config_on_every_preset() {
        for (name, c) in presets::all() {
            let st = ServiceTimes::new(&c);
            assert!(st.channel.is_some(), "{name}: no fast path");
            assert_eq!(st.migration(), c.migration_service(), "{name}");
            for bytes in (1..=4096).chain([u32::MAX]) {
                assert_eq!(
                    st.channel(bytes),
                    c.channel_service(bytes),
                    "{name}: {bytes} B"
                );
            }
        }
    }

    #[test]
    fn service_times_equal_the_config_off_the_presets() {
        let odd = [
            1,
            3,
            7,
            999_983,
            2_133_000_001,
            (1 << 48) - 1,
            1 << 48,
            u64::MAX,
        ];
        let mut sizes: Vec<u32> = (0..=70).chain([4095, 65_537]).collect();
        sizes.extend(u32::MAX - 70..=u32::MAX);
        for bw in odd {
            for burst in [1, 3, 8, 48, 1 << 20, u32::MAX] {
                let mut c = presets::chick_full_speed();
                c.ncdram_bytes_per_sec = bw;
                c.dram_burst_bytes = burst;
                c.migration_rate_per_sec = bw;
                let st = ServiceTimes::new(&c);
                assert_eq!(st.channel.is_some(), bw < 1 << 48, "bw {bw}");
                assert_eq!(st.migration(), c.migration_service(), "bw {bw}");
                for &bytes in &sizes {
                    let want = c.channel_service(bytes);
                    assert_eq!(st.channel(bytes), want, "bw {bw} burst {burst}: {bytes} B");
                }
            }
        }
    }

    #[test]
    fn hop_latency_tiers() {
        let c = presets::emu64_full_speed();
        use crate::addr::NodeletId;
        assert_eq!(c.hop_latency(NodeletId(0), NodeletId(0)), Time::ZERO);
        assert_eq!(c.hop_latency(NodeletId(0), NodeletId(7)), c.intra_node_hop);
        assert_eq!(c.hop_latency(NodeletId(0), NodeletId(8)), c.inter_node_hop);
        assert!(c.inter_node_hop > c.intra_node_hop);
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = presets::chick_prototype();
        c.gcs_per_nodelet = 0;
        assert!(c.validate().is_err());
        let mut c = presets::chick_prototype();
        c.migration_rate_per_sec = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn peak_bandwidth() {
        let c = presets::chick_prototype();
        // 8 nodelets x 1.6 GB/s
        assert_eq!(c.peak_memory_bandwidth(), 8 * 1_600_000_000);
    }
}
