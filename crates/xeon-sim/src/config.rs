//! Configuration of the cache-based comparison platform.

use desim::time::{Clock, Time};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (64 on every modeled machine).
    pub line_bytes: u32,
    /// Load-to-use latency in core cycles.
    pub latency_cycles: u32,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.assoc as u64 * self.line_bytes as u64)
    }
}

/// DRAM subsystem description (per system, shared by all cores).
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Bus bandwidth per channel, bytes/sec (64-bit DDR3-1600 = 12.8 GB/s).
    pub channel_bytes_per_sec: u64,
    /// Row-buffer (DRAM page) size in bytes (8 KiB on the paper's Xeons).
    pub row_bytes: u64,
    /// Column access latency (row already open).
    pub t_cas: Time,
    /// Row activate latency.
    pub t_rcd: Time,
    /// Precharge latency (closing the previously open row).
    pub t_rp: Time,
    /// Fixed controller/queueing overhead per access.
    pub t_controller: Time,
}

impl DramConfig {
    /// Peak theoretical bandwidth of the whole memory system, bytes/sec.
    pub fn peak_bytes_per_sec(&self) -> u64 {
        self.channels as u64 * self.channel_bytes_per_sec
    }
}

/// Hardware stream-prefetcher parameters.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// Whether the prefetcher is enabled at all.
    pub enabled: bool,
    /// Consecutive-line misses needed to confirm a stream.
    pub trigger_streak: u32,
    /// Lines fetched ahead once a stream is confirmed.
    pub degree: u32,
}

/// A multicore, cache-based CPU (the paper's Sandy Bridge / Haswell
/// comparison platforms).
#[derive(Clone, Debug)]
pub struct CpuConfig {
    /// Human-readable platform name (appears in reports).
    pub name: &'static str,
    /// Physical cores.
    pub cores: u32,
    /// Hardware thread contexts (2x cores with HyperThreading).
    pub contexts: u32,
    /// Core clock.
    pub clock: Clock,
    /// Per-core L1 data cache.
    pub l1: CacheGeometry,
    /// Per-core L2.
    pub l2: CacheGeometry,
    /// Shared last-level cache.
    pub l3: CacheGeometry,
    /// Memory subsystem.
    pub dram: DramConfig,
    /// Stream prefetcher.
    pub prefetch: PrefetchConfig,
    /// Cycles a store that misses stalls the core (store-buffer pressure);
    /// store hits cost one cycle.
    pub store_miss_stall_cycles: u32,
}

impl CpuConfig {
    /// Duration of `n` core cycles.
    #[inline]
    pub fn cycles(&self, n: u32) -> Time {
        self.clock.cycles(n as u64)
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.contexts < self.cores {
            return Err("cores must be > 0 and contexts >= cores".into());
        }
        for (name, g) in [("l1", self.l1), ("l2", self.l2), ("l3", self.l3)] {
            // Both checks come before `sets()`, which divides by their
            // product.
            if g.assoc == 0 {
                return Err(format!("{name}: assoc must be > 0"));
            }
            if !g.line_bytes.is_power_of_two() || g.line_bytes < 4 {
                return Err(format!(
                    "{name}: line size must be a power of two of at least 4 bytes"
                ));
            }
            if g.sets() == 0 {
                return Err(format!("{name}: capacity too small for assoc x line"));
            }
        }
        if self.l1.line_bytes != self.l2.line_bytes || self.l2.line_bytes != self.l3.line_bytes {
            return Err("all cache levels must share one line size".into());
        }
        if self.dram.channels == 0 || self.dram.banks_per_channel == 0 {
            return Err("dram: channels and banks must be > 0".into());
        }
        if self.dram.channel_bytes_per_sec == 0 {
            return Err("dram: channel_bytes_per_sec must be > 0".into());
        }
        if !self.dram.row_bytes.is_power_of_two() {
            return Err("dram: row_bytes must be a power of two".into());
        }
        Ok(())
    }
}

/// The paper's STREAM / pointer-chase platform: dual-socket Xeon E5-2670
/// (Sandy Bridge), 2.6 GHz, 20 MiB L3 per socket, 4 DDR3-1600 channels —
/// 51.2 GB/s peak (Section III-C). Modeled as the socket the benchmarks
/// were bound to, with both sockets' worth of hardware contexts available
/// to thread-count sweeps.
pub fn sandy_bridge() -> CpuConfig {
    CpuConfig {
        name: "Sandy Bridge Xeon (E5-2670)",
        cores: 16,
        contexts: 32,
        clock: Clock::from_mhz(2600),
        l1: CacheGeometry {
            capacity: 32 << 10,
            assoc: 8,
            line_bytes: 64,
            latency_cycles: 4,
        },
        l2: CacheGeometry {
            capacity: 256 << 10,
            assoc: 8,
            line_bytes: 64,
            latency_cycles: 12,
        },
        l3: CacheGeometry {
            capacity: 20 << 20,
            assoc: 16,
            line_bytes: 64,
            latency_cycles: 35,
        },
        dram: DramConfig {
            channels: 4,
            // 8 banks x 4 ranks per channel: enough open rows for the
            // ~24 concurrent streams of a threaded STREAM run.
            banks_per_channel: 32,
            channel_bytes_per_sec: 12_800_000_000,
            row_bytes: 8 << 10,
            t_cas: Time::from_ps(13_750),
            t_rcd: Time::from_ps(13_750),
            t_rp: Time::from_ps(13_750),
            // Uncore + controller queue + cross-socket snoop on the
            // dual-socket system: loaded random-access latency lands near
            // the ~160 ns such machines measure, which in turn produces
            // the <25% chase utilization of Fig 8.
            t_controller: Time::from_ns(80),
        },
        prefetch: PrefetchConfig {
            enabled: true,
            trigger_streak: 3,
            // Streaming far enough ahead to hide the loaded latency.
            degree: 16,
        },
        store_miss_stall_cycles: 30,
    }
}

/// The paper's SpMV platform: four-socket Xeon E7-4850 v3 (Haswell),
/// 2.2 GHz, 35 MiB L3 per socket, DDR4 clocked at 1333 MHz, data
/// interleaved across all four NUMA nodes (Section III-C/E).
pub fn haswell() -> CpuConfig {
    CpuConfig {
        name: "Haswell Xeon (E7-4850 v3, 4 sockets)",
        cores: 56,
        contexts: 112,
        clock: Clock::from_mhz(2200),
        l1: CacheGeometry {
            capacity: 32 << 10,
            assoc: 8,
            line_bytes: 64,
            latency_cycles: 4,
        },
        l2: CacheGeometry {
            capacity: 256 << 10,
            assoc: 8,
            line_bytes: 64,
            latency_cycles: 12,
        },
        // 4 x 35 MiB, modeled as one shared LLC (numactl --interleave).
        l3: CacheGeometry {
            capacity: 128 << 20,
            assoc: 16,
            line_bytes: 64,
            latency_cycles: 40,
        },
        dram: DramConfig {
            // 4 channels per socket x 4 sockets at DDR4-1333.
            channels: 16,
            // 16 DDR4 banks x 4 ranks.
            banks_per_channel: 64,
            channel_bytes_per_sec: 10_664_000_000,
            row_bytes: 8 << 10,
            t_cas: Time::from_ps(14_000),
            t_rcd: Time::from_ps(14_000),
            t_rp: Time::from_ps(14_000),
            // Four-socket snoop/interleave latency.
            t_controller: Time::from_ns(90),
        },
        prefetch: PrefetchConfig {
            enabled: true,
            trigger_streak: 3,
            degree: 16,
        },
        store_miss_stall_cycles: 30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        sandy_bridge().validate().unwrap();
        haswell().validate().unwrap();
    }

    #[test]
    fn sandy_bridge_peak_is_51_2_gb() {
        assert_eq!(sandy_bridge().dram.peak_bytes_per_sec(), 51_200_000_000);
    }

    #[test]
    fn geometry_sets() {
        let l1 = sandy_bridge().l1;
        assert_eq!(l1.sets(), 64); // 32K / (8 * 64)
    }

    #[test]
    fn validate_rejects_mixed_line_sizes() {
        let mut c = sandy_bridge();
        c.l2.line_bytes = 128;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_assoc() {
        let mut c = sandy_bridge();
        c.l2.assoc = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_line_size() {
        let mut c = sandy_bridge();
        c.l3.line_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_lines_below_four_bytes() {
        let mut c = sandy_bridge();
        for level in [&mut c.l1, &mut c.l2, &mut c.l3] {
            level.line_bytes = 2;
        }
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_channel_bandwidth() {
        let mut c = sandy_bridge();
        c.dram.channel_bytes_per_sec = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_cache() {
        let mut c = sandy_bridge();
        c.l1.capacity = 256; // smaller than assoc x line
        assert!(c.validate().is_err());
    }
}
