//! DDR DRAM model: channels, banks, and open-page row buffers.
//!
//! Address mapping (documented because Fig 7's shape depends on it):
//!
//! * **channel** — line-interleaved: `(addr / 64) % channels`, so
//!   sequential streams use all channels;
//! * **row granule** — `addr / row_bytes` (8 KiB, a power of two, so a
//!   shift): one DRAM page of physically contiguous data;
//! * **bank** — a hash of the granule modulo `banks`, so the row buffers
//!   of one channel can keep `banks` distinct granules open at once.
//!
//! Consequences, exactly as the paper observes: random accesses inside a
//! single 8 KiB region are row-buffer hits after the first touch; working
//! regions up to `banks × 8 KiB` still enjoy open rows; anything larger
//! thrashes the row buffers and every access pays activate+precharge.

use crate::cache::Reciprocal;
use crate::config::DramConfig;
use desim::server::FifoServer;
use desim::time::Time;

/// SplitMix64 finalizer: the bank-index hash.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Bank {
    open_granule: Option<u64>,
    server: FifoServer,
}

struct Channel {
    banks: Vec<Bank>,
    bus: FifoServer,
}

/// Counters for the DRAM subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStats {
    /// Demand + prefetch line reads.
    pub reads: u64,
    /// Writebacks and non-temporal stores.
    pub writes: u64,
    /// Accesses that found their row open.
    pub row_hits: u64,
    /// Accesses that had to activate a row.
    pub row_misses: u64,
}

impl DramStats {
    /// Row-buffer hit rate in [0, 1].
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The DRAM subsystem of one [`crate::config::CpuConfig`].
pub struct Dram {
    cfg: DramConfig,
    /// log2 of `cfg.row_bytes`.
    row_shift: u32,
    /// `cfg.channels` and `cfg.banks_per_channel` as divisors.
    channel_count: Reciprocal,
    bank_count: Reciprocal,
    channels: Vec<Channel>,
    line_transfer: Time,
    stats: DramStats,
}

impl Dram {
    /// Build from configuration; `line_bytes` is the cache-line size
    /// transferred per request.
    ///
    /// # Panics
    /// Panics if `cfg` has zero channels, banks or channel bandwidth, or
    /// a row size that is not a power of two; [`CpuConfig::validate`]
    /// rejects each.
    ///
    /// [`CpuConfig::validate`]: crate::config::CpuConfig::validate
    pub fn new(cfg: DramConfig, line_bytes: u32) -> Self {
        assert!(
            cfg.row_bytes.is_power_of_two(),
            "row_bytes must be a power of two"
        );
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: (0..cfg.banks_per_channel)
                    .map(|_| Bank {
                        open_granule: None,
                        server: FifoServer::new(),
                    })
                    .collect(),
                bus: FifoServer::new(),
            })
            .collect();
        // ps per line = bytes * 1e12 / B/s.
        let line_transfer = Time::from_ps(
            (line_bytes as u128 * desim::time::PS_PER_S as u128 / cfg.channel_bytes_per_sec as u128)
                as u64,
        );
        Dram {
            row_shift: cfg.row_bytes.trailing_zeros(),
            channel_count: Reciprocal::new(cfg.channels as u64),
            bank_count: Reciprocal::new(cfg.banks_per_channel as u64),
            cfg,
            channels,
            line_transfer,
            stats: DramStats::default(),
        }
    }

    #[inline]
    fn route(&self, addr: u64) -> (usize, usize, u64) {
        let channel = ((addr >> 6) % self.channel_count) as usize;
        let granule = addr >> self.row_shift;
        // Banks are selected by a hash of the granule (real controllers
        // XOR row bits into the bank index) so that concurrent streams at
        // power-of-two-separated bases do not all collide in bank 0.
        let bank = (mix(granule) % self.bank_count) as usize;
        (channel, bank, granule)
    }

    /// Issue one line-sized request at time `now`; returns when the data
    /// is available at the controller.
    pub fn request(&mut self, now: Time, addr: u64, write: bool) -> Time {
        let (ci, bi, granule) = self.route(addr);
        let ch = &mut self.channels[ci];
        let bank = &mut ch.banks[bi];
        let row_service = if bank.open_granule == Some(granule) {
            self.stats.row_hits += 1;
            self.cfg.t_cas
        } else {
            self.stats.row_misses += 1;
            let had_open = bank.open_granule.is_some();
            bank.open_granule = Some(granule);
            if had_open {
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            } else {
                self.cfg.t_rcd + self.cfg.t_cas
            }
        };
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let bank_grant = bank.server.offer(now, row_service);
        let bus_grant = ch.bus.offer(bank_grant.done, self.line_transfer);
        bus_grant.done + self.cfg.t_controller
    }

    /// Subsystem counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Total bus busy time across channels (for utilization).
    pub fn bus_busy(&self) -> Time {
        self.channels.iter().map(|c| c.bus.busy_time()).sum()
    }

    /// Aggregate bus utilization over `[0, horizon]`.
    pub fn bus_utilization(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        self.bus_busy().ps() as f64 / (horizon.ps() as f64 * self.cfg.channels as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sandy_bridge;

    fn dram() -> Dram {
        Dram::new(sandy_bridge().dram, 64)
    }

    #[test]
    fn first_access_activates_then_row_hits() {
        let mut d = dram();
        let t1 = d.request(Time::ZERO, 0, false);
        // Same 8 KiB granule, later line (keep the channel identical:
        // stride by 64 * channels).
        let t2 = d.request(t1, 64 * 4, false);
        let s = d.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
        assert!(t2 > t1);
    }

    /// Find a granule != `g` that the hash sends to the same (different)
    /// bank, for conflict tests.
    fn granule_with_bank(reference: u64, banks: u64, same: bool) -> u64 {
        let want = mix(reference) % banks;
        (reference + 1..)
            .find(|&g| (mix(g) % banks == want) == same)
            .unwrap()
    }

    #[test]
    fn different_granule_same_bank_thrashes() {
        let mut d = dram();
        let cfg = sandy_bridge().dram;
        let banks = cfg.banks_per_channel as u64;
        let g2 = granule_with_bank(0, banks, true);
        let a = 0u64;
        let b = g2 * cfg.row_bytes;
        let mut now = Time::ZERO;
        for _ in 0..4 {
            now = d.request(now, a, false);
            now = d.request(now, b, false);
        }
        assert_eq!(d.stats().row_hits, 0, "alternating granules never hit");
    }

    #[test]
    fn different_banks_keep_rows_open() {
        let mut d = dram();
        let cfg = sandy_bridge().dram;
        let banks = cfg.banks_per_channel as u64;
        let g2 = granule_with_bank(0, banks, false);
        let a = 0u64;
        let b = g2 * cfg.row_bytes;
        let mut now = Time::ZERO;
        now = d.request(now, a, false);
        now = d.request(now, b, false);
        now = d.request(now, a + 64 * 4, false);
        let _ = d.request(now, b + 64 * 4, false);
        let s = d.stats();
        assert_eq!(s.row_misses, 2);
        assert_eq!(s.row_hits, 2);
    }

    #[test]
    fn sequential_saturates_all_channels() {
        let mut d = dram();
        // 4096 sequential lines at time 0: they spread over 4 channels,
        // so the makespan is ~1024 line transfers per channel.
        let mut done = Time::ZERO;
        for i in 0..4096u64 {
            done = done.max(d.request(Time::ZERO, i * 64, false));
        }
        let per_line = Time::from_ps(64 * 1_000_000 / 12_800); // 5 ns
        let ideal = per_line * 1024;
        assert!(done >= ideal, "can't beat the bus: {done} < {ideal}");
        assert!(
            done < ideal * 2,
            "sequential should be near bus-bound: {done} vs {ideal}"
        );
        assert!(d.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn writes_counted_separately() {
        let mut d = dram();
        d.request(Time::ZERO, 0, true);
        d.request(Time::ZERO, 64, false);
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }
}
