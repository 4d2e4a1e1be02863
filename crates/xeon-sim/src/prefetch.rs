//! Per-core hardware stream prefetcher.
//!
//! Tracks several concurrent ascending unit-stride line streams (a real
//! L2 streamer follows one per 4 KiB page, 16–32 at once) from the
//! demand-miss sequence; once a stream is confirmed it requests the next
//! `degree` lines. This is what lets the Xeon reach near-peak STREAM
//! bandwidth with stall-on-use cores — STREAM interleaves misses from
//! two or three arrays, so single-stream tracking would never fire — and
//! what a shuffled pointer chase defeats (the paper's "prefetch engines
//! are confounded").

use std::ops::Range;

/// One tracked stream.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    last_line: u64,
    streak: u32,
    /// Highest line already requested, to avoid duplicate requests.
    horizon: u64,
    /// LRU stamp.
    lru: u64,
    valid: bool,
}

/// Multi-stream detection state for one core.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    enabled: bool,
    trigger_streak: u32,
    degree: u32,
    entries: Vec<StreamEntry>,
    tick: u64,
    issued: u64,
}

/// Concurrent streams tracked per core.
const STREAMS: usize = 16;

impl Prefetcher {
    /// Build from the platform's prefetch configuration.
    pub fn new(cfg: crate::config::PrefetchConfig) -> Self {
        Prefetcher {
            enabled: cfg.enabled,
            trigger_streak: cfg.trigger_streak,
            degree: cfg.degree,
            entries: vec![
                StreamEntry {
                    last_line: 0,
                    streak: 0,
                    horizon: 0,
                    lru: 0,
                    valid: false,
                };
                STREAMS
            ],
            tick: 0,
            issued: 0,
        }
    }

    /// Observe a demand miss on `line` (line index = addr / line_bytes).
    /// Returns the line indices to prefetch, in ascending order (possibly
    /// empty).
    pub fn on_miss(&mut self, line: u64) -> Range<u64> {
        if !self.enabled {
            return 0..0;
        }
        self.tick += 1;
        let tick = self.tick;
        // One pass finds, in priority order: the first stream the miss
        // continues (it lands just past the stream's last line, allowing
        // a jitter window of 2, since prefetch hits remove intermediate
        // misses); else the first stream re-touching its last line; else
        // the slot to allocate over (the first empty or least recent).
        let mut retouch = None;
        let mut victim = 0;
        for (i, e) in self.entries.iter().enumerate() {
            if e.valid && line > e.last_line && line - e.last_line <= 2 {
                return self.continue_stream(i, line, tick);
            }
            if e.valid && e.last_line == line && retouch.is_none() {
                retouch = Some(i);
            }
            let v = &self.entries[victim];
            if (e.valid, e.lru) < (v.valid, v.lru) {
                victim = i;
            }
        }
        if let Some(i) = retouch {
            // Re-touch of the same line: refresh LRU, no new information.
            self.entries[i].lru = tick;
        } else {
            self.entries[victim] = StreamEntry {
                last_line: line,
                streak: 1,
                horizon: line,
                lru: tick,
                valid: true,
            };
        }
        0..0
    }

    /// Extend stream `i` by the miss on `line`; once confirmed, request
    /// the lines up to `degree` ahead that are not requested yet.
    fn continue_stream(&mut self, i: usize, line: u64, tick: u64) -> Range<u64> {
        let e = &mut self.entries[i];
        e.streak += 1;
        e.last_line = line;
        e.lru = tick;
        if e.streak < self.trigger_streak {
            return 0..0;
        }
        let end = line + self.degree as u64 + 1;
        let from = (e.horizon.max(line) + 1).min(end);
        e.horizon = end - 1;
        self.issued += end - from;
        from..end
    }

    /// Total prefetch requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchConfig;

    fn pf() -> Prefetcher {
        Prefetcher::new(PrefetchConfig {
            enabled: true,
            trigger_streak: 2,
            degree: 4,
        })
    }

    #[test]
    fn needs_streak_before_firing() {
        let mut p = pf();
        assert!(p.on_miss(10).is_empty());
        let got = p.on_miss(11);
        assert_eq!(got, 12..16);
    }

    #[test]
    fn advances_horizon_without_duplicates() {
        let mut p = pf();
        p.on_miss(10);
        assert_eq!(p.on_miss(11), 12..16);
        assert_eq!(p.on_miss(12), 16..17);
        assert_eq!(p.on_miss(13), 17..18);
        assert_eq!(p.issued(), 6);
    }

    #[test]
    fn tracks_interleaved_streams() {
        // Two interleaved ascending streams (STREAM's a and b arrays)
        // must both be detected.
        let mut p = pf();
        assert!(p.on_miss(1000).is_empty());
        assert!(p.on_miss(9000).is_empty());
        let a = p.on_miss(1001);
        assert_eq!(a, 1002..1006, "stream A fires");
        let b = p.on_miss(9001);
        assert_eq!(b, 9002..9006, "stream B fires");
    }

    #[test]
    fn random_pattern_never_fires() {
        let mut p = pf();
        for line in [5u64, 99_000, 3, 1_000_000, 420_000, 7_777] {
            assert!(p.on_miss(line).is_empty(), "fired on random miss {line}");
        }
    }

    #[test]
    fn stream_reset_on_break() {
        let mut p = pf();
        p.on_miss(10);
        p.on_miss(11); // fires
                       // A far jump starts a NEW stream; the old one stays tracked but
                       // this new location must re-earn its streak.
        assert!(p.on_miss(500_000).is_empty());
        assert_eq!(p.on_miss(500_001), 500_002..500_006);
    }

    #[test]
    fn jitter_window_tolerates_prefetch_swallowed_misses() {
        // With prefetching, the next demand miss may skip a line (it hit
        // in flight); a +2 jump still continues the stream.
        let mut p = pf();
        p.on_miss(100);
        p.on_miss(101);
        let got = p.on_miss(103);
        assert!(!got.is_empty(), "stream should survive +2 jitter");
    }

    #[test]
    fn disabled_is_silent() {
        let mut p = Prefetcher::new(PrefetchConfig {
            enabled: false,
            trigger_streak: 2,
            degree: 4,
        });
        p.on_miss(1);
        assert!(p.on_miss(2).is_empty());
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn many_streams_lru_replacement() {
        let mut p = pf();
        // 40 distinct streams overflow the 16-entry table without panicking.
        for s in 0..40u64 {
            p.on_miss(s * 100_000);
        }
        // The most recent ones still fire.
        assert_eq!(p.on_miss(39 * 100_000 + 1), 3_900_002..3_900_006);
    }
}
