//! Measurement primitives shared by the simulators and the harness.

use crate::time::Time;

/// Online mean/min/max/variance of a stream of samples (Welford).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a `Time` sample in nanoseconds.
    pub fn record_time(&mut self, t: Time) {
        self.record(t.ns_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Unbiased sample standard deviation (0 for fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log₂-bucketed latency histogram (bucket i holds samples in
/// `[2^i, 2^(i+1))` picoseconds; bucket 0 also holds zero).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    summary: Summary,
}

impl LogHistogram {
    /// An empty histogram covering the full `u64` picosecond range.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 64],
            summary: Summary::new(),
        }
    }

    /// Record a latency sample.
    pub fn record(&mut self, t: Time) {
        let idx = if t.ps() == 0 {
            0
        } else {
            63 - t.ps().leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.summary.record_time(t);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Underlying summary statistics (in nanoseconds).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Raw bucket counts: bucket `i` holds samples in `[2^i, 2^(i+1))`
    /// picoseconds (bucket 0 also holds zero). For serialization.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate quantile `q` in (0, 1], as the upper bound of the bucket
    /// containing that rank. Returns `Time::ZERO` when empty.
    pub fn quantile(&self, q: f64) -> Time {
        let total = self.count();
        if total == 0 {
            return Time::ZERO;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Time::from_ps(upper);
            }
        }
        Time::MAX
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.summary.merge(&other.summary);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bandwidth helper: `bytes` moved over `elapsed`, in various units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// Bytes per second.
    pub bytes_per_sec: f64,
}

impl Bandwidth {
    /// Compute bandwidth from a byte count and an elapsed time.
    pub fn from_bytes(bytes: u64, elapsed: Time) -> Bandwidth {
        let bps = if elapsed == Time::ZERO {
            0.0
        } else {
            bytes as f64 / elapsed.secs_f64()
        };
        Bandwidth { bytes_per_sec: bps }
    }

    /// Megabytes per second (decimal MB, as used in the paper's figures).
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes_per_sec / 1e6
    }

    /// Gigabytes per second (decimal GB).
    pub fn gb_per_sec(&self) -> f64 {
        self.bytes_per_sec / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_min_max_stddev() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        // Population stddev is 2; sample stddev = sqrt(32/7).
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LogHistogram::new();
        for ns in [1u64, 2, 4, 100, 1000, 1000, 1000, 10_000] {
            h.record(Time::from_ns(ns));
        }
        assert_eq!(h.count(), 8);
        // Median (rank 4 of 8) is the 100 ns sample; the bucket upper bound
        // containing it is 2^17-1 ps ≈ 131 ns.
        let med = h.quantile(0.5);
        assert!(
            med >= Time::from_ns(100) && med <= Time::from_ns(200),
            "{med}"
        );
        // p90 (rank 8 -> wait, rank ceil(0.9*8)=8) covers the max; p0.75 the 1000 ns runs.
        let p75 = h.quantile(0.75);
        assert!(
            p75 >= Time::from_ns(1000) && p75 <= Time::from_ns(2100),
            "{p75}"
        );
        // p100 covers the max sample.
        assert!(h.quantile(1.0) >= Time::from_ns(10_000));
        assert_eq!(LogHistogram::new().quantile(0.5), Time::ZERO);
    }

    #[test]
    fn bandwidth_units() {
        let bw = Bandwidth::from_bytes(1_200_000_000, Time::from_secs_f64(1.0));
        assert!((bw.gb_per_sec() - 1.2).abs() < 1e-9);
        assert!((bw.mb_per_sec() - 1200.0).abs() < 1e-6);
        assert_eq!(Bandwidth::from_bytes(10, Time::ZERO).bytes_per_sec, 0.0);
    }
}
