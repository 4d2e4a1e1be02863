//! Order statistics over host timings.
//!
//! `quartiles` follows Python's `statistics.quantiles(xs, n=4)` (the
//! default "exclusive" method), so a median reported here is the one
//! Python computes from the same values.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count), the
/// middle quartile; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// Linearly interpolated percentile `p` in `[0, 100]` (the "type 7"
/// definition: `p = 0` is the minimum, `p = 100` the maximum); 0 for an
/// empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let h = (v.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` computes them.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten of `n` samples beyond it, or `None` when `n < 20`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert!((percentile(&xs, 50.0) - 5.5).abs() < 1e-12);
        assert!((percentile(&xs, 90.0) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past a two-point sample.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
