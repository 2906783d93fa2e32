//! Order statistics used by every report: medians across repetitions,
//! latency percentiles over pooled samples, and the inter-quartile spread
//! the benchmark contract judges steadiness by.

/// Bytes in a MiB, as the divisor of every throughput figure.
pub const MIB: f64 = (1 << 20) as f64;

/// Median of `xs` (mean of the two middle values for even lengths).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(xs, n=4)` uses (exclusive, linear interpolation at
/// rank `i·(n+1)/4`, extrapolating on very short samples), so a spread computed here matches the one the
/// contract's checker computes. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // 1-based rank i*(n+1)/4 with the integer part clamped into
        // [1, n-1]; like CPython, the fraction is taken after the clamp, so
        // very short samples extrapolate past their ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median (`0.0` when there are
/// fewer than two values or the median is zero).
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position —
/// the contract wants at least ten for a reported tail.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let (q1, q3) = quartiles(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn iqr_ratio_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_ratio(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[7.0]), 0.0);
        assert_eq!(iqr_ratio(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[42], 90.0), 42);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(55, 80.0), 11);
    }
}
