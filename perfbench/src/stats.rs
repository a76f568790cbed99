//! Order statistics over latency samples.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p90/p99/p99.9/p99.99 that still has at least ten samples
/// beyond it: `(label, value, samples beyond)`. `None` below 100 samples.
pub fn tail(sorted: &[u64]) -> Option<(&'static str, u64, usize)> {
    let n = sorted.len();
    [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.90),
    ]
    .into_iter()
    .map(|(label, q)| {
        let v = quantile_sorted(sorted, q);
        (label, v, n - sorted.partition_point(|&x| x <= v))
    })
    .find(|&(_, _, beyond)| beyond >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 500);
        // 1000 samples: p99 leaves exactly ten beyond it, p99.9 only one.
        assert_eq!(tail(&sorted), Some(("p99", 990, 10)));
        assert_eq!(tail(&sorted[..50]), None);
    }
}
