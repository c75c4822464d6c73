//! Order statistics the benchmark reports: medians, the quartile spread
//! the acceptance rule uses, and the tail percentile a sample count can
//! support.

/// Sorted copy of `xs` (NaN-free by construction: every sample is a
/// duration or a count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of `xs`; 0 for an empty slice (a layer the workload bypasses).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) gives them,
/// because that is the rule the benchmark's acceptance is judged by.
/// `None` below two samples, where Python raises.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound is compared against. 0 when it cannot be computed.
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile with at least ten samples beyond it,
/// and its value (nearest-rank). With fewer than twenty samples no tail
/// is supported and the median is returned as percentile 50.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    let beyond = |p: f64| n - rank(n, p);
    let p = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(50.0);
    if p == 50.0 {
        return (50.0, median(xs));
    }
    (p, v[rank(n, p) - 1])
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n = |k: usize| (1..=k).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even p50 leaves only 9 beyond — report the median.
        assert_eq!(tail(&n(19)), (50.0, 10.0));
        // 20 samples: p50 leaves exactly 10 beyond.
        assert_eq!(tail(&n(20)).0, 50.0);
        // 40 samples: p75 leaves 10 beyond (rank 30), p90 only 4.
        assert_eq!(tail(&n(40)), (75.0, 30.0));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail(&n(100)), (90.0, 90.0));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(tail(&n(1000)), (99.0, 990.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }
}
