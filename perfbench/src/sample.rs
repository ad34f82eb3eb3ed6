//! Order statistics over host-time samples.

/// The median: the middle sample, or the mean of the two middle samples
/// when the count is even.  `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest sample
/// such that at least `p`% of the samples are less than or equal to it.
/// `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    match rank(sorted.len(), p) {
        0 => f64::NAN,
        r => sorted[r - 1],
    }
}

/// How many samples lie beyond the nearest-rank `p`-th percentile, i.e. how
/// many observations the tail estimate rests on.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - rank(count, p)
}

/// The 1-based nearest rank of the `p`-th percentile among `count` samples
/// (0 when there are none).
fn rank(count: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if count == 0 {
        return 0;
    }
    // `p / 100 * count` in exact integer arithmetic where possible: p is a
    // small decimal, so scale by 1e6 to keep e.g. 99.0 × 4908 exact.
    let scaled = (p * 1e6).round() as u128 * count as u128;
    let denom = 100_000_000u128;
    (scaled.div_ceil(denom) as usize).clamp(1, count)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 51.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [9.0, 2.0, 7.0, 4.0, 4.0, 1.0];
        let mut b = a;
        b.reverse();
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }

    #[test]
    fn sample_counts_beyond_the_tail() {
        // The coherence matrix's ~4,900 points leave 49 samples past p99.
        assert_eq!(samples_beyond(4908, 99.0), 49);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 50.0), 500);
        // Fifteen points have no tail: p99 is the slowest point.
        assert_eq!(samples_beyond(15, 99.0), 0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 100]")]
    fn rejects_out_of_range_percentiles() {
        percentile(&[1.0], 0.0);
    }
}
