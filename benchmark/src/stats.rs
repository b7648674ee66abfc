//! The summary statistics every reported number goes through.
//!
//! Kept apart and unit-tested because these are the parts of a benchmark
//! that can lie quietly: an off-by-one percentile rank or a tail percentile
//! reported from too few samples looks like a perfectly good number.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the sample at or below it (rank
/// `ceil(p/100 · n)`, 1-indexed).
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile must lie in (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-indexed nearest rank of the `p`-th percentile in a sample of `n >= 1`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The "ten samples beyond" rule: a tail percentile is reported only when at
/// least ten samples lie beyond it, otherwise it is one or two outliers
/// wearing a percentile's name.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// The three quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method) — the definition the
/// acceptance check of this benchmark uses, so `compare` must use it too.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values);
    let m = data.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the second
/// (the median as Python computes it); zero for fewer than two values — a
/// single reading has no spread to show.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, mid, q3) = quartiles(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_one_to_hundred() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&sample, 0.5), 1.0);
    }

    #[test]
    fn nearest_rank_never_interpolates_and_handles_tiny_samples() {
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 9.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 9.0], 51.0), 9.0);
        // 5 values: p95 rank = ceil(4.75) = 5 -> the maximum.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 50.0], 95.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 leaves 5 % beyond: 200 samples -> exactly 10.
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
        // p99 needs 1000, p50 needs 20.
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
        assert!(!supports_percentile(0, 50.0));
        assert_eq!(samples_beyond(500, 95.0), 25);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            (15.0, 40.0, 120.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
