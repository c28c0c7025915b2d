//! Order statistics: medians, quartiles, and the rule for which tail
//! percentile a sample supports.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a sample ascending (NaN-free by construction: every value is a
/// measured time or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The quantile that summarises every latency sample in the benchmark:
/// the 10th percentile.
///
/// The benchmark runs on shared machines where a neighbour only ever adds
/// time. Measured on the two-core VM it was written on, with a synthetic
/// neighbour using 45 % of one core: the median of `raster_queries` moved
/// by +55 %, its 10th percentile by +24 %; `pagerank_iter` +28 % against
/// +4 %. Over ten quiet runs the two spread alike (about 4 %). The median
/// and the supported tail are still printed, ungated, beside it.
pub const QUIET_QUANTILE: f64 = 0.10;

/// The [`QUIET_QUANTILE`] of an unsorted sample.
pub fn quiet(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), QUIET_QUANTILE)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Interquartile range over the median: the spread the contract gates.
/// Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method), which is what the driver computes.
pub fn spread(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    if sorted.len() < 2 {
        return 0.0;
    }
    let exclusive = |k: usize| {
        let n = sorted.len();
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let median = quantile(&sorted, 0.5);
    if median == 0.0 {
        0.0
    } else {
        (exclusive(3) - exclusive(1)) / median.abs()
    }
}

/// The highest of p99.9, p99, p95, p90 that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` under 100 samples, where
/// even p90 has fewer than ten.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|per_mille| sorted.len() * (1000 - per_mille) >= 10_000)
        .map(|per_mille| {
            let p = per_mille as f64 / 10.0;
            (p, quantile(sorted, p / 100.0))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sample = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
        assert_eq!(supported_tail(&sample(99)), None);
        assert_eq!(supported_tail(&sample(100)).unwrap().0, 90.0);
        assert_eq!(supported_tail(&sample(199)).unwrap().0, 90.0);
        assert_eq!(supported_tail(&sample(200)).unwrap().0, 95.0);
        assert_eq!(supported_tail(&sample(1000)).unwrap().0, 99.0);
        assert_eq!(supported_tail(&sample(10_000)).unwrap().0, 99.9);
    }
}
