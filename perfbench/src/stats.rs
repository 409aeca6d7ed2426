//! Sample statistics: medians, and percentiles that are reported only when
//! enough samples lie beyond them to make the tail meaningful.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle two for an even count); `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, or `None` when
/// fewer than [`MIN_BEYOND`] samples rank above it. The rank is
/// `ceil(p * n)` (1-based), so p50 needs 20 samples and p90 needs 100.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = xs.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The interquartile mean: the mean of `xs` after dropping its lowest and
/// highest quarter (`n / 4` samples each, rounded down); `None` for an
/// empty slice. Unlike the median it does not jump between clusters when
/// latencies come in steps, and unlike the mean it ignores a stalled tail.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        // n = 19: rank 10, nine samples beyond — withheld.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        // n = 20: rank 10, ten beyond — reported as the 10th smallest.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(250), 0.9), Some(225.0));
    }

    #[test]
    fn tiny_samples_report_nothing() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.5), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        // n = 8: drops 1 and 2, 7 and 8; mean of 3..=6.
        assert_eq!(interquartile_mean(&ramp(8)), Some(4.5));
        // n = 7: drops one sample from each end.
        assert_eq!(interquartile_mean(&ramp(7)), Some(4.0));
        // Fewer than four samples: nothing dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
        // A stalled outlier in the top quarter does not move it.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 400.0]), Some(2.5));
    }
}
