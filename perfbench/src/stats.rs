//! Order statistics with their sample counts.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of
//! the raw samples, and every percentile carries the number of samples
//! it was taken from, so a p99 over too few samples shows as such.

/// One percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank (0 when there are no samples).
    pub value: f64,
    /// Samples the percentile was taken from.
    pub n: usize,
    /// Samples strictly above the rank: a percentile is only
    /// meaningful as a tail figure when this is at least ten.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 100) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 99.0);
        assert_eq!(p99.n, 1000);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&samples, 50.0);
        assert_eq!((p50.value, p50.n), (500.0, 1000));
    }

    #[test]
    fn percentile_of_nothing_is_zero_with_zero_samples() {
        assert_eq!(percentile(&[], 50.0).n, 0);
        assert_eq!(percentile(&[], 50.0).value, 0.0);
    }

    #[test]
    fn percentile_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0], 99.0).value, 5.0);
    }
}
