//! Order statistics for the ledger: medians, quartiles, and the tail
//! percentile a sample can actually support.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: u64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median: the spread
    /// `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `q`-quantile (0..=1) of an ascending slice, linearly interpolated
/// between the two nearest ranks. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted_copy(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted_copy(values);
    Summary {
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        samples: sorted.len() as u64,
    }
}

/// The highest percentile not above `wanted` that still has at least ten
/// samples beyond it in a sample of `n`: a p99 over 500 samples would rest
/// on five values, so it is reported as the p98 it can support. Never drops
/// below the median.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    wanted.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// The tail value of `values` at `supported_percentile(len, wanted)`,
/// together with the percentile actually used.
pub fn tail(values: &[f64], wanted: f64) -> (f64, f64) {
    let percentile = supported_percentile(values.len(), wanted);
    (quantile(values, percentile), percentile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.q1, s.median, s.q3, s.samples), (20.0, 30.0, 40.0, 5));
        assert!((s.spread() - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(summarize(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 1000 samples carry a p99: exactly ten values lie beyond it
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(100_000, 0.99), 0.99);
        // 500 samples only carry a p98, 60 samples a p83
        assert_eq!(supported_percentile(500, 0.99), 0.98);
        assert!((supported_percentile(60, 0.99) - (1.0 - 10.0 / 60.0)).abs() < 1e-12);
        // too few samples for any tail: fall back to the median
        assert_eq!(supported_percentile(12, 0.99), 0.5);
        assert_eq!(supported_percentile(0, 0.99), 0.5);

        let values: Vec<f64> = (0..500).map(f64::from).collect();
        let (value, percentile) = tail(&values, 0.99);
        assert_eq!(percentile, 0.98);
        assert!((value - 0.98 * 499.0).abs() < 1e-9);
        assert!(values.iter().filter(|&&v| v > value).count() >= 10);
    }
}
