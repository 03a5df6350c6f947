//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (order does not matter). Non-finite samples are
    /// discarded.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Ecdf { sorted }
    }

    /// Build from integer samples.
    pub fn from_counts<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        Ecdf::from_samples(samples.into_iter().map(|x| x as f64))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Is the ECDF empty?
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): the fraction of samples ≤ `x` (0.0 for an empty ECDF).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|s| *s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Evaluate the ECDF at each of `points`, returning `(x, F(x))` pairs —
    /// the series a plot of the figure would use.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|x| (*x, self.fraction_at_or_below(*x)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_at_or_below() {
        let ecdf = Ecdf::from_counts([1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(ecdf.len(), 10);
        assert!((ecdf.fraction_at_or_below(5.0) - 0.5).abs() < 1e-9);
        assert!((ecdf.fraction_at_or_below(10.0) - 1.0).abs() < 1e-9);
        assert_eq!(ecdf.fraction_at_or_below(0.5), 0.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let ecdf = Ecdf::from_samples([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let xs: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let series = ecdf.series(&xs);
        for pair in series.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn empty_and_nonfinite_handling() {
        let empty = Ecdf::from_samples(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.fraction_at_or_below(1.0), 0.0);
        let cleaned = Ecdf::from_samples([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cleaned.len(), 2);
    }
}
