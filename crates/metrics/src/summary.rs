//! Running scalar summary: count, mean, min and max.

use serde::{Deserialize, Serialize};

/// A streaming summary of a scalar metric.
///
/// # Examples
///
/// ```
/// use er_metrics::Summary;
///
/// let mut s = Summary::new();
/// s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample, updating the mean incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite(),
            "summary samples must be finite, got {value}"
        );
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Records every sample from `iter`.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        self.min.unwrap_or(0.0)
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        self.max.unwrap_or(0.0)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary<const N: usize>(samples: [f64; N]) -> Summary {
        let mut s = Summary::new();
        s.extend(samples);
        s
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn mean_matches_textbook_value() {
        let s = summary([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_track_extremes() {
        let s = summary([-3.0, 7.5, 0.0]);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 7.5);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn sum_is_consistent_with_mean() {
        let s = summary([1.0, 2.0, 3.0]);
        assert!((s.sum() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_its_own_mean_min_and_max() {
        let s = summary([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_sample_panics() {
        Summary::new().record(f64::NAN);
    }
}
