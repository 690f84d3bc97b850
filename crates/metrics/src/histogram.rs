//! Log-bucketed histogram with percentile queries.

use serde::{Deserialize, Serialize};

/// Number of buckets per power of two (sub-bucket resolution).
const SUB_BUCKETS: usize = 32;
/// Number of powers of two covered. With the smallest bucket at 2^-10 and 54
/// exponents the histogram spans roughly `[1e-3, 1.7e13)`.
const EXPONENTS: usize = 54;
/// Exponent offset so that sub-millisecond values still land in a bucket.
const MIN_EXP: i32 = -10;

/// A log-bucketed histogram of non-negative samples.
///
/// Relative error per recorded sample is bounded by `1 / SUB_BUCKETS`
/// (~3%), which is ample for tail-latency accounting in a simulator.
///
/// # Examples
///
/// ```
/// use er_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for i in 1..=100 {
///     h.record(i as f64);
/// }
/// let p50 = h.percentile(0.50);
/// assert!((45.0..=56.0).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples equal to zero get their own bucket: log bucketing cannot
    /// represent them.
    zeros: u64,
    /// Touched bucket range `[lo, hi)`: every non-zero count lies inside.
    /// Lets `reset` and `percentile` work over the few dozen buckets a
    /// workload actually hits instead of all 1728 — the histogram behind a
    /// metrics tick is cleared every simulated second.
    lo: usize,
    hi: usize,
}

impl Histogram {
    /// Creates an empty histogram. The bucket array is allocated once here
    /// and never grows: `record` is O(1) with no allocation.
    pub fn new() -> Self {
        Self {
            counts: vec![0; SUB_BUCKETS * EXPONENTS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zeros: 0,
            lo: SUB_BUCKETS * EXPONENTS,
            hi: 0,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "histogram samples must be finite and non-negative, got {value}"
        );
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value == 0.0 {
            self.zeros += 1;
        } else {
            let idx = Self::bucket_index(value);
            self.counts[idx] += 1;
            self.lo = self.lo.min(idx);
            self.hi = self.hi.max(idx + 1);
        }
    }

    fn bucket_index(value: f64) -> usize {
        let exp = value.log2().floor() as i32;
        let exp = exp.clamp(MIN_EXP, MIN_EXP + EXPONENTS as i32 - 1);
        let base = 2f64.powi(exp);
        // Position within [base, 2*base).
        let frac = ((value / base - 1.0) * SUB_BUCKETS as f64) as usize;
        let frac = frac.min(SUB_BUCKETS - 1);
        (exp - MIN_EXP) as usize * SUB_BUCKETS + frac
    }

    /// Representative (lower-bound) value of bucket `idx`.
    fn bucket_value(idx: usize) -> f64 {
        let exp = MIN_EXP + (idx / SUB_BUCKETS) as i32;
        let frac = (idx % SUB_BUCKETS) as f64 / SUB_BUCKETS as f64;
        2f64.powi(exp) * (1.0 + frac)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Value at quantile `q` (in `[0, 1]`), or 0 when empty.
    ///
    /// The returned value is a bucket lower bound clamped to the recorded
    /// min/max, so `percentile(1.0) == max()`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        if rank >= self.total {
            // The final rank is the exact maximum; bucket lower bounds would
            // undershoot it.
            return self.max;
        }
        if rank <= self.zeros {
            return 0.0;
        }
        // Buckets outside [lo, hi) are all zero, so starting the scan at
        // `lo` visits exactly the same non-zero counts in the same order.
        let mut seen = self.zeros;
        for idx in self.lo..self.hi {
            seen += self.counts[idx];
            if seen >= rank {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for idx in other.lo..other.hi {
            self.counts[idx] += other.counts[idx];
        }
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.total += other.total;
        self.sum += other.sum;
        self.zeros += other.zeros;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded samples. Only the touched bucket range is
    /// zeroed, so the repeated reset on every metrics tick costs O(buckets
    /// actually hit), not O(1728).
    pub fn reset(&mut self) {
        self.counts[self.lo.min(self.hi)..self.hi]
            .iter_mut()
            .for_each(|c| *c = 0);
        self.lo = self.counts.len();
        self.hi = 0;
        self.total = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.zeros = 0;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(42.0);
        for q in [0.0, 0.5, 0.95, 1.0] {
            let v = h.percentile(q);
            assert!((v - 42.0).abs() / 42.0 < 0.05, "q={q} v={v}");
        }
    }

    #[test]
    fn zero_samples_are_representable() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.0);
        h.record(10.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert!(h.percentile(1.0) > 9.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record((i % 97) as f64 + 0.5);
        }
        let mut prev = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.percentile(q);
            assert!(v >= prev, "q={q}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        let value = 123.456;
        h.record(value);
        let v = h.percentile(0.5);
        assert!((v - value).abs() / value < 1.0 / 32.0 + 1e-9);
    }

    #[test]
    fn p100_equals_max() {
        let mut h = Histogram::new();
        for v in [3.0, 9.0, 27.0, 81.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), 81.0);
        assert_eq!(h.max(), 81.0);
        assert_eq!(h.min(), 3.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 1000.0);
        assert!((a.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn reset_empties_histogram() {
        let mut h = Histogram::new();
        h.record(5.0);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_sample_panics() {
        Histogram::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.percentile(1.5);
    }

    #[test]
    fn reset_then_reuse_matches_fresh_histogram() {
        // The touched-range reset must leave no stale counts behind.
        let mut reused = Histogram::new();
        for v in [0.001, 3.0, 1e6, 0.5] {
            reused.record(v);
        }
        reused.reset();
        let mut fresh = Histogram::new();
        for v in [2.0, 7.0, 11.0] {
            reused.record(v);
            fresh.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(reused.percentile(q), fresh.percentile(q), "q={q}");
        }
        assert_eq!(reused.count(), fresh.count());
        assert_eq!(reused.sum(), fresh.sum());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(4.0);
        a.record(16.0);
        let p95_before = a.percentile(0.95);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.percentile(0.95), p95_before);

        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.percentile(0.5), a.percentile(0.5));
    }

    #[test]
    fn extreme_values_are_clamped_not_lost() {
        let mut h = Histogram::new();
        h.record(1e-9); // below the smallest bucket
        h.record(1e18); // above the largest bucket
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) >= h.percentile(0.1));
    }
}
