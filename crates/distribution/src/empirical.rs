//! Empirical access CDF built from observed access counts.

use serde::{Deserialize, Serialize};

use crate::AccessModel;

/// A CDF over a hotness-sorted table derived from measured access counts —
/// what a production inference server's access-history counters would yield
/// (paper Section IV-B, "the access frequency of an embedding can be
/// determined by keeping a history of each embedding's access count").
///
/// Counts are sorted descending internally, so the input order does not
/// matter.
///
/// # Examples
///
/// ```
/// use er_distribution::{AccessModel, EmpiricalCdf};
///
/// let cdf = EmpiricalCdf::from_counts(&[1, 90, 4, 5]);
/// assert!((cdf.cdf(1) - 0.90).abs() < 1e-12); // the hot entry dominates
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    /// Cumulative access fraction by sorted rank; `cum[i]` covers ranks
    /// `1..=i+1`.
    cum: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from per-entry access counts (any order).
    ///
    /// Entries with zero accesses are retained: they occupy table capacity
    /// even though they contribute no probability mass, exactly the "cold"
    /// embeddings the paper's partitioner isolates.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or sums to zero.
    pub fn from_counts(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "need at least one entry");
        let total: u64 = counts.iter().sum();
        assert!(total > 0, "need at least one recorded access");
        let mut sorted: Vec<u64> = counts.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut cum = Vec::with_capacity(sorted.len());
        let mut acc = 0u64;
        for c in sorted {
            acc += c;
            cum.push(acc as f64 / total as f64);
        }
        Self { cum }
    }
}

impl AccessModel for EmpiricalCdf {
    fn len(&self) -> u64 {
        self.cum.len() as u64
    }

    fn cdf(&self, x: u64) -> f64 {
        if x == 0 {
            0.0
        } else {
            self.cum[(x.min(self.len()) - 1) as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_descending_regardless_of_input_order() {
        let a = EmpiricalCdf::from_counts(&[1, 90, 4, 5]);
        let b = EmpiricalCdf::from_counts(&[90, 5, 4, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn cdf_values_match_hand_computation() {
        let c = EmpiricalCdf::from_counts(&[10, 30, 60]);
        assert_eq!(c.cdf(0), 0.0);
        assert!((c.cdf(1) - 0.6).abs() < 1e-12);
        assert!((c.cdf(2) - 0.9).abs() < 1e-12);
        assert!((c.cdf(3) - 1.0).abs() < 1e-12);
        assert!((c.cdf(99) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_count_entries_occupy_ranks() {
        let c = EmpiricalCdf::from_counts(&[100, 0, 0, 0]);
        assert_eq!(c.len(), 4);
        assert!((c.cdf(1) - 1.0).abs() < 1e-12);
        assert_eq!(c.coverage(1, 4), 0.0); // cold tail serves nothing
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_counts_panics() {
        EmpiricalCdf::from_counts(&[]);
    }

    #[test]
    #[should_panic(expected = "recorded access")]
    fn all_zero_counts_panics() {
        EmpiricalCdf::from_counts(&[0, 0]);
    }
}
