//! Hotness sorting — the paper's embedding-table preprocessing step
//! (Figure 8).
//!
//! ElasticRec sorts each embedding table by access frequency before
//! partitioning it, so that a shard over consecutive sorted IDs holds
//! entries of similar hotness. Serving then needs a *permutation*: queries
//! arrive with original index IDs, which must be remapped to sorted
//! positions before bucketization.

use serde::{Deserialize, Serialize};

/// The permutation produced by hotness-sorting a table.
///
/// `to_sorted[orig]` is the 0-based position of original entry `orig` in
/// the sorted table; `to_original[pos]` inverts it. Sorting is stable on
/// ties (equal counts keep their original relative order) so results are
/// deterministic.
///
/// # Examples
///
/// ```
/// use er_distribution::sorting::HotnessPermutation;
///
/// // Entry 2 is hottest, then 0, then 1.
/// let p = HotnessPermutation::from_counts(&[5, 1, 9]);
/// assert_eq!(p.to_sorted(2), 0);
/// assert_eq!(p.to_sorted(0), 1);
/// assert_eq!(p.to_original(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotnessPermutation {
    to_sorted: Vec<u32>,
    to_original: Vec<u32>,
}

impl HotnessPermutation {
    /// Builds the permutation that sorts entries by descending access count.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or longer than `u32::MAX` entries.
    pub fn from_counts(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "cannot sort an empty table");
        assert!(
            counts.len() <= u32::MAX as usize,
            "table too large for u32 indices"
        );
        let mut order: Vec<u32> = (0..counts.len() as u32).collect();
        order.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        let mut to_sorted = vec![0u32; counts.len()];
        for (pos, &orig) in order.iter().enumerate() {
            to_sorted[orig as usize] = pos as u32;
        }
        Self {
            to_sorted,
            to_original: order,
        }
    }

    /// The identity permutation over `n` entries (an unsorted table).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "cannot build an empty permutation");
        let ids: Vec<u32> = (0..n as u32).collect();
        Self {
            to_sorted: ids.clone(),
            to_original: ids,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.to_sorted.len()
    }

    /// Whether the permutation is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.to_sorted.is_empty()
    }

    /// Sorted position of original index `orig`.
    ///
    /// # Panics
    ///
    /// Panics if `orig` is out of range.
    pub fn to_sorted(&self, orig: u32) -> u32 {
        self.to_sorted[orig as usize]
    }

    /// Original index of sorted position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn to_original(&self, pos: u32) -> u32 {
        self.to_original[pos as usize]
    }

    /// Reorders per-entry data into sorted order (`out[pos] =
    /// data[to_original(pos)]`) — how the table's vectors are physically
    /// laid out after preprocessing.
    pub fn apply<T: Clone>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len(), "data length must match table size");
        self.to_original
            .iter()
            .map(|&orig| data[orig as usize].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_descending_by_count() {
        let p = HotnessPermutation::from_counts(&[5, 1, 9, 3]);
        // Sorted order: entry 2 (9), entry 0 (5), entry 3 (3), entry 1 (1).
        assert_eq!(p.to_original(0), 2);
        assert_eq!(p.to_original(1), 0);
        assert_eq!(p.to_original(2), 3);
        assert_eq!(p.to_original(3), 1);
    }

    #[test]
    fn forward_and_inverse_agree() {
        let counts: Vec<u64> = (0..100).map(|i| (i * 37) % 101).collect();
        let p = HotnessPermutation::from_counts(&counts);
        for orig in 0..100u32 {
            assert_eq!(p.to_original(p.to_sorted(orig)), orig);
        }
    }

    #[test]
    fn sorted_counts_are_non_increasing() {
        let counts: Vec<u64> = (0..1000).map(|i| (i * 7919) % 997).collect();
        let p = HotnessPermutation::from_counts(&counts);
        let sorted = p.apply(&counts);
        for w in sorted.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn ties_are_stable() {
        let p = HotnessPermutation::from_counts(&[4, 4, 4]);
        assert_eq!(p.to_original(0), 0);
        assert_eq!(p.to_original(1), 1);
        assert_eq!(p.to_original(2), 2);
    }

    #[test]
    fn identity_is_noop() {
        let p = HotnessPermutation::identity(5);
        for i in [0, 3, 4] {
            assert_eq!(p.to_sorted(i), i);
        }
        assert_eq!(p.apply(&[10, 20, 30, 40, 50]), vec![10, 20, 30, 40, 50]);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
    }

    #[test]
    fn to_sorted_translates_queries() {
        let p = HotnessPermutation::from_counts(&[1, 100, 10]);
        // Sorted: entry 1 -> pos 0, entry 2 -> pos 1, entry 0 -> pos 2.
        let sorted: Vec<u32> = [0, 1, 2].iter().map(|&i| p.to_sorted(i)).collect();
        assert_eq!(sorted, vec![2, 0, 1]);
    }

    #[test]
    fn apply_round_trips_through_remap() {
        // apply followed by lookups via to_sorted reproduces original data.
        let counts = [3u64, 1, 2];
        let p = HotnessPermutation::from_counts(&counts);
        let data = ["a", "b", "c"];
        let sorted = p.apply(&data);
        for orig in 0..3u32 {
            assert_eq!(sorted[p.to_sorted(orig) as usize], data[orig as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn empty_counts_panics() {
        HotnessPermutation::from_counts(&[]);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn apply_wrong_length_panics() {
        HotnessPermutation::identity(3).apply(&[1]);
    }
}
