//! Partitioning plans: where a sorted table is cut into shards.

use serde::{Deserialize, Serialize};

/// The output of the table-partitioning algorithm: the *partitioning
/// points* of the paper's Figure 10 — the last (1-based) sorted rank of
/// each shard, e.g. `[1, 3, 5]` for shards `{1}`, `{2,3}`, `{4,5}`.
///
/// # Examples
///
/// ```
/// use er_partition::PartitionPlan;
///
/// let plan = PartitionPlan::new(vec![1, 3, 5], 5).unwrap();
/// assert_eq!(plan.num_shards(), 3);
/// assert_eq!(plan.shards(), vec![(0, 1), (1, 3), (3, 5)]);
/// assert_eq!(plan.shard_of_id(4), 2); // 0-based ID 4 = rank 5
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionPlan {
    cuts: Vec<u64>,
    table_len: u64,
}

/// Error constructing an invalid [`PartitionPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub(crate) String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanError {}

impl PartitionPlan {
    /// Builds a plan from cut points (1-based inclusive shard ends).
    ///
    /// # Errors
    ///
    /// Returns an error unless `cuts` is non-empty, strictly increasing,
    /// starts above 0, and ends exactly at `table_len`.
    pub fn new(cuts: Vec<u64>, table_len: u64) -> Result<Self, PlanError> {
        if cuts.is_empty() {
            return Err(PlanError("a plan needs at least one shard".into()));
        }
        if cuts[0] == 0 {
            return Err(PlanError("cut points are 1-based; 0 is invalid".into()));
        }
        for w in cuts.windows(2) {
            if w[1] <= w[0] {
                return Err(PlanError(format!(
                    "cut points must be strictly increasing ({} after {})",
                    w[1], w[0]
                )));
            }
        }
        // lint::allow(no_panic): emptiness rejected at the top of this fn
        let last = *cuts.last().expect("non-empty");
        if last != table_len {
            return Err(PlanError(format!(
                "last cut {last} must equal the table length {table_len}"
            )));
        }
        Ok(Self { cuts, table_len })
    }

    /// The trivial single-shard plan — what model-wise allocation uses.
    ///
    /// # Panics
    ///
    /// Panics if `table_len` is zero.
    pub fn single(table_len: u64) -> Self {
        assert!(table_len > 0, "cannot plan an empty table");
        Self {
            cuts: vec![table_len],
            table_len,
        }
    }

    /// A plan with `n` equal-size shards (remainder spread over the first
    /// shards) — the "manually change the number of shards" knob of
    /// Figure 12(d).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `table_len`.
    pub fn equal(table_len: u64, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        assert!(n as u64 <= table_len, "more shards than table entries");
        let base = table_len / n as u64;
        let extra = table_len % n as u64;
        let mut cuts = Vec::with_capacity(n);
        let mut acc = 0;
        for i in 0..n as u64 {
            acc += base + u64::from(i < extra);
            cuts.push(acc);
        }
        Self { cuts, table_len }
    }

    /// The cut points (1-based inclusive shard ends).
    pub fn cuts(&self) -> &[u64] {
        &self.cuts
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.cuts.len()
    }

    /// Table length the plan covers.
    pub fn table_len(&self) -> u64 {
        self.table_len
    }

    /// Shards as `(k, j]` rank ranges — the arguments `COST` takes.
    pub fn shards(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.cuts.len());
        let mut k = 0;
        for &j in &self.cuts {
            out.push((k, j));
            k = j;
        }
        out
    }

    /// Number of vectors in shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_size(&self, s: usize) -> u64 {
        let start = if s == 0 { 0 } else { self.cuts[s - 1] };
        self.cuts[s] - start
    }

    /// Which shard holds the 0-based sorted ID `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= table_len`.
    pub fn shard_of_id(&self, id: u64) -> usize {
        self.locate(id).0
    }

    /// The shard holding the 0-based sorted ID `id` and that shard's base
    /// (its first sorted ID), found without branches: the shard is the
    /// count of cuts `<= id` and the base is the last such cut. A binary
    /// search's branches mispredict on skewed traffic, where most IDs fall
    /// in the first shard.
    ///
    /// # Panics
    ///
    /// Panics if `id >= table_len`.
    #[inline]
    pub(crate) fn locate(&self, id: u64) -> (usize, u64) {
        assert!(id < self.table_len, "id {id} out of range");
        let mut shard = 0;
        let mut base = 0;
        for &c in &self.cuts {
            let passed = c <= id;
            shard += usize::from(passed);
            base = if passed { c } else { base };
        }
        (shard, base)
    }

    /// The 0-based base offset of shard `s` (its first sorted ID) — the
    /// value bucketization subtracts to rebase indices.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_base(&self, s: usize) -> u64 {
        assert!(s < self.cuts.len(), "shard {s} out of range");
        if s == 0 {
            0
        } else {
            self.cuts[s - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ten_plan() {
        let p = PartitionPlan::new(vec![1, 3, 5], 5).unwrap();
        assert_eq!(p.num_shards(), 3);
        assert_eq!(p.shards(), vec![(0, 1), (1, 3), (3, 5)]);
        assert_eq!(p.shard_size(0), 1);
        assert_eq!(p.shard_size(1), 2);
        assert_eq!(p.shard_size(2), 2);
    }

    #[test]
    fn shard_of_id_maps_correctly() {
        let p = PartitionPlan::new(vec![6, 10], 10).unwrap();
        for id in 0..6 {
            assert_eq!(p.shard_of_id(id), 0, "id={id}");
        }
        for id in 6..10 {
            assert_eq!(p.shard_of_id(id), 1, "id={id}");
        }
        assert_eq!(p.shard_base(0), 0);
        assert_eq!(p.shard_base(1), 6);
    }

    #[test]
    fn single_plan_is_whole_table() {
        let p = PartitionPlan::single(100);
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.shards(), vec![(0, 100)]);
        assert_eq!(p.shard_of_id(99), 0);
    }

    #[test]
    fn equal_plan_distributes_remainder() {
        let p = PartitionPlan::equal(10, 3);
        assert_eq!(p.cuts(), &[4, 7, 10]);
        assert_eq!(p.shard_size(0), 4);
        assert_eq!(p.shard_size(1), 3);
        assert_eq!(p.shard_size(2), 3);
        let sizes: u64 = (0..3).map(|s| p.shard_size(s)).sum();
        assert_eq!(sizes, 10);
    }

    #[test]
    fn validation_rejects_bad_cuts() {
        assert!(PartitionPlan::new(vec![], 5).is_err());
        assert!(PartitionPlan::new(vec![0, 5], 5).is_err());
        assert!(PartitionPlan::new(vec![3, 3, 5], 5).is_err());
        assert!(PartitionPlan::new(vec![2, 4], 5).is_err());
        assert!(PartitionPlan::new(vec![5], 5).is_ok());
    }

    #[test]
    fn shards_tile_the_table() {
        let p = PartitionPlan::new(vec![2, 5, 9, 20], 20).unwrap();
        let shards = p.shards();
        assert_eq!(shards[0].0, 0);
        assert_eq!(shards.last().unwrap().1, 20);
        for w in shards.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_of_id_past_end_panics() {
        PartitionPlan::single(5).shard_of_id(5);
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn too_many_equal_shards_panics() {
        PartitionPlan::equal(3, 4);
    }
}
