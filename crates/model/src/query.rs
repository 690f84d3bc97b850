//! Inference queries and their sparse lookup structure.

use er_sim::SimRng;
use er_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::ModelConfig;
use er_distribution::{LocalityTarget, ZipfDistribution};

/// The `(index array, offset array)` pair addressing one embedding table —
/// exactly the layout in the paper's Figure 11.
///
/// `offsets[i]` is the position in `indices` where input `i`'s IDs begin;
/// input `i` uses `indices[offsets[i]..offsets[i+1]]` (the last input runs
/// to the end).
///
/// # Examples
///
/// ```
/// use er_model::TableLookup;
///
/// // Figure 11(a): input 0 gathers IDs {0, 5}, input 1 gathers {2, 6, 9}.
/// let l = TableLookup::new(vec![0, 5, 2, 6, 9], vec![0, 2]).unwrap();
/// assert_eq!(l.indices_for(0), &[0, 5]);
/// assert_eq!(l.indices_for(1), &[2, 6, 9]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableLookup {
    indices: Vec<u32>,
    offsets: Vec<u32>,
}

/// Error building a [`TableLookup`] from inconsistent arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupError(String);

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LookupError {}

impl TableLookup {
    /// Builds a lookup from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError`] if `offsets` is empty, does not start at 0,
    /// is not non-decreasing, or points past the index array.
    pub fn new(indices: Vec<u32>, offsets: Vec<u32>) -> Result<Self, LookupError> {
        if offsets.is_empty() {
            return Err(LookupError("offset array must be non-empty".into()));
        }
        if offsets[0] != 0 {
            return Err(LookupError(format!(
                "offset array must start at 0, got {}",
                offsets[0]
            )));
        }
        for w in offsets.windows(2) {
            if w[1] < w[0] {
                return Err(LookupError(format!(
                    "offset array must be non-decreasing ({} after {})",
                    w[1], w[0]
                )));
            }
        }
        let last = offsets[offsets.len() - 1];
        if last as usize > indices.len() {
            return Err(LookupError(format!(
                "last offset {last} exceeds index array length {}",
                indices.len()
            )));
        }
        Ok(Self { indices, offsets })
    }

    /// The flat index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The offset array.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of inputs (batch rows) addressed by this lookup.
    pub fn num_inputs(&self) -> usize {
        self.offsets.len()
    }

    /// Total number of gathers across all inputs.
    pub fn num_gathers(&self) -> usize {
        self.indices.len()
    }

    /// The IDs gathered by input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn indices_for(&self, i: usize) -> &[u32] {
        let start = self.offsets[i] as usize;
        let end = self
            .offsets
            .get(i + 1)
            .map_or(self.indices.len(), |&o| o as usize);
        &self.indices[start..end]
    }
}

/// One batched inference query: a dense input matrix plus one
/// [`TableLookup`] per embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    /// Dense features: `batch x num_dense_features`.
    pub dense: Matrix,
    /// One lookup per embedding table, in table order.
    pub lookups: Vec<TableLookup>,
}

impl QueryBatch {
    /// Batch size (number of items ranked).
    pub fn batch_size(&self) -> usize {
        self.dense.rows()
    }

    /// Total embedding gathers across all tables.
    pub fn total_gathers(&self) -> usize {
        self.lookups.iter().map(TableLookup::num_gathers).sum()
    }
}

/// Generates random queries that follow a model's configured access
/// distribution, reproducing the paper's query model (Section V-C): batch
/// size 32 and per-table Zipf-distributed index IDs with locality `P`.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    num_dense: usize,
    batch: usize,
    tables: Vec<TableSampler>,
}

#[derive(Debug, Clone)]
struct TableSampler {
    rows: u64,
    pooling: u32,
    dist: ZipfDistribution,
}

impl QueryGenerator {
    /// Builds a generator for `config`. IDs are drawn *in hotness order*
    /// (rank 1 = hottest); combined with a hotness-sorted table this means
    /// low IDs are hot, matching the paper's sorted-table serving path.
    pub fn new(config: &ModelConfig) -> Self {
        let tables = config
            .tables
            .iter()
            .map(|t| TableSampler {
                rows: t.rows,
                pooling: t.pooling,
                dist: LocalityTarget::new(config.locality_p).solve(t.rows),
            })
            .collect();
        Self {
            num_dense: config.num_dense_features,
            batch: config.batch_size,
            tables,
        }
    }

    /// Draws one batched query.
    pub fn generate(&self, rng: &mut SimRng) -> QueryBatch {
        let mut dense = Matrix::zeros(self.batch, self.num_dense);
        for r in 0..self.batch {
            for c in 0..self.num_dense {
                dense.set(r, c, rng.uniform() as f32);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "generator pushes offsets in ascending order ending within indices"
        )]
        let lookups = self
            .tables
            .iter()
            .map(|t| {
                let mut indices = Vec::with_capacity(self.batch * t.pooling as usize);
                let mut offsets = Vec::with_capacity(self.batch);
                for _ in 0..self.batch {
                    offsets.push(indices.len() as u32);
                    for _ in 0..t.pooling {
                        // quantile returns a 1-based rank; IDs are 0-based.
                        let rank = t.dist.quantile(rng.uniform());
                        indices.push((rank - 1).min(t.rows - 1) as u32);
                    }
                }
                TableLookup::new(indices, offsets).expect("generator builds valid offsets")
            })
            .collect();
        QueryBatch { dense, lookups }
    }

    /// The access distribution used for table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn distribution(&self, t: usize) -> &ZipfDistribution {
        &self.tables[t].dist
    }
}

/// Per-table access-count history — the production mechanism the paper
/// relies on for hotness information ("keeping a history of each
/// embedding's access count within a given time period", Section IV-B).
///
/// Feed it served queries; its counts drive the hotness sort and the
/// empirical CDF behind the partitioner.
///
/// # Examples
///
/// ```
/// use er_model::{configs, AccessCounter, QueryGenerator};
/// use er_sim::SimRng;
///
/// let cfg = configs::rm1().scaled_tables(1000).with_num_tables(2);
/// let mut counter = AccessCounter::new(&cfg);
/// let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(1));
/// counter.observe(&q);
/// let total: u64 = counter.counts(0).iter().sum();
/// assert_eq!(total, q.lookups[0].num_gathers() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct AccessCounter {
    counts: Vec<Vec<u64>>,
}

impl AccessCounter {
    /// Creates zeroed counters matching a model's tables.
    ///
    /// # Panics
    ///
    /// Panics if any table is too large to materialize counters for.
    pub fn new(config: &ModelConfig) -> Self {
        Self {
            counts: config
                .tables
                .iter()
                .map(|t| {
                    assert!(
                        t.rows <= (1 << 32),
                        "table too large for in-memory counters"
                    );
                    vec![0u64; t.rows as usize]
                })
                .collect(),
        }
    }

    /// Records every gather in a query.
    ///
    /// # Panics
    ///
    /// Panics if the query addresses a different number of tables or an
    /// index is out of range.
    pub fn observe(&mut self, query: &QueryBatch) {
        assert_eq!(
            query.lookups.len(),
            self.counts.len(),
            "query addresses {} tables, counter has {}",
            query.lookups.len(),
            self.counts.len()
        );
        for (table, lookup) in self.counts.iter_mut().zip(&query.lookups) {
            for &id in lookup.indices() {
                table[id as usize] += 1;
            }
        }
    }

    /// The per-entry counts of one table.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn counts(&self, table: usize) -> &[u64] {
        &self.counts[table]
    }

    /// Consumes the counter, returning all tables' counts.
    pub fn into_counts(self) -> Vec<Vec<u64>> {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    #[test]
    fn figure_eleven_layout() {
        let l = TableLookup::new(vec![0, 5, 2, 6, 9], vec![0, 2]).unwrap();
        assert_eq!(l.num_inputs(), 2);
        assert_eq!(l.num_gathers(), 5);
        assert_eq!(l.indices_for(0), &[0, 5]);
        assert_eq!(l.indices_for(1), &[2, 6, 9]);
    }

    #[test]
    fn lookup_validation() {
        assert!(TableLookup::new(vec![1], vec![]).is_err());
        assert!(TableLookup::new(vec![1], vec![1]).is_err()); // must start at 0
        assert!(TableLookup::new(vec![1, 2], vec![0, 2, 1]).is_err()); // decreasing
        assert!(TableLookup::new(vec![1], vec![0, 5]).is_err()); // past the end
        assert!(TableLookup::new(vec![], vec![0]).is_ok()); // empty bag
    }

    #[test]
    fn generator_respects_config_shape() {
        let cfg = configs::rm1().scaled_tables(10_000);
        let gen = QueryGenerator::new(&cfg);
        let mut rng = SimRng::seed_from(1);
        let q = gen.generate(&mut rng);
        assert_eq!(q.batch_size(), 32);
        assert_eq!(q.lookups.len(), 10);
        for l in &q.lookups {
            assert_eq!(l.num_inputs(), 32);
            assert_eq!(l.num_gathers(), 32 * 128);
            assert!(l.indices().iter().all(|&i| (i as u64) < 10_000));
        }
        assert_eq!(q.total_gathers(), 10 * 32 * 128);
    }

    #[test]
    fn generated_ids_are_skewed_toward_low_ranks() {
        let cfg = configs::rm1().scaled_tables(100_000).with_num_tables(1);
        let gen = QueryGenerator::new(&cfg);
        let mut rng = SimRng::seed_from(7);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q = gen.generate(&mut rng);
            for &id in q.lookups[0].indices() {
                total += 1;
                if (id as u64) < 10_000 {
                    hot += 1;
                }
            }
        }
        // P=0.90: the hottest 10% of IDs should draw ~90% of accesses.
        let frac = hot as f64 / total as f64;
        assert!((frac - 0.90).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn access_counter_tracks_gathers() {
        let cfg = configs::rm1().scaled_tables(500).with_num_tables(2);
        let gen = QueryGenerator::new(&cfg);
        let mut counter = AccessCounter::new(&cfg);
        let mut rng = SimRng::seed_from(3);
        let mut expect = 0u64;
        for _ in 0..5 {
            let q = gen.generate(&mut rng);
            expect += q.lookups[0].num_gathers() as u64;
            counter.observe(&q);
        }
        assert_eq!(counter.counts(0).iter().sum::<u64>(), expect);
        assert_eq!(counter.counts(0).len(), 500);
        // Skewed generation -> hot entries accumulate more counts.
        let head: u64 = counter.counts(0)[..50].iter().sum();
        assert!(head as f64 > 0.5 * expect as f64);
        let all = counter.into_counts();
        assert_eq!(all.len(), 2);
    }

    #[test]
    #[should_panic(expected = "tables")]
    fn access_counter_rejects_wrong_shape() {
        let cfg = configs::rm1().scaled_tables(100).with_num_tables(2);
        let other = configs::rm1().scaled_tables(100).with_num_tables(3);
        let q = QueryGenerator::new(&other).generate(&mut SimRng::seed_from(1));
        AccessCounter::new(&cfg).observe(&q);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let cfg = configs::rm1().scaled_tables(1000);
        let gen = QueryGenerator::new(&cfg);
        let q1 = gen.generate(&mut SimRng::seed_from(5));
        let q2 = gen.generate(&mut SimRng::seed_from(5));
        assert_eq!(q1, q2);
    }
}
