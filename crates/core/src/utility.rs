//! Memory-utility measurement (paper Figures 14 and 17).
//!
//! The paper defines memory utility as the percentage of embeddings inside
//! a shard that are actually accessed while servicing the first 1,000
//! queries. Model-wise allocation keeps whole tables resident and touches
//! ~6% of them; ElasticRec's hot shards approach 100% utility while cold
//! shards stay cheap to host.

use er_distribution::LocalityTarget;
use er_partition::PartitionPlan;
use er_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Utility of one shard after a measurement run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardUtility {
    /// Shard index within the table's plan (0 = hottest).
    pub shard: usize,
    /// Embeddings in the shard.
    pub size: u64,
    /// Distinct embeddings touched during the run.
    pub touched: u64,
}

impl ShardUtility {
    /// Touched fraction in `[0, 1]`.
    pub fn utility(&self) -> f64 {
        self.touched as f64 / self.size as f64
    }
}

/// Compact bitset for marking touched embedding IDs.
struct TouchSet {
    words: Vec<u64>,
}

impl TouchSet {
    fn new(len: u64) -> Self {
        Self {
            words: vec![0; len.div_ceil(64) as usize],
        }
    }

    /// Marks `id`, returning whether it was newly touched.
    fn mark(&mut self, id: u64) -> bool {
        let (w, b) = ((id / 64) as usize, id % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }
}

/// Measures per-shard memory utility of one table under a partition plan.
///
/// Draws `queries × gathers_per_query` accesses from a Zipf distribution
/// with locality `locality_p` (IDs in hotness order, matching the sorted
/// table) and counts distinct IDs per shard.
///
/// # Panics
///
/// Panics if `queries` or `gathers_per_query` is zero.
///
/// # Examples
///
/// ```
/// use elasticrec::utility::measure_table_utility;
/// use er_partition::PartitionPlan;
///
/// let plan = PartitionPlan::new(vec![10_000, 100_000], 100_000).unwrap();
/// let report = measure_table_utility(&plan, 0.90, 100, 128, 1);
/// // The hot shard is far better utilized than the cold one.
/// assert!(report[0].utility() > 5.0 * report[1].utility());
/// ```
pub fn measure_table_utility(
    plan: &PartitionPlan,
    locality_p: f64,
    queries: usize,
    gathers_per_query: usize,
    seed: u64,
) -> Vec<ShardUtility> {
    assert!(queries > 0, "need at least one query");
    assert!(gathers_per_query > 0, "need at least one gather per query");
    let n = plan.table_len();
    // Tabulate the CDF once: utility runs draw millions of samples, and
    // the analytic bisection would dominate the measurement.
    let dist = LocalityTarget::new(locality_p).solve(n).tabulate();
    let mut rng = SimRng::seed_from(seed);
    let mut touched = TouchSet::new(n);
    let mut per_shard_touched = vec![0u64; plan.num_shards()];

    for _ in 0..queries {
        for _ in 0..gathers_per_query {
            let id = dist.quantile(rng.uniform()) - 1; // 0-based sorted ID
            if touched.mark(id) {
                per_shard_touched[plan.shard_of_id(id)] += 1;
            }
        }
    }

    (0..plan.num_shards())
        .map(|s| ShardUtility {
            shard: s,
            size: plan.shard_size(s),
            touched: per_shard_touched[s],
        })
        .collect()
}

/// Aggregate utility across shards: total touched over total size — the
/// number reported for model-wise allocation (a single all-covering
/// shard).
pub fn aggregate_utility(report: &[ShardUtility]) -> f64 {
    let touched: u64 = report.iter().map(|s| s.touched).sum();
    let size: u64 = report.iter().map(|s| s.size).sum();
    touched as f64 / size as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_shards_have_higher_utility() {
        let plan = PartitionPlan::new(vec![5_000, 20_000, 100_000], 100_000).unwrap();
        let report = measure_table_utility(&plan, 0.90, 200, 128, 3);
        assert_eq!(report.len(), 3);
        assert!(report[0].utility() > report[1].utility());
        assert!(report[1].utility() > report[2].utility());
    }

    #[test]
    fn model_wise_utility_is_low() {
        // A single shard over a skewed table: most entries never touched.
        let plan = PartitionPlan::single(1_000_000);
        let report = measure_table_utility(&plan, 0.90, 1000, 128, 4);
        let u = aggregate_utility(&report);
        assert!(u < 0.25, "utility={u}");
        assert!(u > 0.0);
    }

    #[test]
    fn partitioning_does_not_change_aggregate_utility() {
        // Same accesses, different shard boundaries: the total touched
        // count is a property of the draws, not the plan, so one
        // measurement under any plan also yields the model-wise utility.
        let touched = |cuts: Vec<u64>| -> u64 {
            let plan = PartitionPlan::new(cuts, 50_000).unwrap();
            measure_table_utility(&plan, 0.90, 300, 64, 9)
                .iter()
                .map(|s| s.touched)
                .sum()
        };
        let single = touched(vec![50_000]);
        assert!(single > 0);
        assert_eq!(touched(vec![5_000, 50_000]), single);
        assert_eq!(touched(vec![500, 5_000, 20_000, 50_000]), single);
    }

    #[test]
    fn touched_never_exceeds_size_or_accesses() {
        let plan = PartitionPlan::new(vec![100, 10_000], 10_000).unwrap();
        let queries = 50;
        let gathers = 32;
        let report = measure_table_utility(&plan, 0.90, queries, gathers, 5);
        let total: u64 = report.iter().map(|s| s.touched).sum();
        assert!(total <= (queries * gathers) as u64);
        for s in &report {
            assert!(s.touched <= s.size);
            assert!(s.utility() <= 1.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let plan = PartitionPlan::single(10_000);
        let a = measure_table_utility(&plan, 0.90, 100, 32, 7);
        let b = measure_table_utility(&plan, 0.90, 100, 32, 7);
        assert_eq!(a[0].touched, b[0].touched);
    }

    #[test]
    fn bitset_marks_once() {
        let mut t = TouchSet::new(130);
        assert!(t.mark(0));
        assert!(!t.mark(0));
        assert!(t.mark(129));
        assert!(!t.mark(129));
        assert!(t.mark(64));
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn zero_queries_panics() {
        measure_table_utility(&PartitionPlan::single(100), 0.9, 0, 1, 0);
    }
}
