//! Reusable scratch state for the zero-allocation sharded forward pass.

use er_partition::BucketizedLookup;
use er_tensor::Matrix;

/// Caller-owned scratch for [`crate::ShardedDlrm::forward_ws`]: every
/// intermediate of the sharded serving path — route words, bucketized
/// per-shard arrays, per-shard partial pools, pooled embeddings, the
/// interaction output, and the MLP ping-pong buffers — lives here and is
/// recycled across queries.
///
/// Buffers start tiny and grow to the workload's peak shapes on the first
/// few calls; from then on a steady-state forward performs **zero heap
/// allocations** (asserted by `tests/zero_alloc.rs`). One workspace
/// serves one caller at a time; create one per thread with
/// [`crate::ShardedDlrm::workspace`].
///
/// # Examples
///
/// ```
/// use elasticrec::ShardedDlrm;
/// use er_model::{configs, Dlrm, QueryGenerator};
/// use er_partition::PartitionPlan;
/// use er_sim::SimRng;
///
/// let cfg = configs::rm1().scaled_tables(200).with_num_tables(2);
/// let model = Dlrm::with_seed(&cfg, 1);
/// let counts: Vec<Vec<u64>> = vec![(0..200).map(|i| 200 - i).collect(); 2];
/// let plans = vec![PartitionPlan::new(vec![20, 200], 200).unwrap(); 2];
/// let sharded = ShardedDlrm::new(model.clone(), &counts, plans).unwrap();
///
/// let mut ws = sharded.workspace();
/// let gen = QueryGenerator::new(&cfg);
/// let mut rng = SimRng::seed_from(3);
/// for _ in 0..3 {
///     let q = gen.generate(&mut rng);
///     let out = sharded.forward_ws(&q, &mut ws);
///     assert!(model.forward(&q).max_abs_diff(out) < 1e-4);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ForwardWorkspace {
    /// Current table's lookup ids as route words.
    pub(crate) words: Vec<u32>,
    /// Current table's per-shard `(index, offset)` arrays.
    pub(crate) buckets: BucketizedLookup,
    /// One shard's pooled partial (`num_inputs x dim`).
    pub(crate) partial: Matrix,
    /// Per-table pooled embeddings, in table order.
    pub(crate) pooled: Vec<Matrix>,
    /// Dot-interaction output feeding the top MLP.
    pub(crate) interacted: Matrix,
    /// MLP ping-pong scratch; the forward result is returned out of one of
    /// these, so it stays valid until the next `forward_ws` call.
    pub(crate) mlp_a: Matrix,
    pub(crate) mlp_b: Matrix,
}

impl ForwardWorkspace {
    /// Creates a workspace for a model with `num_tables` embedding tables.
    /// All buffers start at placeholder size and grow on first use.
    pub(crate) fn for_tables(num_tables: usize) -> Self {
        Self {
            words: Vec::new(),
            buckets: BucketizedLookup {
                indices: Vec::new(),
                offsets: Vec::new(),
            },
            partial: Matrix::zeros(1, 1),
            pooled: vec![Matrix::zeros(1, 1); num_tables],
            interacted: Matrix::zeros(1, 1),
            mlp_a: Matrix::zeros(1, 1),
            mlp_b: Matrix::zeros(1, 1),
        }
    }
}
