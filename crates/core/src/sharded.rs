//! The functional sharded serving path.
//!
//! [`ShardedDlrm`] executes a DLRM exactly the way ElasticRec's
//! microservices do — hotness-sort each table (Figure 8), bucketize each
//! query's lookups onto the partitioned shards (Figure 11), gather and
//! pool *within* each shard, and sum the partial pools — and is verified
//! to produce the same results as the monolithic model. This is the
//! correctness argument for the whole decomposition: partitioning is an
//! execution detail, not a model change.
//!
//! The hotness sort and the plan are folded at construction into one
//! [`RouteTable`] per table: a `u32` per original row holding its shard
//! and its row within that shard. Serving loads one word per lookup id
//! and bucketization only decodes it, so no query pays for a permutation
//! lookup or a search over the plan's cut points.
//!
//! There is one implementation of that walk, [`ShardedDlrm::forward_ws`],
//! which recycles every intermediate through a caller-owned
//! [`ForwardWorkspace`]; [`ShardedDlrm::forward`] runs it on a fresh one.
//! Partial pools are merged in ascending shard order, so the output does
//! not depend on what the workspace held before.

use er_distribution::sorting::HotnessPermutation;
use er_model::{dot_interaction_into, Dlrm, EmbeddingTable, QueryBatch};
use er_partition::{bucketize_routed_into, PartitionPlan, RouteTable};
use er_tensor::Matrix;
use er_units::{Bytes, ElemKind};

use crate::ForwardWorkspace;

/// A DLRM decomposed into embedding shards, functionally equivalent to the
/// monolithic model it was built from.
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
/// let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(3));
/// let mono = model.forward(&q);
/// let dist = sharded.forward(&q);
/// assert!(mono.max_abs_diff(&dist) < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedDlrm {
    dlrm: Dlrm,
    /// `routes[t]`: table `t`'s route word per original row, the
    /// hotness remap and shard search of bucketization in one load.
    routes: Vec<RouteTable>,
    plans: Vec<PartitionPlan>,
    /// `shard_tables[t][s]`: the physical storage of table `t`'s shard `s`
    /// (sorted rows, sliced at the plan's cut points).
    shard_tables: Vec<Vec<EmbeddingTable>>,
}

/// Error building a [`ShardedDlrm`] from mismatched inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardingError(String);

impl std::fmt::Display for ShardingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ShardingError {}

impl ShardedDlrm {
    /// Decomposes `dlrm` using per-table access counts (for the hotness
    /// sort) and partition plans.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of count vectors or plans does not
    /// match the model's tables, sizes disagree, or a shard has more rows
    /// than its route words can address.
    pub fn new(
        dlrm: Dlrm,
        access_counts: &[Vec<u64>],
        plans: Vec<PartitionPlan>,
    ) -> Result<Self, ShardingError> {
        let tables = dlrm.tables();
        if access_counts.len() != tables.len() || plans.len() != tables.len() {
            return Err(ShardingError(format!(
                "model has {} tables but got {} count vectors and {} plans",
                tables.len(),
                access_counts.len(),
                plans.len()
            )));
        }
        let mut routes = Vec::with_capacity(tables.len());
        let mut shard_tables = Vec::with_capacity(tables.len());
        for (t, table) in tables.iter().enumerate() {
            if access_counts[t].len() != table.rows() as usize {
                return Err(ShardingError(format!(
                    "table {t} has {} rows but {} access counts",
                    table.rows(),
                    access_counts[t].len()
                )));
            }
            if plans[t].table_len() != table.rows() as u64 {
                return Err(ShardingError(format!(
                    "table {t} has {} rows but the plan covers {}",
                    table.rows(),
                    plans[t].table_len()
                )));
            }
            let perm = HotnessPermutation::from_counts(&access_counts[t]);
            let route = RouteTable::new(&plans[t], &perm)
                .map_err(|e| ShardingError(format!("table {t}: {e}")))?;
            // Each shard's rows are the sorted table's rows [k, j), read
            // straight from the source table: no sorted copy is built.
            let shards = plans[t]
                .shards()
                .into_iter()
                .map(|(k, j)| {
                    table.select_rows((k as u32..j as u32).map(|pos| perm.to_original(pos)))
                })
                .collect();
            routes.push(route);
            shard_tables.push(shards);
        }
        Ok(Self {
            dlrm,
            routes,
            plans,
            shard_tables,
        })
    }

    /// Requantizes every shard's embedding storage to `kind`, leaving the
    /// dense MLPs and the monolithic reference model in f32 — ElasticRec's
    /// placement view of quantization: precision is a per-shard storage
    /// decision, not a model change. Outputs track the f32 sharding within
    /// the kernels' analytic error bounds.
    ///
    /// # Panics
    ///
    /// Panics if the shards are no longer in f32 storage (requantizing an
    /// already-quantized model would compound rounding error silently).
    #[must_use]
    pub fn with_elem_kind(mut self, kind: ElemKind) -> Self {
        for shards in &mut self.shard_tables {
            for table in shards.iter_mut() {
                *table = table.quantized(kind);
            }
        }
        self
    }

    /// Total bytes of embedding storage across all shards, reflecting each
    /// shard's element kind.
    pub fn shard_param_bytes(&self) -> Bytes {
        self.shard_tables
            .iter()
            .flatten()
            .fold(Bytes::ZERO, |acc, t| acc + t.bytes())
    }

    /// The underlying monolithic model.
    pub fn dlrm(&self) -> &Dlrm {
        &self.dlrm
    }

    /// The partition plans, per table.
    pub fn plans(&self) -> &[PartitionPlan] {
        &self.plans
    }

    /// Full forward pass through the sharded serving path:
    /// [`ShardedDlrm::forward_ws`] on a fresh workspace, with the result
    /// copied out. Serving loops should keep one workspace and call
    /// `forward_ws` directly, which stops allocating once warm.
    ///
    /// # Panics
    ///
    /// Panics if the query addresses a different number of tables than the
    /// model has.
    pub fn forward(&self, query: &QueryBatch) -> Matrix {
        self.forward_ws(query, &mut self.workspace()).clone()
    }

    /// Creates a [`ForwardWorkspace`] sized for this model, for use with
    /// [`ShardedDlrm::forward_ws`].
    pub fn workspace(&self) -> ForwardWorkspace {
        ForwardWorkspace::for_tables(self.plans.len())
    }

    /// Forward pass through caller-owned scratch: per table, load each
    /// lookup id's route word, decode the words into per-shard local rows,
    /// gather and pool each shard into a zeroed partial and sum the
    /// partials in ascending shard order; then the bottom MLP, the dot
    /// interaction and the top MLP. Every intermediate is recycled from
    /// `ws`, so once it is warm a call performs zero heap allocations, and
    /// the output is bit-identical whatever `ws` was used for before.
    ///
    /// The returned reference points into `ws` and is valid until the next
    /// use of the workspace.
    ///
    /// # Panics
    ///
    /// Panics if the query addresses a different number of tables than the
    /// model has, or if a lookup id is not a row of its table. An id out of
    /// range panics at its route-word load, before any shard is touched.
    pub fn forward_ws<'w>(&self, query: &QueryBatch, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        self.check_query(query);
        let tables = query.lookups.len();
        // Grow-only guard so a workspace built for a smaller model still
        // works; `resize` would re-allocate its template matrix every call.
        while ws.pooled.len() < tables {
            // lint::allow(hot_alloc): grow-only, never runs at steady state
            ws.pooled.push(Matrix::zeros(1, 1));
        }
        for (t, lookup) in query.lookups.iter().enumerate() {
            let route = &self.routes[t];
            ws.words.clear();
            ws.words
                .extend(lookup.indices().iter().map(|&i| route.word(i)));
            bucketize_routed_into(&ws.words, lookup.offsets(), route, &mut ws.buckets);
            let dim = self.dlrm.tables()[t].dim() as usize;
            ws.pooled[t].reshape_zeroed(lookup.num_inputs(), dim);
            for (s, table) in self.shard_tables[t].iter().enumerate() {
                table.gather_pool_into(
                    &ws.buckets.indices[s],
                    &ws.buckets.offsets[s],
                    &mut ws.partial,
                );
                ws.pooled[t]
                    .add_assign(&ws.partial)
                    // lint::allow(no_panic): pooled and partial are both (num_inputs x dim) by construction
                    .expect("shapes match by construction");
            }
        }
        let bottom =
            self.dlrm
                .bottom_mlp()
                .forward_into(&query.dense, &mut ws.mlp_a, &mut ws.mlp_b);
        dot_interaction_into(bottom, &ws.pooled[..tables], &mut ws.interacted);
        self.dlrm
            .top_mlp()
            .forward_into(&ws.interacted, &mut ws.mlp_a, &mut ws.mlp_b)
    }

    fn check_query(&self, query: &QueryBatch) {
        assert_eq!(
            query.lookups.len(),
            self.plans.len(),
            "query addresses {} tables, model has {}",
            query.lookups.len(),
            self.plans.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{configs, QueryGenerator, TableLookup};
    use er_sim::SimRng;

    fn setup(
        rows: u64,
        tables: usize,
        cuts: Vec<u64>,
    ) -> (er_model::ModelConfig, Dlrm, ShardedDlrm) {
        let cfg = configs::rm1().scaled_tables(rows).with_num_tables(tables);
        let model = Dlrm::with_seed(&cfg, 11);
        // Zipf-ish synthetic counts: entry i is hotter for smaller i after
        // scrambling, to exercise a non-trivial permutation.
        let counts: Vec<Vec<u64>> = (0..tables)
            .map(|t| {
                (0..rows)
                    .map(|i| ((i * 7919 + t as u64 * 31) % rows) + 1)
                    .collect()
            })
            .collect();
        let plans = vec![PartitionPlan::new(cuts.clone(), rows).unwrap(); tables];
        let sharded = ShardedDlrm::new(model.clone(), &counts, plans).unwrap();
        (cfg, model, sharded)
    }

    #[test]
    fn sharded_forward_matches_monolithic() {
        let (cfg, model, sharded) = setup(300, 3, vec![30, 120, 300]);
        let gen = QueryGenerator::new(&cfg);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..5 {
            let q = gen.generate(&mut rng);
            let mono = model.forward(&q);
            let dist = sharded.forward(&q);
            assert!(
                mono.max_abs_diff(&dist) < 1e-4,
                "diff={}",
                mono.max_abs_diff(&dist)
            );
        }
    }

    #[test]
    fn single_shard_plan_matches_exactly_with_identity_counts() {
        // Uniform counts -> stable sort -> identity permutation; a single
        // shard then reproduces the monolithic pooling order exactly.
        let cfg = configs::rm1().scaled_tables(100).with_num_tables(2);
        let model = Dlrm::with_seed(&cfg, 3);
        let counts = vec![vec![1u64; 100]; 2];
        let plans = vec![PartitionPlan::single(100); 2];
        let sharded = ShardedDlrm::new(model.clone(), &counts, plans).unwrap();
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(8));
        assert_eq!(model.forward(&q), sharded.forward(&q));
    }

    #[test]
    fn many_small_shards_still_match() {
        let (cfg, model, sharded) = setup(64, 1, vec![4, 8, 16, 32, 64]);
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(2));
        assert!(model.forward(&q).max_abs_diff(&sharded.forward(&q)) < 1e-4);
    }

    #[test]
    fn workspace_survives_model_switch() {
        // One long-lived workspace, reused across random queries and
        // alternately on two differently-shaped models (more tables,
        // different shard counts), must reproduce a fresh workspace
        // bit-for-bit and stay within f32 reassociation of the monolith.
        let (cfg_a, model_a, sharded_a) = setup(100, 2, vec![10, 50, 100]);
        let (cfg_b, model_b, sharded_b) = setup(200, 4, vec![40, 200]);
        let (gen_a, gen_b) = (QueryGenerator::new(&cfg_a), QueryGenerator::new(&cfg_b));
        let mut rng = SimRng::seed_from(41);
        let mut ws = sharded_a.workspace();
        for i in 0..6 {
            let (gen, model, sharded) = if i % 2 == 0 {
                (&gen_a, &model_a, &sharded_a)
            } else {
                (&gen_b, &model_b, &sharded_b)
            };
            let q = gen.generate(&mut rng);
            let fresh = sharded.forward(&q);
            assert_eq!(*sharded.forward_ws(&q, &mut ws), fresh, "query {i}");
            let diff = model.forward(&q).max_abs_diff(&fresh);
            assert!(diff < 1e-4, "query {i}: diff={diff}");
        }
    }

    #[test]
    fn quantized_shards_track_the_f32_path_within_tolerance() {
        let (cfg, _, sharded) = setup(300, 3, vec![30, 120, 300]);
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(51));
        let reference = sharded.forward(&q);
        let f32_bytes = sharded.shard_param_bytes();
        for kind in [ElemKind::F16, ElemKind::I8] {
            let quant = sharded.clone().with_elem_kind(kind);
            // Quantized storage is strictly smaller.
            assert!(
                quant.shard_param_bytes().raw() < f32_bytes.raw(),
                "{kind}: {:?} !< {f32_bytes:?}",
                quant.shard_param_bytes()
            );
            let out = quant.forward(&q);
            let diff = reference.max_abs_diff(&out);
            assert!(diff < 0.05, "{kind}: diff={diff}");
            // A reused workspace agrees bit-for-bit on quantized storage.
            let mut ws = sharded.workspace();
            sharded.forward_ws(&q, &mut ws);
            assert_eq!(*quant.forward_ws(&q, &mut ws), out, "{kind} ws");
        }
    }

    #[test]
    fn f32_requantization_is_an_exact_no_op() {
        let (cfg, _, sharded) = setup(100, 2, vec![10, 50, 100]);
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(9));
        let same = sharded.clone().with_elem_kind(ElemKind::F32);
        assert_eq!(sharded.forward(&q), same.forward(&q));
        assert_eq!(
            sharded.shard_param_bytes().raw(),
            same.shard_param_bytes().raw()
        );
    }

    #[test]
    #[should_panic(expected = "row 300 out of range for a 300-row route table")]
    fn out_of_range_id_panics_at_the_route_load() {
        let (cfg, _, sharded) = setup(300, 1, vec![30, 300]);
        let mut q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(4));
        q.lookups[0] = TableLookup::new(vec![0, 300], vec![0, 1]).unwrap();
        sharded.forward(&q);
    }

    #[test]
    fn validation_catches_mismatches() {
        let cfg = configs::rm1().scaled_tables(100).with_num_tables(2);
        let model = Dlrm::with_seed(&cfg, 3);
        // Wrong number of count vectors.
        assert!(ShardedDlrm::new(
            model.clone(),
            &[vec![1; 100]],
            vec![PartitionPlan::single(100); 2]
        )
        .is_err());
        // Wrong count length.
        assert!(ShardedDlrm::new(
            model.clone(),
            &[vec![1; 99], vec![1; 100]],
            vec![PartitionPlan::single(100); 2]
        )
        .is_err());
        // Wrong plan size.
        assert!(ShardedDlrm::new(
            model,
            &[vec![1; 100], vec![1; 100]],
            vec![PartitionPlan::single(99); 2]
        )
        .is_err());
    }

    #[test]
    fn accessors_expose_structure() {
        let (_, _, sharded) = setup(100, 2, vec![10, 100]);
        assert_eq!(sharded.plans().len(), 2);
        assert_eq!(sharded.plans()[0].num_shards(), 2);
        assert_eq!(sharded.dlrm().tables().len(), 2);
    }
}
