//! The end-to-end DLRM model.

use er_tensor::{Activation, Matrix, Mlp};

use crate::{dot_interaction, EmbeddingTable, ModelConfig, QueryBatch};

/// A fully materialized DLRM: bottom MLP, embedding tables, dot interaction,
/// and top MLP ending in a sigmoid CTR head (paper Figure 1).
///
/// Used for functional correctness — in particular to verify that
/// ElasticRec's sharded serving path (partition + bucketize + distributed
/// gather + merge) produces bit-identical results to this monolithic
/// reference.
///
/// # Examples
///
/// ```
/// use er_model::{configs, Dlrm, QueryGenerator};
/// use er_sim::SimRng;
///
/// let cfg = configs::rm1().scaled_tables(1000);
/// let model = Dlrm::with_seed(&cfg, 7);
/// let query = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(1));
/// let probs = model.forward(&query);
/// assert_eq!(probs.shape(), (32, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Dlrm {
    config: ModelConfig,
    bottom: Mlp,
    top: Mlp,
    tables: Vec<EmbeddingTable>,
}

impl Dlrm {
    /// Builds the model with seeded random parameters.
    ///
    /// Tables are materialized, so shrink `config` with
    /// [`ModelConfig::scaled_tables`] before building at test scale.
    ///
    /// # Panics
    ///
    /// Panics if a table is too large to materialize (`rows > u32::MAX`).
    pub fn with_seed(config: &ModelConfig, seed: u64) -> Self {
        let bottom = Mlp::with_seed(
            config.num_dense_features,
            &config.bottom_mlp,
            Activation::Relu,
            seed,
        );
        let top = Mlp::with_seed(
            config.interaction_dim(),
            &config.top_mlp,
            Activation::Relu,
            seed.wrapping_add(1000),
        )
        .with_output_activation(Activation::Sigmoid);
        let tables = config
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                assert!(
                    t.rows <= u32::MAX as u64,
                    "table {i} too large to materialize ({} rows)",
                    t.rows
                );
                EmbeddingTable::with_seed(t.rows as u32, t.dim, seed.wrapping_add(2000 + i as u64))
            })
            .collect();
        Self {
            config: config.clone(),
            bottom,
            top,
            tables,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The materialized embedding tables, in table order.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// The bottom MLP.
    pub fn bottom_mlp(&self) -> &Mlp {
        &self.bottom
    }

    /// The top MLP (sigmoid head).
    pub fn top_mlp(&self) -> &Mlp {
        &self.top
    }

    /// Runs the dense *bottom* stage only: what the paper's dense DNN shard
    /// computes while embedding RPCs are in flight.
    pub fn forward_bottom(&self, dense: &Matrix) -> Matrix {
        self.bottom.forward(dense)
    }

    /// Runs the sparse stage only: gather + pool for each table.
    pub fn forward_sparse(&self, query: &QueryBatch) -> Vec<Matrix> {
        assert_eq!(
            query.lookups.len(),
            self.tables.len(),
            "query addresses {} tables but the model has {}",
            query.lookups.len(),
            self.tables.len()
        );
        self.tables
            .iter()
            .zip(&query.lookups)
            .map(|(t, l)| {
                let mut pooled = Matrix::zeros(1, 1);
                t.gather_pool_into(l.indices(), l.offsets(), &mut pooled);
                pooled
            })
            .collect()
    }

    /// Runs the dense *top* stage: interaction + top MLP, producing the
    /// event probability per input.
    pub fn forward_top(&self, bottom_out: &Matrix, pooled: &[Matrix]) -> Matrix {
        let interacted = dot_interaction(bottom_out, pooled);
        self.top.forward(&interacted)
    }

    /// Full monolithic forward pass.
    pub fn forward(&self, query: &QueryBatch) -> Matrix {
        let bottom_out = self.forward_bottom(&query.dense);
        let pooled = self.forward_sparse(query);
        self.forward_top(&bottom_out, &pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configs, QueryGenerator};
    use er_sim::SimRng;

    fn small_cfg() -> crate::ModelConfig {
        configs::rm1().scaled_tables(500).with_num_tables(3)
    }

    #[test]
    fn forward_produces_probabilities() {
        let cfg = small_cfg();
        let model = Dlrm::with_seed(&cfg, 3);
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(2));
        let out = model.forward(&q);
        assert_eq!(out.shape(), (32, 1));
        for r in 0..32 {
            let p = out.get(r, 0);
            assert!((0.0..=1.0).contains(&p), "row {r}: {p}");
        }
    }

    #[test]
    fn staged_forward_equals_monolithic() {
        let cfg = small_cfg();
        let model = Dlrm::with_seed(&cfg, 9);
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(4));
        let staged = {
            let b = model.forward_bottom(&q.dense);
            let s = model.forward_sparse(&q);
            model.forward_top(&b, &s)
        };
        assert_eq!(staged, model.forward(&q));
    }

    #[test]
    fn same_seed_same_model() {
        let cfg = small_cfg();
        let a = Dlrm::with_seed(&cfg, 11);
        let b = Dlrm::with_seed(&cfg, 11);
        let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(5));
        assert_eq!(a.forward(&q), b.forward(&q));
    }

    #[test]
    fn different_queries_give_different_outputs() {
        let cfg = small_cfg();
        let model = Dlrm::with_seed(&cfg, 13);
        let gen = QueryGenerator::new(&cfg);
        let mut rng = SimRng::seed_from(6);
        let q1 = gen.generate(&mut rng);
        let q2 = gen.generate(&mut rng);
        assert_ne!(model.forward(&q1), model.forward(&q2));
    }

    #[test]
    fn accessors_expose_structure() {
        let cfg = small_cfg();
        let model = Dlrm::with_seed(&cfg, 1);
        assert_eq!(model.tables().len(), 3);
        assert_eq!(model.bottom_mlp().out_dim(), 32);
        assert_eq!(model.top_mlp().out_dim(), 1);
        assert_eq!(model.config().name, "RM1");
    }

    #[test]
    #[should_panic(expected = "tables")]
    fn wrong_table_count_panics() {
        let cfg = small_cfg();
        let model = Dlrm::with_seed(&cfg, 1);
        let other = configs::rm1().scaled_tables(500).with_num_tables(2);
        let q = QueryGenerator::new(&other).generate(&mut SimRng::seed_from(1));
        model.forward_sparse(&q);
    }
}
