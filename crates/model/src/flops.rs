//! FLOP and memory accounting — the numbers behind the paper's Figure 3.

use er_units::{Bytes, Flops};
use serde::{Deserialize, Serialize};

use crate::interaction::interaction_flops;
use crate::ModelConfig;

/// Compute and memory cost of one layer class for a single batched query.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LayerCosts {
    /// Forward-pass floating point operations.
    pub flops: Flops,
    /// Parameter storage.
    pub param_bytes: Bytes,
    /// Data moved from memory to compute during the pass.
    pub bytes_read: Bytes,
}

/// The dense-vs-sparse breakdown for one model configuration.
///
/// Reproduces the paper's Figure 3 claims from first principles: dense DNN
/// layers dominate FLOPs (98–99.9%) while sparse embedding layers dominate
/// memory (>99.5%).
///
/// # Examples
///
/// ```
/// use er_model::{configs, CostBreakdown};
///
/// let b = CostBreakdown::for_config(&configs::rm1());
/// assert!(b.dense_flops_fraction() > 0.75);
/// assert!(b.sparse_memory_fraction() > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Bottom MLP + interaction + top MLP.
    pub dense: LayerCosts,
    /// Embedding gather + pooling across all tables.
    pub sparse: LayerCosts,
}

fn mlp_costs(in_dim: usize, widths: &[usize], batch: usize) -> LayerCosts {
    // Accumulate in exact integer arithmetic, wrap into units at the end
    // (every realistic count is far below 2^53, so the f64 is exact too).
    let mut mac = 0u64;
    let mut params = 0u64;
    let mut prev = in_dim as u64;
    for &w in widths {
        let w = w as u64;
        mac += batch as u64 * (2 * prev * w + w);
        params += prev * w + w;
        prev = w;
    }
    LayerCosts {
        flops: Flops::of(mac as f64),
        param_bytes: Bytes::of_u64(params * 4),
        // Every parameter is read once per batched pass (100% utility, as
        // the paper notes in Section III-A).
        bytes_read: Bytes::of_u64(params * 4),
    }
}

/// FLOPs of the two dense phases for one batched query: `(bottom MLP,
/// interaction + top MLP)`.
///
/// The dense shard runs the bottom phase while embedding RPCs are in
/// flight and the top phase after the pooled vectors return, so the two
/// must be priced separately by the serving performance model.
pub fn dense_phase_flops(config: &ModelConfig) -> (Flops, Flops) {
    let batch = config.batch_size;
    let bottom = mlp_costs(config.num_dense_features, &config.bottom_mlp, batch).flops;
    let top = mlp_costs(config.interaction_dim(), &config.top_mlp, batch).flops;
    #[expect(
        clippy::expect_used,
        reason = "ModelConfig guarantees a non-empty bottom MLP"
    )]
    let d = *config.bottom_mlp.last().expect("bottom MLP non-empty");
    let inter = interaction_flops(batch, d, config.tables.len());
    (bottom, top + Flops::of(inter as f64))
}

impl CostBreakdown {
    /// Computes the breakdown for one query of `config.batch_size` inputs.
    pub fn for_config(config: &ModelConfig) -> Self {
        let batch = config.batch_size;
        let bottom = mlp_costs(config.num_dense_features, &config.bottom_mlp, batch);
        let top = mlp_costs(config.interaction_dim(), &config.top_mlp, batch);
        #[expect(
            clippy::expect_used,
            reason = "ModelConfig guarantees a non-empty bottom MLP"
        )]
        let d = *config.bottom_mlp.last().expect("bottom MLP non-empty");
        let inter = interaction_flops(batch, d, config.tables.len());

        let dense = LayerCosts {
            flops: bottom.flops + top.flops + Flops::of(inter as f64),
            param_bytes: bottom.param_bytes + top.param_bytes,
            bytes_read: bottom.bytes_read + top.bytes_read,
        };

        let mut sparse = LayerCosts::default();
        for t in &config.tables {
            let gathers = batch as u64 * t.pooling as u64;
            // Sum-pooling: (pooling - 1) vector adds per input.
            let adds = batch as u64 * (t.pooling as u64 - 1) * t.dim as u64;
            sparse.flops += Flops::of(adds as f64);
            sparse.param_bytes += Bytes::of_u64(t.bytes());
            sparse.bytes_read += Bytes::of_u64(gathers * t.vector_bytes());
        }
        Self { dense, sparse }
    }

    /// Fraction of total FLOPs spent in dense layers.
    pub fn dense_flops_fraction(&self) -> f64 {
        self.dense.flops / (self.dense.flops + self.sparse.flops)
    }

    /// Fraction of total parameter memory held by sparse layers.
    pub fn sparse_memory_fraction(&self) -> f64 {
        self.sparse.param_bytes / (self.dense.param_bytes + self.sparse.param_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    #[test]
    fn dense_dominates_flops_for_all_rms() {
        for cfg in configs::all_rms() {
            let b = CostBreakdown::for_config(&cfg);
            // The paper reports 98-99.9% (Figure 3); our accounting charges
            // sum-pooling adds to the sparse side, which lowers the dense
            // share somewhat, but dense still dominates for every RM.
            assert!(
                b.dense_flops_fraction() > 0.75,
                "{}: {}",
                cfg.name,
                b.dense_flops_fraction()
            );
        }
    }

    #[test]
    fn sparse_dominates_memory_for_all_rms() {
        for cfg in configs::all_rms() {
            let b = CostBreakdown::for_config(&cfg);
            assert!(
                b.sparse_memory_fraction() > 0.995,
                "{}: {}",
                cfg.name,
                b.sparse_memory_fraction()
            );
        }
    }

    #[test]
    fn rm1_fractions_match_figure_three_shape() {
        // Paper: RM1 sparse FLOPs ~2%, dense memory ~0.02%.
        let b = CostBreakdown::for_config(&configs::rm1());
        let sparse_flops = 1.0 - b.dense_flops_fraction();
        assert!(sparse_flops < 0.25, "sparse flops {sparse_flops}");
        let dense_mem = 1.0 - b.sparse_memory_fraction();
        assert!(dense_mem < 0.005, "dense memory {dense_mem}");
    }

    #[test]
    fn rm3_is_most_compute_heavy() {
        let f1 = CostBreakdown::for_config(&configs::rm1()).dense.flops;
        let f3 = CostBreakdown::for_config(&configs::rm3()).dense.flops;
        assert!(f3 / f1 > 2.0, "rm1={f1} rm3={f3}");
    }

    #[test]
    fn mlp_cost_hand_check() {
        // 4 -> [8]: batch 2: flops = 2*(2*4*8 + 8) = 144; params = 40.
        let c = mlp_costs(4, &[8], 2);
        assert_eq!(c.flops, Flops::of(144.0));
        assert_eq!(c.param_bytes, Bytes::of_u64(40 * 4));
        assert_eq!(c.bytes_read, Bytes::of_u64(40 * 4));
    }

    #[test]
    fn breakdown_scales_with_batch() {
        let cfg1 = {
            let mut c = configs::rm1();
            c.batch_size = 1;
            c
        };
        let cfg32 = configs::rm1();
        let b1 = CostBreakdown::for_config(&cfg1);
        let b32 = CostBreakdown::for_config(&cfg32);
        // Integer-exact below 2^53, so equality (not approximation) holds.
        assert_eq!(b32.dense.flops, b1.dense.flops * 32.0);
        assert_eq!(b32.sparse.bytes_read, b1.sparse.bytes_read * 32.0);
        // Parameter memory does not scale with batch.
        assert_eq!(b32.sparse.param_bytes, b1.sparse.param_bytes);
    }
}
