//! Shard specifications: the microservices a serving plan deploys.

use er_cluster::PodSpec;
use serde::{Deserialize, Serialize};

/// What a shard microservice is responsible for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardRole {
    /// Bottom MLP, feature interaction, top MLP — and query orchestration.
    Dense,
    /// One partition of one embedding table.
    Embedding {
        /// Table index within the model.
        table: usize,
        /// Shard index within the table's partition plan (0 = hottest).
        shard: usize,
    },
    /// The entire model in one container (the model-wise baseline).
    Monolithic,
}

impl ShardRole {
    /// Whether this shard participates in the sparse stage.
    pub fn is_embedding(&self) -> bool {
        matches!(self, ShardRole::Embedding { .. })
    }
}

impl std::fmt::Display for ShardRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardRole::Dense => write!(f, "dense"),
            ShardRole::Embedding { table, shard } => write!(f, "emb-t{table}-s{shard}"),
            ShardRole::Monolithic => write!(f, "model-wise"),
        }
    }
}

/// Per-query service demand of one shard replica, as busy-time phases on
/// the replica.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShardService {
    /// Dense shard: a bottom phase (overlapping the sparse fan-out) and a
    /// top phase (after pooled embeddings return).
    Dense {
        /// Seconds of bottom-MLP work per query.
        bottom_secs: f64,
        /// Seconds of interaction + top-MLP work per query.
        top_secs: f64,
    },
    /// Embedding shard: one phase covering gather + pool for the expected
    /// per-query load on this shard.
    Sparse {
        /// Seconds per query (fixed overhead included).
        secs: f64,
    },
    /// Monolithic server: one sequential phase covering everything.
    Monolithic {
        /// Seconds per query.
        secs: f64,
    },
}

impl ShardService {
    /// Total replica busy time per query, which bounds per-replica
    /// throughput.
    pub fn busy_secs(&self) -> f64 {
        match *self {
            ShardService::Dense {
                bottom_secs,
                top_secs,
            } => bottom_secs + top_secs,
            ShardService::Sparse { secs } | ShardService::Monolithic { secs } => secs,
        }
    }

    /// Maximum sustainable QPS of one replica — the stress-test number
    /// ElasticRec uses as the sparse HPA threshold (Section IV-D).
    pub fn qps_max(&self) -> f64 {
        1.0 / self.busy_secs()
    }
}

/// A deployable shard: role, container template, and performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Deployment name (unique within a plan).
    pub name: String,
    /// The shard's responsibility.
    pub role: ShardRole,
    /// Container template (resources, startup time).
    pub pod: PodSpec,
    /// Per-query service demand.
    pub service: ShardService,
    /// Expected vectors gathered from this shard per query (embedding
    /// shards only; 0 otherwise). Drives message sizing.
    pub expected_gathers: f64,
}

impl ShardSpec {
    /// The stress-tested per-replica throughput.
    pub fn qps_max(&self) -> f64 {
        self.service.qps_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_cluster::ResourceRequest;

    #[test]
    fn busy_time_sums_dense_phases() {
        let s = ShardService::Dense {
            bottom_secs: 0.010,
            top_secs: 0.005,
        };
        assert!((s.busy_secs() - 0.015).abs() < 1e-12);
        assert!((s.qps_max() - 1.0 / 0.015).abs() < 1e-9);
    }

    #[test]
    fn sparse_and_monolithic_are_single_phase() {
        let sparse = ShardService::Sparse { secs: 0.02 };
        assert_eq!(sparse.busy_secs(), 0.02);
        assert_eq!(ShardService::Monolithic { secs: 0.05 }.qps_max(), 20.0);
    }

    #[test]
    fn role_display_names() {
        assert_eq!(ShardRole::Dense.to_string(), "dense");
        assert_eq!(
            ShardRole::Embedding { table: 2, shard: 0 }.to_string(),
            "emb-t2-s0"
        );
        assert_eq!(ShardRole::Monolithic.to_string(), "model-wise");
        assert!(ShardRole::Embedding { table: 0, shard: 1 }.is_embedding());
        assert!(!ShardRole::Dense.is_embedding());
    }

    #[test]
    fn spec_exposes_qps_max() {
        let spec = ShardSpec {
            name: "emb-t0-s0".into(),
            role: ShardRole::Embedding { table: 0, shard: 0 },
            pod: PodSpec::new("emb-t0-s0", ResourceRequest::cpu(2000, 1 << 30), 3.0),
            service: ShardService::Sparse { secs: 0.01 },
            expected_gathers: 3686.0,
        };
        assert!((spec.qps_max() - 100.0).abs() < 1e-9);
    }
}
