//! Deployment planning: from a model configuration to a set of shard
//! microservices.

use er_cluster::{PodSpec, ResourceRequest};
use er_distribution::{AccessModel, LocalityTarget};
use er_model::{CostBreakdown, ModelConfig};
use er_partition::{
    partition_bucketed, partition_bucketed_k, AnalyticGatherModel, CostModel, PartitionPlan,
    ProfiledQpsModel,
};
use er_rpc::NetworkProfile;
use er_units::{Bytes, BytesPerSec, Qps, Secs};
use serde::{Deserialize, Serialize};

use crate::{Calibration, ShardRole, ShardService, ShardSpec};

/// Which of the paper's two testbeds the plan targets (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// CPU-only inference servers (Xeon cluster).
    CpuOnly,
    /// Hybrid CPU-GPU servers (GKE + T4).
    CpuGpu,
}

impl Platform {
    /// Whether dense layers execute on a GPU.
    pub fn dense_on_gpu(&self) -> bool {
        matches!(self, Platform::CpuGpu)
    }

    /// The testbed's network fabric.
    pub fn network(&self) -> NetworkProfile {
        match self {
            Platform::CpuOnly => NetworkProfile::ten_gbps(),
            Platform::CpuGpu => NetworkProfile::thirty_two_gbps(),
        }
    }
}

/// The resource-allocation strategy being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Baseline: one monolithic container per inference server replica.
    ModelWise,
    /// Baseline augmented with a GPU-side embedding cache capturing the
    /// given fraction of gathers (Section VI-E; the paper models 90%).
    ModelWiseCached {
        /// Fraction of embedding gathers served from GPU HBM.
        gpu_hit_rate: f64,
    },
    /// ElasticRec: dense shard plus utility-partitioned embedding shards.
    Elastic,
}

/// A complete deployment plan: the shards to containerize and, for
/// ElasticRec, the per-table partitioning plans.
#[derive(Debug, Clone)]
pub struct ServingPlan {
    /// The model being served.
    pub model: ModelConfig,
    /// Target platform.
    pub platform: Platform,
    /// Strategy that produced the plan.
    pub strategy: Strategy,
    /// Partition plan per table (single-shard plans for the baselines).
    pub table_plans: Vec<PartitionPlan>,
    /// One spec per shard deployment.
    pub shards: Vec<ShardSpec>,
}

impl ServingPlan {
    /// The dense (or monolithic) orchestrating shard.
    #[expect(
        clippy::expect_used,
        reason = "plan builders always emit a frontend shard before embedding shards"
    )]
    pub fn frontend(&self) -> &ShardSpec {
        self.shards
            .iter()
            .find(|s| !s.role.is_embedding())
            .expect("every plan has a frontend shard")
    }

    /// The embedding shards, in `(table, shard)` order.
    pub fn embedding_shards(&self) -> impl Iterator<Item = &ShardSpec> {
        self.shards.iter().filter(|s| s.role.is_embedding())
    }

    /// Total shards (deployments) in the plan.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

/// Builds a [`ServingPlan`] for a model under a strategy.
///
/// For [`Strategy::Elastic`] this runs the full paper pipeline per table:
/// solve the access distribution for the configured locality, profile the
/// gather QPS curve ([`ProfiledQpsModel`], Figure 9), price shards with
/// Algorithm 1, and partition with the DP of Algorithm 2.
///
/// # Panics
///
/// Panics if a cached strategy is requested on [`Platform::CpuOnly`] (the
/// GPU cache needs a GPU) or the hit rate is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use elasticrec::{plan, Calibration, Platform, Strategy};
/// use er_model::configs;
///
/// let p = plan(&configs::rm1(), Platform::CpuOnly, Strategy::Elastic, &Calibration::cpu_only());
/// assert!(p.num_shards() > 10); // 10 tables, multiple shards each, plus dense
/// ```
pub fn plan(
    model: &ModelConfig,
    platform: Platform,
    strategy: Strategy,
    calib: &Calibration,
) -> ServingPlan {
    match strategy {
        Strategy::Elastic => plan_elastic(model, platform, calib),
        Strategy::ModelWise => plan_model_wise(model, platform, calib, None),
        Strategy::ModelWiseCached { gpu_hit_rate } => {
            assert!(
                platform.dense_on_gpu(),
                "a GPU embedding cache requires the CPU-GPU platform"
            );
            plan_model_wise(model, platform, calib, Some(gpu_hit_rate))
        }
    }
}

/// Per-query gathered bytes across all tables.
fn total_gather_bytes(model: &ModelConfig) -> Bytes {
    model
        .tables
        .iter()
        .map(|t| Bytes::of_u64(model.batch_size as u64 * t.pooling as u64 * t.vector_bytes()))
        .sum()
}

fn dense_service(model: &ModelConfig, platform: Platform, calib: &Calibration) -> ShardService {
    let (bottom_flops, top_flops) = er_model::dense_phase_flops(model);
    if platform.dense_on_gpu() {
        ShardService::Dense {
            bottom_secs: calib.gpu_dense_secs(bottom_flops),
            top_secs: calib.gpu_dense_secs(top_flops),
        }
    } else {
        ShardService::Dense {
            bottom_secs: calib.cpu_dense_secs(bottom_flops, calib.dense_cores),
            top_secs: calib.cpu_dense_secs(top_flops, calib.dense_cores),
        }
    }
}

fn plan_model_wise(
    model: &ModelConfig,
    platform: Platform,
    calib: &Calibration,
    cache_hit: Option<f64>,
) -> ServingPlan {
    let breakdown = CostBreakdown::for_config(model);
    let (bottom_flops, top_flops) = er_model::dense_phase_flops(model);
    let gather_bytes = total_gather_bytes(model);

    // The monolith's dense stage is bounded by per-worker intra-op
    // parallelism, not by the whole node it owns; its sparse stage is
    // memory-bandwidth bound and does use the node.
    let dense_secs = if platform.dense_on_gpu() {
        calib.gpu_dense_secs(bottom_flops) + calib.gpu_dense_secs(top_flops)
    } else {
        calib.cpu_dense_secs(bottom_flops, calib.mw_worker_cores)
            + calib.cpu_dense_secs(top_flops, calib.mw_worker_cores)
    };
    let sparse_secs = match cache_hit {
        Some(hit) => calib.cached_sparse_secs(gather_bytes, calib.mw_cores, hit),
        None => calib.cpu_sparse_secs(gather_bytes, calib.mw_cores),
    };

    let model_bytes = breakdown.dense.param_bytes + breakdown.sparse.param_bytes;
    let mem = (model_bytes + Bytes::of_u64(calib.min_mem_alloc_bytes)).whole();
    let resources = if platform.dense_on_gpu() {
        ResourceRequest::with_gpu(calib.mw_cores as u64 * 1000, mem, 1)
    } else {
        ResourceRequest::cpu(calib.mw_cores as u64 * 1000, mem)
    };

    let shard = ShardSpec {
        name: "model-wise".into(),
        role: ShardRole::Monolithic,
        pod: PodSpec::new("model-wise", resources, calib.startup_secs(model_bytes)),
        service: ShardService::Monolithic {
            secs: dense_secs + sparse_secs,
        },
        expected_gathers: 0.0,
    };

    ServingPlan {
        model: model.clone(),
        platform,
        strategy: match cache_hit {
            Some(gpu_hit_rate) => Strategy::ModelWiseCached { gpu_hit_rate },
            None => Strategy::ModelWise,
        },
        table_plans: model
            .tables
            .iter()
            .map(|t| PartitionPlan::single(t.rows))
            .collect(),
        shards: vec![shard],
    }
}

/// Builds an ElasticRec plan with every table forced to exactly
/// `shards_per_table` shards — the manual sensitivity knob of the paper's
/// Figure 12(d). Shard *boundaries* are still cost-optimal for that count.
///
/// # Panics
///
/// Panics if `shards_per_table` is zero or exceeds the table size.
pub fn plan_elastic_fixed_shards(
    model: &ModelConfig,
    platform: Platform,
    calib: &Calibration,
    shards_per_table: usize,
) -> ServingPlan {
    plan_elastic_inner(model, platform, calib, Some(shards_per_table))
}

fn plan_elastic(model: &ModelConfig, platform: Platform, calib: &Calibration) -> ServingPlan {
    plan_elastic_inner(model, platform, calib, None)
}

/// Builds an ElasticRec-style plan from **explicit** per-table partition
/// plans, bypassing the DP — the tool for ablating the partitioning policy
/// (equal splits, greedy hot/cold thresholds, ...). Shard sizing, QPS
/// modeling, and container specs follow the normal pipeline.
///
/// # Panics
///
/// Panics if the number of plans differs from the model's tables or a plan
/// does not cover its table.
pub fn plan_elastic_with_plans(
    model: &ModelConfig,
    platform: Platform,
    calib: &Calibration,
    plans: Vec<PartitionPlan>,
) -> ServingPlan {
    assert_eq!(
        plans.len(),
        model.tables.len(),
        "need one partition plan per table"
    );
    for (t, (plan, table)) in plans.iter().zip(&model.tables).enumerate() {
        assert_eq!(
            plan.table_len(),
            table.rows,
            "plan {t} covers {} rows but the table has {}",
            plan.table_len(),
            table.rows
        );
    }
    let mut shards = vec![dense_shard_spec(model, platform, calib)];
    for (t_idx, (table, plan)) in model.tables.iter().zip(&plans).enumerate() {
        let access = LocalityTarget::new(model.locality_p).solve(table.rows);
        push_table_shards(&mut shards, model, calib, t_idx, &access, plan);
    }
    ServingPlan {
        model: model.clone(),
        platform,
        strategy: Strategy::Elastic,
        table_plans: plans,
        shards,
    }
}

/// The dense shard's container + performance spec for a platform.
fn dense_shard_spec(model: &ModelConfig, platform: Platform, calib: &Calibration) -> ShardSpec {
    let breakdown = CostBreakdown::for_config(model);
    let dense_mem =
        (breakdown.dense.param_bytes + Bytes::of_u64(calib.min_mem_alloc_bytes)).whole();
    let dense_resources = if platform.dense_on_gpu() {
        ResourceRequest::with_gpu(calib.dense_cores as u64 * 1000, dense_mem, 1)
    } else {
        ResourceRequest::cpu(calib.dense_cores as u64 * 1000, dense_mem)
    };
    ShardSpec {
        name: "dense".into(),
        role: ShardRole::Dense,
        pod: PodSpec::new(
            "dense",
            dense_resources,
            calib.startup_secs(breakdown.dense.param_bytes),
        ),
        service: dense_service(model, platform, calib),
        expected_gathers: 0.0,
    }
}

/// Embedding lookups table `t_idx` serves per query (`n_t`).
fn lookups_per_query(model: &ModelConfig, t_idx: usize) -> f64 {
    (model.batch_size as u64 * model.tables[t_idx].pooling as u64) as f64
}

/// Appends table `t_idx`'s embedding shards to `shards`: one per `(k, j)`
/// row range of `plan`, its expected gathers taken from the table's
/// already-solved access distribution.
fn push_table_shards(
    shards: &mut Vec<ShardSpec>,
    model: &ModelConfig,
    calib: &Calibration,
    t_idx: usize,
    access: &impl AccessModel,
    plan: &PartitionPlan,
) {
    let n_t = lookups_per_query(model, t_idx);
    let vector_bytes = model.tables[t_idx].vector_bytes();
    for (s_idx, (k, j)) in plan.shards().into_iter().enumerate() {
        shards.push(embedding_shard_spec(
            calib,
            t_idx,
            s_idx,
            access.coverage(k, j) * n_t,
            Bytes::of_u64((j - k) * vector_bytes),
            Bytes::of_u64(vector_bytes),
        ));
    }
}

/// One embedding shard's container + performance spec.
fn embedding_shard_spec(
    calib: &Calibration,
    table: usize,
    shard: usize,
    expected_gathers: f64,
    shard_bytes: Bytes,
    vector_bytes: Bytes,
) -> ShardSpec {
    let role = ShardRole::Embedding { table, shard };
    let name = role.to_string();
    ShardSpec {
        name: name.clone(),
        role,
        pod: PodSpec::new(
            name,
            ResourceRequest::cpu(
                calib.sparse_cores as u64 * 1000,
                (shard_bytes + Bytes::of_u64(calib.min_mem_alloc_bytes)).whole(),
            ),
            calib.startup_secs(shard_bytes),
        ),
        service: ShardService::Sparse {
            secs: calib.cpu_sparse_secs(vector_bytes * expected_gathers, calib.sparse_cores),
        },
        expected_gathers,
    }
}

fn plan_elastic_inner(
    model: &ModelConfig,
    platform: Platform,
    calib: &Calibration,
    fixed_shards: Option<usize>,
) -> ServingPlan {
    let mut shards = vec![dense_shard_spec(model, platform, calib)];

    // Embedding shards: run the paper pipeline per table.
    let mut table_plans = Vec::with_capacity(model.tables.len());
    for (t_idx, table) in model.tables.iter().enumerate() {
        let access = LocalityTarget::new(model.locality_p).solve(table.rows);
        let n_t = lookups_per_query(model, t_idx);
        let vector_bytes = table.vector_bytes();

        // One-time profiling of gather QPS on a sparse-shard container,
        // then the regression the cost model consumes (Figure 9).
        let hardware = AnalyticGatherModel::new(
            Secs::of(calib.sparse_base_secs),
            BytesPerSec::of(calib.sparse_cores as f64 * calib.gather_bytes_per_sec_per_core),
            Bytes::of_u64(vector_bytes),
        );
        let sweep = ProfiledQpsModel::standard_sweep((n_t * 2.0).max(16.0));
        let profiled = ProfiledQpsModel::profile(&hardware, &sweep);

        let cost = CostModel::new(
            &access,
            &profiled,
            n_t,
            Bytes::of_u64(vector_bytes),
            Bytes::of_u64(calib.min_mem_alloc_bytes),
        )
        .with_target_traffic(Qps::of(calib.dp_target_traffic));
        let plan = match fixed_shards {
            Some(k) => partition_bucketed_k(table.rows, k, calib.dp_candidates, |k, j| {
                cost.cost(k, j).raw()
            }),
            None => partition_bucketed(table.rows, calib.s_max, calib.dp_candidates, |k, j| {
                cost.cost(k, j).raw()
            }),
        };

        push_table_shards(&mut shards, model, calib, t_idx, &access, &plan);
        table_plans.push(plan);
    }

    ServingPlan {
        model: model.clone(),
        platform,
        strategy: Strategy::Elastic,
        table_plans,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::configs;

    fn calib() -> Calibration {
        Calibration::cpu_only()
    }

    #[test]
    fn model_wise_is_one_monolithic_shard() {
        let p = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::ModelWise,
            &calib(),
        );
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.shards[0].role, ShardRole::Monolithic);
        assert_eq!(p.table_plans.len(), 10);
        assert!(p.table_plans.iter().all(|t| t.num_shards() == 1));
        // The container holds the entire model: > 25 GB for RM1.
        assert!(p.shards[0].pod.resources().memory_bytes > 23 << 30);
    }

    #[test]
    fn elastic_partitions_every_table() {
        let p = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib(),
        );
        assert_eq!(p.table_plans.len(), 10);
        for t in &p.table_plans {
            assert!(t.num_shards() >= 2, "tables should be split");
        }
        let emb_count = p.embedding_shards().count();
        let plan_count: usize = p.table_plans.iter().map(|t| t.num_shards()).sum();
        assert_eq!(emb_count, plan_count);
        assert_eq!(p.frontend().role, ShardRole::Dense);
    }

    #[test]
    fn elastic_cut_points_are_pinned() {
        // Every table of these models has the same rows and locality, so
        // each (model, platform) pair has one cut vector.
        let cpu = [148_444, 2_445_689, 9_927_055, 20_000_000];
        let gpu = [299_070, 4_927_321, 20_000_000];
        let cases: [(&str, ModelConfig, Platform, &[u64]); 6] = [
            ("rm1", configs::rm1(), Platform::CpuOnly, &cpu),
            ("rm1", configs::rm1(), Platform::CpuGpu, &gpu),
            ("rm2", configs::rm2(), Platform::CpuOnly, &cpu),
            ("rm2", configs::rm2(), Platform::CpuGpu, &gpu),
            ("rm3", configs::rm3(), Platform::CpuOnly, &gpu),
            ("rm3", configs::rm3(), Platform::CpuGpu, &gpu),
        ];
        for (name, model, platform, want) in cases {
            let c = if platform.dense_on_gpu() {
                Calibration::cpu_gpu()
            } else {
                Calibration::cpu_only()
            };
            let p = plan(&model, platform, Strategy::Elastic, &c);
            assert_eq!(p.table_plans.len(), model.tables.len(), "{name}");
            for t in &p.table_plans {
                assert_eq!(t.cuts(), want, "{name} {platform:?}");
            }
        }
    }

    #[test]
    fn identical_tables_get_identical_plans() {
        let p = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib(),
        );
        let first = p.table_plans[0].cuts().to_vec();
        for t in &p.table_plans {
            assert_eq!(t.cuts(), first.as_slice());
        }
    }

    #[test]
    fn hot_shards_have_more_gathers_and_less_memory() {
        let p = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib(),
        );
        let t0: Vec<&ShardSpec> = p
            .embedding_shards()
            .filter(|s| matches!(s.role, ShardRole::Embedding { table: 0, .. }))
            .collect();
        assert!(t0.len() >= 2);
        // Shard 0 is the hot head: most gathers, smallest footprint.
        assert!(t0[0].expected_gathers > t0.last().unwrap().expected_gathers);
        assert!(
            t0[0].pod.resources().memory_bytes < t0.last().unwrap().pod.resources().memory_bytes
        );
        // Hot shards are slower per query (more bytes moved) -> lower QPS max.
        assert!(t0[0].qps_max() < t0.last().unwrap().qps_max());
    }

    #[test]
    fn elastic_single_copy_is_not_much_larger_than_model() {
        let p = plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::Elastic,
            &calib(),
        );
        let model_bytes = configs::rm1().embedding_bytes();
        let single: u64 = p
            .shards
            .iter()
            .map(|s| s.pod.resources().memory_bytes)
            .sum();
        // One copy of all shards ~ model size + per-container floors.
        assert!(single > model_bytes);
        assert!(single < 2 * model_bytes, "single={single}");
    }

    #[test]
    fn gpu_platform_puts_dense_on_gpu() {
        let c = Calibration::cpu_gpu();
        let p = plan(&configs::rm3(), Platform::CpuGpu, Strategy::Elastic, &c);
        let dense = p.frontend();
        assert_eq!(dense.pod.resources().gpus, 1);
        // RM3's heavy MLPs run much faster on GPU than the CPU-only plan.
        let cpu_plan = plan(&configs::rm3(), Platform::CpuOnly, Strategy::Elastic, &c);
        assert!(dense.service.busy_secs() < cpu_plan.frontend().service.busy_secs() / 2.0);
        // Embedding shards stay CPU-only (Section IV-A).
        for s in p.embedding_shards() {
            assert_eq!(s.pod.resources().gpus, 0);
        }
    }

    #[test]
    fn cached_model_wise_is_faster_than_plain() {
        let c = Calibration::cpu_gpu();
        let mw = plan(&configs::rm1(), Platform::CpuGpu, Strategy::ModelWise, &c);
        let cached = plan(
            &configs::rm1(),
            Platform::CpuGpu,
            Strategy::ModelWiseCached { gpu_hit_rate: 0.9 },
            &c,
        );
        assert!(cached.shards[0].qps_max() > mw.shards[0].qps_max());
        // Memory per replica is unchanged: the CPU copy still exists.
        assert_eq!(
            cached.shards[0].pod.resources().memory_bytes,
            mw.shards[0].pod.resources().memory_bytes
        );
    }

    #[test]
    fn rm3_dense_is_slowest_on_cpu() {
        let c = calib();
        let d1 = plan(&configs::rm1(), Platform::CpuOnly, Strategy::Elastic, &c)
            .frontend()
            .service
            .busy_secs();
        let d3 = plan(&configs::rm3(), Platform::CpuOnly, Strategy::Elastic, &c)
            .frontend()
            .service
            .busy_secs();
        assert!(d3 > 3.0 * d1, "d1={d1} d3={d3}");
    }

    #[test]
    fn fixed_shards_forces_the_count() {
        for k in [1usize, 2, 8] {
            let p = plan_elastic_fixed_shards(&configs::rm1(), Platform::CpuOnly, &calib(), k);
            assert!(p.table_plans.iter().all(|t| t.num_shards() == k), "k={k}");
            assert_eq!(p.embedding_shards().count(), 10 * k);
        }
    }

    #[test]
    fn explicit_plans_are_respected() {
        let model = configs::rm1();
        let rows = model.tables[0].rows;
        let plans = vec![PartitionPlan::equal(rows, 3); 10];
        let p = plan_elastic_with_plans(&model, Platform::CpuOnly, &calib(), plans.clone());
        assert_eq!(p.table_plans, plans);
        assert_eq!(p.embedding_shards().count(), 30);
        // Coverage-derived gathers still sum to n_t per table.
        let t0: f64 = p
            .embedding_shards()
            .filter(|s| matches!(s.role, ShardRole::Embedding { table: 0, .. }))
            .map(|s| s.expected_gathers)
            .sum();
        assert!((t0 - 4096.0).abs() < 1.0, "t0={t0}");
    }

    #[test]
    #[should_panic(expected = "one partition plan per table")]
    fn explicit_plans_must_match_table_count() {
        let model = configs::rm1();
        let rows = model.tables[0].rows;
        plan_elastic_with_plans(
            &model,
            Platform::CpuOnly,
            &calib(),
            vec![PartitionPlan::equal(rows, 2); 3],
        );
    }

    #[test]
    #[should_panic(expected = "GPU")]
    fn cached_on_cpu_only_panics() {
        plan(
            &configs::rm1(),
            Platform::CpuOnly,
            Strategy::ModelWiseCached { gpu_hit_rate: 0.9 },
            &calib(),
        );
    }
}
