//! Closed-loop validation of the paper's estimation pipeline: serve real
//! (synthetic) traffic, build hotness information from *observed* access
//! counts, partition from it, and check that Algorithm 1's CDF-based load
//! predictions match what the shards actually receive.

use elasticrec::ShardedDlrm;
use er_distribution::sorting::HotnessPermutation;
use er_distribution::{AccessModel, EmpiricalCdf};
use er_model::{configs, AccessCounter, Dlrm, QueryGenerator};
use er_partition::{partition_bucketed, AnalyticGatherModel, CostModel};
use er_sim::SimRng;
use er_units::{Bytes, BytesPerSec, Qps, Secs};

const ROWS: u64 = 2_000;
const TRAIN_QUERIES: usize = 60;
const TEST_QUERIES: usize = 60;

#[test]
fn observed_counts_drive_an_accurate_partition() {
    let cfg = configs::rm1().scaled_tables(ROWS).with_num_tables(1);
    let gen = QueryGenerator::new(&cfg);

    // Phase 1: observe production traffic and collect access history.
    let mut rng = SimRng::seed_from(101);
    let mut counter = AccessCounter::new(&cfg);
    for _ in 0..TRAIN_QUERIES {
        counter.observe(&gen.generate(&mut rng));
    }
    let counts = counter.into_counts().remove(0);

    // Phase 2: sort by observed hotness and partition from the empirical
    // CDF (no access to the true generator distribution).
    let perm = HotnessPermutation::from_counts(&counts);
    let cdf = EmpiricalCdf::from_counts(&counts);
    let n_t = (cfg.batch_size as u64 * cfg.tables[0].pooling as u64) as f64;
    let qps = AnalyticGatherModel::new(
        Secs::of(3.0e-3),
        BytesPerSec::of(20.0e6),
        Bytes::of_u64(128),
    );
    let cost = CostModel::new(&cdf, &qps, n_t, Bytes::of_u64(128), Bytes::of_u64(1024))
        .with_target_traffic(Qps::of(10_000.0));
    let plan = partition_bucketed(ROWS, 4, 120, |k, j| cost.cost(k, j).raw());
    assert!(
        plan.num_shards() >= 2,
        "skewed traffic must split the table"
    );

    // Phase 3: serve *fresh* traffic and measure where gathers actually
    // land versus Algorithm 1's predictions.
    let mut observed = vec![0u64; plan.num_shards()];
    let mut total = 0u64;
    for _ in 0..TEST_QUERIES {
        let q = gen.generate(&mut rng);
        for &orig in q.lookups[0].indices() {
            let sorted = perm.to_sorted(orig) as u64;
            observed[plan.shard_of_id(sorted)] += 1;
            total += 1;
        }
    }

    for (s, (k, j)) in plan.shards().into_iter().enumerate() {
        let predicted = cdf.coverage(k, j);
        let realized = observed[s] as f64 / total as f64;
        assert!(
            (predicted - realized).abs() < 0.05,
            "shard {s}: predicted {predicted:.3} vs realized {realized:.3}"
        );
    }

    // The hot head must actually be hot: shard 0 serves the majority of
    // gathers from a small slice of the table.
    let head_share = observed[0] as f64 / total as f64;
    let head_size = plan.shard_size(0) as f64 / ROWS as f64;
    assert!(
        head_share > 0.5 && head_size < 0.3,
        "head serves {head_share:.2} of traffic from {head_size:.2} of rows"
    );
}

#[test]
fn observed_partition_serves_identically_through_a_reused_workspace() {
    // Close the loop all the way to serving: observe traffic, partition
    // from the observed counts, decompose the model onto the resulting
    // shards, and serve fresh queries through one long-lived workspace —
    // bit-identical to a fresh-workspace forward and within f32
    // reassociation of the monolith.
    let rows = 600u64;
    let cfg = configs::rm1().scaled_tables(rows).with_num_tables(1);
    let gen = QueryGenerator::new(&cfg);
    let mut rng = SimRng::seed_from(55);
    let mut counter = AccessCounter::new(&cfg);
    for _ in 0..TRAIN_QUERIES {
        counter.observe(&gen.generate(&mut rng));
    }
    let counts = counter.into_counts().remove(0);

    let cdf = EmpiricalCdf::from_counts(&counts);
    let n_t = (cfg.batch_size as u64 * cfg.tables[0].pooling as u64) as f64;
    let qps = AnalyticGatherModel::new(
        Secs::of(3.0e-3),
        BytesPerSec::of(20.0e6),
        Bytes::of_u64(128),
    );
    let cost = CostModel::new(&cdf, &qps, n_t, Bytes::of_u64(128), Bytes::of_u64(1024))
        .with_target_traffic(Qps::of(10_000.0));
    let plan = partition_bucketed(rows, 4, 60, |k, j| cost.cost(k, j).raw());
    assert!(plan.num_shards() >= 2);

    let model = Dlrm::with_seed(&cfg, 19);
    let sharded =
        ShardedDlrm::new(model.clone(), std::slice::from_ref(&counts), vec![plan]).expect("valid");
    let mut ws = sharded.workspace();
    for _ in 0..5 {
        let q = gen.generate(&mut rng);
        let fresh = sharded.forward(&q);
        assert_eq!(*sharded.forward_ws(&q, &mut ws), fresh);
        assert!(model.forward(&q).max_abs_diff(&fresh) < 1e-4);
    }
}

#[test]
fn observed_and_analytic_partitions_agree() {
    // The empirical pipeline should land near the plan computed from the
    // true analytic distribution (they see the same skew).
    let cfg = configs::rm1().scaled_tables(ROWS).with_num_tables(1);
    let gen = QueryGenerator::new(&cfg);
    let mut rng = SimRng::seed_from(77);
    let mut counter = AccessCounter::new(&cfg);
    for _ in 0..TRAIN_QUERIES {
        counter.observe(&gen.generate(&mut rng));
    }
    let counts = counter.into_counts().remove(0);
    let empirical = EmpiricalCdf::from_counts(&counts);
    let analytic = gen.distribution(0);

    let n_t = (cfg.batch_size as u64 * cfg.tables[0].pooling as u64) as f64;
    let qps = AnalyticGatherModel::new(
        Secs::of(3.0e-3),
        BytesPerSec::of(20.0e6),
        Bytes::of_u64(128),
    );
    let plan_of = |cdf: &dyn Fn(u64, u64) -> f64| partition_bucketed(ROWS, 4, 120, cdf);
    let emp_cost = CostModel::new(
        &empirical,
        &qps,
        n_t,
        Bytes::of_u64(128),
        Bytes::of_u64(1024),
    )
    .with_target_traffic(Qps::of(10_000.0));
    let ana_cost = CostModel::new(analytic, &qps, n_t, Bytes::of_u64(128), Bytes::of_u64(1024))
        .with_target_traffic(Qps::of(10_000.0));
    let emp_plan = plan_of(&|k, j| emp_cost.cost(k, j).raw());
    let ana_plan = plan_of(&|k, j| ana_cost.cost(k, j).raw());

    assert_eq!(emp_plan.num_shards(), ana_plan.num_shards());
    // Hot-head sizes agree within a factor of three (finite-sample noise
    // on a 2k-row table).
    let e = emp_plan.shard_size(0) as f64;
    let a = ana_plan.shard_size(0) as f64;
    assert!(
        e / a < 3.0 && a / e < 3.0,
        "head sizes diverge: empirical {e} analytic {a}"
    );
}
