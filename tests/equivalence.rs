//! Functional-equivalence integration tests: ElasticRec's distributed
//! serving path (hotness sort → bucketize → per-shard gather → merge) must
//! produce the same inference results as the monolithic DLRM it was
//! decomposed from, with the shard boundaries chosen by the *real*
//! partitioning pipeline.

use elasticrec::ShardedDlrm;
use er_distribution::{EmpiricalCdf, LocalityTarget};
use er_model::{configs, Dlrm, QueryGenerator};
use er_partition::{partition_exact, AnalyticGatherModel, CostModel, PartitionPlan};
use er_sim::SimRng;
use er_units::{Bytes, BytesPerSec, Qps, Secs};

/// Tolerance for f32 sum-reassociation across shard partial pools.
const TOL: f32 = 1e-4;

/// Builds synthetic per-entry access counts consistent with a locality
/// target, hot entries scattered randomly through the table.
fn synthetic_counts(rows: u64, locality: f64, seed: u64) -> Vec<u64> {
    let dist = LocalityTarget::new(locality).solve(rows);
    let mut rng = SimRng::seed_from(seed);
    let mut counts = vec![0u64; rows as usize];
    for _ in 0..20_000 {
        let rank = dist.quantile(rng.uniform());
        // Scatter ranks over positions with a fixed pseudo-random bijection
        // so hot entries are not already contiguous.
        let pos = (rank * 2_654_435_761 % rows) as usize;
        counts[pos] += 1;
    }
    counts
}

#[test]
fn dp_partitioned_sharded_model_matches_monolith() {
    let rows = 400u64;
    let cfg = configs::rm1().scaled_tables(rows).with_num_tables(3);
    let model = Dlrm::with_seed(&cfg, 77);

    // Per-table counts -> empirical CDFs -> Algorithm 1 + 2 partitioning.
    let counts: Vec<Vec<u64>> = (0..3)
        .map(|t| synthetic_counts(rows, 0.9, 100 + t as u64))
        .collect();
    let qps = AnalyticGatherModel::new(
        Secs::of(3.0e-3),
        BytesPerSec::of(20.0e6),
        Bytes::of_u64(128),
    );
    let plans: Vec<PartitionPlan> = counts
        .iter()
        .map(|c| {
            let access = EmpiricalCdf::from_counts(c);
            // Tiny test table: scale the per-container floor down and the
            // traffic up so the DP has a real replication tradeoff.
            let cost = CostModel::new(
                &access,
                &qps,
                4096.0,
                Bytes::of_u64(128),
                Bytes::of_u64(1024),
            )
            .with_target_traffic(Qps::of(10_000.0));
            partition_exact(rows, 4, |k, j| cost.cost(k, j).raw())
        })
        .collect();
    assert!(plans.iter().any(|p| p.num_shards() >= 2));

    let sharded = ShardedDlrm::new(model.clone(), &counts, plans).expect("valid decomposition");
    let gen = QueryGenerator::new(&cfg);
    let mut rng = SimRng::seed_from(5);
    for i in 0..10 {
        let q = gen.generate(&mut rng);
        let mono = model.forward(&q);
        let dist = sharded.forward(&q);
        let diff = mono.max_abs_diff(&dist);
        assert!(diff < TOL, "query {i}: diff {diff}");
        // Outputs are probabilities.
        for r in 0..mono.rows() {
            assert!((0.0..=1.0).contains(&dist.get(r, 0)));
        }
    }
}

#[test]
fn every_shard_count_gives_the_same_answers() {
    let rows = 128u64;
    let cfg = configs::rm1().scaled_tables(rows).with_num_tables(2);
    let model = Dlrm::with_seed(&cfg, 13);
    let counts = vec![synthetic_counts(rows, 0.9, 1); 2];
    let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(9));
    let reference = model.forward(&q);

    for shards in [1usize, 2, 4, 8, 16] {
        let plans = vec![PartitionPlan::equal(rows, shards); 2];
        let sharded = ShardedDlrm::new(model.clone(), &counts, plans).expect("valid");
        let out = sharded.forward(&q);
        assert!(
            reference.max_abs_diff(&out) < TOL,
            "{shards} shards diverged"
        );
    }
}

#[test]
fn reused_workspace_matches_fresh_forward_on_every_model() {
    // One long-lived workspace serves all three paper workloads in turn
    // (different dense widths, embedding dims and MLP depths). Every output
    // must be bit-identical to a fresh-workspace forward (not merely within
    // TOL), and within TOL of the monolith.
    let rows = 256u64;
    let models: Vec<_> = [configs::rm1(), configs::rm2(), configs::rm3()]
        .into_iter()
        .map(|cfg| {
            let cfg = cfg.scaled_tables(rows).with_num_tables(2);
            let model = Dlrm::with_seed(&cfg, 41);
            let counts: Vec<Vec<u64>> = (0..2)
                .map(|t| synthetic_counts(rows, 0.9, 300 + t as u64))
                .collect();
            let plans = vec![PartitionPlan::new(vec![16, 64, 256], rows).unwrap(); 2];
            let sharded = ShardedDlrm::new(model.clone(), &counts, plans).expect("valid");
            (QueryGenerator::new(&cfg), model, sharded)
        })
        .collect();
    let mut ws = models[0].2.workspace();
    let mut rng = SimRng::seed_from(7);
    for round in 0..3 {
        for (gen, model, sharded) in &models {
            let name = &model.config().name;
            let q = gen.generate(&mut rng);
            let fresh = sharded.forward(&q);
            assert_eq!(
                *sharded.forward_ws(&q, &mut ws),
                fresh,
                "{name} round {round}"
            );
            let diff = model.forward(&q).max_abs_diff(&fresh);
            assert!(diff < TOL, "{name} round {round}: {diff}");
        }
    }
}

#[test]
fn extreme_skew_and_uniform_both_round_trip() {
    let rows = 200u64;
    let cfg = configs::rm1().scaled_tables(rows).with_num_tables(1);
    let model = Dlrm::with_seed(&cfg, 31);
    let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(2));
    let reference = model.forward(&q);

    // One entry hoards all accesses; and perfectly uniform counts.
    let mut hoard = vec![0u64; rows as usize];
    hoard[137] = 1_000_000;
    for counts in [hoard, vec![7u64; rows as usize]] {
        let plans = vec![PartitionPlan::new(vec![1, 50, 200], rows).unwrap()];
        let sharded =
            ShardedDlrm::new(model.clone(), std::slice::from_ref(&counts), plans).expect("valid");
        assert!(reference.max_abs_diff(&sharded.forward(&q)) < TOL);
    }
}
