//! Extension: partitioning staleness under hotness drift.
//!
//! The paper sorts and partitions each table from a snapshot of access
//! frequencies and argues re-sorting is cheap (Section IV-B), but does not
//! quantify what a *stale* plan costs while popularity drifts. This
//! experiment lets a fraction `d` of the access mass migrate away from the
//! snapshot's hot ranks (landing uniformly) and compares, at each drift
//! level, the memory needed by:
//!
//! * the **stale plan** — cuts from the original snapshot, replicas resized
//!   for the drifted load;
//! * a **fresh plan** — the DP re-run on the drifted distribution;
//! * **model-wise** — drift-insensitive by construction.

use elasticrec::Calibration;
use er_bench::report;
use er_distribution::{AccessModel, DriftedAccess, LocalityTarget};
use er_model::configs;
use er_partition::{
    partition_bucketed, AnalyticGatherModel, CostModel, PartitionPlan, ProfiledQpsModel, QpsModel,
};
use er_units::{Bytes, BytesPerSec, Qps, Secs};

const TARGET_QPS: Qps = Qps::of(400.0);

/// Memory (bytes) of deploying `plan` for one table when the true access
/// distribution is `access`, priced by the Algorithm 1 cost model — the
/// same objective the DP optimizes, so fresh-vs-stale comparisons are
/// apples to apples.
fn table_memory<M: AccessModel>(
    plan: &PartitionPlan,
    access: &M,
    qps: &impl QpsModel,
    n_t: f64,
    vector_bytes: Bytes,
    min_mem: Bytes,
) -> Bytes {
    let cost =
        CostModel::new(access, qps, n_t, vector_bytes, min_mem).with_target_traffic(TARGET_QPS);
    plan.shards().iter().map(|&(k, j)| cost.cost(k, j)).sum()
}

fn main() {
    let calib = Calibration::cpu_only();
    let model = configs::rm1();
    let table = model.tables[0];
    let rows = table.rows;
    let n_t = (model.batch_size as u64 * table.pooling as u64) as f64;
    let vector_bytes = Bytes::of_u64(table.vector_bytes());
    let min_mem = Bytes::of_u64(calib.min_mem_alloc_bytes);

    let snapshot = LocalityTarget::new(model.locality_p).solve(rows);
    let hardware = AnalyticGatherModel::new(
        Secs::of(calib.sparse_base_secs),
        BytesPerSec::of(calib.sparse_cores as f64 * calib.gather_bytes_per_sec_per_core),
        vector_bytes,
    );
    let qps = ProfiledQpsModel::profile(&hardware, &ProfiledQpsModel::standard_sweep(2.0 * n_t));

    // The plan computed from the (soon to be stale) snapshot.
    let stale_plan = {
        let cost = CostModel::new(&snapshot, &qps, n_t, vector_bytes, min_mem)
            .with_target_traffic(TARGET_QPS);
        partition_bucketed(rows, calib.s_max, calib.dp_candidates, |k, j| {
            cost.cost(k, j).raw()
        })
    };

    report::header(
        "Extension: hotness drift",
        "per-table memory at 400 QPS as popularity drifts (RM1 table)",
    );
    let mut stale_curve = Vec::new();
    let mut fresh_curve = Vec::new();
    let mut penalties = Vec::new();
    for drift in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let truth = DriftedAccess::new(&snapshot, drift);
        let stale = table_memory(&stale_plan, &truth, &qps, n_t, vector_bytes, min_mem);
        let fresh_plan = {
            let cost = CostModel::new(&truth, &qps, n_t, vector_bytes, min_mem)
                .with_target_traffic(TARGET_QPS);
            partition_bucketed(rows, calib.s_max, calib.dp_candidates, |k, j| {
                cost.cost(k, j).raw()
            })
        };
        let fresh = table_memory(&fresh_plan, &truth, &qps, n_t, vector_bytes, min_mem);
        let penalty = format!("{:.2}x", stale / fresh);
        report::row(
            &format!("drift {:>3.0}%", drift * 100.0),
            &[
                ("stale_plan", format!("{:.2} GiB", stale.gib())),
                ("fresh_plan", format!("{:.2} GiB", fresh.gib())),
                ("staleness_penalty", penalty.clone()),
                ("fresh_shards", fresh_plan.num_shards().to_string()),
            ],
        );
        penalties.push(penalty);
        stale_curve.push(stale);
        fresh_curve.push(fresh);
    }

    // Claims.
    assert!(
        (stale_curve[0] - fresh_curve[0]).raw().abs() < 1e-6,
        "at zero drift the stale plan IS the fresh plan"
    );
    for (s, f) in stale_curve.iter().zip(&fresh_curve) {
        assert!(
            *s >= *f - Bytes::of(1e-6),
            "a stale plan can never beat the re-optimized one"
        );
    }
    // The penalty must be visible at heavy drift but bounded: partitioned
    // serving degrades gracefully, it does not collapse.
    let penalty = *stale_curve.last().expect("non-empty") / *fresh_curve.last().expect("non-empty");
    assert!(
        penalty > 1.02 && penalty < 10.0,
        "full-drift penalty {penalty:.2}x out of expected band"
    );
    assert_eq!(
        penalties,
        ["1.00x", "1.00x", "1.02x", "1.08x", "1.15x", "1.29x"]
    );
    println!("\n[ok] hotness-drift extension checks passed");
}
