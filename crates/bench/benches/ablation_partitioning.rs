//! Ablation: how much of ElasticRec's saving comes from each design
//! choice in the partitioning pipeline?
//!
//! Not a paper figure — this quantifies the design decisions the paper
//! motivates qualitatively (Figures 4 and 8):
//!
//! * **DP (paper)** — hotness-sorted table, cost-optimal cuts (Alg. 1+2);
//! * **greedy hot/cold** — hotness-sorted, a single cut where the CDF
//!   reaches 90% (the "cache-style" two-tier strawman);
//! * **equal-k** — hotness-sorted, equal-size shards (no cost model);
//! * **unsorted (Fig. 8a)** — shards cut from the *unsorted* table, so hot
//!   entries scatter uniformly across shards and every shard replicates
//!   like a hot one.
//!
//! All variants serve RM1 on the CPU-only platform at 400 QPS — high
//! enough that hot shards genuinely replicate, which is where the policies
//! separate.
//!
//! A finding worth noting: *sorting alone is not enough*. Equal-size cuts
//! on the sorted table concentrate ~90% of traffic on one table-quarter,
//! which then replicates as a huge shard; the DP's contribution is making
//! the hot shard small before replicating it.

use elasticrec::{plan, plan_elastic_with_plans, Calibration, Platform, SteadyState, Strategy};
use er_bench::report;
use er_distribution::{AccessModel, LocalityTarget};
use er_model::configs;
use er_partition::PartitionPlan;

const TARGET_QPS: f64 = 400.0;

fn main() {
    let calib = Calibration::cpu_only();
    let model = configs::rm1();
    let rows = model.tables[0].rows;
    let access = LocalityTarget::new(model.locality_p).solve(rows);

    report::header(
        "Ablation",
        "partitioning policy vs memory at 400 QPS (RM1, CPU-only)",
    );

    // Baseline: model-wise.
    let mw = SteadyState::size(
        &plan(&model, Platform::CpuOnly, Strategy::ModelWise, &calib),
        TARGET_QPS,
        &calib,
    )
    .expect("fits");
    report::row("model-wise", &[("memory", report::gib(mw.memory_bytes))]);
    // Each policy's saving as its row prints it; EXPERIMENTS.md quotes all.
    let mut vs_mw = Vec::new();
    let mut row = |label: &str, memory_bytes: u64| {
        let saving = report::ratio(mw.memory_bytes as f64, memory_bytes as f64);
        report::row(
            label,
            &[
                ("memory", report::gib(memory_bytes)),
                ("vs MW", saving.clone()),
            ],
        );
        vs_mw.push(saving);
    };

    // The paper's DP.
    let dp = SteadyState::size(
        &plan(&model, Platform::CpuOnly, Strategy::Elastic, &calib),
        TARGET_QPS,
        &calib,
    )
    .expect("fits");
    row("DP (paper)", dp.memory_bytes);

    // Greedy hot/cold: cut at the rank covering 90% of accesses.
    let hot_rank = (1..=rows)
        .step_by((rows / 10_000).max(1) as usize)
        .find(|&r| access.cdf(r) >= 0.90)
        .expect("coverage reaches 90%");
    let greedy_plans =
        vec![PartitionPlan::new(vec![hot_rank, rows], rows).expect("valid"); model.tables.len()];
    let greedy = SteadyState::size(
        &plan_elastic_with_plans(&model, Platform::CpuOnly, &calib, greedy_plans),
        TARGET_QPS,
        &calib,
    )
    .expect("fits");
    row("greedy hot/cold @90%", greedy.memory_bytes);

    // Equal-size shards on the sorted table.
    let mut equal_results = Vec::new();
    for k in [2usize, 4, 8] {
        let plans = vec![PartitionPlan::equal(rows, k); model.tables.len()];
        let sized = SteadyState::size(
            &plan_elastic_with_plans(&model, Platform::CpuOnly, &calib, plans),
            TARGET_QPS,
            &calib,
        )
        .expect("fits");
        row(&format!("equal-{k} (sorted)"), sized.memory_bytes);
        equal_results.push(sized.memory_bytes);
    }

    // Unsorted table (Figure 8(a)): equal shards, but hot entries scatter
    // uniformly, so every shard carries ~1/k of the hot traffic and every
    // shard replicates. Model it by pricing shards under a uniform access
    // model while keeping the skewed workload's total gather volume.
    let uniform_model = {
        let mut m = model.clone();
        m.locality_p = 0.10; // uniform: top 10% covers exactly 10%
        m
    };
    let mut unsorted_results = Vec::new();
    for k in [2usize, 4, 8] {
        let plans = vec![PartitionPlan::equal(rows, k); model.tables.len()];
        let sized = SteadyState::size(
            &plan_elastic_with_plans(&uniform_model, Platform::CpuOnly, &calib, plans),
            TARGET_QPS,
            &calib,
        )
        .expect("fits");
        row(&format!("equal-{k} (unsorted)"), sized.memory_bytes);
        unsorted_results.push(sized.memory_bytes);
    }

    // The claims the ablation must support.
    assert!(
        dp.memory_bytes <= greedy.memory_bytes,
        "the DP must beat the greedy hot/cold split"
    );
    assert!(
        dp.memory_bytes <= *equal_results.iter().min().expect("non-empty"),
        "the DP must beat every sorted equal split"
    );
    assert!(
        dp.memory_bytes <= *unsorted_results.iter().min().expect("non-empty"),
        "the DP must beat every unsorted split"
    );
    // Unsorted partitioning degenerates toward model-wise behaviour: every
    // shard carries hot traffic, so scaling duplicates the whole table.
    let worst_unsorted = *unsorted_results.iter().max().expect("non-empty");
    assert!(
        worst_unsorted as f64 > 1.5 * dp.memory_bytes as f64,
        "scattered hot entries must cost substantially more than the DP"
    );
    assert_eq!(
        vs_mw,
        ["3.30x", "2.79x", "1.65x", "2.24x", "2.55x", "1.65x", "2.24x", "2.87x"]
    );
    println!("\n[ok] partitioning ablation checks passed");
}
