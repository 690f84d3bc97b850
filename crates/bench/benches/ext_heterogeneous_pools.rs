//! Extension: heterogeneous node pools.
//!
//! The paper evaluates homogeneous clusters, where ElasticRec's CPU-only
//! embedding shards occupy GPU-bearing nodes on the CPU-GPU platform and
//! waste the GPUs sitting under them. A natural extension — enabled by
//! exactly the fine-grained resource requests ElasticRec introduces — is a
//! mixed cluster: a pool of cheap CPU-only nodes for embedding shards plus
//! a pool of GPU nodes for dense shards. Model-wise allocation cannot use
//! the cheap pool at all (every monolithic replica needs a GPU).
//!
//! Run with `cargo bench -p er-bench --bench ext_heterogeneous_pools`.

use elasticrec::{plan, Calibration, Platform, SteadyState, Strategy};
use er_cluster::{HardwareProfile, NodePool};
use er_model::configs;

const TARGET_QPS: f64 = 200.0;

/// Rough relative node prices: a T4 GPU node rents at a premium over a
/// same-size CPU node (GCP list prices put the T4 attachment at roughly
/// a third of an n1-standard-32).
const GPU_NODE_COST: f64 = 1.35;
const CPU_NODE_COST: f64 = 1.0;

fn main() {
    let calib = Calibration::cpu_gpu();
    // Cheap CPU pool first so CPU-only pods prefer it.
    let pools = || {
        vec![
            NodePool::new(HardwareProfile::cpu_only_node(), None),
            NodePool::new(HardwareProfile::cpu_gpu_node(), None),
        ]
    };

    println!("CPU-GPU serving at {TARGET_QPS} QPS, homogeneous vs mixed node pools\n");
    let mut cheaper = Vec::new();
    for model in configs::all_rms() {
        let mw = plan(&model, Platform::CpuGpu, Strategy::ModelWise, &calib);
        let er = plan(&model, Platform::CpuGpu, Strategy::Elastic, &calib);

        let mw_homo = SteadyState::size(&mw, TARGET_QPS, &calib).expect("fits");
        let er_homo = SteadyState::size(&er, TARGET_QPS, &calib).expect("fits");
        let er_mixed = SteadyState::size_with_pools(&er, TARGET_QPS, pools()).expect("fits");

        let mw_cost = mw_homo.nodes_used as f64 * GPU_NODE_COST;
        let er_homo_cost = er_homo.nodes_used as f64 * GPU_NODE_COST;
        let er_mixed_cost = er_mixed.nodes_per_pool[0] as f64 * CPU_NODE_COST
            + er_mixed.nodes_per_pool[1] as f64 * GPU_NODE_COST;

        println!("{}:", model.name);
        println!(
            "  model-wise (GPU nodes only):   {:>2} GPU nodes            cost {:>5.2}",
            mw_homo.nodes_used, mw_cost
        );
        println!(
            "  elastic    (GPU nodes only):   {:>2} GPU nodes            cost {:>5.2}",
            er_homo.nodes_used, er_homo_cost
        );
        let saving = format!("{:.2}x", mw_cost / er_mixed_cost);
        println!(
            "  elastic    (mixed pools):      {:>2} CPU + {:>2} GPU nodes   cost {:>5.2}  ({saving} cheaper than model-wise)",
            er_mixed.nodes_per_pool[0],
            er_mixed.nodes_per_pool[1],
            er_mixed_cost,
        );
        // Only the GPU-needing dense shards occupy GPU nodes now.
        assert!(er_mixed.nodes_per_pool[1] <= er_homo.nodes_used);
        cheaper.push(saving);
        println!();
    }
    println!(
        "Embedding shards migrate to the CPU pool; GPUs serve only dense\n\
         shards — fine-grained requests turn into real node-cost savings."
    );
    assert_eq!(cheaper, ["1.72x", "1.54x", "1.09x"]);
}
