//! Figures 16, 17, and 18: the CPU-GPU (GKE + T4) evaluation at the
//! paper's 200 QPS target.
//!
//! * Figure 16 — memory consumption (paper: 2.7x / 3.6x / 2.6x smaller);
//! * Figure 17 — memory utility + replicas (paper: ~6% for model-wise,
//!   ~8x average gain);
//! * Figure 18 — CPU-GPU server nodes (paper: 1.4x / 1.6x / 1.2x fewer).
//!
//! The paper's key cross-platform observation: RM3's memory saving is
//! *less* pronounced here than on CPU-only, because the GPU absorbs its
//! heavy MLPs and model-wise needs fewer replicas.

use elasticrec::utility::{aggregate_utility, measure_table_utility};
use elasticrec::{plan, Calibration, Platform, SteadyState, Strategy};
use er_bench::report;
use er_model::configs;

const TARGET_QPS: f64 = 200.0;
const UTILITY_QUERIES: usize = 1000;
/// What EXPERIMENTS.md quotes per model (RM1, RM2, RM3): memory reduction
/// (Fig 16), model-wise and hot-shard utility (Fig 17) and node reduction
/// (Fig 18).
const QUOTED: [(&str, &str, &str, &str); 3] = [
    ("2.98x", "4.7%", "75.6%", "1.20x"),
    ("6.45x", "4.7%", "75.6%", "0.87x"),
    ("7.81x", "1.5%", "38.9%", "1.09x"),
];

fn main() {
    let gpu_calib = Calibration::cpu_gpu();
    let cpu_calib = Calibration::cpu_only();

    let mut ratios = Vec::new();
    for (cfg, (quoted_memory, quoted_mw_utility, quoted_hot_utility, quoted_nodes)) in
        configs::all_rms().into_iter().zip(QUOTED)
    {
        let mw = plan(&cfg, Platform::CpuGpu, Strategy::ModelWise, &gpu_calib);
        let el = plan(&cfg, Platform::CpuGpu, Strategy::Elastic, &gpu_calib);
        let mw_s = SteadyState::size(&mw, TARGET_QPS, &gpu_calib).expect("fits");
        let el_s = SteadyState::size(&el, TARGET_QPS, &gpu_calib).expect("fits");

        report::header(
            &format!("Figure 16 ({})", cfg.name),
            "memory consumption at 200 QPS (CPU-GPU)",
        );
        let memory_reduction = report::ratio(mw_s.memory_bytes as f64, el_s.memory_bytes as f64);
        report::row(
            "memory",
            &[
                ("model-wise", report::gib(mw_s.memory_bytes)),
                ("elastic", report::gib(el_s.memory_bytes)),
                ("reduction", memory_reduction.clone()),
                ("shards/table", el.table_plans[0].num_shards().to_string()),
            ],
        );
        assert_eq!(memory_reduction, quoted_memory);
        ratios.push(mw_s.memory_bytes as f64 / el_s.memory_bytes as f64);

        report::header(
            &format!("Figure 17 ({})", cfg.name),
            "memory utility of table 0's shards + replicas (CPU-GPU)",
        );
        let gathers = cfg.batch_size * cfg.tables[0].pooling as usize;
        let el_util = measure_table_utility(
            &el.table_plans[0],
            cfg.locality_p,
            UTILITY_QUERIES,
            gathers,
            23,
        );
        // Total touched rows do not depend on the cuts, so the model-wise
        // table's utility is the aggregate over the same draws.
        let mw_utility = aggregate_utility(&el_util);
        let mw_utility_cell = format!("{:.1}%", 100.0 * mw_utility);
        report::row(
            "MW S1",
            &[
                ("utility", mw_utility_cell.clone()),
                ("replicas", mw_s.replicas_of("model-wise").to_string()),
            ],
        );
        for (i, s) in el_util.iter().enumerate() {
            report::row(
                &format!("ER S{}", i + 1),
                &[
                    ("utility", format!("{:.1}%", 100.0 * s.utility())),
                    (
                        "replicas",
                        el_s.replicas_of(&format!("emb-t0-s{i}")).to_string(),
                    ),
                ],
            );
        }
        assert!(
            el_util[0].utility() > 3.0 * mw_utility,
            "hot shard must be far better utilized than the monolith"
        );
        assert_eq!(mw_utility_cell, quoted_mw_utility);
        assert_eq!(
            format!("{:.1}%", 100.0 * el_util[0].utility()),
            quoted_hot_utility
        );

        report::header(
            &format!("Figure 18 ({})", cfg.name),
            "CPU-GPU server nodes to reach 200 QPS",
        );
        let node_reduction = report::ratio(mw_s.nodes_used as f64, el_s.nodes_used as f64);
        report::row(
            "nodes",
            &[
                ("model-wise", mw_s.nodes_used.to_string()),
                ("elastic", el_s.nodes_used.to_string()),
                ("reduction", node_reduction.clone()),
            ],
        );
        assert_eq!(node_reduction, quoted_nodes);
    }

    // Cross-platform claim: RM3's saving is less pronounced on CPU-GPU than
    // on CPU-only (paper: 2.6x here vs 8.1x there).
    let rm3 = configs::rm3();
    let cpu_mw = SteadyState::size(
        &plan(&rm3, Platform::CpuOnly, Strategy::ModelWise, &cpu_calib),
        100.0,
        &cpu_calib,
    )
    .expect("fits");
    let cpu_el = SteadyState::size(
        &plan(&rm3, Platform::CpuOnly, Strategy::Elastic, &cpu_calib),
        100.0,
        &cpu_calib,
    )
    .expect("fits");
    let cpu_ratio = cpu_mw.memory_bytes as f64 / cpu_el.memory_bytes as f64;
    let gpu_ratio = ratios[2];
    let cpu_cell = format!("{cpu_ratio:.1}x");
    let gpu_cell = format!("{gpu_ratio:.1}x");
    report::header("Cross-platform", "RM3 memory-reduction comparison");
    report::row(
        "RM3",
        &[
            ("cpu_only", cpu_cell.clone()),
            ("cpu_gpu", gpu_cell.clone()),
        ],
    );
    assert!(
        gpu_ratio < cpu_ratio,
        "GPU offload must shrink RM3's model-wise disadvantage"
    );
    assert_eq!((cpu_cell.as_str(), gpu_cell.as_str()), ("18.5x", "7.8x"));
    println!("\n[ok] Figures 16/17/18 qualitative checks passed");
}
