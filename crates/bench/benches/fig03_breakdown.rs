//! Figure 3: fraction of FLOPs, memory consumption, and end-to-end
//! inference latency attributable to sparse embedding vs dense DNN layers,
//! for RM1/RM2/RM3 on CPU-only and CPU-GPU systems.
//!
//! Paper reference points: dense layers take 98–99.9% of FLOPs but only
//! 0.02–0.4% of memory; dense accounts for 67% (RM1, CPU-only) vs 19%
//! (RM1, CPU-GPU) of end-to-end latency.

use elasticrec::{plan, Calibration, Platform, Strategy};
use er_bench::report;
use er_model::{configs, CostBreakdown};

fn latency_split(
    platform: Platform,
    calib: &Calibration,
    cfg: &er_model::ModelConfig,
) -> (f64, f64) {
    let mw = plan(cfg, platform, Strategy::ModelWise, calib);
    let (bottom, top) = er_model::dense_phase_flops(cfg);
    let dense_secs = if platform.dense_on_gpu() {
        calib.gpu_dense_secs(bottom) + calib.gpu_dense_secs(top)
    } else {
        calib.cpu_dense_secs(bottom, calib.mw_worker_cores)
            + calib.cpu_dense_secs(top, calib.mw_worker_cores)
    };
    let total = mw.frontend().service.busy_secs();
    (dense_secs / total, 1.0 - dense_secs / total)
}

fn main() {
    report::header(
        "Figure 3(a)",
        "FLOPs and memory split (architecture-independent)",
    );
    let mut dense_flops = Vec::new();
    let mut dense_mem = Vec::new();
    for cfg in configs::all_rms() {
        let b = CostBreakdown::for_config(&cfg);
        let flops = format!("{:.1}%", 100.0 * b.dense_flops_fraction());
        let mem = format!("{:.3}%", 100.0 * (1.0 - b.sparse_memory_fraction()));
        report::row(
            &cfg.name,
            &[
                ("dense_flops", flops.clone()),
                (
                    "sparse_flops",
                    format!("{:.1}%", 100.0 * (1.0 - b.dense_flops_fraction())),
                ),
                ("dense_mem", mem.clone()),
                (
                    "sparse_mem",
                    format!("{:.1}%", 100.0 * b.sparse_memory_fraction()),
                ),
            ],
        );
        assert!(b.dense_flops_fraction() > 0.75, "dense must dominate FLOPs");
        assert!(
            b.sparse_memory_fraction() > 0.995,
            "sparse must dominate memory"
        );
        dense_flops.push(flops);
        dense_mem.push(mem);
    }
    assert_eq!(dense_flops, ["80.0%", "86.3%", "99.7%"]);
    assert_eq!(dense_mem, ["0.001%", "0.002%", "0.023%"]);

    report::header(
        "Figure 3(b)",
        "end-to-end latency split (model-wise server)",
    );
    for (label, platform, calib) in [
        ("CPU-only", Platform::CpuOnly, Calibration::cpu_only()),
        ("CPU-GPU", Platform::CpuGpu, Calibration::cpu_gpu()),
    ] {
        for cfg in configs::all_rms() {
            let (dense, sparse) = latency_split(platform, &calib, &cfg);
            report::row(
                &format!("{label} {}", cfg.name),
                &[
                    ("dense_latency", format!("{:.0}%", 100.0 * dense)),
                    ("sparse_latency", format!("{:.0}%", 100.0 * sparse)),
                ],
            );
        }
    }
    // Paper shape: offloading dense layers to the GPU shrinks the dense
    // share of latency (67% -> 19% for RM1).
    let cpu = latency_split(Platform::CpuOnly, &Calibration::cpu_only(), &configs::rm1()).0;
    let gpu = latency_split(Platform::CpuGpu, &Calibration::cpu_gpu(), &configs::rm1()).0;
    assert!(gpu < cpu, "GPU must shrink the dense latency share");
    assert_eq!(
        [
            format!("{:.0}%", 100.0 * cpu),
            format!("{:.0}%", 100.0 * gpu)
        ],
        ["78%", "38%"]
    );
    println!("\n[ok] Figure 3 qualitative checks passed");
}
