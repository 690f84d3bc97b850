//! Figure 5: service throughput (QPS) of the dense DNN layers and the
//! sparse embedding layers of each model, measured separately on (a)
//! CPU-only and (b) CPU-GPU servers.
//!
//! The paper's point: the two layer types have mismatched QPS on every
//! platform, so one of them always bottlenecks a monolithic server.

use elasticrec::{Calibration, Platform};
use er_bench::report;
use er_model::configs;
use er_units::Bytes;

fn layer_qps(platform: Platform, calib: &Calibration, cfg: &er_model::ModelConfig) -> (f64, f64) {
    let (bottom, top) = er_model::dense_phase_flops(cfg);
    let dense_secs = if platform.dense_on_gpu() {
        calib.gpu_dense_secs(bottom) + calib.gpu_dense_secs(top)
    } else {
        calib.cpu_dense_secs(bottom, calib.mw_worker_cores)
            + calib.cpu_dense_secs(top, calib.mw_worker_cores)
    };
    let gather_bytes: Bytes = cfg
        .tables
        .iter()
        .map(|t| Bytes::of_u64(cfg.batch_size as u64 * t.pooling as u64 * t.vector_bytes()))
        .sum();
    let sparse_secs = calib.cpu_sparse_secs(gather_bytes, calib.mw_cores);
    (1.0 / dense_secs, 1.0 / sparse_secs)
}

fn main() {
    let mut mismatches = Vec::new();
    for (label, platform, calib) in [
        (
            "Figure 5(a) CPU-only",
            Platform::CpuOnly,
            Calibration::cpu_only(),
        ),
        (
            "Figure 5(b) CPU-GPU",
            Platform::CpuGpu,
            Calibration::cpu_gpu(),
        ),
    ] {
        report::header(label, "per-layer QPS of one inference server");
        for cfg in configs::all_rms() {
            let (dense, sparse) = layer_qps(platform, &calib, &cfg);
            let mismatch = if dense > sparse {
                dense / sparse
            } else {
                sparse / dense
            };
            let cell = format!("{mismatch:.2}x");
            report::row(
                &cfg.name,
                &[
                    ("dense_qps", format!("{dense:.1}")),
                    ("sparse_qps", format!("{sparse:.1}")),
                    ("mismatch", cell.clone()),
                ],
            );
            assert!(
                mismatch > 1.2,
                "{}: layer QPS must be visibly mismatched",
                cfg.name
            );
            mismatches.push(cell);
        }
    }
    assert_eq!(
        mismatches,
        ["3.52x", "4.82x", "61.60x", "1.64x", "2.17x", "7.87x"]
    );

    // RM3's heavy MLPs make its dense layer the slowest on CPU.
    let c = Calibration::cpu_only();
    let rm1 = layer_qps(Platform::CpuOnly, &c, &configs::rm1()).0;
    let rm3 = layer_qps(Platform::CpuOnly, &c, &configs::rm3()).0;
    assert!(rm3 < rm1 / 3.0, "RM3 dense must be much slower than RM1");
    println!("\n[ok] Figure 5 qualitative checks passed");
}
