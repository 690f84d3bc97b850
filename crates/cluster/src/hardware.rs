//! Hardware profiles for the paper's two testbeds (Section V-A).

use er_units::{Bytes, BytesPerSec, Cores, FlopsPerSec};
use serde::{Deserialize, Serialize};

/// GPU attached to a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Sustained single-precision throughput.
    pub flops_per_sec: FlopsPerSec,
    /// On-board HBM capacity.
    pub hbm_bytes: Bytes,
    /// Host↔device transfer bandwidth (PCIe).
    pub pcie_bytes_per_sec: BytesPerSec,
}

impl GpuSpec {
    /// NVIDIA Tesla T4: ~8.1 TFLOP/s FP32, 16 GB HBM, PCIe 3.0 x16.
    pub fn tesla_t4() -> Self {
        Self {
            flops_per_sec: FlopsPerSec::of(8.1e12),
            hbm_bytes: Bytes::of_u64(16 << 30),
            pcie_bytes_per_sec: BytesPerSec::of(12.0e9),
        }
    }
}

/// Capacity and performance characteristics of one server node.
///
/// The fields are exactly the quantities the paper's results depend on:
/// cores and FLOP rate bound dense-MLP throughput, memory bandwidth bounds
/// embedding gathers, DRAM capacity bounds how many shards pack per node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareProfile {
    /// Profile name for reports.
    pub name: &'static str,
    /// Logical CPU cores.
    pub cpu_cores: Cores,
    /// Sustained CPU throughput across all cores. Sized for dense
    /// inference kernels, not peak marketing numbers.
    pub cpu_flops_per_sec: FlopsPerSec,
    /// DRAM capacity.
    pub mem_bytes: Bytes,
    /// Peak DRAM bandwidth.
    pub mem_bw_bytes_per_sec: BytesPerSec,
    /// Attached GPU, if any.
    pub gpu: Option<GpuSpec>,
}

impl HardwareProfile {
    /// The paper's CPU-only compute node: dual-socket Xeon Gold 6242 — 64
    /// logical cores, 384 GB DRAM, 256 GB/s aggregate memory bandwidth.
    pub fn cpu_only_node() -> Self {
        Self {
            name: "xeon-gold-6242-2s",
            cpu_cores: Cores::of(64),
            // ~16 cores' worth of sustained AVX-512 FMA at inference
            // efficiency: ~1.5 TFLOP/s for the whole node.
            cpu_flops_per_sec: FlopsPerSec::of(1.5e12),
            mem_bytes: Bytes::of_u64(384 << 30),
            mem_bw_bytes_per_sec: BytesPerSec::of(256.0e9),
            gpu: None,
        }
    }

    /// The paper's GKE node: `n1-standard-32` (32 vCPU, 120 GB) plus a
    /// Tesla T4 over PCIe.
    pub fn cpu_gpu_node() -> Self {
        Self {
            name: "gke-n1-standard-32-t4",
            cpu_cores: Cores::of(32),
            cpu_flops_per_sec: FlopsPerSec::of(0.6e12),
            mem_bytes: Bytes::of_u64(120 << 30),
            mem_bw_bytes_per_sec: BytesPerSec::of(100.0e9),
            gpu: Some(GpuSpec::tesla_t4()),
        }
    }

    /// CPU millicores available for scheduling.
    pub fn cpu_millicores(&self) -> u64 {
        self.cpu_cores.millicores()
    }

    /// Whether the node carries a GPU.
    pub fn has_gpu(&self) -> bool {
        self.gpu.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_node_matches_paper_specs() {
        let n = HardwareProfile::cpu_only_node();
        assert_eq!(n.cpu_cores, Cores::of(64));
        assert_eq!(n.mem_bytes, Bytes::of_u64(384 << 30));
        assert_eq!(n.mem_bw_bytes_per_sec, BytesPerSec::of(256.0e9));
        assert!(!n.has_gpu());
    }

    #[test]
    fn gpu_node_matches_paper_specs() {
        let n = HardwareProfile::cpu_gpu_node();
        assert_eq!(n.cpu_cores, Cores::of(32));
        assert_eq!(n.mem_bytes, Bytes::of_u64(120 << 30));
        let gpu = n.gpu.expect("has T4");
        assert_eq!(gpu.hbm_bytes, Bytes::of_u64(16 << 30));
        assert!(gpu.flops_per_sec > n.cpu_flops_per_sec);
    }

    #[test]
    fn millicores_conversion() {
        assert_eq!(HardwareProfile::cpu_only_node().cpu_millicores(), 64_000);
    }
}
