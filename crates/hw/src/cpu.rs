//! CPU targets: the other instruction-set architecture the paper's
//! simulation worker covers ("CPU and GPU", §III-B). The device catalog
//! is timed by the same dispatch roofline as the GPUs
//! ([`crate::roofline`]) with CPU-shaped parameters: far fewer FLOP/s,
//! far lower per-call overhead (an `sgemm` call, not a device launch),
//! and a fixed parallel-efficiency factor for the multicore fork/join
//! in place of GPU occupancy.

use crate::roofline::{GemmRate, Roofline};

/// A CPU's roofline attributes for the simulation worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuDevice {
    /// Marketing name.
    pub name: String,
    /// Physical cores used for inference.
    pub cores: u32,
    /// FP32 lanes per core per cycle with FMA (AVX2: 16, AVX-512: 32,
    /// counting both FMA ports where present).
    pub flops_per_core_per_cycle: u32,
    /// Sustained all-core clock in GHz.
    pub clock_ghz: f64,
    /// Peak memory bandwidth in GB/s.
    pub mem_gb_per_s: f64,
    /// Per-BLAS-call overhead in seconds (dispatch + threading
    /// fork/join), far smaller than a GPU kernel launch.
    pub call_overhead_s: f64,
    /// Fraction of peak the threaded GEMM sustains on well-shaped
    /// problems (parallel + cache efficiency).
    pub gemm_efficiency: f64,
    /// Package TDP in watts (reporting only).
    pub tdp_w: f64,
}

impl CpuDevice {
    /// A 22-core Xeon-class server part (Broadwell-EP flavour):
    /// 22 × 32 FLOP/cycle × 2.2 GHz ≈ 1.55 TFLOP/s FP32, 76.8 GB/s.
    pub fn xeon_22c() -> Self {
        Self {
            name: "Xeon 22-core".to_string(),
            cores: 22,
            flops_per_core_per_cycle: 32,
            clock_ghz: 2.2,
            mem_gb_per_s: 76.8,
            call_overhead_s: 3e-6,
            gemm_efficiency: 0.75,
            tdp_w: 145.0,
        }
    }

    /// A desktop 8-core part (AVX2): 8 × 16 × 3.6 GHz ≈ 0.46 TFLOP/s.
    pub fn desktop_8c() -> Self {
        Self {
            name: "Desktop 8-core".to_string(),
            cores: 8,
            flops_per_core_per_cycle: 16,
            clock_ghz: 3.6,
            mem_gb_per_s: 41.6,
            call_overhead_s: 2e-6,
            gemm_efficiency: 0.8,
            tdp_w: 95.0,
        }
    }

    /// Peak FP32 throughput in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.cores as f64 * self.flops_per_core_per_cycle as f64 * self.clock_ghz * 1e9
    }

    /// Peak memory bandwidth in bytes/s.
    pub fn mem_bytes_per_s(&self) -> f64 {
        self.mem_gb_per_s * 1e9
    }

    /// The roofline that times this CPU: one BLAS call per dispatch,
    /// GEMMs at `gemm_efficiency` of peak.
    pub fn roofline(&self) -> Roofline {
        Roofline {
            peak_flops: self.peak_flops(),
            mem_bytes_per_s: self.mem_bytes_per_s(),
            dispatch_s: self.call_overhead_s,
            gemm: GemmRate::Sustained {
                efficiency: self.gemm_efficiency,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_peak_is_teraflop_class() {
        let d = CpuDevice::xeon_22c();
        assert!((d.peak_flops() / 1e12 - 1.5488).abs() < 1e-3);
        // The threaded GEMM sustains less than peak.
        match d.roofline().gemm {
            GemmRate::Sustained { efficiency } => assert!(efficiency < 1.0),
            other => panic!("a CPU GEMM runs at a sustained fraction of peak, got {other:?}"),
        }
    }

    #[test]
    fn desktop_is_slower_than_server() {
        assert!(CpuDevice::desktop_8c().peak_flops() < CpuDevice::xeon_22c().peak_flops());
    }
}
