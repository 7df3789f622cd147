//! GPU comparators (§IV): the device catalog — Quadro M5000, Titan X,
//! Radeon VII — timed by the dispatch roofline
//! ([`crate::roofline`]) with occupancy-scaled GEMMs, matching the
//! paper's TensorFlow-trace methodology.

use crate::roofline::{GemmRate, Roofline};

/// A GPU device's roofline attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDevice {
    /// Marketing name.
    pub name: String,
    /// Peak FP32 throughput in TFLOP/s.
    pub peak_tflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub mem_gb_per_s: f64,
    /// Fixed per-kernel launch/dispatch overhead in seconds. This is
    /// the *framework* overhead — the paper profiles GPUs through
    /// TensorFlow trace files, and TF op dispatch costs tens of
    /// microseconds per kernel, which dominates small-MLP layers and is
    /// why GPU throughput in the paper is nearly flat across equally
    /// sized networks (Fig 2b).
    pub kernel_overhead_s: f64,
    /// Output elements needed in flight to reach full occupancy; small
    /// MLP layers sit far below this, which is why "the effective
    /// performance was rather low" (§IV) on GPUs.
    pub full_occupancy_outputs: f64,
    /// Board power in watts (for reporting only; see §IV's note that
    /// FPGA chip power and GPU board power are not directly comparable).
    pub board_power_w: f64,
}

impl GpuDevice {
    /// NVIDIA Quadro M5000: 4.3 TFLOP/s FP32, 211 GB/s, 150 W.
    pub fn quadro_m5000() -> Self {
        Self {
            name: "Quadro M5000".to_string(),
            peak_tflops: 4.3,
            mem_gb_per_s: 211.0,
            kernel_overhead_s: 45e-6,
            full_occupancy_outputs: 131_072.0,
            board_power_w: 150.0,
        }
    }

    /// NVIDIA Titan X: 12 TFLOP/s FP32, 480 GB/s, 250 W.
    pub fn titan_x() -> Self {
        Self {
            name: "Titan X".to_string(),
            peak_tflops: 12.0,
            mem_gb_per_s: 480.0,
            kernel_overhead_s: 40e-6,
            full_occupancy_outputs: 262_144.0,
            board_power_w: 250.0,
        }
    }

    /// AMD Radeon VII: 13.44 TFLOP/s FP32, 1 TB/s HBM2, 295 W.
    pub fn radeon_vii() -> Self {
        Self {
            name: "Radeon VII".to_string(),
            peak_tflops: 13.44,
            mem_gb_per_s: 1024.0,
            kernel_overhead_s: 45e-6,
            full_occupancy_outputs: 262_144.0,
            board_power_w: 295.0,
        }
    }

    /// Peak FP32 throughput in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.peak_tflops * 1e12
    }

    /// Peak memory bandwidth in bytes/s.
    pub fn mem_bytes_per_s(&self) -> f64 {
        self.mem_gb_per_s * 1e9
    }

    /// The roofline that times this GPU: one kernel launch per
    /// dispatch, GEMMs scaled by occupancy.
    pub fn roofline(&self) -> Roofline {
        Roofline {
            peak_flops: self.peak_flops(),
            mem_bytes_per_s: self.mem_bytes_per_s(),
            dispatch_s: self.kernel_overhead_s,
            gemm: GemmRate::Occupancy {
                full_outputs: self.full_occupancy_outputs,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_numbers() {
        assert_eq!(GpuDevice::quadro_m5000().peak_tflops, 4.3);
        assert_eq!(GpuDevice::quadro_m5000().mem_gb_per_s, 211.0);
        assert_eq!(GpuDevice::titan_x().peak_tflops, 12.0);
        assert_eq!(GpuDevice::radeon_vii().peak_tflops, 13.44);
        assert_eq!(GpuDevice::radeon_vii().mem_gb_per_s, 1024.0);
    }

    #[test]
    fn unit_conversions() {
        let d = GpuDevice::titan_x();
        assert_eq!(d.peak_flops(), 12e12);
        assert_eq!(d.mem_bytes_per_s(), 480e9);
    }
}
