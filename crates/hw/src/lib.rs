//! # ecad-hw
//!
//! Analytical hardware performance and resource models for the ECAD
//! co-design flow.
//!
//! The paper evaluates candidate hardware through three worker types
//! (§III-B); this crate supplies the models those workers call:
//!
//! * [`fpga`] — the 2D systolic GEMM overlay (§III-C): device catalog
//!   (Arria 10 GX 1150, Stratix 10 2800, 1/2/4 DDR4 banks), grid
//!   configuration genes (rows × cols × vector width, interleave double
//!   buffers), the blocked-GEMM performance model (potential vs
//!   effective GFLOP/s, outputs/s, latency), and the analytical
//!   synthesis model (ALM/M20K/DSP utilization, Fmax, power) used by the
//!   physical worker.
//! * [`roofline`] — one per-layer dispatch roofline for the
//!   instruction-set targets, matching the paper's TensorFlow-trace
//!   timing methodology (DRAM transfers excluded), built by the
//!   [`gpu`] comparators (Quadro M5000, Titan X, Radeon VII) and the
//!   [`cpu`] catalog (server/desktop CPUs).
//!
//! Every model consumes the MLP's GEMM decomposition — a slice of
//! `(m, k, n)` layer shapes — and returns throughput metrics in the
//! paper's units (GFLOP/s, outputs per second, seconds of latency).
//! The models are pure functions: the crate depends on nothing, and
//! the evaluator that calls them (`ecad_core::workers`) narrates their
//! verdicts.
//!
//! These are *models*, not cycle-accurate simulators: the paper itself
//! scores nearly every candidate through its "hardware database worker",
//! i.e. exactly this kind of analytical model (see `DESIGN.md` §2).
//!
//! ## Example
//!
//! ```
//! use ecad_hw::fpga::{FpgaDevice, GridConfig, FpgaModel};
//!
//! let device = FpgaDevice::arria10_gx1150(1);
//! let grid = GridConfig::new(8, 8, 4, 4, 8)?;
//! let model = FpgaModel::new(device);
//! // One 256-wide hidden layer on 784 inputs, batch 16.
//! let perf = model.evaluate(&grid, &[(16, 784, 256), (16, 256, 10)])?;
//! assert!(perf.outputs_per_s > 0.0);
//! assert!(perf.efficiency <= 1.0 + 1e-6);
//! # Ok::<(), ecad_hw::fpga::GridError>(())
//! ```

#![warn(missing_docs)]

pub mod cpu;
pub mod fpga;
pub mod gpu;
pub mod roofline;

/// Bytes per FP32 element; the whole flow is single-precision, matching
/// the paper ("All data is 32-bit floating-point").
pub const F32_BYTES: f64 = 4.0;

/// Convenience: total `2·m·k·n` FLOP count over a set of GEMM layers.
pub fn total_flops(layers: &[(usize, usize, usize)]) -> f64 {
    layers
        .iter()
        .map(|&(m, k, n)| 2.0 * m as f64 * k as f64 * n as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_flops_sums_layers() {
        assert_eq!(total_flops(&[(1, 2, 3), (4, 5, 6)]), 12.0 + 240.0);
        assert_eq!(total_flops(&[]), 0.0);
    }
}
