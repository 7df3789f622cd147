//! The hardware-database worker's FPGA performance model (§III-C).
//!
//! "Calculating these results in the model is accomplished by starting
//! with the baseline performance of a configuration. ... The utilization
//! of DSPs is the product of the grid dimensions and vector width. This
//! number is the potential performance, but before considering
//! bandwidth. Using the DRAM specs from the configuration, we can
//! determine the ratio of how much bandwidth is available to how much we
//! need. ... Next, the grid configuration is used to break the ANN up
//! into a series of blocked matrix multiplications."
//!
//! The model reproduces that math:
//!
//! 1. **Compute roofline** — `2 · rows·cols·vec · f_clk` FLOP/s.
//! 2. **Bandwidth need** — per output block, the feeders stream an
//!    `block_m × k` A-tile and a `k × block_n` B-tile and drain a
//!    `block_m × block_n` C-tile; the block occupies the grid for
//!    `interleave_m · interleave_n · ceil(k/vec)` cycles (plus pipeline
//!    drain). Bytes over cycles gives the required GB/s; a deficit
//!    inflates cycles proportionally (a bandwidth-stalled design).
//! 3. **Effective performance** — real FLOPs over modeled time, with
//!    partial edge blocks costing full-block cycles (this is where small
//!    batches on big grids lose efficiency, the co-design signal).

use crate::{total_flops, F32_BYTES};

use super::{FpgaDevice, GridConfig, GridError};

/// Per-layer output of the FPGA model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// GEMM shape of this layer.
    pub shape: (usize, usize, usize),
    /// Modeled execution time in seconds (including bandwidth stalls).
    pub time_s: f64,
    /// Bandwidth this layer wants in bytes/s at full compute rate.
    pub bandwidth_needed: f64,
    /// Stall factor applied (`>= 1`; 1 means compute-bound).
    pub stall: f64,
}

/// Aggregate output of the FPGA model for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaPerf {
    /// Roofline of the configuration after the bandwidth ratio, in
    /// GFLOP/s — the paper's "potential performance".
    pub potential_gflops: f64,
    /// Compute roofline before bandwidth (2·DSPs·f), in GFLOP/s.
    pub compute_roofline_gflops: f64,
    /// Achieved GFLOP/s on this workload — the "effective performance".
    pub effective_gflops: f64,
    /// `effective / potential` — the paper's hardware-efficiency metric
    /// (§IV-D), clamped to `[0, 1]`.
    pub efficiency: f64,
    /// Modeled wall time for one run (batch through all layers), s.
    pub total_time_s: f64,
    /// Classification results produced per second (`batch / total_time`).
    pub outputs_per_s: f64,
    /// Time from run start until the first result lands in DRAM, s.
    pub latency_s: f64,
    /// Whether any layer was bandwidth-stalled.
    pub bandwidth_bound: bool,
    /// Per-layer breakdown.
    pub layers: Vec<LayerPerf>,
}

/// The FPGA analytical performance model for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaModel {
    device: FpgaDevice,
}

impl FpgaModel {
    /// Pipeline drain cycles charged per block (`rows + cols` stages).
    fn drain_cycles(grid: &GridConfig) -> u64 {
        (grid.rows() + grid.cols()) as u64
    }

    /// Creates a model for `device`.
    pub fn new(device: FpgaDevice) -> Self {
        Self { device }
    }

    /// The device this model scores against.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// Scores `grid` running the GEMM layer sequence `layers`
    /// (shapes `(m, k, n)`; `m` is the batch and must match across
    /// layers for the outputs/s metric to be meaningful).
    ///
    /// # Errors
    ///
    /// Returns [`GridError`] if the grid does not fit on the device.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or any dimension is zero — an MLP
    /// always has at least its output layer.
    pub fn evaluate(
        &self,
        grid: &GridConfig,
        layers: &[(usize, usize, usize)],
    ) -> Result<FpgaPerf, GridError> {
        assert!(!layers.is_empty(), "an MLP has at least one GEMM layer");
        assert!(
            layers.iter().all(|&(m, k, n)| m > 0 && k > 0 && n > 0),
            "GEMM dimensions must be positive"
        );
        grid.validate_for(&self.device)?;

        let f = self.device.clock_hz();
        let bw_available = self.device.ddr.bytes_per_s();
        let block_m = grid.block_m();
        let block_n = grid.block_n();

        let mut layer_perfs = Vec::with_capacity(layers.len());
        let mut total_cycles = 0.0f64;
        let mut compute_cycles = 0.0f64; // without stalls
        let mut total_bytes = 0.0f64;
        let mut latency_cycles = 0.0f64;
        let mut bandwidth_bound = false;

        for &(m, k, n) in layers {
            let blocks_m = (m as u64).div_ceil(block_m);
            let blocks_n = (n as u64).div_ceil(block_n);
            let k_chunks = (k as u64).div_ceil(grid.vec() as u64);
            let cycles_per_block =
                grid.interleave_m() as u64 * grid.interleave_n() as u64 * k_chunks
                    + Self::drain_cycles(grid);

            // Streaming traffic per block: A tile + B tile in, C tile out.
            let bytes_per_block = F32_BYTES
                * (block_m as f64 * k as f64
                    + k as f64 * block_n as f64
                    + block_m as f64 * block_n as f64);
            let time_per_block_compute = cycles_per_block as f64 / f;
            let bandwidth_needed = bytes_per_block / time_per_block_compute;
            let stall = (bandwidth_needed / bw_available).max(1.0);
            if stall > 1.0 {
                bandwidth_bound = true;
            }

            let blocks = (blocks_m * blocks_n) as f64;
            let layer_cycles = blocks * cycles_per_block as f64 * stall;
            total_cycles += layer_cycles;
            compute_cycles += blocks * cycles_per_block as f64;
            total_bytes += blocks * bytes_per_block;
            // First result: the m-block containing row 0 must finish all
            // of its n-blocks in every layer before the next layer can
            // produce its first block.
            latency_cycles += blocks_n as f64 * cycles_per_block as f64 * stall;

            layer_perfs.push(LayerPerf {
                shape: (m, k, n),
                time_s: layer_cycles / f,
                bandwidth_needed,
                stall,
            });
        }

        let total_time_s = total_cycles / f;
        let flops = total_flops(layers);
        let effective = flops / total_time_s;

        let compute_roofline = grid.peak_flops(&self.device);
        // Aggregate bandwidth requirement at full compute rate.
        let aggregate_needed = total_bytes / (compute_cycles / f);
        let bw_ratio = (bw_available / aggregate_needed).min(1.0);
        let potential = compute_roofline * bw_ratio;
        let efficiency = (effective / potential).clamp(0.0, 1.0);

        let batch = layers[0].0 as f64;
        Ok(FpgaPerf {
            potential_gflops: potential / 1e9,
            compute_roofline_gflops: compute_roofline / 1e9,
            effective_gflops: effective / 1e9,
            efficiency,
            total_time_s,
            outputs_per_s: batch / total_time_s,
            latency_s: latency_cycles / f,
            bandwidth_bound,
            layers: layer_perfs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arria_model() -> FpgaModel {
        FpgaModel::new(FpgaDevice::arria10_gx1150(1))
    }

    fn grid(rows: u32, cols: u32, il: u32, vec: u32) -> GridConfig {
        GridConfig::new(rows, cols, il, il, vec).unwrap()
    }

    #[test]
    fn perfectly_tiled_layer_has_high_efficiency() {
        // Batch exactly block_m, n exactly block_n, k large and
        // vec-aligned: minimal edge waste.
        let g = grid(8, 8, 4, 8); // block 32x32, 512 DSPs
        let m = 32usize;
        let n = 32usize;
        let k = 4096usize;
        let perf = arria_model().evaluate(&g, &[(m, k, n)]).unwrap();
        assert!(perf.efficiency > 0.8, "efficiency {}", perf.efficiency);
    }

    #[test]
    fn tiny_batch_on_big_grid_is_inefficient() {
        let g = grid(16, 16, 4, 4); // block 64x64
        let perf = arria_model().evaluate(&g, &[(1, 1024, 64)]).unwrap();
        // Only 1 of 64 block rows does useful work.
        assert!(perf.efficiency < 0.2, "efficiency {}", perf.efficiency);
    }

    #[test]
    fn effective_never_exceeds_compute_roofline() {
        let g = grid(8, 8, 8, 8);
        let perf = arria_model()
            .evaluate(&g, &[(64, 784, 256), (64, 256, 10)])
            .unwrap();
        assert!(perf.effective_gflops <= perf.compute_roofline_gflops + 1e-9);
        assert!(perf.effective_gflops <= perf.potential_gflops * (1.0 + 1e-9));
    }

    #[test]
    fn more_banks_never_hurt_throughput() {
        let g = grid(16, 16, 4, 4);
        let layers = [(32usize, 2048usize, 1024usize), (32, 1024, 10)];
        let mut prev = 0.0;
        for banks in [1u32, 2, 4] {
            let model = FpgaModel::new(FpgaDevice::arria10_gx1150(banks));
            let perf = model.evaluate(&g, &layers).unwrap();
            assert!(
                perf.outputs_per_s >= prev,
                "banks {banks}: {} < {prev}",
                perf.outputs_per_s
            );
            prev = perf.outputs_per_s;
        }
    }

    #[test]
    fn bandwidth_bound_design_detected_on_single_bank() {
        // Big grid, thin interleave => heavy streaming per cycle.
        let g = grid(16, 16, 1, 4);
        let perf = arria_model().evaluate(&g, &[(16, 4096, 4096)]).unwrap();
        assert!(perf.bandwidth_bound);
        assert!(perf.layers[0].stall > 1.0);
    }

    #[test]
    fn interleaving_relieves_bandwidth_pressure() {
        // Same DSP count; deeper interleave reuses tiles over more
        // cycles, cutting required GB/s (the paper's double-buffer
        // rationale).
        let thin = grid(16, 16, 1, 4);
        let deep = grid(16, 16, 8, 4);
        let layers = [(64usize, 4096usize, 4096usize)];
        let thin_perf = arria_model().evaluate(&thin, &layers).unwrap();
        let deep_perf = arria_model().evaluate(&deep, &layers).unwrap();
        assert!(deep_perf.layers[0].bandwidth_needed < thin_perf.layers[0].bandwidth_needed);
        assert!(deep_perf.outputs_per_s > thin_perf.outputs_per_s);
    }

    #[test]
    fn stratix10_outperforms_arria10_on_large_work() {
        let g = grid(16, 16, 8, 8); // 2048 DSPs: fits S10, not A10
        let layers = [(128usize, 2048usize, 2048usize)];
        let s10 = FpgaModel::new(FpgaDevice::stratix10_2800(4));
        let s10_perf = s10.evaluate(&g, &layers).unwrap();
        let a10_small = grid(8, 8, 8, 8);
        let a10_perf = arria_model().evaluate(&a10_small, &layers).unwrap();
        assert!(s10_perf.outputs_per_s > a10_perf.outputs_per_s);
    }

    #[test]
    fn oversized_grid_is_error_not_panic() {
        let g = grid(32, 32, 4, 8); // 8192 DSPs
        assert!(matches!(
            arria_model().evaluate(&g, &[(1, 10, 10)]),
            Err(GridError::TooManyDsps { .. })
        ));
    }

    #[test]
    fn latency_is_at_most_total_time() {
        let g = grid(8, 8, 4, 8);
        let perf = arria_model()
            .evaluate(&g, &[(128, 784, 512), (128, 512, 128), (128, 128, 10)])
            .unwrap();
        assert!(perf.latency_s <= perf.total_time_s + 1e-12);
        assert!(perf.latency_s > 0.0);
    }

    #[test]
    fn single_sample_latency_equals_total_time() {
        let g = grid(4, 4, 2, 4);
        let perf = arria_model()
            .evaluate(&g, &[(1, 64, 32), (1, 32, 2)])
            .unwrap();
        assert!((perf.latency_s - perf.total_time_s).abs() / perf.total_time_s < 1e-9);
    }

    #[test]
    fn outputs_per_s_scales_with_batch_until_blocks_fill() {
        let g = grid(8, 8, 4, 8); // block_m = 32
        let one = arria_model().evaluate(&g, &[(1, 512, 256)]).unwrap();
        let full = arria_model().evaluate(&g, &[(32, 512, 256)]).unwrap();
        // 32 samples fit the same block row: same time, 32x the outputs.
        assert!(full.outputs_per_s > one.outputs_per_s * 30.0);
    }

    #[test]
    #[should_panic(expected = "at least one GEMM layer")]
    fn empty_layers_panic() {
        let g = grid(4, 4, 2, 4);
        let _ = arria_model().evaluate(&g, &[]);
    }

    #[test]
    fn per_layer_times_sum_to_total() {
        let g = grid(8, 8, 2, 8);
        let perf = arria_model()
            .evaluate(&g, &[(16, 100, 200), (16, 200, 50), (16, 50, 10)])
            .unwrap();
        let sum: f64 = perf.layers.iter().map(|l| l.time_s).sum();
        assert!((sum - perf.total_time_s).abs() / perf.total_time_s < 1e-9);
    }
}
