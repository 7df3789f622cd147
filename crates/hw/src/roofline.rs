//! The per-layer dispatch roofline that times GPU and CPU targets.
//!
//! The paper profiles GPUs from TensorFlow trace files: "The timing
//! report considers matrix multiplication, activation, and vector
//! addition routines, but it does not appear to take into account DRAM
//! transfers" (§IV). Its simulation worker also serves CPUs (§III-B).
//! Both are instruction-set processors that run an MLP one dispatch at a
//! time — a kernel launch on a GPU, a BLAS call on a CPU — so one model
//! times both (`DESIGN.md` §6 states its equations in operation order):
//!
//! * each layer dispatches a GEMM, a bias add when the layer has a bias,
//!   and an activation;
//! * the GEMM takes `max(compute time, memory time)`, its compute rate
//!   set by [`GemmRate`]: a GPU scales peak by occupancy (small MLP
//!   layers cannot fill thousands of cores, the mechanism behind the
//!   paper's 0.3% GPU efficiency, §IV-D), a CPU sustains a fixed
//!   fraction of peak;
//! * bias and activation passes are bandwidth-bound elementwise passes;
//! * every dispatch pays the fixed per-dispatch overhead;
//! * host↔device DRAM transfers are *not* charged, matching the paper's
//!   note (and its caveat that this skews comparisons in the GPU's
//!   favor).

use crate::{total_flops, F32_BYTES};

/// How fast a processor's GEMM dispatch computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GemmRate {
    /// A GPU: peak scaled by the occupancy `m·n / full_outputs`, capped
    /// at 1 and floored at `1e-4`.
    Occupancy {
        /// Output elements in flight needed to reach full occupancy.
        full_outputs: f64,
    },
    /// A CPU: a fixed fraction of peak (parallel and cache efficiency of
    /// the threaded GEMM).
    Sustained {
        /// The fraction of peak the GEMM sustains.
        efficiency: f64,
    },
}

/// A processor's dispatch roofline; built by
/// [`crate::gpu::GpuDevice::roofline`] and
/// [`crate::cpu::CpuDevice::roofline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak FP32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bytes_per_s: f64,
    /// Fixed cost of one dispatch (kernel launch or BLAS call), s.
    pub dispatch_s: f64,
    /// The GEMM's compute rate.
    pub gemm: GemmRate,
}

/// Timing of one batch through an MLP on a [`Roofline`].
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePerf {
    /// Modeled wall time for one batch through all layers, s. It is
    /// also the latency: a batch's dispatches run back to back.
    pub total_time_s: f64,
    /// Classification results per second (`batch / total_time`).
    pub outputs_per_s: f64,
    /// Achieved GFLOP/s over the whole run.
    pub effective_gflops: f64,
    /// `effective / peak` — the paper's GPU-efficiency metric ("the
    /// number of operations per second obtained from a run out of the
    /// total potential operations per second of the device").
    pub efficiency: f64,
    /// Dispatches issued: kernels on a GPU, BLAS calls on a CPU.
    pub dispatches: usize,
}

impl Roofline {
    /// Times the GEMM layer sequence `layers` (shapes `(m, k, n)`).
    ///
    /// `with_bias[i]` selects whether layer `i` dispatches a bias add;
    /// an activation is dispatched for every layer (the output softmax
    /// counts as one).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, `with_bias` is not the same length,
    /// or any dimension is zero.
    pub fn evaluate(&self, layers: &[(usize, usize, usize)], with_bias: &[bool]) -> RooflinePerf {
        assert!(!layers.is_empty(), "an MLP has at least one GEMM layer");
        assert_eq!(
            layers.len(),
            with_bias.len(),
            "bias flags must match layers"
        );
        assert!(
            layers.iter().all(|&(m, k, n)| m > 0 && k > 0 && n > 0),
            "GEMM dimensions must be positive"
        );
        let bw = self.mem_bytes_per_s;
        let dispatch = self.dispatch_s;

        let mut time = 0.0f64;
        let mut dispatches = 0usize;
        for (&(m, k, n), &bias) in layers.iter().zip(with_bias) {
            let (m, k, n) = (m as f64, k as f64, n as f64);
            // GEMM.
            let compute_t = 2.0 * m * k * n / self.gemm_flops(m, n);
            let mem_t = F32_BYTES * (m * k + k * n + m * n) / bw;
            time += compute_t.max(mem_t) + dispatch;
            dispatches += 1;
            // Bias add: read + write the m × n activation, read the bias.
            if bias {
                time += F32_BYTES * (2.0 * m * n + n) / bw + dispatch;
                dispatches += 1;
            }
            // Activation: elementwise read + write.
            time += F32_BYTES * 2.0 * m * n / bw + dispatch;
            dispatches += 1;
        }

        let effective = total_flops(layers) / time;
        RooflinePerf {
            total_time_s: time,
            outputs_per_s: layers[0].0 as f64 / time,
            effective_gflops: effective / 1e9,
            efficiency: (effective / self.peak_flops).clamp(0.0, 1.0),
            dispatches,
        }
    }

    /// The GEMM's compute rate in FLOP/s on an `m × n` output.
    fn gemm_flops(&self, m: f64, n: f64) -> f64 {
        match self.gemm {
            GemmRate::Occupancy { full_outputs } => {
                let occupancy = (m * n / full_outputs).min(1.0);
                self.peak_flops * occupancy.max(1e-4)
            }
            GemmRate::Sustained { efficiency } => self.peak_flops * efficiency,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cpu::CpuDevice;
    use crate::gpu::GpuDevice;

    fn mlp_shapes(batch: usize) -> (Vec<(usize, usize, usize)>, Vec<bool>) {
        (
            vec![(batch, 561, 128), (batch, 128, 64), (batch, 64, 6)],
            vec![true, true, true],
        )
    }

    #[test]
    fn small_mlp_has_low_gpu_efficiency() {
        let (layers, bias) = mlp_shapes(64);
        let perf = GpuDevice::titan_x().roofline().evaluate(&layers, &bias);
        // The paper reports ~0.3% GPU efficiency on MLP workloads.
        assert!(perf.efficiency < 0.05, "efficiency {}", perf.efficiency);
    }

    #[test]
    fn batching_raises_gpu_throughput() {
        let (l64, b) = mlp_shapes(64);
        let (l1024, _) = mlp_shapes(1024);
        let titan = GpuDevice::titan_x().roofline();
        let small = titan.evaluate(&l64, &b);
        let big = titan.evaluate(&l1024, &b);
        assert!(big.outputs_per_s > small.outputs_per_s * 2.0);
    }

    #[test]
    fn gpu_throughput_insensitive_to_neuron_distribution() {
        // The paper's Fig 2b observation: same total neurons, different
        // layer split, GPU throughput barely moves (fixed architecture).
        let a = vec![(256, 561, 96), (256, 96, 96), (256, 96, 6)];
        let b = vec![(256, 561, 160), (256, 160, 32), (256, 32, 6)];
        let bias = vec![true, true, true];
        let titan = GpuDevice::titan_x().roofline();
        let ratio =
            titan.evaluate(&a, &bias).outputs_per_s / titan.evaluate(&b, &bias).outputs_per_s;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dispatch_count_includes_bias_only_when_present() {
        let layers = vec![(8, 4, 4), (8, 4, 2)];
        let titan = GpuDevice::titan_x().roofline();
        let all_bias = titan.evaluate(&layers, &[true, true]);
        let no_bias = titan.evaluate(&layers, &[false, false]);
        assert_eq!(all_bias.dispatches, 6);
        assert_eq!(no_bias.dispatches, 4);
        assert!(no_bias.total_time_s < all_bias.total_time_s);
    }

    #[test]
    fn faster_gpu_wins_on_large_batches() {
        let (layers, bias) = mlp_shapes(4096);
        let m5000 = GpuDevice::quadro_m5000()
            .roofline()
            .evaluate(&layers, &bias);
        let tx = GpuDevice::titan_x().roofline().evaluate(&layers, &bias);
        assert!(tx.outputs_per_s > m5000.outputs_per_s);
    }

    #[test]
    fn launch_overhead_dominates_tiny_gpu_batches() {
        let (layers, bias) = mlp_shapes(1);
        let titan = GpuDevice::titan_x().roofline();
        let perf = titan.evaluate(&layers, &bias);
        let overhead = perf.dispatches as f64 * titan.dispatch_s;
        assert!(overhead / perf.total_time_s > 0.5);
    }

    #[test]
    fn gpu_outputs_per_s_in_paper_magnitude_range() {
        // Table IV reports Titan X at 1e5..2.5e6 outputs/s for realistic
        // candidates; a batch-256 HAR MLP should land in that decade.
        let (layers, bias) = mlp_shapes(256);
        let perf = GpuDevice::titan_x().roofline().evaluate(&layers, &bias);
        assert!(
            (1e5..5e7).contains(&perf.outputs_per_s),
            "outputs/s {}",
            perf.outputs_per_s
        );
    }

    #[test]
    #[should_panic(expected = "bias flags")]
    fn mismatched_bias_flags_panic() {
        let _ = GpuDevice::titan_x().roofline().evaluate(&[(1, 1, 1)], &[]);
    }

    #[test]
    fn cpu_beats_gpu_at_batch_one() {
        // Launch overhead dominates tiny batches: the CPU's cheap BLAS
        // dispatch wins single-sample latency.
        let (layers, bias) = mlp_shapes(1);
        let cpu = CpuDevice::xeon_22c().roofline().evaluate(&layers, &bias);
        let gpu = GpuDevice::titan_x().roofline().evaluate(&layers, &bias);
        assert!(cpu.total_time_s < gpu.total_time_s);
    }

    #[test]
    fn gpu_beats_cpu_on_heavy_batched_work() {
        // Once the GEMMs are big enough to hide the framework overhead,
        // the GPU's order-of-magnitude FLOP advantage shows.
        let layers = vec![(4096, 561, 512), (4096, 512, 256), (4096, 256, 10)];
        let bias = vec![true, true, true];
        let cpu = CpuDevice::xeon_22c().roofline().evaluate(&layers, &bias);
        let gpu = GpuDevice::titan_x().roofline().evaluate(&layers, &bias);
        assert!(gpu.outputs_per_s > cpu.outputs_per_s);
    }

    #[test]
    fn cpu_competitive_at_moderate_batches() {
        // At serving-sized batches the TF dispatch overhead keeps the
        // GPU within an order of magnitude of a strong CPU — part of
        // why the paper stresses co-designed hardware for MLPs.
        let (layers, bias) = mlp_shapes(256);
        let cpu = CpuDevice::xeon_22c().roofline().evaluate(&layers, &bias);
        let gpu = GpuDevice::titan_x().roofline().evaluate(&layers, &bias);
        let ratio = gpu.outputs_per_s / cpu.outputs_per_s;
        assert!((0.05..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cpu_efficiency_is_bounded_fraction() {
        let (layers, bias) = mlp_shapes(64);
        let perf = CpuDevice::desktop_8c().roofline().evaluate(&layers, &bias);
        assert!((0.0..=1.0).contains(&perf.efficiency));
        assert_eq!(perf.dispatches, 9);
    }

    #[test]
    fn effective_times_time_equals_flops() {
        let (layers, bias) = mlp_shapes(32);
        let perf = CpuDevice::xeon_22c().roofline().evaluate(&layers, &bias);
        let implied = perf.effective_gflops * 1e9 * perf.total_time_s;
        let actual = crate::total_flops(&layers);
        assert!((implied - actual).abs() / actual < 1e-9);
    }

    #[test]
    fn batching_amortizes_cpu_call_overhead() {
        let (l1, b) = mlp_shapes(1);
        let (l256, _) = mlp_shapes(256);
        let xeon = CpuDevice::xeon_22c().roofline();
        let one = xeon.evaluate(&l1, &b);
        let big = xeon.evaluate(&l256, &b);
        assert!(big.outputs_per_s > one.outputs_per_s * 10.0);
    }
}
