//! Cross-crate consistency checks: the same candidate seen through the
//! MLP crate, the hardware models, and the engine must agree.

use ecad_repro::hw::fpga::{FpgaDevice, FpgaModel, GridConfig};
use ecad_repro::hw::gpu::GpuDevice;
use ecad_repro::hw::total_flops;
use ecad_repro::mlp::{Activation, MlpTopology};

fn topology() -> MlpTopology {
    MlpTopology::builder(784, 10)
        .hidden(256, Activation::Relu, true)
        .hidden(128, Activation::Tanh, false)
        .build()
}

#[test]
fn gemm_shapes_flops_agree_with_hw_accounting() {
    let topo = topology();
    let shapes = topo.gemm_shapes(1);
    // The hw crate's total_flops over batch-1 shapes equals the MLP
    // crate's per-sample count.
    assert_eq!(total_flops(&shapes) as u64, topo.flops_per_sample());
    // And scales linearly in the batch.
    let shapes64 = topo.gemm_shapes(64);
    assert_eq!(total_flops(&shapes64) as u64, 64 * topo.flops_per_sample());
}

#[test]
fn fpga_effective_time_is_consistent_with_flops() {
    let topo = topology();
    let grid = GridConfig::new(8, 8, 4, 4, 8).unwrap();
    let model = FpgaModel::new(FpgaDevice::arria10_gx1150(1));
    let shapes = topo.gemm_shapes(32);
    let perf = model.evaluate(&grid, &shapes).unwrap();
    let implied_flops = perf.effective_gflops * 1e9 * perf.total_time_s;
    let actual = total_flops(&shapes);
    assert!(
        (implied_flops - actual).abs() / actual < 1e-9,
        "effective x time must equal the workload's FLOPs"
    );
}

#[test]
fn gpu_and_fpga_score_the_same_workload() {
    // The Table IV pattern: one topology, both platforms.
    let topo = topology();
    let fpga = FpgaModel::new(FpgaDevice::stratix10_2800(4));
    let grid = GridConfig::new(8, 8, 4, 4, 8).unwrap();
    let fpga_perf = fpga.evaluate(&grid, &topo.gemm_shapes(32)).unwrap();

    let gpu = GpuDevice::titan_x().roofline();
    let gpu_perf = gpu.evaluate(&topo.gemm_shapes(1024), &[true, false, true]);

    assert!(fpga_perf.outputs_per_s > 0.0);
    assert!(gpu_perf.outputs_per_s > 0.0);
    // Efficiency semantics agree: both are fractions of a roofline.
    assert!((0.0..=1.0).contains(&fpga_perf.efficiency));
    assert!((0.0..=1.0).contains(&gpu_perf.efficiency));
}

#[test]
fn batch_one_latency_ordering_favours_fpga() {
    // The co-design claim behind §III-D: with adequate DRAM bandwidth,
    // the FPGA's systolic mapping serves single samples at lower
    // latency than a launch-overhead-bound GPU.
    let topo = topology();
    let fpga = FpgaModel::new(FpgaDevice::arria10_gx1150(4));
    let grid = GridConfig::new(8, 8, 1, 1, 8).unwrap();
    let fpga_perf = fpga.evaluate(&grid, &topo.gemm_shapes(1)).unwrap();
    let gpu = GpuDevice::titan_x().roofline();
    let gpu_perf = gpu.evaluate(&topo.gemm_shapes(1), &[true, true, true]);
    assert!(
        fpga_perf.latency_s < gpu_perf.total_time_s,
        "fpga {} vs gpu {}",
        fpga_perf.latency_s,
        gpu_perf.total_time_s
    );
}

#[test]
fn paper_peak_numbers_hold_in_the_models() {
    // Arria 10 at 250 MHz: 759 GFLOP/s; Stratix 10 at 400 MHz: 4.6 TF.
    assert!((FpgaDevice::arria10_gx1150(1).peak_flops() / 1e9 - 759.0).abs() < 1e-6);
    assert!((FpgaDevice::stratix10_2800(4).peak_flops() / 1e12 - 4.608).abs() < 1e-3);
    // A full-device grid cannot exceed the device peak.
    let device = FpgaDevice::arria10_gx1150(1);
    let grid = GridConfig::new(12, 12, 4, 4, 8).unwrap(); // 1152 DSPs
    assert!(grid.peak_flops(&device) <= device.peak_flops());
}
