//! Property tests for the hardware models: roofline algebra, resource
//! monotonicity, and bandwidth behaviour. Runs on `rt::check`.

use ecad_hw::fpga::{FpgaDevice, FpgaModel, GridConfig, PhysicalModel};
use ecad_hw::gpu::GpuDevice;
use ecad_hw::total_flops;
use rt::check::{map, select, vec, Gen};
use rt::prop_assert;

fn arb_grid() -> impl Gen<Value = GridConfig> {
    map(
        (
            select(vec![1u32, 2, 4, 8, 16]),
            select(vec![1u32, 2, 4, 8, 16]),
            select(vec![1u32, 2, 4, 8, 16]),
            select(vec![1u32, 2, 4, 8, 16]),
            select(vec![1u32, 2, 4, 8]),
        ),
        |(r, c, im, inn, v)| GridConfig::new(r, c, im, inn, v).expect("nonzero dims"),
    )
}

fn arb_layers() -> impl Gen<Value = Vec<(usize, usize, usize)>> {
    map(
        vec((1usize..96, 1usize..768, 2usize..384), 1..4),
        |mut v| {
            // Chain the shapes so they form a real MLP (n_i == k_{i+1}).
            for i in 1..v.len() {
                v[i].1 = v[i - 1].2;
                v[i].0 = v[0].0;
            }
            v
        },
    )
}

rt::prop! {
    #![cases(64)]

    /// effective GFLOP/s x time == workload FLOPs, for every feasible
    /// configuration (the model's books always balance).
    fn fpga_energy_conservation(grid in arb_grid(), layers in arb_layers(), banks in 1u32..5) {
        let model = FpgaModel::new(FpgaDevice::arria10_gx1150(banks));
        if let Ok(perf) = model.evaluate(&grid, &layers) {
            let implied = perf.effective_gflops * 1e9 * perf.total_time_s;
            let actual = total_flops(&layers);
            prop_assert!((implied - actual).abs() / actual < 1e-6);
            prop_assert!(perf.potential_gflops <= perf.compute_roofline_gflops * (1.0 + 1e-9));
            prop_assert!(perf.effective_gflops <= perf.potential_gflops * (1.0 + 1e-9));
            prop_assert!(perf.outputs_per_s > 0.0);
            prop_assert!(perf.latency_s > 0.0);
        }
    }

    /// Stratix 10 never underperforms Arria 10 on the same feasible
    /// grid and workload (more DSPs, faster clock, more bandwidth).
    fn s10_dominates_a10(grid in arb_grid(), layers in arb_layers()) {
        let a10 = FpgaModel::new(FpgaDevice::arria10_gx1150(4));
        let s10 = FpgaModel::new(FpgaDevice::stratix10_2800(4));
        if let (Ok(a), Ok(s)) = (a10.evaluate(&grid, &layers), s10.evaluate(&grid, &layers)) {
            prop_assert!(s.outputs_per_s >= a.outputs_per_s * (1.0 - 1e-9));
        }
    }

    /// Doubling every layer's batch never decreases outputs/s (more
    /// work per block-row fill).
    fn fpga_batch_monotonicity(grid in arb_grid(), layers in arb_layers()) {
        let model = FpgaModel::new(FpgaDevice::arria10_gx1150(1));
        let doubled: Vec<_> = layers.iter().map(|&(m, k, n)| (m * 2, k, n)).collect();
        if let (Ok(a), Ok(b)) = (model.evaluate(&grid, &layers), model.evaluate(&grid, &doubled)) {
            prop_assert!(b.outputs_per_s >= a.outputs_per_s * (1.0 - 1e-9),
                "batch x2: {} -> {}", a.outputs_per_s, b.outputs_per_s);
        }
    }

    /// Resource estimates are monotone: growing any grid dimension
    /// never shrinks DSP or M20K usage.
    fn resources_monotone(grid in arb_grid()) {
        let bigger = GridConfig::new(
            grid.rows() * 2,
            grid.cols(),
            grid.interleave_m(),
            grid.interleave_n(),
            grid.vec(),
        )
        .unwrap();
        prop_assert!(bigger.dsps_used() >= grid.dsps_used());
        prop_assert!(bigger.m20ks_used() >= grid.m20ks_used());
    }

    /// The physical model keeps Fmax positive and below target, power
    /// inside a sane chip envelope, and utilizations in [0, 1].
    fn physical_report_envelope(grid in arb_grid()) {
        let model = PhysicalModel::new(FpgaDevice::arria10_gx1150(1));
        if let Ok(rep) = model.report(&grid) {
            prop_assert!(rep.fmax_mhz > 0.0 && rep.fmax_mhz <= 250.0);
            prop_assert!((20.0..=36.0).contains(&rep.power_w), "power {}", rep.power_w);
            for u in [rep.resources.alm_util, rep.resources.m20k_util, rep.resources.dsp_util] {
                prop_assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    /// GPU timing: time is additive over layers (running layers
    /// separately sums to running them together).
    fn gpu_time_additivity(layers in arb_layers()) {
        let model = GpuDevice::titan_x().roofline();
        let biases = vec![true; layers.len()];
        let whole = model.evaluate(&layers, &biases);
        let sum: f64 = layers
            .iter()
            .map(|&l| model.evaluate(&[l], &[true]).total_time_s)
            .sum();
        prop_assert!((whole.total_time_s - sum).abs() / sum < 1e-9);
    }

    /// GPU efficiency is bounded and decreases (weakly) when layers
    /// shrink to launch-overhead-dominated sizes.
    fn gpu_efficiency_bounds(m in 1usize..512, k in 1usize..512, n in 2usize..256) {
        let model = GpuDevice::quadro_m5000().roofline();
        let perf = model.evaluate(&[(m, k, n)], &[true]);
        prop_assert!((0.0..=1.0).contains(&perf.efficiency));
        let tiny = model.evaluate(&[(1, 1, 2)], &[true]);
        prop_assert!(tiny.efficiency <= perf.efficiency + 1e-9);
    }
}
