//! The processor half of the hardware-model oracle: `DESIGN.md` §6's
//! dispatch-roofline equations, implemented here from the catalog
//! devices' public fields only, must reproduce
//! `ecad_hw::roofline::Roofline::evaluate` bit for bit.
//!
//! The sweep covers every GPU and CPU catalog device, batches from 1 to
//! 65,536, layer stacks on both sides of full GPU occupancy (and below
//! the occupancy floor), and every bias mask of each stack. The
//! equations are written in the roofline's operation order, so any
//! difference — one ulp included — is a failure.

use ecad_hw::cpu::CpuDevice;
use ecad_hw::gpu::GpuDevice;
use ecad_hw::roofline::RooflinePerf;

/// What §6 predicts for one batch through one MLP.
#[derive(Debug)]
struct Expected {
    time_s: f64,
    outputs_per_s: f64,
    effective_gflops: f64,
    efficiency: f64,
    dispatches: usize,
}

/// A processor as §6 states it: peak FLOP/s `p`, memory bandwidth `bw`
/// in bytes/s, the per-dispatch overhead `t_d`, and the GEMM compute
/// rate `r(m, n)` in FLOP/s.
struct Processor {
    p: f64,
    bw: f64,
    t_d: f64,
    rate: Box<dyn Fn(f64, f64) -> f64>,
}

fn gpu(d: &GpuDevice) -> Processor {
    let p = d.peak_tflops * 1e12;
    let full = d.full_occupancy_outputs;
    Processor {
        p,
        bw: d.mem_gb_per_s * 1e9,
        t_d: d.kernel_overhead_s,
        // Occupancy m·n / full, capped at 1; the rate floors it at 1e-4.
        rate: Box::new(move |m, n| {
            let occupancy = (m * n / full).min(1.0);
            p * occupancy.max(1e-4)
        }),
    }
}

fn cpu(d: &CpuDevice) -> Processor {
    let p = d.cores as f64 * d.flops_per_core_per_cycle as f64 * d.clock_ghz * 1e9;
    let fraction = d.gemm_efficiency;
    Processor {
        p,
        bw: d.mem_gb_per_s * 1e9,
        t_d: d.call_overhead_s,
        rate: Box::new(move |_, _| p * fraction),
    }
}

/// §6, term by term: per layer a GEMM at `max(compute, memory)`, then
/// the bias add if the layer has one, then the activation, each plus
/// `t_d`; totals last.
fn equations(proc: &Processor, layers: &[(usize, usize, usize)], bias: &[bool]) -> Expected {
    const WORD: f64 = 4.0; // bytes per FP32 element
    let mut t = 0.0f64;
    let mut flops = 0.0f64;
    let mut dispatches = 0;
    for (&(m, k, n), &b) in layers.iter().zip(bias) {
        let (m, k, n) = (m as f64, k as f64, n as f64);
        let compute = 2.0 * m * k * n / (proc.rate)(m, n);
        let memory = WORD * (m * k + k * n + m * n) / proc.bw;
        t += compute.max(memory) + proc.t_d;
        dispatches += 1;
        if b {
            t += WORD * (2.0 * m * n + n) / proc.bw + proc.t_d;
            dispatches += 1;
        }
        t += WORD * 2.0 * m * n / proc.bw + proc.t_d;
        dispatches += 1;
        flops += 2.0 * m * k * n;
    }
    let effective = flops / t;
    Expected {
        time_s: t,
        outputs_per_s: layers[0].0 as f64 / t,
        effective_gflops: effective / 1e9,
        efficiency: (effective / proc.p).clamp(0.0, 1.0),
        dispatches,
    }
}

/// Layer widths, input first. Some stacks reach full occupancy on every
/// GPU at the larger batches, the thinnest sit below the occupancy floor
/// at batch 1, and the deep-`k` one is compute-bound on the CPUs.
const STACKS: [&[usize]; 6] = [
    &[2, 1],
    &[20, 8, 2],
    &[20, 64, 32, 2],
    &[561, 128, 64, 6],
    &[784, 512, 256, 10],
    &[4096, 4096],
];

const BATCHES: [usize; 12] = [1, 2, 3, 7, 16, 32, 100, 256, 1024, 4096, 16384, 65536];

fn same_bits(got: &RooflinePerf, want: &Expected) -> bool {
    got.total_time_s.to_bits() == want.time_s.to_bits()
        && got.outputs_per_s.to_bits() == want.outputs_per_s.to_bits()
        && got.effective_gflops.to_bits() == want.effective_gflops.to_bits()
        && got.efficiency.to_bits() == want.efficiency.to_bits()
        && got.dispatches == want.dispatches
}

/// Every (device, batch, stack, bias mask) case, with the roofline's
/// answer and the equations'.
fn sweep() -> Vec<(String, RooflinePerf, Expected)> {
    let gpus = [
        GpuDevice::quadro_m5000(),
        GpuDevice::titan_x(),
        GpuDevice::radeon_vii(),
    ];
    let cpus = [CpuDevice::xeon_22c(), CpuDevice::desktop_8c()];
    let devices = gpus
        .iter()
        .map(|d| (d.name.clone(), d.roofline(), gpu(d)))
        .chain(cpus.iter().map(|d| (d.name.clone(), d.roofline(), cpu(d))));
    let mut cases = Vec::new();
    for (name, roofline, proc) in devices {
        for batch in BATCHES {
            for widths in STACKS {
                let layers: Vec<_> = widths.windows(2).map(|w| (batch, w[0], w[1])).collect();
                for mask in 0..1u32 << layers.len() {
                    let bias: Vec<bool> = (0..layers.len()).map(|i| mask >> i & 1 == 1).collect();
                    cases.push((
                        format!("{name} batch {batch} widths {widths:?} bias {bias:?}"),
                        roofline.evaluate(&layers, &bias),
                        equations(&proc, &layers, &bias),
                    ));
                }
            }
        }
    }
    cases
}

#[test]
fn roofline_matches_the_equations_bitwise() {
    let cases = sweep();
    assert_eq!(cases.len(), 5 * BATCHES.len() * (2 + 4 + 8 + 8 + 8 + 2));
    let wrong: Vec<_> = cases
        .iter()
        .filter(|(_, got, want)| !same_bits(got, want))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} cases differ; first: {}\n  roofline  {:?}\n  equations {:?}",
        wrong.len(),
        cases.len(),
        wrong[0].0,
        wrong[0].1,
        wrong[0].2,
    );
}

/// The sweep reaches every regime the equations distinguish, so a model
/// that drops a term cannot pass by never exercising it.
#[test]
fn sweep_covers_every_regime() {
    let titan = gpu(&GpuDevice::titan_x());
    let xeon = cpu(&CpuDevice::xeon_22c());
    let full = GpuDevice::titan_x().full_occupancy_outputs;
    let shapes: Vec<(f64, f64, f64)> = BATCHES
        .iter()
        .flat_map(|&b| {
            STACKS.iter().flat_map(move |w| {
                w.windows(2)
                    .map(move |w| (b as f64, w[0] as f64, w[1] as f64))
            })
        })
        .collect();
    let occupancy = |&(m, _, n): &(f64, f64, f64)| m * n / full;
    assert!(
        shapes.iter().any(|s| occupancy(s) < 1e-4),
        "below the occupancy floor"
    );
    assert!(
        shapes.iter().any(|s| (1e-4..1.0).contains(&occupancy(s))),
        "partial occupancy"
    );
    assert!(shapes.iter().any(|s| occupancy(s) >= 1.0), "full occupancy");
    let compute_bound = |proc: &Processor, &(m, k, n): &(f64, f64, f64)| {
        2.0 * m * k * n / (proc.rate)(m, n) > 4.0 * (m * k + k * n + m * n) / proc.bw
    };
    for proc in [&titan, &xeon] {
        assert!(
            shapes.iter().any(|s| compute_bound(proc, s)),
            "compute-bound GEMM"
        );
        assert!(
            shapes.iter().any(|s| !compute_bound(proc, s)),
            "memory-bound GEMM"
        );
    }
}
