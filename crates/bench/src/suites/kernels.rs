//! Compute-kernel benchmarks: GEMM variants and MLP training steps.
//!
//! These are the hot paths of the simulation worker — per-candidate
//! evaluation time (the paper's Table III column) is dominated by them.
//! This is also the suite CI's `bench-gate` job runs: it is cheap
//! enough to measure on every push.

use ecad_mlp::{Activation, Mlp, MlpTopology};
use ecad_tensor::{gemm, init, ops, Matrix};
use rt::bench::{black_box, BenchmarkId, Criterion};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

/// Registers the suite's benchmarks on `c`.
pub fn register(c: &mut Criterion) {
    bench_gemm(c);
    bench_gemm_variants_256(c);
    bench_gemm_threaded(c);
    bench_gemm_mlp_shapes(c);
    bench_gemm_head(c);
    bench_gemm_creditg(c);
    bench_backprop_kernels(c);
    bench_softmax_and_loss(c);
    bench_tanh_layer(c);
    bench_mlp_train_step(c);
    bench_matrix_ops(c);
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(0);
        let a = init::uniform(&mut rng, n, n, 1.0);
        let b = init::uniform(&mut rng, n, n, 1.0);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| gemm::matmul(black_box(&a), black_box(&b)))
        });
        if n <= 128 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
                bench.iter(|| gemm::matmul_naive(black_box(&a), black_box(&b)))
            });
        }
    }
    group.finish();
}

/// All four kernel shapes at the gate's reference size, so a
/// regression in any packing path (plain, transposed-A, transposed-B,
/// fused bias) shows up in the same suite as `gemm/blocked/256`.
fn bench_gemm_variants_256(c: &mut Criterion) {
    const N: usize = 256;
    let mut rng = StdRng::seed_from_u64(6);
    let a = init::uniform(&mut rng, N, N, 1.0);
    let b = init::uniform(&mut rng, N, N, 1.0);
    let bias = vec![0.1f32; N];
    c.bench_function("gemm/at_b/256", |bench| {
        bench.iter(|| gemm::matmul_at_b(black_box(&a), black_box(&b)))
    });
    c.bench_function("gemm/a_bt/256", |bench| {
        bench.iter(|| gemm::matmul_a_bt(black_box(&a), black_box(&b)))
    });
    c.bench_function("gemm/bias/256", |bench| {
        bench.iter(|| gemm::matmul_bias(black_box(&a), black_box(&b), black_box(&bias)))
    });
}

/// Threaded-vs-single pair at the gate's reference size. Output bits
/// are identical by the determinism contract; only wall clock may
/// differ. The thread setting is restored to 1 so no other suite runs
/// parallel by accident.
fn bench_gemm_threaded(c: &mut Criterion) {
    const N: usize = 256;
    let mut rng = StdRng::seed_from_u64(7);
    let a = init::uniform(&mut rng, N, N, 1.0);
    let b = init::uniform(&mut rng, N, N, 1.0);
    let mut group = c.benchmark_group("gemm_threads");
    gemm::set_threads(1);
    group.bench_with_input(BenchmarkId::new("single", N), &N, |bench, _| {
        bench.iter(|| gemm::matmul(black_box(&a), black_box(&b)))
    });
    gemm::set_threads(4);
    group.bench_with_input(BenchmarkId::new("quad", N), &N, |bench, _| {
        bench.iter(|| gemm::matmul(black_box(&a), black_box(&b)))
    });
    gemm::set_threads(1);
    group.finish();
}

fn bench_gemm_mlp_shapes(c: &mut Criterion) {
    // The first-layer GEMM of an MNIST-shaped candidate: 32 x 784 x 128.
    let mut rng = StdRng::seed_from_u64(1);
    let x = init::uniform(&mut rng, 32, 784, 1.0);
    let w = init::uniform(&mut rng, 784, 128, 1.0);
    let bias = vec![0.1f32; 128];
    c.bench_function("gemm/mnist_layer_32x784x128", |b| {
        b.iter(|| gemm::matmul_bias(black_box(&x), black_box(&w), black_box(&bias)))
    });
}

/// A har output head: 6 classes behind a 150-wide layer at batch 32.
/// An output 5 to 8 wide runs the 8×8 tile even on AVX-512F CPUs, so
/// this is where that rule is measured.
fn bench_gemm_head(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let h = init::uniform(&mut rng, 32, 150, 1.0);
    let w = init::uniform(&mut rng, 150, 6, 1.0);
    let bias = vec![0.1f32; 6];
    c.bench_function("gemm/head_32x150x6", |b| {
        b.iter(|| gemm::matmul_bias(black_box(&h), black_box(&w), black_box(&bias)))
    });
}

/// `creditg-fpga`'s calls at batch 32, where fixed per-call costs
/// weigh most: a hidden layer's forward, the 2-class head's forward and
/// its weight gradient (`at_b`, output 2 wide). On AVX-512F CPUs the
/// two head calls run the 8×16 tile transposed.
fn bench_gemm_creditg(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let x = init::uniform(&mut rng, 32, 37, 1.0);
    let w = init::uniform(&mut rng, 37, 30, 1.0);
    let bias = vec![0.1f32; 30];
    c.bench_function("gemm/creditg_layer_32x37x30", |b| {
        b.iter(|| gemm::matmul_bias(black_box(&x), black_box(&w), black_box(&bias)))
    });
    let h = init::uniform(&mut rng, 32, 64, 1.0);
    let w = init::uniform(&mut rng, 64, 2, 1.0);
    let bias = vec![0.1f32; 2];
    c.bench_function("gemm/creditg_head_32x64x2", |b| {
        b.iter(|| gemm::matmul_bias(black_box(&h), black_box(&w), black_box(&bias)))
    });
    let dy = init::uniform(&mut rng, 32, 2, 1.0);
    c.bench_function("gemm/creditg_head_grad_64x32x2", |b| {
        b.iter(|| gemm::matmul_at_b(black_box(&h), black_box(&dy)))
    });
}

fn bench_backprop_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = init::uniform(&mut rng, 32, 256, 1.0);
    let dy = init::uniform(&mut rng, 32, 128, 1.0);
    let w = init::uniform(&mut rng, 256, 128, 1.0);
    c.bench_function("gemm/at_b_weight_grad", |b| {
        b.iter(|| gemm::matmul_at_b(black_box(&x), black_box(&dy)))
    });
    c.bench_function("gemm/a_bt_delta", |b| {
        b.iter(|| gemm::matmul_a_bt(black_box(&dy), black_box(&w)))
    });
    // A 561-deep `a_bt` reduction, where the transposed B pack writes
    // each packed row a tile width apart (ROADMAP's smaller items).
    let a = init::uniform(&mut rng, 32, 561, 1.0);
    let b = init::uniform(&mut rng, 100, 561, 1.0);
    c.bench_function("gemm/a_bt_32x561x100", |bench| {
        bench.iter(|| gemm::matmul_a_bt(black_box(&a), black_box(&b)))
    });
}

fn bench_softmax_and_loss(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let logits = init::uniform(&mut rng, 256, 10, 5.0);
    let labels: Vec<usize> = (0..256).map(|i| i % 10).collect();
    let targets = ops::one_hot(&labels, 10);
    c.bench_function("ops/softmax_256x10", |b| {
        b.iter(|| ops::softmax_rows(black_box(&logits)))
    });
    let probs = ops::softmax_rows(&logits);
    c.bench_function("ops/cross_entropy_256x10", |b| {
        b.iter(|| ops::cross_entropy(black_box(&probs), black_box(&targets)))
    });
}

/// One tanh layer pass at batch 32 and `creditg-fpga`'s widest hidden
/// width (64 neurons), on pre-activations in [-3, 3]. The copy of the
/// input each iteration keeps every pass on the same values.
fn bench_tanh_layer(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let z = init::uniform(&mut rng, 32, 64, 3.0);
    c.bench_function("ops/tanh_32x64", |b| {
        b.iter(|| {
            let mut a = black_box(&z).clone();
            ops::tanh_inplace(a.as_mut_slice());
            a
        })
    });
}

fn bench_mlp_train_step(c: &mut Criterion) {
    let topo = MlpTopology::builder(561, 6)
        .hidden(128, Activation::Relu, true)
        .hidden(64, Activation::Relu, true)
        .build();
    let mut rng = StdRng::seed_from_u64(4);
    let net = Mlp::from_topology(&topo, &mut rng);
    let x = init::uniform(&mut rng, 32, 561, 1.0);
    let labels: Vec<usize> = (0..32).map(|i| i % 6).collect();
    let t = ops::one_hot(&labels, 6);
    c.bench_function("mlp/har_forward_batch32", |b| {
        b.iter(|| net.forward(black_box(&x)))
    });
    c.bench_function("mlp/har_backprop_batch32", |b| {
        b.iter(|| net.backprop(black_box(&x), black_box(&t)))
    });

    // A credit-g candidate of the benchmark's shape: 20 features, two
    // hidden layers, 2 classes.
    let topo = MlpTopology::builder(20, 2)
        .hidden(37, Activation::Tanh, true)
        .hidden(30, Activation::Relu, true)
        .build();
    let net = Mlp::from_topology(&topo, &mut rng);
    let x = init::uniform(&mut rng, 32, 20, 1.0);
    let labels: Vec<usize> = (0..32).map(|i| i % 2).collect();
    let t = ops::one_hot(&labels, 2);
    c.bench_function("mlp/creditg_backprop_batch32", |b| {
        b.iter(|| net.backprop(black_box(&x), black_box(&t)))
    });
}

fn bench_matrix_ops(c: &mut Criterion) {
    let m = Matrix::from_fn(512, 512, |r, c2| (r * 512 + c2) as f32);
    c.bench_function("matrix/transpose_512", |b| {
        b.iter(|| black_box(&m).transposed())
    });
    c.bench_function("matrix/argmax_rows_512", |b| {
        b.iter(|| black_box(&m).argmax_rows())
    });
}
