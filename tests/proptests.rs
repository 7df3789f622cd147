//! Property-based tests over the core data structures and invariants,
//! spanning crate boundaries. Runs on `rt::check` (see `crates/rt`),
//! with 64 cases per property.

use ecad_repro::core::pareto;
use ecad_repro::core::space::SearchSpace;
use ecad_repro::dataset::{csv, folds, synth::SyntheticSpec};
use ecad_repro::hw::fpga::{FpgaDevice, FpgaModel, GridConfig};
use ecad_repro::hw::gpu::GpuDevice;
use ecad_repro::tensor::{gemm, init, ops, Matrix};
use rt::check::{ascii_string, vec};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;
use rt::{prop_assert, prop_assert_eq, prop_assume};

/// Builds a random matrix from shape-plus-seed coordinates. The rt
/// harness has no `prop_flat_map`, so properties draw `(rows, cols,
/// seed)` and materialize the matrix here.
fn small_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    init::uniform(&mut rng, rows, cols, 10.0)
}

rt::prop! {
    #![cases(64)]

    /// Blocked GEMM agrees with the naive reference on arbitrary shapes.
    fn gemm_blocked_equals_naive(
        m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::uniform(&mut rng, m, k, 2.0);
        let b = init::uniform(&mut rng, k, n, 2.0);
        let fast = gemm::matmul(&a, &b);
        let slow = gemm::matmul_naive(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())));
        }
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    fn gemm_transpose_identity(
        m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..100
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::uniform(&mut rng, m, k, 1.0);
        let b = init::uniform(&mut rng, k, n, 1.0);
        let lhs = gemm::matmul(&a, &b).transposed();
        let rhs = gemm::matmul(&b.transposed(), &a.transposed());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()));
        }
    }

    /// Transpose is an involution and preserves the multiset of values.
    fn transpose_involution(r in 1usize..=12, c in 1usize..=12, seed in 0u64..1000) {
        let m = small_matrix(r, c, seed);
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    /// Softmax rows are probability distributions for any finite input.
    fn softmax_rows_are_distributions(r in 1usize..=10, c in 1usize..=10, seed in 0u64..1000) {
        let m = small_matrix(r, c, seed);
        let p = ops::softmax_rows(&m);
        prop_assert!(p.all_finite());
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// one_hot ∘ argmax is the identity on label vectors.
    fn one_hot_argmax_round_trip(labels in vec(0usize..7, 1..50)) {
        let oh = ops::one_hot(&labels, 7);
        prop_assert_eq!(oh.argmax_rows(), labels);
    }

    /// K-fold partitions: every index in exactly one test fold, train
    /// and test disjoint and covering.
    fn kfold_partition_invariants(n in 10usize..120, k in 2usize..10, seed in 0u64..100) {
        prop_assume!(k <= n);
        let mut rng = StdRng::seed_from_u64(seed);
        let folds = folds::kfold(n, k, &mut rng);
        let mut seen = vec![0usize; n];
        for f in &folds {
            for &i in &f.test { seen[i] += 1; }
            let mut all: Vec<usize> = f.train.iter().chain(&f.test).copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// CSV round-trip preserves arbitrary field content.
    fn csv_field_round_trip(rows in vec(vec(ascii_string(0..=12), 1..5), 1..8)) {
        // All rows must have the same width for a rectangular table.
        let width = rows[0].len();
        let rect: Vec<Vec<String>> = rows.into_iter().map(|mut r| {
            r.resize(width, String::new());
            r
        }).collect();
        let text = csv::emit(&rect);
        let parsed = csv::parse(&text).unwrap();
        // Rows that are entirely empty fields serialize to blank lines,
        // which the parser skips; skip them in the expectation too.
        let expected: Vec<Vec<String>> = rect
            .into_iter()
            .filter(|r| !(r.len() == 1 && r[0].is_empty()))
            .collect();
        prop_assert_eq!(parsed, expected);
    }

    /// Mutation and crossover never escape the search space.
    fn genetic_operators_closed(seed in 0u64..500, steps in 1usize..40) {
        let space = SearchSpace::fpga_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = space.sample(&mut rng);
        let other = space.sample(&mut rng);
        for _ in 0..steps {
            g = space.mutate(&g, &mut rng);
            prop_assert!(space.contains(&g));
            g = space.crossover(&g, &other, &mut rng);
            prop_assert!(space.contains(&g));
        }
    }

    /// Pareto front: every non-front point is dominated by someone;
    /// no front point is dominated by anyone.
    fn pareto_front_definition(points in vec(vec(0.0f64..1.0, 2..4usize), 1..40)) {
        let dims = points[0].len();
        let rect: Vec<Vec<f64>> = points.into_iter().map(|mut p| { p.resize(dims, 0.0); p }).collect();
        let front = pareto::pareto_front(&rect);
        for (i, p) in rect.iter().enumerate() {
            let dominated = rect.iter().enumerate().any(|(j, q)| j != i && pareto::dominates(q, p));
            prop_assert_eq!(front.contains(&i), !dominated);
        }
    }

    /// Pareto-archive hypervolume (the per-epoch convergence metric):
    /// monotone non-decreasing under any insertion sequence, bounded
    /// by the unit box, and zero only while the archive is empty.
    fn archive_hypervolume_monotone(points in vec(vec(-1e3f64..1e3, 2..4usize), 1..40)) {
        let dims = points[0].len();
        let rect: Vec<Vec<f64>> = points.into_iter().map(|mut p| { p.resize(dims, 0.0); p }).collect();
        let mut archive = ecad_repro::core::analytics::ParetoArchive::new();
        let mut prev = archive.hypervolume();
        prop_assert_eq!(prev, 0.0);
        for p in &rect {
            archive.insert(p);
            let hv = archive.hypervolume();
            prop_assert!(hv >= prev - 1e-12, "hypervolume fell: {} -> {}", prev, hv);
            prop_assert!(hv <= 1.0 + 1e-12);
            prop_assert!(hv > 0.0); // finite points always dominate some volume
            prev = hv;
        }
        prop_assert!(!archive.is_empty() && archive.len() <= rect.len());
    }

    /// FPGA model monotonicity: adding DDR banks never lowers
    /// throughput, and effective never exceeds the compute roofline.
    fn fpga_bandwidth_monotonicity(
        rows_i in 0usize..4, cols_i in 0usize..4, il in 1u32..8, vec_i in 0usize..4,
        m in 1usize..128, k in 1usize..1024, n in 1usize..512
    ) {
        let dims = [2u32, 4, 8, 16];
        let vecs = [1u32, 2, 4, 8];
        let grid = GridConfig::new(dims[rows_i], dims[cols_i], il, il, vecs[vec_i]).unwrap();
        let mut prev = 0.0f64;
        for banks in [1u32, 2, 4] {
            let model = FpgaModel::new(FpgaDevice::arria10_gx1150(banks));
            if let Ok(perf) = model.evaluate(&grid, &[(m, k, n)]) {
                prop_assert!(perf.outputs_per_s >= prev * (1.0 - 1e-12));
                prop_assert!(perf.effective_gflops <= perf.compute_roofline_gflops * (1.0 + 1e-9));
                prop_assert!((0.0..=1.0).contains(&perf.efficiency));
                prop_assert!(perf.latency_s <= perf.total_time_s * (1.0 + 1e-9));
                prev = perf.outputs_per_s;
            }
        }
    }

    /// GPU model: more batch never increases per-output cost; efficiency
    /// stays a fraction.
    fn gpu_batching_monotonicity(k in 1usize..1024, n in 1usize..512) {
        let model = GpuDevice::titan_x().roofline();
        let mut prev = 0.0f64;
        for batch in [1usize, 16, 256, 4096] {
            let perf = model.evaluate(&[(batch, k, n)], &[true]);
            prop_assert!(perf.outputs_per_s >= prev * (1.0 - 1e-9));
            prop_assert!((0.0..=1.0).contains(&perf.efficiency));
            prev = perf.outputs_per_s;
        }
    }

    /// Synthetic datasets always satisfy their spec.
    fn synthetic_spec_shape_invariants(
        n in 2usize..80, d in 1usize..20, classes in 2usize..6, seed in 0u64..200
    ) {
        let ds = SyntheticSpec::new("prop", n, d, classes).with_seed(seed).generate();
        prop_assert_eq!(ds.len(), n);
        prop_assert_eq!(ds.n_features(), d);
        prop_assert_eq!(ds.n_classes(), classes);
        prop_assert!(ds.features().all_finite());
        prop_assert!(ds.labels().iter().all(|&l| l < classes));
    }
}
