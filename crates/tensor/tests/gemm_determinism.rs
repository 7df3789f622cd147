//! Determinism pins for the packed GEMM kernel family.
//!
//! The contract under test (documented in `gemm`'s module docs): every
//! output element is one f32 accumulator updated over `p` ascending, so
//! results are bit-identical to the strict naive oracle, across
//! repeated in-process runs, and across *any* thread count — lanes
//! partition rows of `C`, never the `k` reduction. A test-local
//! broken-accumulation-order mutant proves the bitwise oracle has
//! teeth, and an `rt::prop!` fuzz sweeps random shapes (including
//! 0-dims) and special values (±0 and ±inf must come out exactly as
//! the oracle's, a NaN wherever the oracle has one, never a panic).

use ecad_tensor::{gemm, init, Matrix};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};
use rt::prop_assert;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// `gemm::set_threads` is a process global; every test in this binary
/// serializes on this lock so the harness' default test parallelism
/// cannot interleave settings.
fn kernel_globals() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Same small grid as `gemm_oracle.rs`.
const DIMS: [usize; 8] = [0, 1, 2, 3, 5, 7, 8, 9];

/// Boundary shapes that actually take the parallel path (the small grid
/// stays under the parallel threshold, where bit-identity across thread
/// counts is trivially true).
const BOUNDARY: [(usize, usize, usize); 8] = [
    (63, 64, 65),
    (64, 65, 63),
    (65, 63, 64),
    (64, 64, 64),
    (127, 128, 129),
    (128, 129, 127),
    (129, 127, 128),
    (128, 128, 128),
];

fn seeded(m: usize, k: usize, n: usize) -> (Matrix, Matrix, Vec<f32>, Matrix, Matrix) {
    let seed = (m as u64) << 32 | (k as u64) << 16 | n as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
    let a = init::uniform(&mut rng, m, k, 1.0);
    let b = init::uniform(&mut rng, k, n, 1.0);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.5 - 1.0).collect();
    let at = init::uniform(&mut rng, k, m, 1.0);
    let bt = init::uniform(&mut rng, n, k, 1.0);
    (a, b, bias, at, bt)
}

fn all_kernels(m: usize, k: usize, n: usize) -> Vec<(&'static str, Matrix)> {
    let (a, b, bias, at, bt) = seeded(m, k, n);
    vec![
        ("matmul", gemm::matmul(&a, &b)),
        ("matmul_bias", gemm::matmul_bias(&a, &b, &bias)),
        ("matmul_at_b", gemm::matmul_at_b(&at, &b)),
        ("matmul_a_bt", gemm::matmul_a_bt(&a, &bt)),
    ]
}

fn assert_bits(ctx: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (x, y) = (got[(i, j)], want[(i, j)]);
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: ({i},{j}) {x:?} vs {y:?}"
            );
        }
    }
}

/// `matmul` over every oracle shape (full small grid + boundary) must
/// be byte-identical at 1, 2, and 7 threads. All four kernels are
/// additionally pinned on the boundary shapes, which exercise the
/// multi-lane row-panel split for real.
#[test]
fn bit_identity_across_thread_counts() {
    let _g = kernel_globals();
    let shapes: Vec<(usize, usize, usize)> = DIMS
        .iter()
        .flat_map(|&m| DIMS.iter().flat_map(move |&k| DIMS.iter().map(move |&n| (m, k, n))))
        .chain(BOUNDARY.iter().copied())
        .collect();
    for &(m, k, n) in &shapes {
        gemm::set_threads(1);
        let (a, b, _, _, _) = seeded(m, k, n);
        let single = gemm::matmul(&a, &b);
        for t in [2, 7] {
            gemm::set_threads(t);
            let multi = gemm::matmul(&a, &b);
            assert_bits(&format!("matmul m={m} k={k} n={n} threads={t}"), &multi, &single);
        }
    }
    for &(m, k, n) in &BOUNDARY {
        gemm::set_threads(1);
        let single = all_kernels(m, k, n);
        for t in [2, 7] {
            gemm::set_threads(t);
            for (got, want) in all_kernels(m, k, n).iter().zip(&single) {
                assert_bits(
                    &format!("{} m={m} k={k} n={n} threads={t}", got.0),
                    &got.1,
                    &want.1,
                );
            }
        }
    }
    gemm::set_threads(1);
}

/// Two runs in one process, at a multi-lane thread count, are
/// bit-identical for every kernel.
#[test]
fn bit_identity_across_repeated_runs() {
    let _g = kernel_globals();
    gemm::set_threads(7);
    for &(m, k, n) in &BOUNDARY {
        for (first, second) in all_kernels(m, k, n).iter().zip(all_kernels(m, k, n)) {
            assert_bits(
                &format!("{} m={m} k={k} n={n} run2", first.0),
                &second.1,
                &first.1,
            );
        }
    }
    gemm::set_threads(1);
}

/// The broken-accumulation-order mutant: `a * b` with the `k`
/// reduction walked in descending order — numerically plausible,
/// bitwise wrong.
fn matmul_reversed_k(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols())
            .rev()
            .fold(0.0f32, |acc, p| acc + a[(i, p)] * b[(p, j)])
    })
}

/// The reversed-`k` mutant must be caught by the bit-identity-vs-naive
/// check that the packed kernel passes. This proves the oracle detects
/// accumulation-order drift rather than vacuously passing.
#[test]
fn broken_accumulation_order_mutant_is_caught() {
    let _g = kernel_globals();
    gemm::set_threads(1);
    let mut rng = StdRng::seed_from_u64(99);
    let a = init::uniform(&mut rng, 64, 64, 1.0);
    let b = init::uniform(&mut rng, 64, 64, 1.0);
    let naive = gemm::matmul_naive(&a, &b);
    let mutant = matmul_reversed_k(&a, &b);

    let drifted = mutant
        .as_slice()
        .iter()
        .zip(naive.as_slice())
        .any(|(x, y)| x.to_bits() != y.to_bits());
    assert!(
        drifted,
        "reversed accumulation order produced bit-identical output; \
         the bitwise oracle would never catch an order regression"
    );
    // Tolerance-level agreement still holds: the mutant is numerically
    // plausible, which is exactly why the pin must be bitwise.
    for (x, y) in mutant.as_slice().iter().zip(naive.as_slice()) {
        assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())));
    }
    assert_bits("packed kernel", &gemm::matmul(&a, &b), &naive);
}

rt::prop! {
    #![cases(96)]

    /// Fuzz: random shapes (including 0-dims, and outputs up to 34
    /// wide, so 16-wide panels and their ragged tails are hit) with
    /// sprinkled special values. Kernels must never panic; every output
    /// that is not NaN in the strict naive oracle must equal it bitwise
    /// (±0 and ±inf included), a NaN must meet a NaN, and NaN rows must
    /// propagate like the oracle (no zero-skip may swallow them).
    ///
    /// A NaN's sign and payload are not compared. Which NaN operand an
    /// add returns is left open, and `matmul_naive`'s own vectorized
    /// body and scalar tail choose differently when both addends are
    /// NaN (the default NaN of ∞·0 and an input NaN, say).
    fn fuzz_shapes_and_special_values(
        m in 0usize..10, k in 0usize..10, n in 0usize..35, seed in 0u64..100_000
    ) {
        let _g = kernel_globals();
        gemm::set_threads(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = init::uniform(&mut rng, m, k, 1.0);
        let mut b = init::uniform(&mut rng, k, n, 1.0);
        let specials = [
            f32::NAN,
            f32::from_bits(0xffc0_0000), // -NaN
            f32::from_bits(0x7fc0_1234), // a NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ];
        for _ in 0..3 {
            if m * k > 0 {
                let idx = rng.gen_range(0..m * k);
                a.as_mut_slice()[idx] = specials[rng.gen_range(0..specials.len())];
            }
            if k * n > 0 {
                let idx = rng.gen_range(0..k * n);
                b.as_mut_slice()[idx] = specials[rng.gen_range(0..specials.len())];
            }
        }
        let naive = gemm::matmul_naive(&a, &b);
        let packed = gemm::matmul(&a, &b);
        prop_assert!(packed.shape() == (m, n));
        for i in 0..m {
            for j in 0..n {
                let (x, y) = (packed[(i, j)], naive[(i, j)]);
                let same = if y.is_nan() { x.is_nan() } else { x.to_bits() == y.to_bits() };
                prop_assert!(
                    same,
                    "m={m} k={k} n={n} i={i} j={j}: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
                    x.to_bits(),
                    y.to_bits()
                );
            }
        }
        // NaN propagation: a NaN anywhere in row i of A taints the
        // whole output row (every element's chain crosses every p).
        if n > 0 {
            for i in 0..m {
                if a.row(i).iter().any(|v| v.is_nan()) {
                    prop_assert!(
                        packed.row(i).iter().all(|v| v.is_nan()),
                        "row {i} lost its NaN taint"
                    );
                }
            }
        }
    }
}
