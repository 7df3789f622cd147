//! Exhaustive differential oracle for the packed GEMM kernel family.
//!
//! Every kernel (`matmul`, `matmul_bias`, `matmul_at_b`, `matmul_a_bt`)
//! is compared against the strict-order [`gemm::matmul_naive`]
//! reference over the full shape grid `{0,1,2,3,5,7,8,9}³` plus
//! register-tile and panel boundary shapes around 63/64/65 and
//! 127/128/129. The kernels share the naive oracle's accumulation
//! order, so the comparison is **bitwise**; on failure the report names
//! the `(kernel, m, k, n, i, j)` coordinate and the relative error so a
//! tolerance-level drift is distinguishable from a hard bug.

use ecad_tensor::{gemm, init, Matrix};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

/// Small dims exercising empty, unit, sub-tile, off-by-one-around-8
/// register tile edges.
const DIMS: [usize; 8] = [0, 1, 2, 3, 5, 7, 8, 9];

/// Shapes straddling the register tiles (4 or 8 rows, 8 or 16 columns) and
/// multi-panel row ranges; cyclic permutations keep the count
/// debug-build friendly while still hitting every dimension at every
/// boundary value.
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

/// Relative error for the failure report; `0.0` when bitwise equal,
/// `inf` when only one side is non-finite.
fn rel_err(x: f32, y: f32) -> f32 {
    if x.to_bits() == y.to_bits() {
        return 0.0;
    }
    if !x.is_finite() || !y.is_finite() {
        return f32::INFINITY;
    }
    (x - y).abs() / (1.0 + x.abs().max(y.abs()))
}

/// Asserts `got` and `want` agree bitwise, reporting the offending
/// `(kernel, m, k, n, i, j)` plus both values and the relative error.
fn assert_matches_oracle(
    kernel: &str,
    (m, k, n): (usize, usize, usize),
    got: &Matrix,
    want: &Matrix,
) {
    assert_eq!(
        got.shape(),
        want.shape(),
        "{kernel} m={m} k={k} n={n}: output shape {:?} != oracle {:?}",
        got.shape(),
        want.shape()
    );
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (x, y) = (got[(i, j)], want[(i, j)]);
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "kernel={kernel} m={m} k={k} n={n} i={i} j={j}: \
                 got {x:?} (bits {:#010x}) vs oracle {y:?} (bits {:#010x}), rel err {:e}",
                x.to_bits(),
                y.to_bits(),
                rel_err(x, y)
            );
        }
    }
}

/// Runs all four kernels at one `(m, k, n)` against their naive
/// references. Operands are seeded from the shape so every grid point
/// uses distinct data, with values in ±1 like trained-layer tensors.
fn check_shape(m: usize, k: usize, n: usize) {
    let seed = (m as u64) << 32 | (k as u64) << 16 | n as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform(&mut rng, m, k, 1.0);
    let b = init::uniform(&mut rng, k, n, 1.0);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.25 - 1.0).collect();

    let naive = gemm::matmul_naive(&a, &b);
    assert_matches_oracle("matmul", (m, k, n), &gemm::matmul(&a, &b), &naive);

    let mut naive_bias = naive.clone();
    for r in 0..m {
        for (x, &bv) in naive_bias.row_mut(r).iter_mut().zip(&bias) {
            *x += bv;
        }
    }
    assert_matches_oracle(
        "matmul_bias",
        (m, k, n),
        &gemm::matmul_bias(&a, &b, &bias),
        &naive_bias,
    );

    // a^T * b: feed a k×m left operand; transposed() copies values
    // exactly, so the naive reference stays a bitwise oracle.
    let at = init::uniform(&mut rng, k, m, 1.0);
    assert_matches_oracle(
        "matmul_at_b",
        (m, k, n),
        &gemm::matmul_at_b(&at, &b),
        &gemm::matmul_naive(&at.transposed(), &b),
    );

    // a * b^T: feed an n×k right operand.
    let bt = init::uniform(&mut rng, n, k, 1.0);
    assert_matches_oracle(
        "matmul_a_bt",
        (m, k, n),
        &gemm::matmul_a_bt(&a, &bt),
        &gemm::matmul_naive(&a, &bt.transposed()),
    );
}

#[test]
fn every_kernel_matches_naive_over_the_full_small_grid() {
    for &m in &DIMS {
        for &k in &DIMS {
            for &n in &DIMS {
                check_shape(m, k, n);
            }
        }
    }
}

#[test]
fn every_kernel_matches_naive_at_tile_boundaries() {
    for &(m, k, n) in &BOUNDARY {
        check_shape(m, k, n);
    }
}

#[test]
fn oracle_report_names_kernel_shape_and_element() {
    // Pin the failure-report format itself: a deliberately wrong cell
    // must produce a message naming (kernel, m, k, n, i, j).
    let got = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.5]]);
    let want = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
    let err = std::panic::catch_unwind(|| {
        assert_matches_oracle("matmul", (2, 2, 2), &got, &want);
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .expect("assert message")
        .clone();
    for needle in ["kernel=matmul", "m=2", "k=2", "n=2", "i=1", "j=1", "rel err"] {
        assert!(msg.contains(needle), "missing {needle:?} in {msg}");
    }
}
