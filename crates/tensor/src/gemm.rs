//! General matrix multiplication kernels.
//!
//! Two implementations are provided:
//!
//! * [`matmul_naive`] — the textbook triple loop, kept as the
//!   correctness *and accumulation-order* oracle for tests and property
//!   checks.
//! * [`matmul`] / [`matmul_bias`] / [`matmul_at_b`] / [`matmul_a_bt`] —
//!   one packed, register-tiled kernel family sharing a single
//!   [`gemm_driver`](self) behind the four public shapes
//!   backpropagation needs, so no call site materializes a transpose.
//!
//! # Kernel layout
//!
//! Each call packs the operands once: logical `A` (`m×k`) into row
//! panels of `MR` rows stored k-major (`apack[p*MR + i] = A[i0+i, p]`)
//! and logical `B` (`k×n`) into column panels of [`NR`] columns stored
//! k-major (`bpack[p*NR + j] = B[p, j0+j]`). An `MR×NR` microkernel then
//! walks both panels contiguously, carrying the full tile of `C` in a
//! register accumulator array. The fixed-shape inner loops are plain
//! mul/add chains over independent accumulators, which LLVM
//! auto-vectorizes without reordering any single chain (no fast-math is
//! enabled anywhere in the workspace). Edge tiles are zero-padded in
//! the packed buffers and only the valid `h×w` region is copied out, so
//! padding lanes never touch a real output element.
//!
//! # Tile per instruction set
//!
//! The driver is generic over the tile height and compiled twice; each
//! call picks one with a single CPU check (see [`kernel`]):
//!
//! * `avx2-8x8` — on x86-64 hosts with AVX2, an 8×8 tile: eight 8-wide
//!   YMM accumulators, leaving room in the 16-register file for one row
//!   of `B` and the broadcasts of `A`. Only the `avx2` target feature is
//!   enabled, never `fma`, so every multiply and add still rounds
//!   separately.
//! * `portable-4x8` — everywhere else, a 4×8 tile ([`MR`] rows) that
//!   fits the baseline x86-64 (SSE2) register file, which 8×8
//!   overflows.
//!
//! Both tiles produce the same bits (see below), so the choice moves
//! only time.
//!
//! # Determinism contract
//!
//! Every output element is produced by **one** f32 accumulator updated
//! as `acc = acc + A[i,p] * B[p,j]` for `p = 0, 1, …, k-1`, in that
//! order — exactly the operation sequence of [`matmul_naive`]. Because
//! parallelism only partitions *rows of C* across lanes (never the `k`
//! reduction), and lane assignment in [`rt::pool`] is a pure function
//! of the panel index, results are bit-identical:
//!
//! * to [`matmul_naive`] (and the transposed-naive references for the
//!   fused variants),
//! * across repeated runs in one process,
//! * across any thread count (1 vs N), on hosts with any core count,
//! * across the two tiles, so on hosts with and without AVX2.
//!
//! `crates/tensor/tests/gemm_oracle.rs` pins the first property over an
//! exhaustive shape grid and `tests/gemm_determinism.rs` pins the rest,
//! including a test-local reversed-`k` mutant that the bitwise check
//! must catch; a unit test here runs both tiles against the oracle
//! directly, so the portable tile stays covered on AVX2 hosts.

use crate::{avx2, Matrix};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tile height of the portable microkernel: rows of `C` carried per
/// register tile on hosts without AVX2. The AVX2 tile carries 8 rows;
/// [`kernel`] names the tile this host runs.
pub const MR: usize = 4;
/// Microkernel tile width: columns of `C` carried per register tile,
/// shared by both tiles (and so is the packed-`B` layout).
pub const NR: usize = 8;

/// Tile height of the AVX2 microkernel.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 8;

/// Calls below this many multiply-accumulates (`m*k*n`) always run
/// single-threaded; pool dispatch costs more than it saves there.
const PAR_MIN_MACS: usize = 128 * 1024;

/// Extra floats a pack buffer allocates so it can start on a 64-byte
/// boundary wherever the allocator put it (see [`aligned`]).
const ALIGN_PAD: usize = 64 / std::mem::size_of::<f32>() - 1;

/// The `len`-float window of `store` that starts on a 64-byte
/// boundary. With `store` [`ALIGN_PAD`] floats longer than `len`, every
/// packed `B` panel (`k * NR` floats) then starts on a multiple of 32
/// bytes, so the AVX2 tile's row loads never split a cache line, and
/// the kernel's timing does not depend on heap state outside it.
fn aligned(store: &mut [f32], len: usize) -> &mut [f32] {
    let offset = store.as_ptr().align_offset(64);
    &mut store[offset..offset + len]
}

/// Requested lane count.
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide GEMM lane count (clamped to at least 1).
///
/// 1 (the default) keeps every call on the caller's thread. Larger
/// values let calls above the parallel threshold split row panels
/// across the shared [`rt::pool`]; by the determinism contract the
/// output bits do not depend on this setting.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::SeqCst);
}

/// The effective GEMM lane count: the last [`set_threads`] value, or 1.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Names the register tile this host's GEMM calls run: `"avx2-8x8"`
/// on x86-64 CPUs with AVX2, else `"portable-4x8"`. Kernel timings
/// depend on it, so benchmark reports record it; the output bits do
/// not.
pub fn kernel() -> &'static str {
    if avx2() {
        "avx2-8x8"
    } else {
        "portable-4x8"
    }
}

/// Multiplies `a * b` with the textbook triple loop.
///
/// This is the correctness oracle for the packed kernels, and its
/// accumulation order is normative: one accumulator per output element,
/// updated over `p` ascending. The packed kernels reproduce that order
/// exactly, so tests compare against it **bitwise**. (There is no
/// zero-skip here: skipping `0.0 * x` terms would change NaN/inf
/// propagation and break the shared-order contract.)
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_naive: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
    c
}

/// Multiplies `a * b` with the packed, register-tiled production
/// kernel (see the module docs for layout and the determinism
/// contract).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use ecad_tensor::{Matrix, gemm};
/// let a = Matrix::from_rows(&[[1.0, 2.0, 3.0]]);
/// let b = Matrix::from_rows(&[[1.0], [1.0], [1.0]]);
/// assert_eq!(gemm::matmul(&a, &b)[(0, 0)], 6.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let _prof = rt::prof_span!("gemm");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    dispatch(a, false, b, false, None)
}

/// Computes `a * b + bias` where `bias` is a length-`n` vector broadcast
/// across rows — the fused layer-forward kernel. The bias add happens
/// once per output element *after* the accumulation chain, matching
/// `matmul(a, b)` then adding `bias` elementwise.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `bias.len() != b.cols()`.
pub fn matmul_bias(a: &Matrix, b: &Matrix, bias: &[f32]) -> Matrix {
    let _prof = rt::prof_span!("gemm_bias");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_bias: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    assert_eq!(bias.len(), b.cols(), "bias length must equal output width");
    dispatch(a, false, b, false, Some(bias))
}

/// Computes `a^T * b` without materializing `a^T`.
///
/// Backpropagation uses this shape for weight gradients
/// (`dW = X^T * dY`). Bitwise equal to
/// `matmul_naive(&a.transposed(), b)`.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let _prof = rt::prof_span!("gemm_at_b");
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b: row counts differ ({} vs {})",
        a.rows(),
        b.rows()
    );
    dispatch(a, true, b, false, None)
}

/// Computes `a * b^T` without materializing `b^T`.
///
/// Backpropagation uses this shape to push deltas through a layer
/// (`dX = dY * W^T`). Bitwise equal to
/// `matmul_naive(a, &b.transposed())`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let _prof = rt::prof_span!("gemm_a_bt");
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt: column counts differ ({} vs {})",
        a.cols(),
        b.cols()
    );
    dispatch(a, false, b, true, None)
}

/// Raw output pointer shared across lanes.
#[derive(Clone, Copy)]
struct SharedOut(*mut f32);
// SAFETY: the one field points into the `C` that `gemm_driver`
// allocated and holds mutably for the whole call. Lanes only write
// through it, each to the rows of its own panel range (disjoint by the
// static lane split), and `gemm_driver` touches `C` again only after the
// pool barrier, so no element is accessed from two threads at once.
unsafe impl Send for SharedOut {}
// SAFETY: as for `Send`: sharing the pointer gives no lane access to
// another lane's rows.
unsafe impl Sync for SharedOut {}

/// What every lane of one call reads: the logical `A`, the packed `B`,
/// the bias, and where the `m×n` output goes.
struct Operands<'a> {
    a: &'a Matrix,
    a_trans: bool,
    bpack: &'a [f32],
    bias: Option<&'a [f32]>,
    out: SharedOut,
    m: usize,
    k: usize,
    n: usize,
}

/// Runs one call on the tile [`kernel`] names. `a_trans` / `b_trans`
/// select which operand layout gets packed; dimension agreement is
/// asserted by the callers.
fn dispatch(a: &Matrix, a_trans: bool, b: &Matrix, b_trans: bool, bias: Option<&[f32]>) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` just confirmed that this CPU supports AVX2,
        // the only target feature `gemm_avx2` enables.
        return unsafe { gemm_avx2(a, a_trans, b, b_trans, bias) };
    }
    gemm_driver::<MR>(a, a_trans, b, b_trans, bias, compute_panels::<MR>)
}

/// The 8×8 instantiation of [`gemm_driver`], compiled for AVX2.
/// Calling it is `unsafe` outside AVX2 code: check first that the CPU
/// has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &Matrix, a_trans: bool, b: &Matrix, b_trans: bool, bias: Option<&[f32]>) -> Matrix {
    // A closure takes its target features from the function it is
    // written in, so the pool closure inside `gemm_driver` is compiled
    // without AVX2 even when inlined here; computing the tile there
    // gives the spilling SSE2 8×8 tile (DESIGN.md §19). Every lane
    // therefore enters the tile through `panels_avx2`.
    gemm_driver::<MR_AVX2>(a, a_trans, b, b_trans, bias, |ops, panels| {
        panels_avx2(ops, panels)
    })
}

/// [`compute_panels`] with the 8×8 tile, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panels_avx2(ops: &Operands<'_>, panels: Range<usize>) {
    compute_panels::<MR_AVX2>(ops, panels);
}

/// The one driver behind all four public kernels, generic over the
/// tile height `MR`: it packs `B`, splits the `MR`-row panels of `C`
/// across lanes, and has `lane` compute each lane's panel range.
/// Inlined into its two callers, so `gemm_avx2` packs `B` with AVX2
/// code too.
#[inline(always)]
fn gemm_driver<const MR: usize>(
    a: &Matrix,
    a_trans: bool,
    b: &Matrix,
    b_trans: bool,
    bias: Option<&[f32]>,
    lane: impl Fn(&Operands<'_>, Range<usize>) + Sync,
) -> Matrix {
    let (m, k) = if a_trans {
        let (k, m) = a.shape();
        (m, k)
    } else {
        a.shape()
    };
    let n = if b_trans { b.rows() } else { b.cols() };
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    if k == 0 {
        // Empty reduction: every element is the 0.0 the naive oracle
        // would produce, plus the bias when present.
        if let Some(bv) = bias {
            for i in 0..m {
                c.row_mut(i).copy_from_slice(bv);
            }
        }
        return c;
    }

    let mp = m.div_ceil(MR);
    let np = n.div_ceil(NR);

    // Pack every column panel of B once per call; freshly zeroed, so a
    // ragged final panel keeps zero padding in lanes >= w.
    let mut bstore = vec![0.0f32; np * k * NR + ALIGN_PAD];
    let bpack = aligned(&mut bstore, np * k * NR);
    for jp in 0..np {
        pack_b(
            b,
            b_trans,
            k,
            n,
            jp,
            &mut bpack[jp * k * NR..(jp + 1) * k * NR],
        );
    }

    let lanes = lane_count(m, k, n, mp);
    let ops = Operands {
        a,
        a_trans,
        bpack,
        bias,
        out: SharedOut(c.as_mut_slice().as_mut_ptr()),
        m,
        k,
        n,
    };
    if lanes <= 1 {
        lane(&ops, 0..mp);
    } else {
        // Lane L owns the contiguous panel range [L*mp/lanes,
        // (L+1)*mp/lanes): which lane computes a panel never affects
        // what the panel computes, only where.
        rt::pool::global().run(lanes, |l| {
            lane(&ops, l * mp / lanes..(l + 1) * mp / lanes);
        });
    }
    c
}

/// How many pool lanes a `(m, k, n)` call may use: the configured
/// [`threads`], capped by the row-panel count and the pool width, and
/// forced to 1 below the parallel threshold.
fn lane_count(m: usize, k: usize, n: usize, mp: usize) -> usize {
    let requested = threads();
    if requested <= 1 || mp < 2 {
        return 1;
    }
    let macs = m.saturating_mul(k).saturating_mul(n);
    if macs < PAR_MIN_MACS {
        return 1;
    }
    requested.min(mp).min(rt::pool::global().threads())
}

/// Computes the given range of `MR`-row panels against every column
/// panel. Each lane runs this once over its own disjoint range; it is
/// inlined so the AVX2 lane compiles the tile with AVX2.
#[inline(always)]
fn compute_panels<const MR: usize>(ops: &Operands<'_>, panels: Range<usize>) {
    let &Operands {
        a,
        a_trans,
        bpack,
        bias,
        out,
        m,
        k,
        n,
    } = ops;
    let np = n.div_ceil(NR);
    let mut astore = vec![0.0f32; k * MR + ALIGN_PAD];
    let apack = aligned(&mut astore, k * MR);
    let mut acc = [[0.0f32; NR]; MR];
    for ip in panels {
        let i0 = ip * MR;
        let h = MR.min(m - i0);
        pack_a::<MR>(a, a_trans, k, i0, h, apack);
        for jp in 0..np {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let bp = &bpack[jp * k * NR..(jp + 1) * k * NR];
            microkernel(apack, bp, &mut acc);
            for (i, acc_row) in acc.iter().enumerate().take(h) {
                // SAFETY: rows i0..i0+h belong exclusively to this
                // panel, and panel ranges are disjoint across lanes.
                let row =
                    unsafe { std::slice::from_raw_parts_mut(out.0.add((i0 + i) * n + j0), w) };
                match bias {
                    Some(bv) => {
                        for j in 0..w {
                            row[j] = acc_row[j] + bv[j0 + j];
                        }
                    }
                    None => row.copy_from_slice(&acc_row[..w]),
                }
            }
        }
    }
}

/// Packs `MR` logical rows of `A` starting at `i0`, k-major:
/// `apack[p*MR + i] = A[i0+i, p]`. Rows past `h` are zero padding.
/// Inlined, like the microkernel, so the AVX2 lane packs with AVX2
/// code.
#[inline(always)]
fn pack_a<const MR: usize>(
    a: &Matrix,
    a_trans: bool,
    k: usize,
    i0: usize,
    h: usize,
    apack: &mut [f32],
) {
    if h < MR {
        apack.fill(0.0);
    }
    if a_trans {
        // a is k×m; logical row i of A^T is column i0+i of a.
        for p in 0..k {
            let src = &a.row(p)[i0..i0 + h];
            apack[p * MR..p * MR + h].copy_from_slice(src);
        }
    } else {
        for i in 0..h {
            let src = a.row(i0 + i);
            for (p, &v) in src.iter().enumerate() {
                apack[p * MR + i] = v;
            }
        }
    }
}

/// Packs `NR` logical columns of `B` starting at `jp*NR`, k-major:
/// `dst[p*NR + j] = B[p, j0+j]`. `dst` arrives zeroed, so a ragged
/// panel keeps zero padding in lanes past `w`.
fn pack_b(b: &Matrix, b_trans: bool, k: usize, n: usize, jp: usize, dst: &mut [f32]) {
    let j0 = jp * NR;
    let w = NR.min(n - j0);
    if b_trans {
        // b is n×k; logical column j of B^T is row j0+j of b.
        for j in 0..w {
            let src = b.row(j0 + j);
            for (p, &v) in src.iter().enumerate() {
                dst[p * NR + j] = v;
            }
        }
    } else {
        for p in 0..k {
            let src = &b.row(p)[j0..j0 + w];
            dst[p * NR..p * NR + w].copy_from_slice(src);
        }
    }
}

/// One `MR×NR` register tile: `acc[i][j] = Σ_p apack[p][i] * bpack[p][j]`
/// with `p` strictly ascending. Each `acc[i][j]` is a single dependency
/// chain; the compiler vectorizes *across* the independent chains,
/// which cannot reorder any one of them.
#[inline(always)]
fn microkernel<const MR: usize>(apack: &[f32], bpack: &[f32], acc: &mut [[f32; NR]; MR]) {
    *acc = [[0.0; NR]; MR];
    for (av, bv) in apack.chunks_exact(MR).zip(bpack.chunks_exact(NR)) {
        let av: &[f32; MR] = av.try_into().expect("packed A stride");
        let bv: &[f32; NR] = bv.try_into().expect("packed B stride");
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
}

/// Dot product of two equal-length slices.
///
/// Written with a 4-way unrolled accumulator so LLVM vectorizes it.
/// (The GEMM kernels no longer route through this, but it remains the
/// building block for standalone vector math.)
///
/// # Panics
///
/// Panics if the lengths differ — in every build profile. This used to
/// be a `debug_assert`, which let release builds silently truncate to
/// the shorter operand.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(
        x.len(),
        y.len(),
        "dot: length mismatch ({} vs {})",
        x.len(),
        y.len()
    );
    let mut acc = [0.0f32; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xb = &x[c * 4..c * 4 + 4];
        let yb = &y[c * 4..c * 4 + 4];
        acc[0] += xb[0] * yb[0];
        acc[1] += xb[1] * yb[1];
        acc[2] += xb[2] * yb[2];
        acc[3] += xb[3] * yb[3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// Number of floating-point operations a GEMM of these dimensions performs
/// (the conventional `2 * m * k * n` count used throughout the paper's
/// roofline math).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    /// Whatever offset the allocator hands out, the pack window starts
    /// on a 64-byte boundary and has the asked length.
    #[test]
    fn pack_windows_start_on_a_cache_line() {
        let mut store = vec![0.0f32; 64 + 2 * ALIGN_PAD];
        for skew in 0..=ALIGN_PAD {
            let window = aligned(&mut store[skew..], 64);
            assert_eq!(window.as_ptr() as usize % 64, 0, "skew {skew}");
            assert_eq!(window.len(), 64);
        }
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    fn assert_bits(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn naive_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::identity(3);
        assert_eq!(matmul_naive(&a, &i), a);
        assert_eq!(matmul_naive(&i, &a), a);
    }

    #[test]
    fn packed_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = init::uniform(&mut rng, 5, 7, 1.0);
        let b = init::uniform(&mut rng, 7, 3, 1.0);
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-5);
    }

    #[test]
    fn packed_matches_naive_bitwise_across_tile_boundary() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddle the 8-wide register tiles and 64-ish panels.
        let a = init::uniform(&mut rng, 65, 130, 1.0);
        let b = init::uniform(&mut rng, 130, 67, 1.0);
        assert_bits(&matmul(&a, &b), &matmul_naive(&a, &b));
    }

    #[test]
    fn empty_dims_yield_zero_matrix() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dim_mismatch_panics() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn bias_broadcasts_per_row() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let c = matmul_bias(&a, &b, &[10.0, 20.0]);
        assert_eq!(c.row(0), &[11.0, 22.0]);
        assert_eq!(c.row(1), &[13.0, 24.0]);
    }

    #[test]
    fn bias_with_empty_reduction_is_bias_rows() {
        let c = matmul_bias(&Matrix::zeros(3, 0), &Matrix::zeros(0, 2), &[1.5, -2.5]);
        for r in 0..3 {
            assert_eq!(c.row(r), &[1.5, -2.5]);
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = init::uniform(&mut rng, 6, 4, 1.0);
        let b = init::uniform(&mut rng, 6, 5, 1.0);
        assert_bits(&matmul_at_b(&a, &b), &matmul_naive(&a.transposed(), &b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = init::uniform(&mut rng, 6, 4, 1.0);
        let b = init::uniform(&mut rng, 5, 4, 1.0);
        assert_bits(&matmul_a_bt(&a, &b), &matmul_naive(&a, &b.transposed()));
    }

    #[test]
    fn dot_handles_remainder_lengths() {
        for n in 0..10 {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y = vec![2.0f32; n];
            let expect: f32 = x.iter().sum::<f32>() * 2.0;
            assert!((dot(&x, &y) - expect).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics_in_every_profile() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn flops_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    type Tile = fn(&Matrix, bool, &Matrix, bool, Option<&[f32]>) -> Matrix;

    fn portable(a: &Matrix, at: bool, b: &Matrix, bt: bool, bias: Option<&[f32]>) -> Matrix {
        gemm_driver::<MR>(a, at, b, bt, bias, compute_panels::<MR>)
    }

    /// Every tile this host can run, by its [`kernel`] name.
    fn tiles() -> Vec<(&'static str, Tile)> {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            fn avx2_tile(
                a: &Matrix,
                at: bool,
                b: &Matrix,
                bt: bool,
                bias: Option<&[f32]>,
            ) -> Matrix {
                // SAFETY: `tiles` lists this function only after
                // `avx2()` confirmed that the CPU supports AVX2.
                unsafe { gemm_avx2(a, at, b, bt, bias) }
            }
            return vec![("portable-4x8", portable), ("avx2-8x8", avx2_tile)];
        }
        vec![("portable-4x8", portable)]
    }

    /// Both tiles, driven directly rather than through the dispatch
    /// (which on AVX2 hosts never runs the portable one), against the
    /// naive oracle bitwise: all four kernel shapes over the oracle's
    /// `{0,1,2,3,5,7,8,9}³` grid and its 64/128 boundary shapes.
    #[test]
    fn every_tile_matches_naive_bitwise() {
        const DIMS: [usize; 8] = [0, 1, 2, 3, 5, 7, 8, 9];
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for m in DIMS {
            for k in DIMS {
                shapes.extend(DIMS.map(|n| (m, k, n)));
            }
        }
        for (x, y, z) in [(63, 64, 65), (127, 128, 129)] {
            shapes.extend([(x, y, z), (y, z, x), (z, x, y), (y, y, y)]);
        }
        let tiles = tiles();
        assert_eq!(tiles.last().map(|t| t.0), Some(kernel()));
        for (m, k, n) in shapes {
            let mut rng = StdRng::seed_from_u64((m as u64) << 32 | (k as u64) << 16 | n as u64);
            let a = init::uniform(&mut rng, m, k, 1.0);
            let b = init::uniform(&mut rng, k, n, 1.0);
            let at = init::uniform(&mut rng, k, m, 1.0);
            let bt = init::uniform(&mut rng, n, k, 1.0);
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
            let naive = matmul_naive(&a, &b);
            let mut naive_bias = naive.clone();
            for r in 0..m {
                for (x, &bv) in naive_bias.row_mut(r).iter_mut().zip(&bias) {
                    *x += bv;
                }
            }
            let want = [
                naive,
                naive_bias,
                matmul_naive(&at.transposed(), &b),
                matmul_naive(&a, &bt.transposed()),
            ];
            for &(name, tile) in &tiles {
                let got = [
                    tile(&a, false, &b, false, None),
                    tile(&a, false, &b, false, Some(&bias)),
                    tile(&at, true, &b, false, None),
                    tile(&a, false, &bt, true, None),
                ];
                let ops = ["matmul", "matmul_bias", "matmul_at_b", "matmul_a_bt"];
                for ((op, got), want) in ops.iter().zip(&got).zip(&want) {
                    let ctx = format!("{name} {op} m={m} k={k} n={n}");
                    assert_eq!(got.shape(), want.shape(), "{ctx}");
                    for (e, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        let (i, j) = (e / n, e % n);
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{ctx} i={i} j={j}: {x:?} vs {y:?}"
                        );
                    }
                }
            }
        }
    }
}
