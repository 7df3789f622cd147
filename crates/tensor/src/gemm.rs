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
//! and logical `B` (`k×n`) into column panels of `NR` columns stored
//! k-major (`bpack[p*NR + j] = B[p, j0+j]`). An `MR×NR` microkernel then
//! walks both panels contiguously, carrying the full tile of `C` in
//! registers, and stores the tile's live `h×w` corner into `C` itself,
//! adding the bias after the last step; edge tiles are zero-padded in
//! the packs, and padding lanes never reach `C`. Packing and storing
//! use fixed-size copies and fixed-count loops, never a runtime-length
//! `memcpy` or `memset`.
//!
//! The pack buffers of a call up to 16 KiB each come from two buffers
//! its thread keeps (one for `A`, one for `B`), so small calls neither
//! allocate nor zero-fill them; larger calls allocate their own, where
//! the allocation is small next to the product.
//!
//! # Tile per instruction set
//!
//! The driver is generic over the tile's height, width and
//! microkernel, and compiled three times; each call picks one tile from
//! the CPU and its shape (see [`kernel`]):
//!
//! * `avx512-8x16` — on x86-64 CPUs with AVX-512F, for `n > 8`: eight
//!   16-wide ZMM accumulators. Its microkernel is written with explicit
//!   AVX-512F multiplies and adds; left to the compiler, the same tile
//!   ran several times slower than the AVX2 one. It runs only a panel's
//!   live rows and stores each under a 16-lane mask. An output at most 4
//!   wide runs it transposed, `Cᵀ = op(B)ᵀ·op(A)ᵀ`, so the `m` side fills
//!   the lanes (while the transposed `B` pack, which then holds the `m`
//!   side, fits a kept buffer); an output 5 to 8 wide fits one AVX2
//!   panel, where a 16-wide panel would be at least half padding, so
//!   such calls take the 8×8 tile.
//! * `avx2-8x8` — on x86-64 CPUs with AVX2: eight 8-wide YMM
//!   accumulators, leaving room in the 16-register file for one row of
//!   `B` and the broadcasts of `A`.
//! * `portable-4x8` — everywhere else, a 4×8 tile ([`MR`]×[`NR`]) that
//!   fits the baseline x86-64 (SSE2) register file, which 8×8
//!   overflows.
//!
//! The two smaller tiles share one microkernel: plain mul/add chains
//! over independent accumulators, which LLVM auto-vectorizes without
//! reordering any single chain (no fast-math is enabled anywhere in the
//! workspace). No tile fuses a multiply with an add: `fma` is never
//! enabled on its own, nothing calls `mul_add`, and the compiler does
//! not contract a separate multiply and add, so every product and sum
//! rounds separately even where `avx512f` makes FMA encodable. A
//! transposed call multiplies the same two factors with the operands
//! swapped, which IEEE multiplication does not notice. All three tiles,
//! transposed or not, therefore produce the same bits (see below), so
//! the choice moves only time.
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
//! * across the three tiles, so on hosts with and without AVX2 or
//!   AVX-512F.
//!
//! The one exception is a NaN's sign and payload: a NaN output is NaN
//! in the oracle too, but which NaN operand an operation returns is
//! left open (by IEEE 754 and by Rust), and even `matmul_naive`'s own
//! vectorized body and scalar tail choose differently.
//!
//! `crates/tensor/tests/gemm_oracle.rs` pins the first property over an
//! exhaustive shape grid and `tests/gemm_determinism.rs` pins the rest,
//! including a test-local reversed-`k` mutant that the bitwise check
//! must catch; a unit test here runs every tile, transposed and not,
//! against the oracle directly, so the paths the host does not pick
//! stay covered too.

use crate::{avx2, avx512f, Matrix};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::LocalKey;

/// Tile height of the portable microkernel: rows of `C` carried per
/// register tile on hosts without AVX2. The x86-64 tiles carry 8 rows;
/// [`kernel`] names the tile this host runs.
pub const MR: usize = 4;
/// Tile width of the portable and AVX2 microkernels: columns of `C`
/// carried per register tile. The AVX-512F tile carries 16.
pub const NR: usize = 8;

/// Tile height of the AVX2 and AVX-512F microkernels.
#[cfg(target_arch = "x86_64")]
const MR_X86: usize = 8;
/// Tile width of the AVX-512F microkernel: one ZMM register of `f32`.
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 16;

/// Outputs at most this wide run transposed on the AVX-512F tile, so
/// their `m` side fills its 16 lanes (see [`Tile::for_shape`]).
#[cfg(target_arch = "x86_64")]
const NARROW: usize = 4;

/// Calls below this many multiply-accumulates (`m*k*n`) always run
/// single-threaded; pool dispatch costs more than it saves there.
const PAR_MIN_MACS: usize = 128 * 1024;

/// Extra floats a pack buffer allocates so it can start on a 64-byte
/// boundary wherever the allocator put it (see [`aligned`]).
const ALIGN_PAD: usize = 64 / std::mem::size_of::<f32>() - 1;

/// The largest pack window, in floats, that comes from a thread's kept
/// buffers (see [`with_pack`]): 16 KiB, which holds every pack of a
/// `creditg-fpga` training call.
const PACK_KEEP: usize = 4 * 1024;

thread_local! {
    /// This thread's `A` pack buffer, kept between calls.
    static A_PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// This thread's `B` pack buffer, kept between calls.
    static B_PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// The `len`-float window of `store` that starts on a 64-byte
/// boundary. With `store` [`ALIGN_PAD`] floats longer than `len`, every
/// packed `B` panel (`k * NR` floats) then starts on a multiple of 32
/// bytes, and of 64 for the 16-wide tile, so no B row a tile loads
/// splits a cache line, and the kernel's timing does not depend on heap
/// state outside it.
fn aligned(store: &mut [f32], len: usize) -> &mut [f32] {
    let offset = store.as_ptr().align_offset(64);
    &mut store[offset..offset + len]
}

/// Whether a `len`-float pack window comes from the thread's kept
/// buffers (see [`with_pack`]).
fn kept(len: usize) -> bool {
    len <= PACK_KEEP
}

/// Runs `f` on an [`aligned`] `len`-float pack window. A window of at
/// most [`PACK_KEEP`] floats comes from the thread's buffer in `slot`,
/// allocated at that size by its first call and returned there by
/// every call, so small calls neither allocate nor zero-fill. A larger
/// window is allocated for its call alone, where the allocation is
/// small next to the product. A kept window holds whatever an earlier
/// call packed: the pack routines write every float a tile reads,
/// padding included.
fn with_pack<R>(
    slot: &'static LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    if !kept(len) {
        return f(aligned(&mut vec![0.0; len + ALIGN_PAD], len));
    }
    // Empty on the thread's first call, and while a call on this
    // thread holds the buffer (none does today).
    let mut store = slot.take();
    if store.is_empty() {
        store = vec![0.0; PACK_KEEP + ALIGN_PAD];
    }
    let out = f(aligned(&mut store, len));
    slot.set(store);
    out
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

/// The register tiles, one per instruction set. Off x86-64 the CPU
/// checks are false, so only `Portable` is ever picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tile {
    Portable,
    Avx2,
    Avx512,
}

impl Tile {
    /// The tile an `m×k` by `k×n` product runs on this CPU, and whether
    /// it computes `Cᵀ` instead of `C`. On AVX-512F CPUs an output
    /// wider than 8 runs the 8×16 tile, and one at most [`NARROW`] wide
    /// runs it transposed, so the `m` side fills the lanes that `n`
    /// would leave as padding, while the thread keeps the transposed
    /// `B` pack, which then holds the `m` side (see [`with_pack`]).
    /// Every other output runs the 8×8 tile, which one 8-wide panel
    /// holds.
    fn for_shape(m: usize, k: usize, n: usize) -> (Tile, bool) {
        #[cfg(target_arch = "x86_64")]
        if avx512f() {
            if n > NR {
                return (Tile::Avx512, false);
            }
            if n <= NARROW && kept(m.div_ceil(NR_AVX512) * NR_AVX512 * k) {
                return (Tile::Avx512, true);
            }
        }
        if avx2() {
            (Tile::Avx2, false)
        } else {
            (Tile::Portable, false)
        }
    }

    /// The name [`kernel`] reports for this tile.
    fn name(self) -> &'static str {
        match self {
            Tile::Portable => "portable-4x8",
            Tile::Avx2 => "avx2-8x8",
            Tile::Avx512 => "avx512-8x16",
        }
    }

    /// Runs `call` on this tile, as `Cᵀ = op(B)ᵀ·op(A)ᵀ` when
    /// `transpose` is set; dimension agreement is asserted by the
    /// public kernels.
    ///
    /// # Safety
    ///
    /// The CPU must have the tile's instruction set: AVX-512F for
    /// `Avx512`, AVX2 for `Avx2` (what [`Tile::for_shape`] checks).
    unsafe fn run(self, call: Call<'_>, transpose: bool) -> Matrix {
        match self {
            // SAFETY: the caller guarantees AVX-512F, the only target
            // feature `gemm_avx512` enables (every such CPU also has the
            // AVX2, FMA and F16C that it implies).
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512 => unsafe { gemm_avx512(call, transpose) },
            // SAFETY: the caller guarantees AVX2, the only target
            // feature `gemm_avx2` enables.
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2 => unsafe { gemm_avx2(call, transpose) },
            _ => gemm_driver::<MR, NR>(call, transpose, |ops, panels| {
                compute_panels::<MR, NR>(ops, panels, |apack, bpack, out| {
                    microkernel::<MR, NR>(apack, bpack, out)
                })
            }),
        }
    }
}

/// Names the register tile this host's GEMM calls run when the output
/// is wider than 8 columns: `"avx512-8x16"` on x86-64 CPUs with
/// AVX-512F, else `"avx2-8x8"` on ones with AVX2, else
/// `"portable-4x8"`. (On AVX-512F CPUs, outputs at most 8 wide run
/// the 8×8 tile, except that most outputs at most 4 wide run the 8×16
/// tile transposed.) Kernel timings depend on it, so benchmark reports
/// record it; the output bits do not.
pub fn kernel() -> &'static str {
    Tile::for_shape(1, 1, usize::MAX).0.name()
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
    dispatch(Call {
        a,
        a_trans: false,
        b,
        b_trans: false,
        bias: None,
    })
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
    dispatch(Call {
        a,
        a_trans: false,
        b,
        b_trans: false,
        bias: Some(bias),
    })
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
    dispatch(Call {
        a,
        a_trans: true,
        b,
        b_trans: false,
        bias: None,
    })
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
    dispatch(Call {
        a,
        a_trans: false,
        b,
        b_trans: true,
        bias: None,
    })
}

/// Raw output pointer shared across lanes.
#[derive(Clone, Copy)]
struct SharedOut(*mut f32);
// SAFETY: the one field points into the `C` that `gemm_driver`
// allocated and holds mutably for the whole call. Lanes only write
// through it, each to the elements of its own row panels of the
// computed product (disjoint by the static lane split; columns of `C`
// when it is computed transposed), and `gemm_driver` touches `C` again
// only after the pool barrier, so no element is accessed from two
// threads at once.
unsafe impl Send for SharedOut {}
// SAFETY: as for `Send`: sharing the pointer gives no lane access to
// another lane's elements.
unsafe impl Sync for SharedOut {}

/// One public kernel's request: `op(A)·op(B)`, where `op` transposes
/// the stored matrix when its flag is set, plus `bias` added to each
/// output column when present.
#[derive(Clone, Copy)]
struct Call<'a> {
    a: &'a Matrix,
    a_trans: bool,
    b: &'a Matrix,
    b_trans: bool,
    bias: Option<&'a [f32]>,
}

impl<'a> Call<'a> {
    /// The product's `(m, k, n)`: `op(A)` is `m×k` and `op(B)` is `k×n`.
    fn shape(&self) -> (usize, usize, usize) {
        let (m, k) = if self.a_trans {
            (self.a.cols(), self.a.rows())
        } else {
            self.a.shape()
        };
        let n = if self.b_trans {
            self.b.rows()
        } else {
            self.b.cols()
        };
        (m, k, n)
    }

    /// The transposed product `op(B)ᵀ·op(A)ᵀ`, with the same bias.
    fn transposed(self) -> Call<'a> {
        Call {
            a: self.b,
            a_trans: !self.b_trans,
            b: self.a,
            b_trans: !self.a_trans,
            bias: self.bias,
        }
    }
}

/// What every lane of one call reads: the logical `A`, the packed `B`,
/// the bias, and where the `m×n` product goes (`C`, or `Cᵀ` stored
/// into `C` when `trans`).
struct Operands<'a> {
    a: &'a Matrix,
    a_trans: bool,
    bpack: &'a [f32],
    bias: Option<&'a [f32]>,
    out: SharedOut,
    trans: bool,
    m: usize,
    k: usize,
    n: usize,
}

/// Where one microkernel call stores its tile: the live `h×w` corner
/// only, each element its chain's final sum plus, when there is a bias,
/// the element's bias.
#[derive(Clone, Copy)]
struct TileOut<'a> {
    /// The tile's element `(0, 0)` in `C`.
    c: *mut f32,
    /// `C`'s row length.
    ld: usize,
    /// Whether the tile is a block of `Cᵀ`, so that its row `i` lies
    /// down a column of `C`.
    trans: bool,
    /// Live rows, at most the tile's height.
    h: usize,
    /// Live columns, at most the tile's width.
    w: usize,
    /// The biases of the tile's `w` columns, or of its `h` rows when
    /// `trans` (those are columns of `C`).
    bias: Option<&'a [f32]>,
}

impl TileOut<'_> {
    /// Where the tile's element `(i, j)` lies, counted from `c`.
    #[inline(always)]
    fn offset(&self, i: usize, j: usize) -> usize {
        if self.trans {
            j * self.ld + i
        } else {
            i * self.ld + j
        }
    }
}

/// Runs one call on the tile [`Tile::for_shape`] picks for its shape.
fn dispatch(call: Call<'_>) -> Matrix {
    let (m, k, n) = call.shape();
    let (tile, transpose) = Tile::for_shape(m, k, n);
    // SAFETY: `for_shape` picks a tile only after the crate's CPU check
    // confirmed its instruction set.
    unsafe { tile.run(call, transpose) }
}

/// The 8×8 instantiation of [`gemm_driver`], compiled for AVX2.
/// Calling it is `unsafe` outside AVX2 code: check first that the CPU
/// has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(call: Call<'_>, transpose: bool) -> Matrix {
    // A closure takes its target features from the function it is
    // written in, so the pool closure inside `gemm_driver` is compiled
    // without AVX2 even when inlined here; computing the tile there
    // gives the spilling SSE2 8×8 tile (DESIGN.md §19). Every lane
    // therefore enters the tile through `panels_avx2`.
    gemm_driver::<MR_X86, NR>(call, transpose, |ops, panels| panels_avx2(ops, panels))
}

/// [`compute_panels`] with the 8×8 tile, compiled for AVX2. The
/// microkernel is passed as a closure written here, so it is compiled
/// with AVX2 too: passed as the function item `microkernel::<8, 8>`,
/// it is called through a shim without target features that LLVM does
/// not inline, and the tile runs as baseline SSE2 code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panels_avx2(ops: &Operands<'_>, panels: Range<usize>) {
    compute_panels::<MR_X86, NR>(ops, panels, |apack, bpack, out| {
        microkernel::<MR_X86, NR>(apack, bpack, out)
    });
}

/// The 8×16 instantiation of [`gemm_driver`], compiled for AVX-512F.
/// Calling it is `unsafe` outside AVX-512F code: check first that the
/// CPU has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(call: Call<'_>, transpose: bool) -> Matrix {
    // Every lane enters the tile through `panels_avx512`, for the
    // reason `gemm_avx2` gives.
    gemm_driver::<MR_X86, NR_AVX512>(call, transpose, |ops, panels| panels_avx512(ops, panels))
}

/// [`compute_panels`] with the 8×16 tile, compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn panels_avx512(ops: &Operands<'_>, panels: Range<usize>) {
    compute_panels::<MR_X86, NR_AVX512>(ops, panels, |apack, bpack, out| {
        microkernel_avx512(apack, bpack, out)
    });
}

/// The one driver behind all four public kernels, generic over the
/// tile's height `MR` and width `NR`. It computes `C`, or, when
/// `transpose` is set, `Cᵀ = op(B)ᵀ·op(A)ᵀ` stored into `C` in place:
/// the same products, operands swapped, each chain's order unchanged.
/// It packs `B` into `NR`-wide panels, splits the `MR`-row panels of
/// the product across lanes, and has `lane` compute each lane's panel
/// range. Inlined into its three callers, so the x86-64 tiles pack `B`
/// with their own instruction set too.
#[inline(always)]
fn gemm_driver<const MR: usize, const NR: usize>(
    call: Call<'_>,
    transpose: bool,
    lane: impl Fn(&Operands<'_>, Range<usize>) + Sync,
) -> Matrix {
    let (rows, k, cols) = call.shape();
    let mut c = Matrix::zeros(rows, cols);
    if rows == 0 || cols == 0 {
        return c;
    }
    if k == 0 {
        // Empty reduction: every element is the 0.0 the naive oracle
        // would produce, plus the bias when present.
        if let Some(bv) = call.bias {
            for i in 0..rows {
                c.row_mut(i).copy_from_slice(bv);
            }
        }
        return c;
    }
    // The product the tiles compute.
    let product = if transpose { call.transposed() } else { call };
    let (m, _, n) = product.shape();

    let mp = m.div_ceil(MR);
    let np = n.div_ceil(NR);
    let lanes = lane_count(m, k, n, mp);
    let out = SharedOut(c.as_mut_slice().as_mut_ptr());
    // Pack every column panel of B once per call.
    with_pack(&B_PACK, np * k * NR, |bpack| {
        for (jp, panel) in bpack.chunks_exact_mut(k * NR).enumerate() {
            pack_b::<NR>(product.b, product.b_trans, n, jp, panel);
        }
        let ops = Operands {
            a: product.a,
            a_trans: product.a_trans,
            bpack,
            bias: product.bias,
            out,
            trans: transpose,
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
    });
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

/// Computes the given range of `MR`-row panels against every `NR`-wide
/// column panel, one `microkernel` call per tile, which stores the
/// tile's live corner itself. Each lane runs this once over its own
/// disjoint range; it is inlined so each x86-64 lane compiles the tile
/// with its own instruction set, and `microkernel` is a closure written
/// in the lane's function for the same reason (see [`panels_avx2`]).
#[inline(always)]
fn compute_panels<const MR: usize, const NR: usize>(
    ops: &Operands<'_>,
    panels: Range<usize>,
    microkernel: impl Fn(&[f32], &[f32], TileOut<'_>),
) {
    let &Operands {
        a,
        a_trans,
        bpack,
        bias,
        out,
        trans,
        m,
        k,
        n,
    } = ops;
    // `C`'s row length: `n`, or `m` when the product is `Cᵀ`.
    let ld = if trans { m } else { n };
    with_pack(&A_PACK, k * MR, |apack| {
        for ip in panels {
            let i0 = ip * MR;
            let h = MR.min(m - i0);
            pack_a::<MR>(a, a_trans, i0, h, apack);
            for (jp, bp) in bpack.chunks_exact(k * NR).enumerate() {
                let j0 = jp * NR;
                let w = NR.min(n - j0);
                let mut tile = TileOut {
                    c: out.0,
                    ld,
                    trans,
                    h,
                    w,
                    bias: bias.map(|bv| {
                        if trans {
                            &bv[i0..i0 + h]
                        } else {
                            &bv[j0..j0 + w]
                        }
                    }),
                };
                // SAFETY: (i0, j0) is an element of the `m×n` product,
                // so its offset lies inside `C`.
                tile.c = unsafe { out.0.add(tile.offset(i0, j0)) };
                microkernel(apack, bp, tile);
            }
        }
    });
}

/// Packs `MR` logical rows of `A` starting at `i0`, k-major:
/// `apack[p*MR + i] = A[i0+i, p]`. Rows past `h` are written as zeros,
/// since the buffer holds an earlier call's values. Never inlined, so
/// every tile packs with the same baseline code: compiled into the
/// AVX-512F lane, the strided stores become `vscatterqps`, which made
/// the 8×16 tile up to 14% slower on a 32×561×16 forward call, while
/// the AVX2 lane read the same either way.
#[inline(never)]
fn pack_a<const MR: usize>(a: &Matrix, a_trans: bool, i0: usize, h: usize, apack: &mut [f32]) {
    let (steps, _) = apack.as_chunks_mut::<MR>();
    if a_trans {
        // a is k×m; logical row i of A^T is column i0+i of a.
        for (p, step) in steps.iter_mut().enumerate() {
            fill_lanes(step, &a.row(p)[i0..i0 + h]);
        }
    } else {
        for i in 0..MR {
            if i < h {
                for (step, &v) in steps.iter_mut().zip(a.row(i0 + i)) {
                    step[i] = v;
                }
            } else {
                for step in steps.iter_mut() {
                    step[i] = 0.0;
                }
            }
        }
    }
}

/// Packs `NR` logical columns of `B` starting at `jp*NR`, k-major:
/// `dst[p*NR + j] = B[p, j0+j]`. Lanes past the live width are written
/// as zeros, since the buffer holds an earlier call's values.
fn pack_b<const NR: usize>(b: &Matrix, b_trans: bool, n: usize, jp: usize, dst: &mut [f32]) {
    let j0 = jp * NR;
    let w = NR.min(n - j0);
    let (steps, _) = dst.as_chunks_mut::<NR>();
    if b_trans {
        // b is n×k; logical column j of B^T is row j0+j of b.
        for j in 0..NR {
            if j < w {
                for (step, &v) in steps.iter_mut().zip(b.row(j0 + j)) {
                    step[j] = v;
                }
            } else {
                for step in steps.iter_mut() {
                    step[j] = 0.0;
                }
            }
        }
    } else {
        for (p, step) in steps.iter_mut().enumerate() {
            fill_lanes(step, &b.row(p)[j0..j0 + w]);
        }
    }
}

/// Copies `src` into the first lanes of `step` and zeros the rest,
/// without a runtime-length copy: a full panel row is one fixed-size
/// array copy, and a ragged one a fixed-count loop that selects.
#[inline(always)]
fn fill_lanes<const L: usize>(step: &mut [f32; L], src: &[f32]) {
    match <&[f32; L]>::try_from(src) {
        Ok(full) => *step = *full,
        Err(_) => {
            for (j, lane) in step.iter_mut().enumerate() {
                *lane = src.get(j).copied().unwrap_or(0.0);
            }
        }
    }
}

/// One `MR×NR` register tile: `acc[i][j] = Σ_p apack[p][i] * bpack[p][j]`
/// with `p` strictly ascending, then the live corner stored. Each
/// `acc[i][j]` is a single dependency chain; the compiler vectorizes
/// *across* the independent chains, which cannot reorder any one of
/// them.
#[inline(always)]
fn microkernel<const MR: usize, const NR: usize>(apack: &[f32], bpack: &[f32], out: TileOut<'_>) {
    let mut acc = [[0.0f32; NR]; MR];
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
    for (i, row) in acc.iter().enumerate().take(out.h) {
        if !out.trans && out.w == NR {
            // SAFETY: row i < h of a full-width tile owns these NR
            // contiguous floats of `C`, in this lane's panel.
            let dst = unsafe { &mut *out.c.add(i * out.ld).cast::<[f32; NR]>() };
            *dst = match out.bias {
                Some(bv) => std::array::from_fn(|j| row[j] + bv[j]),
                None => *row,
            };
            continue;
        }
        for (j, &sum) in row.iter().enumerate() {
            // A fixed-count loop that skips the padding lanes, so no
            // runtime-length copy is emitted.
            if j < out.w {
                let v = match out.bias {
                    Some(bv) => sum + bv[if out.trans { i } else { j }],
                    None => sum,
                };
                // SAFETY: (i, j) is a live element of the tile
                // (i < h, j < w), so it lies inside `C`, in this
                // lane's panel.
                unsafe { *out.c.add(out.offset(i, j)) = v };
            }
        }
    }
}

/// The 8×16 register tile in explicit AVX-512F intrinsics, the same
/// sums as [`microkernel`], run on the panel's `h` live rows only.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn microkernel_avx512(apack: &[f32], bpack: &[f32], out: TileOut<'_>) {
    match out.h {
        1 => rows_avx512::<1>(apack, bpack, out),
        2 => rows_avx512::<2>(apack, bpack, out),
        3 => rows_avx512::<3>(apack, bpack, out),
        4 => rows_avx512::<4>(apack, bpack, out),
        5 => rows_avx512::<5>(apack, bpack, out),
        6 => rows_avx512::<6>(apack, bpack, out),
        7 => rows_avx512::<7>(apack, bpack, out),
        8 => rows_avx512::<8>(apack, bpack, out),
        h => unreachable!("tile height {h}"),
    }
}

/// The first `H` rows of the 8×16 tile: per k step one 16-wide load of
/// the `B` row and, for each row, a multiply by the broadcast `A` value
/// and a separate add, so every accumulator lane takes the steps
/// `acc + a·b`, `p` ascending, each rounded on its own. After the last
/// step the bias is added in-register and each row goes straight to
/// `C` under a `w`-lane mask.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn rows_avx512<const H: usize>(apack: &[f32], bpack: &[f32], out: TileOut<'_>) {
    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_i32scatter_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_mullo_epi32,
        _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32, _mm512_setzero_ps,
    };
    let (arows, atail) = apack.as_chunks::<MR_X86>();
    let (brows, btail) = bpack.as_chunks::<NR_AVX512>();
    assert!(
        atail.is_empty() && btail.is_empty() && arows.len() == brows.len(),
        "packed panel lengths: A {} and B {} floats",
        apack.len(),
        bpack.len()
    );
    let mut c = [_mm512_setzero_ps(); H];
    for (av, bv) in arows.iter().zip(brows) {
        // SAFETY: `bv` is 16 contiguous floats, exactly the 64 bytes
        // the unaligned load reads.
        let b = unsafe { _mm512_loadu_ps(bv.as_ptr()) };
        for (ci, &ai) in c.iter_mut().zip(av) {
            *ci = _mm512_add_ps(*ci, _mm512_mul_ps(_mm512_set1_ps(ai), b));
        }
    }
    // Lanes 0..w, the tile's live columns (w is at most 16).
    let mask = ((1u32 << out.w) - 1) as __mmask16;
    if out.trans {
        // Tile row i is column i of `C` from row j0 on: lane j lies
        // j·ld floats further, at most 15·ld, which must fit an i32.
        let ld = i32::try_from(out.ld)
            .ok()
            .filter(|ld| ld.checked_mul(15).is_some())
            .expect("transposed tile stride fits the scatter's offsets");
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let offsets = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(ld));
        for (i, ci) in c.into_iter().enumerate() {
            let sum = match out.bias {
                Some(bv) => _mm512_add_ps(ci, _mm512_set1_ps(bv[i])),
                None => ci,
            };
            // SAFETY: the mask enables exactly the tile's `w` live
            // lanes, and lane j writes element (j0 + j, i0 + i) of `C`,
            // live because j < w and i < H = h.
            unsafe { _mm512_mask_i32scatter_ps::<4>(out.c.add(i), mask, offsets, sum) };
        }
    } else {
        let bias = out.bias.map(|bv| {
            // SAFETY: `bv` holds the tile's `w` column biases and the
            // mask reads exactly those lanes.
            unsafe { _mm512_maskz_loadu_ps(mask, bv.as_ptr()) }
        });
        for (i, ci) in c.into_iter().enumerate() {
            let sum = match bias {
                Some(bv) => _mm512_add_ps(ci, bv),
                None => ci,
            };
            // SAFETY: the mask enables exactly the tile's `w` live
            // lanes, which row i < H = h of the tile owns in `C`.
            unsafe { _mm512_mask_storeu_ps(out.c.add(i * out.ld), mask, sum) };
        }
    }
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
    fn flops_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    /// Every tile this CPU can run, narrowest instruction set first.
    fn tiles() -> Vec<Tile> {
        [
            (Tile::Portable, true),
            (Tile::Avx2, avx2()),
            (Tile::Avx512, avx512f()),
        ]
        .into_iter()
        .filter_map(|(tile, runs)| runs.then_some(tile))
        .collect()
    }

    /// The choice of tile: the widest one the CPU has for outputs over
    /// 8 columns; on AVX-512F CPUs the 8×16 tile transposed for outputs
    /// at most 4 wide whose transposed `B` pack the thread keeps, and
    /// the 8×8 tile for the other outputs up to 8 wide, which one AVX2
    /// panel holds without padding.
    #[test]
    fn output_width_picks_the_tile() {
        let widest = Tile::for_shape(1, 1, usize::MAX).0;
        assert_eq!(widest.name(), kernel());
        let avx512 = widest == Tile::Avx512;
        for n in [9, 16, 17, 561, usize::MAX] {
            assert_eq!(Tile::for_shape(32, 64, n), (widest, false), "n={n}");
        }
        let middle = if avx512 { Tile::Avx2 } else { widest };
        for n in [5, 6, 7, 8] {
            assert_eq!(Tile::for_shape(32, 64, n), (middle, false), "n={n}");
        }
        for n in [0, 1, 2, 3, 4] {
            assert_eq!(Tile::for_shape(32, 64, n), (widest, avx512), "n={n}");
            // The transposed B pack of 750×64 would not be kept.
            assert_eq!(Tile::for_shape(750, 64, n), (middle, false), "n={n}");
        }
    }

    /// Every tile, driven directly rather than through the dispatch
    /// (which never runs the portable tile on AVX2 hosts, nor the 8×8
    /// one on AVX-512F hosts for outputs over 8 wide), each computing
    /// `C` and, transposed, `Cᵀ`, against the naive oracle bitwise: all
    /// four kernel shapes over `m` in the oracle's
    /// `{0,1,2,3,4,5,6,7,8,9}`, so that each live-row count from 1 to 8
    /// ends a panel, `k` and `n` in that set plus the 16-wide panel's
    /// edges `{15,16,17,31,32,33}`, and the oracle's 64/128 boundary
    /// shapes.
    #[test]
    fn every_tile_matches_naive_bitwise() {
        const DIMS: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        const WIDE: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33];
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for m in DIMS {
            for k in WIDE {
                shapes.extend(WIDE.map(|n| (m, k, n)));
            }
        }
        for (x, y, z) in [(63, 64, 65), (127, 128, 129)] {
            shapes.extend([(x, y, z), (y, z, x), (z, x, y), (y, y, y)]);
        }
        let tiles = tiles();
        let names: Vec<&str> = tiles.iter().map(|t| t.name()).collect();
        assert_eq!(names.last(), Some(&kernel()));
        println!("tiles driven: {}", names.join(", "));
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
            for (tile, transpose) in tiles.iter().flat_map(|&t| [(t, false), (t, true)]) {
                let run = |a, a_trans, b, b_trans, bias| {
                    let call = Call {
                        a,
                        a_trans,
                        b,
                        b_trans,
                        bias,
                    };
                    // SAFETY: `tiles` lists only the tiles whose
                    // instruction set the CPU check confirmed.
                    unsafe { tile.run(call, transpose) }
                };
                let got = [
                    run(&a, false, &b, false, None),
                    run(&a, false, &b, false, Some(&bias)),
                    run(&at, true, &b, false, None),
                    run(&a, false, &bt, true, None),
                ];
                let ops = ["matmul", "matmul_bias", "matmul_at_b", "matmul_a_bt"];
                for ((op, got), want) in ops.iter().zip(&got).zip(&want) {
                    let ctx = format!(
                        "{} {op} m={m} k={k} n={n} transposed={transpose}",
                        tile.name()
                    );
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
