//! # ecad-tensor
//!
//! Dense linear-algebra substrate for the ECAD co-design flow.
//!
//! The paper's MLP workloads reduce to general matrix multiplication
//! (GEMM); production deployments call a vendor BLAS. This crate is the
//! BLAS stand-in: a row-major [`Matrix`] type over `f32`, a cache-blocked
//! GEMM kernel, and the small vector routines (bias broadcast, softmax,
//! tanh, reductions) needed by the MLP trainer and the classical
//! baselines.
//!
//! Everything is deterministic given a seeded RNG, which the evolutionary
//! engine relies on for reproducible searches.
//!
//! ## Example
//!
//! ```
//! use ecad_tensor::{Matrix, gemm};
//!
//! let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = gemm::matmul(&a, &b);
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]

mod error;
mod matrix;

pub mod gemm;
pub mod init;
pub mod ops;
pub mod stats;

pub use error::ShapeError;
pub use matrix::Matrix;

/// Whether this CPU runs the AVX2 kernels: the CPU check behind
/// [`ops::tanh_inplace`] and, with [`avx512f`], [`gemm`]'s tile choice
/// (the standard library caches the CPUID result, so each call costs a
/// load).
pub(crate) fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU runs [`gemm`]'s AVX-512F tile; a cached load, like
/// [`avx2`].
pub(crate) fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
