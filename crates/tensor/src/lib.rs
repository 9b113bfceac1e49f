//! Dense matrix kernels for the ViTCoD reproduction.
//!
//! This crate provides the numerical substrate used everywhere else in the
//! workspace. [`Matrix`] is storage only: a row-major block of `f32` with
//! constructors, accessors, slicing, concatenation and the `+`, `-` and
//! `* f32` operators. Every op that computes is one free function over
//! that storage — the dense ones (matrix multiplication in all transpose
//! flavours, row softmax, LayerNorm, elementwise maps) in [`kernels`],
//! the CSC-indexed attention ops (SDDMM, sparse softmax, SpMM) in
//! [`sparse`], the quantized projection GEMM in [`int8_gemm`] — plus
//! seeded random initialisation so every experiment in the repository is
//! reproducible bit-for-bit. A shape mismatch panics with the op's name
//! and both shapes.
//!
//! The crate is deliberately free of `unsafe` and of external BLAS
//! dependencies. [`kernels`] has one algorithm per op — the GEMMs a
//! packed-panel register-tile path — and keeps the textbook loops as
//! named test oracles ([`kernels::reference`], [`int8_gemm_reference`])
//! that the fast paths are bit-identical to (see [`kernels`] for the
//! tiling scheme and the agreement contract). Keeping the reference
//! kernels readable makes the simulator's operation counts auditable
//! against them. [`sparse`] mirrors the dense layer under the same
//! contract, and [`int8_gemm`] over [`PackedGemmWeights`] /
//! [`QuantizedRows`] supplies the serving path's quantized projection.
//!
//! # Example
//!
//! ```
//! use vitcod_tensor::{kernels, Matrix};
//!
//! let q = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let k = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! // S = Q * K^T, the SDDMM left operand of self-attention.
//! let s = kernels::matmul_nt(&q, &k);
//! assert_eq!(s.get(0, 1), 3.0);
//! ```

#![warn(missing_docs)]

mod init;
pub mod kernels;
mod matrix;
mod ops;
mod quant;
pub mod sparse;
mod stats;

pub use init::{Initializer, SeedableRngExt};
pub use matrix::Matrix;
pub use ops::{gelu, gelu_grad, softmax_row};
pub use quant::{
    int8_gemm, int8_gemm_reference, int8_gemm_window, PackedGemmWeights, QuantParams,
    QuantizedMatrix, QuantizedRows, MAX_INT8_GEMM_K,
};
pub use sparse::{CscMatrix, SparseScores};
pub use stats::argmax;
