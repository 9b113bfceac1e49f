//! Dense matrix kernels for the ViTCoD reproduction.
//!
//! This crate provides the numerical substrate used everywhere else in the
//! workspace: a row-major [`Matrix`] of `f32` with the linear-algebra and
//! neural-network primitives a Vision Transformer needs (matrix
//! multiplication in all transpose flavours, row softmax, LayerNorm, GELU),
//! plus seeded random initialisation so every experiment in the repository
//! is reproducible bit-for-bit.
//!
//! The crate is deliberately free of `unsafe` and of external BLAS
//! dependencies. All dense hot paths route through the [`kernels`]
//! module, which has one algorithm per op — the GEMMs a packed-panel
//! register-tile path — and keeps the textbook loops as named test
//! oracles ([`kernels::reference`], [`int8_gemm_reference`]) that the
//! fast paths are bit-identical to (see [`kernels`] for the tiling
//! scheme and the agreement contract). Keeping the reference kernels
//! readable makes the simulator's operation counts auditable against
//! them. The [`sparse`] module mirrors the dense layer for
//! CSC-indexed attention (SDDMM, sparse softmax, SpMM) under the same
//! contract, and [`int8_gemm`] over [`PackedGemmWeights`] /
//! [`QuantizedRows`] supplies the serving path's quantized projection
//! GEMM.
//!
//! # Example
//!
//! ```
//! use vitcod_tensor::Matrix;
//!
//! let q = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let k = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! // S = Q * K^T, the SDDMM left operand of self-attention.
//! let s = q.matmul_nt(&k);
//! assert_eq!(s.get(0, 1), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod init;
pub mod kernels;
mod matrix;
mod ops;
mod quant;
pub mod sparse;
mod stats;

pub use error::ShapeError;
pub use init::{Initializer, SeedableRngExt};
pub use matrix::Matrix;
pub use ops::{gelu, gelu_grad, softmax_row};
pub use quant::{
    int8_gemm, int8_gemm_reference, PackedGemmWeights, QuantParams, QuantizedMatrix, QuantizedRows,
    MAX_INT8_GEMM_K,
};
pub use sparse::{CscMatrix, SparseScores, SparsityPattern};
pub use stats::argmax;
