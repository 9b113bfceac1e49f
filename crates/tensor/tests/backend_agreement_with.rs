//! Backend-agreement coverage for the explicit-backend (`*_with`)
//! sparse entry points and the scoped backend override.
//!
//! These are the public dispatch surfaces `vitcod-lint`'s V003 rule
//! tracks: every `pub fn` taking a [`Backend`] must be pinned to the
//! Scalar oracle here, so "fp32 bit-identical across backends" stays a
//! checked contract as kernels are added.
// Backend agreement is a *bit-identical* contract (see ROADMAP): strict
// float comparison is the assertion these suites exist to make.
#![allow(clippy::float_cmp)]

use std::sync::Arc;

use proptest::prelude::*;
use vitcod_tensor::kernels::{self, matmul_with, with_backend_override, Backend};
use vitcod_tensor::sparse::{
    sddmm_k_stationary_int8_rows_with, sddmm_k_stationary_int8_with,
    sddmm_k_stationary_shared_with, sddmm_k_stationary_with, spmm_output_stationary_with,
    CscMatrix,
};
use vitcod_tensor::{Initializer, Matrix, QuantizedMatrix, QuantizedRows};

/// Token / feature shapes that stress the row-chunk and column-segment
/// partitions: tiny, prime-sized, and DeiT-head-sized.
const SHAPES: &[(usize, usize)] = &[(3, 2), (7, 5), (16, 8), (29, 8), (48, 16)];

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(rows, cols, seed)
}

/// A pseudo-random mask at roughly `density`, with a guaranteed
/// diagonal so no query row is empty (the invariant every pruner
/// maintains).
fn random_index(n: usize, density: f64, seed: u64) -> CscMatrix {
    CscMatrix::from_indicator(n, |q, k| {
        if q == k {
            return true;
        }
        let mut x = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((q * n + k) as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        (x % 1000) as f64 / 1000.0 < density
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sddmm_with_backends_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(1));
        let index = random_index(n, density, seed.wrapping_add(2));
        let scale = 1.0 / (d as f32).sqrt();
        let oracle = sddmm_k_stationary_with(Backend::Scalar, &q, &k, &index, scale);
        let fast = sddmm_k_stationary_with(Backend::Fast, &q, &k, &index, scale);
        prop_assert_eq!(fast.values(), oracle.values());
    }

    #[test]
    fn sddmm_shared_with_matches_owned_index_path(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(1));
        let index = random_index(n, density, seed.wrapping_add(2));
        let shared = Arc::new(index.clone());
        let scale = 1.0 / (d as f32).sqrt();
        let owned = sddmm_k_stationary_with(Backend::Scalar, &q, &k, &index, scale);
        for backend in [Backend::Scalar, Backend::Fast] {
            let fast = sddmm_k_stationary_shared_with(backend, &q, &k, &shared, scale);
            prop_assert_eq!(fast.values(), owned.values(), "{:?}", backend);
            prop_assert_eq!(fast.index().size(), n);
        }
    }

    #[test]
    fn softmax_rows_with_backends_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(3));
        let index = random_index(n, density, seed.wrapping_add(4));
        let scores = sddmm_k_stationary_with(Backend::Scalar, &q, &k, &index, 0.3);
        let oracle = scores.softmax_rows_with(Backend::Scalar);
        let fast = scores.softmax_rows_with(Backend::Fast);
        prop_assert_eq!(fast.values(), oracle.values());
    }

    #[test]
    fn spmm_with_backends_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(5));
        let v = random(n, d, seed.wrapping_add(6));
        let index = random_index(n, density, seed.wrapping_add(7));
        let probs = sddmm_k_stationary_with(Backend::Scalar, &q, &k, &index, 0.5)
            .softmax_rows_with(Backend::Scalar);
        let oracle = spmm_output_stationary_with(Backend::Scalar, &probs, &v);
        prop_assert!(spmm_output_stationary_with(Backend::Fast, &probs, &v) == oracle);
    }

    #[test]
    fn sddmm_int8_with_backends_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = QuantizedMatrix::quantize(&random(n, d, seed));
        let k = QuantizedMatrix::quantize(&random(n, d, seed.wrapping_add(8)));
        let index = random_index(n, density, seed.wrapping_add(9));
        let scale = 1.0 / (d as f32).sqrt();
        let oracle = sddmm_k_stationary_int8_with(Backend::Scalar, &q, &k, &index, scale);
        let fast = sddmm_k_stationary_int8_with(Backend::Fast, &q, &k, &index, scale);
        prop_assert_eq!(fast.values(), oracle.values());
    }

    #[test]
    fn sddmm_int8_rows_with_backends_agree_on_full_and_partial_windows(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = QuantizedRows::quantize(&random(n, d, seed));
        let k = QuantizedRows::quantize(&random(n, d, seed.wrapping_add(10)));
        let index = random_index(n, density, seed.wrapping_add(11));
        let scale = 1.0 / (d as f32).sqrt();
        for window in [0..d, 0..d / 2, d / 2..d] {
            let oracle = sddmm_k_stationary_int8_rows_with(
                Backend::Scalar, &q, &k, window.clone(), &index, scale,
            );
            let fast = sddmm_k_stationary_int8_rows_with(
                Backend::Fast, &q, &k, window.clone(), &index, scale,
            );
            prop_assert_eq!(fast.values(), oracle.values(), "{:?}", window);
        }
    }

    #[test]
    fn with_backend_override_scopes_and_restores(seed in 0u64..200) {
        let a = random(5, 7, seed);
        let b = random(7, 3, seed.wrapping_add(1));
        let prior = kernels::backend();
        for backend in [Backend::Scalar, Backend::Fast] {
            // Inside the closure, the ambient-backend kernels must
            // behave exactly like the explicit `_with` dispatch.
            let (seen, out) = with_backend_override(backend, || {
                (kernels::backend(), kernels::matmul(&a, &b))
            });
            prop_assert_eq!(seen, backend);
            prop_assert!(out == matmul_with(backend, &a, &b));
            // The override must not leak out of its scope.
            prop_assert_eq!(kernels::backend(), prior);
        }
        // Nested overrides restore the outer override, not the default.
        let (outer, inner) = match prior {
            Backend::Scalar => (Backend::Fast, Backend::Scalar),
            Backend::Fast => (Backend::Scalar, Backend::Fast),
        };
        let nested = with_backend_override(outer, || {
            with_backend_override(inner, kernels::backend);
            kernels::backend()
        });
        prop_assert_eq!(nested, outer);
    }
}
