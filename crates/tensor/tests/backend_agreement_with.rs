//! The fan-out agreement suite.
//!
//! The sparse kernels have one algorithm each; what varies is how the
//! thread budget shares their outputs among workers, and — for the SDDMM
//! walks, the sparse softmax and the three gradients — whether one worker
//! fuses the per-output walks into a single pass over the CSC stream. Every
//! kernel must return the same bits under a budget of 1 (the fused bodies)
//! and of 4 (the partitioned ones; shapes this small keep them on one
//! thread, except the column-segment driver, which really spawns).
// Agreement is a *bit-identical* contract (see ROADMAP): strict float
// comparison is the assertion these suites exist to make.
#![allow(clippy::float_cmp)]

use std::sync::Arc;

use proptest::prelude::*;
use vitcod_tensor::kernels::with_thread_budget;
use vitcod_tensor::sparse::{
    attention_head_backward, sddmm_backward, sddmm_k_stationary, sddmm_k_stationary_int8_rows,
    sddmm_k_stationary_shared, sparse_softmax_backward, spmm_backward, spmm_output_stationary,
    CscMatrix,
};
use vitcod_tensor::{Initializer, Matrix, QuantizedRows};

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

/// `f` under a budget of one worker and under a budget of four.
fn at_budgets_1_and_4<T>(f: impl Fn() -> T) -> (T, T) {
    (with_thread_budget(1, &f), with_thread_budget(4, &f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sddmm_budgets_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(1));
        let index = random_index(n, density, seed.wrapping_add(2));
        let scale = 1.0 / (d as f32).sqrt();
        let (one, four) = at_budgets_1_and_4(|| sddmm_k_stationary(&q, &k, &index, scale));
        prop_assert_eq!(four.values(), one.values());
    }

    #[test]
    fn sddmm_shared_matches_owned_index_path(
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
        let owned = with_thread_budget(1, || sddmm_k_stationary(&q, &k, &index, scale));
        for budget in [1, 4] {
            let got =
                with_thread_budget(budget, || sddmm_k_stationary_shared(&q, &k, &shared, scale));
            prop_assert_eq!(got.values(), owned.values(), "budget {}", budget);
            prop_assert_eq!(got.index().size(), n);
        }
    }

    #[test]
    fn softmax_rows_budgets_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(3));
        let index = random_index(n, density, seed.wrapping_add(4));
        let scores = sddmm_k_stationary(&q, &k, &index, 0.3);
        let (one, four) = at_budgets_1_and_4(|| scores.softmax_rows());
        prop_assert_eq!(four.values(), one.values());
    }

    #[test]
    fn spmm_budgets_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(5));
        let v = random(n, d, seed.wrapping_add(6));
        let index = random_index(n, density, seed.wrapping_add(7));
        let probs = sddmm_k_stationary(&q, &k, &index, 0.5).softmax_rows();
        let (one, four) = at_budgets_1_and_4(|| spmm_output_stationary(&probs, &v));
        prop_assert!(four == one);
    }

    #[test]
    fn sddmm_int8_rows_budgets_agree_on_full_and_partial_windows(
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
            let (one, four) = at_budgets_1_and_4(|| {
                sddmm_k_stationary_int8_rows(&q, &k, window.clone(), &index, scale)
            });
            prop_assert_eq!(four.values(), one.values(), "{:?}", window);
        }
    }

    #[test]
    fn sparse_backward_budgets_agree_bitwise(
        shape_idx in 0usize..5,
        density in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let (n, dk) = SHAPES[shape_idx];
        let index = random_index(n, density, seed);
        let q = random(n, dk, seed.wrapping_add(5));
        let k = random(n, dk, seed.wrapping_add(6));
        let v = random(n, dk, seed.wrapping_add(7));
        let gout = random(n, dk, seed.wrapping_add(8));
        let scale = 0.3;

        let probs = sddmm_k_stationary(&q, &k, &index, scale).softmax_rows();
        let (dp_1, dp_4) = at_budgets_1_and_4(|| spmm_backward(&probs, &v, &gout));
        prop_assert!(dp_1 == dp_4, "spmm backward budgets disagree");
        let (ds_1, ds_4) = at_budgets_1_and_4(|| sparse_softmax_backward(&probs, &dp_1.0));
        prop_assert!(ds_1 == ds_4, "softmax backward budgets disagree");
        let (g_1, g_4) = at_budgets_1_and_4(|| sddmm_backward(&q, &k, &ds_1, scale));
        prop_assert!(g_1 == g_4, "sddmm backward budgets disagree");
        let (all_1, all_4) =
            at_budgets_1_and_4(|| attention_head_backward(&q, &k, &v, scale, &probs, &gout));
        prop_assert!(all_1 == all_4, "worker count changed backward values");
    }

}
