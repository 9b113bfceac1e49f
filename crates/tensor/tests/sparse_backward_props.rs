//! Property tests of the sparse backward kernels: across random masks,
//! shapes and densities, the CSC-dataflow gradients must match the dense
//! `-inf`-masked reference within 1e-4. (That every thread budget
//! returns the same bits is `fanout_agreement.rs`'s to check.)

use proptest::prelude::*;
use vitcod_tensor::kernels;
use vitcod_tensor::sparse::{attention_head_backward, sddmm_k_stationary, CscMatrix};
use vitcod_tensor::{Initializer, Matrix};

/// Token / feature shapes that stress the row-chunk and column-segment
/// partitions: tiny, prime-sized, and DeiT-head-sized.
const SHAPES: &[(usize, usize)] = &[(3, 2), (7, 5), (16, 8), (29, 8), (48, 16)];

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(rows, cols, seed)
}

/// A pseudo-random mask at roughly `density` (plus a guaranteed diagonal
/// so no query row is empty — the invariant every pruner maintains).
fn random_index(n: usize, density: f64, seed: u64) -> CscMatrix {
    CscMatrix::from_indicator(n, |q, k| {
        if q == k {
            return true;
        }
        // Cheap splitmix-style hash for a deterministic pattern.
        let mut x = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((q * n + k) as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        (x % 1000) as f64 / 1000.0 < density
    })
}

/// The dense `-inf`-masked reference gradients for the same head.
fn dense_reference(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    index: &CscMatrix,
    scale: f32,
    gout: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    let n = index.size();
    let mut bias = Matrix::filled(n, n, f32::NEG_INFINITY);
    for (qq, kk) in index.iter_kept() {
        bias.set(qq, kk, 0.0);
    }
    let (_, probs) = kernels::attention_head(q, k, v, scale, Some(&bias));
    kernels::attention_head_backward(q, k, v, scale, &probs, gout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_backward_matches_dense_masked_reference(
        shape_idx in 0usize..5,
        density_millis in 50u64..900,
        seed in 0u64..1000,
    ) {
        let (n, dk) = SHAPES[shape_idx];
        let density = density_millis as f64 / 1000.0;
        let index = random_index(n, density, seed);
        let q = random(n, dk, seed.wrapping_add(1));
        let k = random(n, dk, seed.wrapping_add(2));
        let v = random(n, dk, seed.wrapping_add(3));
        let gout = random(n, dk, seed.wrapping_add(4));
        let scale = 1.0 / (dk as f32).sqrt();

        let probs = sddmm_k_stationary(&q, &k, &index, scale).softmax_rows();
        let (gq, gk, gv) = attention_head_backward(&q, &k, &v, scale, &probs, &gout);
        let (rq, rk, rv) = dense_reference(&q, &k, &v, &index, scale, &gout);
        prop_assert!(gq.max_abs_diff(&rq) < 1e-4, "gq off by {}", gq.max_abs_diff(&rq));
        prop_assert!(gk.max_abs_diff(&rk) < 1e-4, "gk off by {}", gk.max_abs_diff(&rk));
        prop_assert!(gv.max_abs_diff(&rv) < 1e-4, "gv off by {}", gv.max_abs_diff(&rv));
    }
}
