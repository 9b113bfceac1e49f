//! Property-based tests of the tensor kernels.
// Kernel agreement is a *bit-identical* contract (see ROADMAP): strict
// float comparison is the assertion these suites exist to make.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;
use vitcod_tensor::{kernels, softmax_row, Matrix, QuantizedMatrix, QuantizedRows};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn transposed(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matmul_is_associative_with_identity(a in matrix(4, 6)) {
        let i_left = kernels::matmul(&Matrix::identity(4), &a);
        let i_right = kernels::matmul(&a, &Matrix::identity(6));
        prop_assert!(i_left.max_abs_diff(&a) < 1e-5);
        prop_assert!(i_right.max_abs_diff(&a) < 1e-5);
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 5), c in matrix(4, 5)) {
        let lhs = kernels::matmul(&a, &(&b + &c));
        let rhs = &kernels::matmul(&a, &b) + &kernels::matmul(&a, &c);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3, "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose(a in matrix(5, 7), b in matrix(6, 7)) {
        let fused = kernels::matmul_nt(&a, &b);
        let explicit = kernels::matmul(&a, &transposed(&b));
        prop_assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose(a in matrix(7, 5), b in matrix(7, 6)) {
        let fused = kernels::matmul_tn(&a, &b);
        let explicit = kernels::matmul(&transposed(&a), &b);
        prop_assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(8, 8)) {
        let s = kernels::softmax_rows(&a);
        for r in 0..8 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_preserves_row_argmax(a in matrix(4, 10)) {
        let s = kernels::softmax_rows(&a);
        for r in 0..4 {
            let before = vitcod_tensor::argmax(a.row(r));
            let after = vitcod_tensor::argmax(s.row(r));
            prop_assert_eq!(before, after);
        }
    }

    #[test]
    fn softmax_row_monotone(mut v in proptest::collection::vec(-4.0f32..4.0, 8)) {
        let orig = v.clone();
        softmax_row(&mut v);
        for i in 0..8 {
            for j in 0..8 {
                if orig[i] > orig[j] {
                    prop_assert!(v[i] >= v[j] - 1e-6);
                }
            }
        }
    }

    #[test]
    fn hcat_then_slice_recovers_parts(a in matrix(4, 3), b in matrix(4, 5)) {
        let cat = Matrix::hcat(&[&a, &b]);
        prop_assert_eq!(cat.submatrix(0, 4, 0, 3), a);
        prop_assert_eq!(cat.submatrix(0, 4, 3, 8), b);
    }

    #[test]
    fn frobenius_norm_triangle_inequality(a in matrix(5, 5), b in matrix(5, 5)) {
        let sum = (&a + &b).frobenius_norm();
        prop_assert!(sum <= a.frobenius_norm() + b.frobenius_norm() + 1e-4);
    }

    #[test]
    fn quantization_error_bounded(a in matrix(6, 6)) {
        let q = QuantizedMatrix::quantize(&a);
        let err = a.max_abs_diff(&q.dequantize());
        prop_assert!(err <= q.params().scale * 0.5 + 1e-6, "err {err}");
    }

    #[test]
    fn quantized_matmul_tracks_fp32(a in matrix(4, 16), b in matrix(4, 16)) {
        let exact = kernels::matmul_nt(&a, &b);
        let approx = QuantizedRows::quantize(&a).scores_nt(&QuantizedRows::quantize(&b), 0..16, 1.0);
        let denom = exact.frobenius_norm().max(1.0);
        prop_assert!(exact.max_abs_diff(&approx) / denom < 0.1);
    }

    #[test]
    fn layernorm_output_is_scale_invariant(a in matrix(3, 8), k in 1.0f32..10.0) {
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let n1 = kernels::layernorm_rows(&a, &gamma, &beta, 1e-5);
        let n2 = kernels::layernorm_rows(&(&a * k), &gamma, &beta, 1e-5);
        // LayerNorm(kx) == LayerNorm(x) for k > 0 (up to eps effects).
        prop_assert!(n1.max_abs_diff(&n2) < 2e-2, "diff {}", n1.max_abs_diff(&n2));
    }
}
