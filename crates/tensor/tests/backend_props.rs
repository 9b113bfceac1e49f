//! Property tests of the kernel agreement contract: for every GEMM
//! flavour and the transpose at every shape — including non-tile-multiple,
//! single-row and empty edge cases, and operands holding zeros of both
//! signs, infinities and NaNs — the `Fast` backend must produce results
//! identical to the `Scalar` reference (both preserve the floating-point
//! reduction order and skip no term, so agreement is exact, well inside
//! the documented 1e-5 budget); and the row-wise kernels, which have one
//! algorithm, must return the same bits whether one worker or four share
//! their rows.
// Backend agreement is a *bit-identical* contract (see ROADMAP): strict
// float comparison is the assertion these suites exist to make.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;
use vitcod_tensor::kernels::{
    self, matmul_nt_with, matmul_tn_with, matmul_with, transpose_with, Backend,
};
use vitcod_tensor::{gelu, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Shapes that stress the tiling: far from any tile multiple, straddling
/// the 4-row tile height (m = 3, 4, 5) and the 8-wide panel (n = 7, 8, 9;
/// n = 15, 16, 17), below it (the m < 4 axpy path), and degenerate.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 64, 1),
    (1, 65, 9),
    (7, 13, 5),
    (31, 64, 33),
    (33, 63, 65),
    (64, 128, 32),
    (5, 200, 3),
    (3, 5, 7),
    (4, 6, 8),
    (9, 11, 15),
    (8, 16, 16),
    (2, 30, 17),
    (10, 9, 23),
];

/// Row-wise shapes: degenerate, ragged, a DeiT activation (all of which
/// stay on one thread at any budget) and two large enough that a budget
/// of four really splits the rows, into two chunks and into four.
const ROW_WISE_SHAPES: &[(usize, usize)] = &[
    (1, 1),
    (7, 13),
    (59, 39),
    (197, 192),
    (1024, 160),
    (1031, 384),
];

/// `f` under a budget of one worker and under a budget of four.
fn at_budgets_1_and_4<T>(f: impl Fn() -> T) -> (T, T) {
    (
        kernels::with_thread_budget(1, &f),
        kernels::with_thread_budget(4, &f),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_backends_agree(shape_idx in 0usize..14, seed in 0u64..1000) {
        let (m, k, n) = GEMM_SHAPES[shape_idx];
        let a = matrix(m, k).new_value(&mut TestRng::new(seed));
        let b = matrix(k, n).new_value(&mut TestRng::new(seed.wrapping_add(1)));
        let scalar = matmul_with(Backend::Scalar, &a, &b);
        let fast = matmul_with(Backend::Fast, &a, &b);
        prop_assert!(fast == scalar, "shape ({m},{k},{n}) seed {seed}");
        prop_assert!(fast.max_abs_diff(&scalar) <= 1e-5);
    }

    #[test]
    fn matmul_nt_backends_agree(shape_idx in 0usize..14, seed in 0u64..1000) {
        let (m, k, n) = GEMM_SHAPES[shape_idx];
        let a = matrix(m, k).new_value(&mut TestRng::new(seed));
        let b = matrix(n, k).new_value(&mut TestRng::new(seed.wrapping_add(2)));
        let scalar = matmul_nt_with(Backend::Scalar, &a, &b);
        let fast = matmul_nt_with(Backend::Fast, &a, &b);
        prop_assert!(fast == scalar, "shape ({m},{k},{n}) seed {seed}");
    }

    #[test]
    fn matmul_tn_backends_agree(shape_idx in 0usize..14, seed in 0u64..1000) {
        let (m, k, n) = GEMM_SHAPES[shape_idx];
        let a = matrix(k, m).new_value(&mut TestRng::new(seed));
        let b = matrix(k, n).new_value(&mut TestRng::new(seed.wrapping_add(3)));
        let scalar = matmul_tn_with(Backend::Scalar, &a, &b);
        let fast = matmul_tn_with(Backend::Fast, &a, &b);
        prop_assert!(fast == scalar, "shape ({m},{k},{n}) seed {seed}");
    }

    #[test]
    fn transpose_backends_agree(rows in 1usize..80, cols in 1usize..80, seed in 0u64..100) {
        let a = matrix(rows, cols).new_value(&mut TestRng::new(seed));
        let scalar = transpose_with(Backend::Scalar, &a);
        prop_assert_eq!(transpose_with(Backend::Fast, &a), scalar);
    }

    #[test]
    fn softmax_budgets_agree(shape_idx in 0usize..6, seed in 0u64..100) {
        let (rows, cols) = ROW_WISE_SHAPES[shape_idx];
        let a = matrix(rows, cols).new_value(&mut TestRng::new(seed));
        let (one, four) = at_budgets_1_and_4(|| kernels::softmax_rows(&a));
        prop_assert!(four == one);
    }

    #[test]
    fn layernorm_budgets_agree(shape_idx in 0usize..6, seed in 0u64..100) {
        let (rows, cols) = ROW_WISE_SHAPES[shape_idx];
        let a = matrix(rows, cols).new_value(&mut TestRng::new(seed));
        let gamma = vec![1.3f32; cols];
        let beta = vec![-0.2f32; cols];
        let (one, four) =
            at_budgets_1_and_4(|| kernels::layernorm_rows(&a, &gamma, &beta, 1e-5));
        prop_assert!(four == one);
    }

    #[test]
    fn elementwise_budgets_agree(shape_idx in 0usize..6, seed in 0u64..100) {
        let (rows, cols) = ROW_WISE_SHAPES[shape_idx];
        let a = matrix(rows, cols).new_value(&mut TestRng::new(seed));
        let b = matrix(rows, cols).new_value(&mut TestRng::new(seed.wrapping_add(5)));
        let (map_1, map_4) = at_budgets_1_and_4(|| kernels::map(&a, gelu));
        let (zip_1, zip_4) = at_budgets_1_and_4(|| kernels::zip_map(&a, &b, |x, y| x + y));
        prop_assert!(map_4 == map_1, "map");
        prop_assert!(zip_4 == zip_1, "zip_map");
    }

    #[test]
    fn empty_and_single_row_matmuls(cols in 1usize..20, seed in 0u64..50) {
        // 0×k · k×n and 1×k · k×n edge cases.
        let k = cols;
        let b = matrix(k, 4).new_value(&mut TestRng::new(seed));
        let empty = Matrix::zeros(0, k);
        let single = matrix(1, k).new_value(&mut TestRng::new(seed.wrapping_add(4)));
        let scalar = matmul_with(Backend::Scalar, &single, &b);
        prop_assert_eq!(matmul_with(Backend::Fast, &empty, &b).shape(), (0, 4));
        prop_assert_eq!(matmul_with(Backend::Fast, &single, &b), scalar);
    }
}

/// A seeded operand salted with the values a value-dependent shortcut
/// gets wrong: exact zeros of both signs throughout, and `head` in its
/// first two slots — a zero and a NaN on the left, an infinity on the
/// right, so `0 · inf` meets in `out[0][0]` of every flavour.
fn spiked(rows: usize, cols: usize, seed: u64, head: [f32; 2]) -> Matrix {
    let mut m = matrix(rows, cols).new_value(&mut TestRng::new(seed));
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        match i % 11 {
            3 => *v = 0.0,
            7 => *v = -0.0,
            _ => {}
        }
    }
    for (v, h) in m.as_mut_slice().iter_mut().zip(head) {
        *v = h;
    }
    m
}

/// Equal bit for bit, except that any NaN matches any NaN: which payload
/// an operation on two NaNs keeps is the one thing Rust leaves open.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Every flavour at every tile edge: m around the 4-row tile and below it
/// (the axpy path), n around the 8-wide panel, k around a cache line, one
/// past the GEMM's 128-step `k` block and at DeiT's widest, each empty
/// once — on one worker and on four, where 197 rows split into chunks of
/// 50, not a multiple of the tile height.
#[test]
fn fast_matches_scalar_at_every_tile_edge_on_non_finite_data() {
    for m in [0, 1, 3, 4, 5, 197] {
        for n in [0, 1, 7, 8, 9, 10, 197] {
            for k in [0, 1, 63, 64, 65, 129, 768] {
                let a = spiked(m, k, 1, [0.0, f32::NAN]);
                let at = spiked(k, m, 2, [0.0, f32::NAN]);
                let b = spiked(k, n, 3, [f32::INFINITY, -0.0]);
                let bt = spiked(n, k, 4, [f32::INFINITY, -0.0]);
                let want = [
                    matmul_with(Backend::Scalar, &a, &b),
                    matmul_nt_with(Backend::Scalar, &a, &bt),
                    matmul_tn_with(Backend::Scalar, &at, &b),
                ];
                if m > 0 && n > 0 && k > 0 {
                    assert!(want.iter().all(|w| w.get(0, 0).is_nan()), "0 · inf");
                }
                for budget in [1, 4] {
                    let got = kernels::with_thread_budget(budget, || {
                        [
                            matmul_with(Backend::Fast, &a, &b),
                            matmul_nt_with(Backend::Fast, &a, &bt),
                            matmul_tn_with(Backend::Fast, &at, &b),
                        ]
                    });
                    for (flavour, (g, w)) in ["nn", "nt", "tn"].iter().zip(got.iter().zip(&want)) {
                        assert!(same_bits(g, w), "{flavour} ({m},{k},{n}) x{budget} threads");
                    }
                }
            }
        }
    }
}
