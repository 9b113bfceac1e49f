//! The fan-out agreement suite.
//!
//! Every sparse kernel has one body; the thread budget only decides how
//! many workers share its disjoint outputs (CSC column runs, query-row
//! runs, output-row chunks). Every kernel and gradient must return the
//! same bits at every budget. The proptests compare budget 1 with budget
//! 4 at shapes of at most 48 tokens, where the work stays under the
//! kernel layer's fan-out grain and one thread runs either way; the
//! empty-key-column sweep adds budgets 2, 3 and 7 (7 is above the column
//! count at n = 3); and the n = 577 case is where the workers really
//! split the work (see [`DEIT_384`]).
// Agreement is a *bit-identical* contract (see ROADMAP): strict float
// comparison is the assertion these suites exist to make.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;
use vitcod_tensor::kernels::with_thread_budget;
use vitcod_tensor::sparse::{
    attention_head_backward, sddmm_backward, sddmm_k_stationary, sddmm_k_stationary_int8_rows,
    sparse_softmax_backward, spmm_backward, spmm_output_stationary, CscMatrix, SparseScores,
};
use vitcod_tensor::{Initializer, Matrix, QuantizedRows};

/// Token / feature shapes that stress the row-chunk and column-run
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
    fn sddmm_over_a_cloned_index_matches_the_original(
        shape_idx in 0usize..5,
        density in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let (n, d) = SHAPES[shape_idx];
        let q = random(n, d, seed);
        let k = random(n, d, seed.wrapping_add(1));
        let index = random_index(n, density, seed.wrapping_add(2));
        let shared = index.clone();
        let scale = 1.0 / (d as f32).sqrt();
        let owned = with_thread_budget(1, || sddmm_k_stationary(&q, &k, &index, scale));
        for budget in [1, 4] {
            let got = with_thread_budget(budget, || sddmm_k_stationary(&q, &k, &shared, scale));
            prop_assert_eq!(got.values(), owned.values(), "budget {}", budget);
            prop_assert_eq!(got.index(), &index);
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

/// The budgets compared with budget 1 outside the proptests.
const BUDGETS: [usize; 4] = [2, 3, 4, 7];

/// [`random_index`] with key column `empty` pruned whole, diagonal
/// included: a key no query attends to.
fn index_with_empty_column(n: usize, density: f64, seed: u64, empty: usize) -> CscMatrix {
    let base = random_index(n, density, seed);
    CscMatrix::from_indicator(n, |q, k| {
        k != empty && base.col_rows(k).binary_search(&(q as u32)).is_ok()
    })
}

/// What every sparse kernel and gradient returns over one mask.
struct Outputs {
    scores: SparseScores,
    scores_int8: SparseScores,
    probs: SparseScores,
    out: Matrix,
    spmm_backward: (SparseScores, Matrix),
    dscores: SparseScores,
    sddmm_backward: (Matrix, Matrix),
    attention_backward: (Matrix, Matrix, Matrix),
}

/// Runs every sparse kernel and gradient over `index` with `dk`-wide
/// heads.
fn every_kernel(index: &CscMatrix, dk: usize, seed: u64) -> Outputs {
    let n = index.size();
    let (q, k, v, gout) = (
        random(n, dk, seed),
        random(n, dk, seed.wrapping_add(1)),
        random(n, dk, seed.wrapping_add(2)),
        random(n, dk, seed.wrapping_add(3)),
    );
    let scale = 1.0 / (dk as f32).sqrt();
    let scores = sddmm_k_stationary(&q, &k, index, scale);
    let (q8, k8) = (QuantizedRows::quantize(&q), QuantizedRows::quantize(&k));
    let probs = scores.softmax_rows();
    let spmm_backward = spmm_backward(&probs, &v, &gout);
    let dscores = sparse_softmax_backward(&probs, &spmm_backward.0);
    Outputs {
        scores_int8: sddmm_k_stationary_int8_rows(&q8, &k8, 0..dk, index, scale),
        out: spmm_output_stationary(&probs, &v),
        sddmm_backward: sddmm_backward(&q, &k, &dscores, scale),
        attention_backward: attention_head_backward(&q, &k, &v, scale, &probs, &gout),
        scores,
        probs,
        spmm_backward,
        dscores,
    }
}

/// Asserts [`every_kernel`] returns budget 1's bits at every [`BUDGETS`].
fn assert_every_kernel_agrees(index: &CscMatrix, dk: usize, seed: u64) {
    let one = with_thread_budget(1, || every_kernel(index, dk, seed));
    let n = index.size();
    for budget in BUDGETS {
        let got = with_thread_budget(budget, || every_kernel(index, dk, seed));
        let at = format!("n {n}, budget {budget}");
        assert!(got.scores == one.scores, "sddmm, {at}");
        assert!(got.scores_int8 == one.scores_int8, "int8 sddmm, {at}");
        assert!(got.probs == one.probs, "softmax, {at}");
        assert!(got.out == one.out, "spmm, {at}");
        assert!(
            got.spmm_backward == one.spmm_backward,
            "spmm backward, {at}"
        );
        assert!(got.dscores == one.dscores, "softmax backward, {at}");
        assert!(
            got.sddmm_backward == one.sddmm_backward,
            "sddmm backward, {at}"
        );
        assert!(
            got.attention_backward == one.attention_backward,
            "attention backward, {at}"
        );
    }
}

#[test]
fn every_kernel_agrees_with_an_empty_key_column_at_budgets_2_3_4_7() {
    for (i, &(n, d)) in SHAPES.iter().enumerate() {
        for (density, empty) in [(0.3, 0), (0.7, n / 2), (0.9, n - 1)] {
            let seed = 100 * i as u64 + empty as u64;
            let index = index_with_empty_column(n, density, seed, empty);
            assert_every_kernel_agrees(&index, d, seed);
        }
    }
}

/// DeiT at 384 px: 577 tokens, 64-wide heads, half the map kept. The
/// kernel layer spawns a worker per 128 Ki units of estimated work
/// (`MIN_WORK_PER_THREAD`), so at budget 4 with nnz ≈ 0.5 · 577² ≈
/// 166 K:
/// * the SDDMMs (fp32, int8 and `spmm_backward`'s dP) estimate
///   nnz · dk ≈ 10.7 M MACs, and the SpMM and the three dense gradients
///   (gq, gk, gv) n · dk · (nnz / n + 1) ≈ 10.7 M: 4 workers each;
/// * `softmax_rows` estimates nnz ≈ 166 K elements: 166 K / 128 Ki + 1 =
///   2 workers;
/// * `sparse_softmax_backward` estimates 2 · nnz ≈ 333 K: 3 workers.
///
/// The 48-token shapes above stay under 128 Ki for every kernel (the
/// largest, an SDDMM at density 0.9, is ≈ 2.1 K · 16 ≈ 33 K MACs).
const DEIT_384: (usize, usize, f64) = (577, 64, 0.5);

#[test]
fn every_kernel_agrees_when_the_workers_really_split_deit_384() {
    let (n, dk, density) = DEIT_384;
    let index = index_with_empty_column(n, density, 577, 288);
    assert!(
        index.nnz() > 128 * 1024,
        "nnz {} must carry even the row softmax past the fan-out grain",
        index.nnz()
    );
    assert_every_kernel_agrees(&index, dk, 577);
}
