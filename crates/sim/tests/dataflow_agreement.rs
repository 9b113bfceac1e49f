//! Value-level agreement of the accelerator's dataflows.
//!
//! The cycle model in `vitcod_sim::ViTCoDAccelerator` answers *how
//! long*; the CSC kernels in `vitcod_tensor::sparse` — the K-stationary
//! SDDMM, the sparse softmax and the output-stationary SpMM, executed as
//! the engines sequence them (column by column over the CSC index) —
//! answer *what is computed*. These tests check them against the dense
//! masked-attention reference on masks the split-and-conquer algorithm
//! actually produces: the reproduction's analogue of the paper's
//! "verified it against the RTL implementation to ensure its
//! correctness". An 8-bit variant runs the same dataflow on quantized
//! operands with i32 accumulation, as the MAC lines do.

use vitcod_core::{prune_to_sparsity, AttentionMask};
use vitcod_tensor::sparse::{attention_head, sddmm_k_stationary, sddmm_k_stationary_int8_rows};
use vitcod_tensor::{kernels, Initializer, Matrix, QuantizedRows};

fn random_qkv(n: usize, dk: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    (
        Initializer::Normal { std: 1.0 }.sample(n, dk, seed),
        Initializer::Normal { std: 1.0 }.sample(n, dk, seed + 1),
        Initializer::Normal { std: 1.0 }.sample(n, dk, seed + 2),
    )
}

fn diag_global_mask(n: usize) -> AttentionMask {
    let mut m = AttentionMask::empty(n);
    for q in 0..n {
        m.keep(q, q);
        m.keep(q, 0);
        m.keep(q, (q + 1) % n);
    }
    m
}

/// Dense reference: masked softmax attention computed with plain
/// matrix ops.
fn dense_reference(q: &Matrix, k: &Matrix, v: &Matrix, mask: &AttentionMask, scale: f32) -> Matrix {
    let mut scores = &kernels::matmul_nt(q, k) * scale;
    for r in 0..scores.rows() {
        for c in 0..scores.cols() {
            if !mask.is_kept(r, c) {
                scores.set(r, c, f32::NEG_INFINITY);
            }
        }
    }
    kernels::matmul(&kernels::softmax_rows(&scores), v)
}

#[test]
fn sddmm_matches_dense_scores() {
    let (q, k, _) = random_qkv(24, 16, 10);
    let mask = diag_global_mask(24);
    let index = mask.to_csc();
    let sparse = sddmm_k_stationary(&q, &k, &index, 0.25);
    let dense = &kernels::matmul_nt(&q, &k) * 0.25;
    let sd = sparse.to_dense();
    for (qq, kk) in mask.iter_kept() {
        assert!(
            (sd.get(qq, kk) - dense.get(qq, kk)).abs() < 1e-5,
            "score ({qq},{kk}) differs"
        );
    }
    assert_eq!(sparse.nnz(), mask.nnz());
}

#[test]
fn full_dataflow_matches_dense_masked_attention() {
    let (q, k, v) = random_qkv(32, 8, 20);
    let mask = diag_global_mask(32);
    let index = mask.to_csc();
    let dataflow = attention_head(&q, &k, &v, &index, 0.35);
    let reference = dense_reference(&q, &k, &v, &mask, 0.35);
    assert!(
        dataflow.max_abs_diff(&reference) < 1e-4,
        "dataflow diverges from dense reference by {}",
        dataflow.max_abs_diff(&reference)
    );
}

#[test]
fn dataflow_matches_reference_on_pruned_real_maps() {
    // End-to-end with a split-and-conquer produced mask.
    let (q, k, v) = random_qkv(48, 16, 30);
    let map = kernels::softmax_rows(&kernels::matmul_nt(&q, &k));
    let mask = prune_to_sparsity(&map, 0.85);
    let index = mask.to_csc();
    let dataflow = attention_head(&q, &k, &v, &index, 0.25);
    let reference = dense_reference(&q, &k, &v, &mask, 0.25);
    assert!(dataflow.max_abs_diff(&reference) < 1e-4);
}

#[test]
fn int8_dataflow_close_to_fp32() {
    let (q, k, _) = random_qkv(24, 32, 50);
    let mask = diag_global_mask(24);
    let index = mask.to_csc();
    let fp = sddmm_k_stationary(&q, &k, &index, 0.2);
    let qi = QuantizedRows::quantize(&q);
    let ki = QuantizedRows::quantize(&k);
    let i8s = sddmm_k_stationary_int8_rows(&qi, &ki, 0..32, &index, 0.2);
    let diff = fp.to_dense().max_abs_diff(&i8s.to_dense());
    let norm = fp.to_dense().frobenius_norm().max(1e-6);
    assert!(diff / norm < 0.08, "int8 relative error {}", diff / norm);
}

#[test]
fn forced_multithread_dataflow_is_identical() {
    let (q, k, v) = random_qkv(33, 8, 90);
    let map = kernels::softmax_rows(&kernels::matmul_nt(&q, &k));
    let mask = prune_to_sparsity(&map, 0.7);
    let index = mask.to_csc();
    let run = || attention_head(&q, &k, &v, &index, 0.3);
    let sequential = kernels::with_thread_budget(1, run);
    let parallel = kernels::with_thread_budget(4, run);
    assert_eq!(sequential, parallel);
}
