//! Direct calls into `vitcod_tensor` at the DeiT-Tiny shapes: 197
//! tokens, dim 192, 3 heads × dk 64, MLP 768, one 90 % mask. Each
//! timing is the quiet-box percentile of `CALLS` calls after one
//! warm-up call.

use std::hint::black_box;
use std::time::Instant;

use vitcod_core::prune_to_sparsity;
use vitcod_model::{AttentionStats, ViTConfig};
use vitcod_tensor::sparse::{self, CscMatrix};
use vitcod_tensor::{int8_gemm, kernels, Initializer, Matrix, PackedGemmWeights, QuantizedRows};

use crate::models::SPARSITY;
use crate::run::Layers;
use crate::stats::quiet;

const CALLS: usize = 20;
const N: usize = 197;
const DIM: usize = 192;
const HEADS: usize = 3;
const DK: usize = 64;
const MLP: usize = 768;

/// Seconds one call of `f` takes: the quiet-box percentile of `CALLS`
/// calls after one warm-up call.
pub fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let times: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    quiet(&times)
}

fn normal(rows: usize, cols: usize, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(rows, cols, seed)
}

/// The three projection shapes of a DeiT-Tiny block as `(k, n)` of the
/// weight; the activation is always `N × k`.
const PROJECTIONS: [(usize, usize); 3] = [(DIM, 3 * DIM), (DIM, MLP), (MLP, DIM)];

fn projection_ops() -> f64 {
    PROJECTIONS
        .iter()
        .map(|&(k, n)| 2.0 * (N * k * n) as f64)
        .sum()
}

/// One head's 90 % mask from the seeded ensemble, as a CSC index.
fn mask(seed: u64) -> CscMatrix {
    let stats = AttentionStats::for_model(&ViTConfig::deit_tiny(), seed);
    let m = prune_to_sparsity(&stats.maps[0][0], SPARSITY).to_matrix();
    CscMatrix::from_indicator(N, |q, k| m.get(q, k) != 0.0)
}

/// fp32 kernels: what `offline_dense_fp32` runs on.
pub fn dense_kernels(seed: u64, layers: &mut Layers) {
    let names = [
        "tensor.gemm_qkv_s",
        "tensor.gemm_fc1_s",
        "tensor.gemm_fc2_s",
    ];
    let mut total_s = 0.0;
    for (i, (&(k, n), name)) in PROJECTIONS.iter().zip(names).enumerate() {
        let (x, w) = (
            normal(N, k, seed + i as u64),
            normal(k, n, seed + 10 + i as u64),
        );
        let s = time(|| kernels::matmul(&x, &w));
        layers.set(name, s);
        total_s += s;
    }
    layers.set("tensor.gemm_gflops", projection_ops() / total_s / 1e9);

    let (q, k, v) = (
        normal(N, HEADS * DK, seed + 20),
        normal(N, HEADS * DK, seed + 21),
        normal(N, HEADS * DK, seed + 22),
    );
    let scale = 1.0 / (DK as f32).sqrt();
    layers.set(
        "tensor.attn_dense_s",
        time(|| kernels::multi_head_attention(&q, &k, &v, DK, scale, &[])),
    );
    let scores = normal(N, N, seed + 23);
    layers.set("tensor.softmax_s", time(|| kernels::softmax_rows(&scores)));
    let x = normal(N, DIM, seed + 24);
    let (gamma, beta) = (vec![1.0f32; DIM], vec![0.0f32; DIM]);
    layers.set(
        "tensor.layernorm_s",
        time(|| kernels::layernorm_rows(&x, &gamma, &beta, 1e-5)),
    );
}

/// int8 and sparse kernels: what `offline_sparse_int8` runs on.
pub fn sparse_int8_kernels(seed: u64, layers: &mut Layers) {
    let names = [
        "tensor.int8_gemm_qkv_s",
        "tensor.int8_gemm_fc1_s",
        "tensor.int8_gemm_fc2_s",
    ];
    let mut total_s = 0.0;
    for (i, (&(k, n), name)) in PROJECTIONS.iter().zip(names).enumerate() {
        let x = QuantizedRows::quantize(&normal(N, k, seed + i as u64));
        let w = PackedGemmWeights::pack(&normal(k, n, seed + 10 + i as u64));
        let bias = vec![0.0f32; n];
        let s = time(|| int8_gemm(&x, &w, &bias));
        layers.set(name, s);
        total_s += s;
    }
    layers.set("tensor.int8_gemm_gops", projection_ops() / total_s / 1e9);
    let x = normal(N, DIM, seed + 19);
    layers.set(
        "tensor.quantize_rows_s",
        time(|| QuantizedRows::quantize(&x)),
    );

    let index = mask(seed);
    layers.set("tensor.mask_nnz", index.nnz() as f64);
    let (q, k, v) = (
        normal(N, DK, seed + 20),
        normal(N, DK, seed + 21),
        normal(N, DK, seed + 22),
    );
    let scale = 1.0 / (DK as f32).sqrt();
    layers.set(
        "tensor.sddmm_s",
        time(|| sparse::sddmm_k_stationary(&q, &k, &index, scale)),
    );
    let probs = sparse::sddmm_k_stationary(&q, &k, &index, scale).softmax_rows();
    layers.set(
        "tensor.spmm_s",
        time(|| sparse::spmm_output_stationary(&probs, &v)),
    );
    layers.set(
        "tensor.sparse_attn_s",
        time(|| sparse::attention_head(&q, &k, &v, &index, scale)),
    );
    let (q8, k8) = (QuantizedRows::quantize(&q), QuantizedRows::quantize(&k));
    layers.set(
        "tensor.sparse_attn_int8_s",
        time(|| sparse::attention_head_int8_rows(&q8, &k8, 0..DK, &v, &index, scale)),
    );
}

/// Transposed and backward kernels: what `train_sparse_step` adds to
/// the forward ones (the fc1 backward shapes, one sparse head).
pub fn training_kernels(seed: u64, layers: &mut Layers) {
    let (x, w, dy) = (
        normal(N, DIM, seed),
        normal(DIM, MLP, seed + 1),
        normal(N, MLP, seed + 2),
    );
    // dX = dY · Wᵀ and dW = Xᵀ · dY.
    layers.set("tensor.gemm_nt_s", time(|| kernels::matmul_nt(&dy, &w)));
    layers.set("tensor.gemm_tn_s", time(|| kernels::matmul_tn(&x, &dy)));

    let index = mask(seed);
    let (q, k, v, g) = (
        normal(N, DK, seed + 20),
        normal(N, DK, seed + 21),
        normal(N, DK, seed + 22),
        normal(N, DK, seed + 23),
    );
    let scale = 1.0 / (DK as f32).sqrt();
    let probs = sparse::sddmm_k_stationary(&q, &k, &index, scale).softmax_rows();
    layers.set(
        "tensor.sparse_attn_bwd_s",
        time(|| sparse::attention_head_backward(&q, &k, &v, scale, &probs, &g)),
    );
}
