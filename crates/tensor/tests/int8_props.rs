//! Int8 path coverage: quantize→dequantize error bounds on
//! [`QuantizedMatrix`], the 8-bit K-stationary SDDMM the engine serves
//! (per-row scales) agreeing with the fp32 SDDMM within quantization
//! tolerance across random shapes and seeds, and the packed projection GEMM ([`int8_gemm`]) tracking fp32
//! within its analytic per-row error bound at real DeiT projection
//! shapes — plus an exact-integer proof that the i32 accumulator cannot
//! overflow at the documented worst-case reduction depth, and a sweep of
//! every tile edge of the fast GEMM against the scalar one, bit for bit,
//! at the operand values that stress an accumulator most.
// Backend agreement is a *bit-identical* contract (see ROADMAP): strict
// float comparison is the assertion these suites exist to make.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;
use vitcod_tensor::kernels::{self, Backend};
use vitcod_tensor::sparse::{sddmm_k_stationary, sddmm_k_stationary_int8_rows, CscMatrix};
use vitcod_tensor::{
    int8_gemm, int8_gemm_with, Initializer, Matrix, PackedGemmWeights, QuantParams,
    QuantizedMatrix, QuantizedRows, MAX_INT8_GEMM_K,
};

fn random(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    Initializer::Normal { std }.sample(rows, cols, seed)
}

/// Banded + global-column pattern at size `n` (the polarized-map shape).
fn banded_index(n: usize, band: usize) -> CscMatrix {
    CscMatrix::from_indicator(n, |q, k| k == 0 || (q.abs_diff(k) <= band))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Symmetric per-tensor quantization bounds every element's
    /// round-trip error by half a quantization step.
    #[test]
    fn quantize_dequantize_error_bounded_by_half_step(
        rows in 1usize..24,
        cols in 1usize..24,
        std in 0.05f32..4.0,
        seed in 0u64..1000,
    ) {
        let m = random(rows, cols, std, seed);
        let q = QuantizedMatrix::quantize(&m);
        let err = m.max_abs_diff(&q.dequantize());
        prop_assert!(
            err <= q.params().scale * 0.5 + 1e-7,
            "round-trip error {err} exceeds half step {}",
            q.params().scale * 0.5
        );
    }

    /// An explicit (coarser) scale still bounds the error by half its
    /// own step, as long as nothing saturates.
    #[test]
    fn explicit_scale_error_bound_without_saturation(
        seed in 0u64..1000,
        scale_mult in 1.0f32..4.0,
    ) {
        let m = random(8, 8, 1.0, seed);
        let fitted = QuantParams::fit(&m);
        let coarse = QuantParams { scale: fitted.scale * scale_mult };
        let q = QuantizedMatrix::quantize_with(&m, coarse);
        let err = m.max_abs_diff(&q.dequantize());
        prop_assert!(err <= coarse.scale * 0.5 + 1e-6, "err {err}");
    }

    /// The int8 SDDMM tracks the fp32 SDDMM within the analytic
    /// quantization tolerance across random shapes, sparsity bands and
    /// seeds: each score is a dk-term dot product whose per-term error
    /// is bounded by the operand round-trip errors.
    #[test]
    fn int8_sddmm_matches_fp32_within_quant_tolerance(
        n in 4usize..48,
        dk in 4usize..48,
        band in 1usize..4,
        seed in 0u64..1000,
        scale in 0.05f32..1.0,
    ) {
        let q = random(n, dk, 1.0, seed);
        let k = random(n, dk, 1.0, seed + 7919);
        let index = banded_index(n, band);
        let fp = sddmm_k_stationary(&q, &k, &index, scale);
        let qi = QuantizedRows::quantize(&q);
        let ki = QuantizedRows::quantize(&k);
        let i8s = sddmm_k_stationary_int8_rows(&qi, &ki, 0..dk, &index, scale);

        // Per-term bound: |q·k − q̂·k̂| ≤ |q|·εk + |k|·εq + εq·εk with
        // ε = step/2, summed over dk terms. ε is taken from the whole
        // tensor's step; a row's own step is never coarser.
        let eq = QuantParams::fit(&q).scale * 0.5;
        let ek = QuantParams::fit(&k).scale * 0.5;
        let qmax = q.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let kmax = k.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let bound = dk as f32 * (qmax * ek + kmax * eq + eq * ek) * scale + 1e-5;

        let diff = fp.to_dense().max_abs_diff(&i8s.to_dense());
        prop_assert!(
            diff <= bound,
            "int8 SDDMM error {diff} exceeds analytic bound {bound} (n={n}, dk={dk})"
        );
        prop_assert_eq!(fp.nnz(), i8s.nnz());
    }

    /// Packing is lossless: `to_quantized ∘ from_quantized` is the
    /// identity on raw bytes and scale (odd `k`, ragged `n`, `k = 0`,
    /// `n = 0` and a raw −128 included), and `from_quantized ∘
    /// to_quantized` is the identity on panels, zero pads included —
    /// what lets a model hold a projection only packed and still save
    /// the bytes it loaded.
    #[test]
    fn packing_round_trips_bytes_and_panels(
        k in 0usize..20,
        n in 0usize..20,
        seed in 0u64..1000,
        scale in 0.001f32..2.0,
    ) {
        // Any i8 value; zeros become −128 so the raw minimum, which only
        // a loaded payload can hold, occurs at every size.
        let data = (0..k * n)
            .map(|i| (i as u64 * 37 + seed * 101) as u8 as i8)
            .map(|v| if v == 0 { i8::MIN } else { v })
            .collect();
        let q = QuantizedMatrix::from_raw(k, n, data, QuantParams { scale });
        let packed = PackedGemmWeights::from_quantized(&q);
        prop_assert_eq!(&packed.to_quantized(), &q);
        prop_assert_eq!(&PackedGemmWeights::from_quantized(&packed.to_quantized()), &packed);
    }
}

#[test]
fn int8_sddmm_relative_error_small_at_attention_scale() {
    // A DeiT-head-shaped check with a tight empirical tolerance.
    for seed in [1u64, 42, 777] {
        let q = random(64, 32, 1.0, seed);
        let k = random(64, 32, 1.0, seed + 1);
        let index = banded_index(64, 2);
        let fp = sddmm_k_stationary(&q, &k, &index, 0.18);
        let i8s = sddmm_k_stationary_int8_rows(
            &QuantizedRows::quantize(&q),
            &QuantizedRows::quantize(&k),
            0..32,
            &index,
            0.18,
        );
        let rel =
            fp.to_dense().max_abs_diff(&i8s.to_dense()) / fp.to_dense().frobenius_norm().max(1e-6);
        assert!(rel < 0.05, "seed {seed}: relative error {rel}");
    }
}

/// The fused-QKV projection shapes (`dim × 3·dim`) of the three DeiT
/// models the paper evaluates. Token count is subsampled to keep the
/// debug-mode f64 reference fast; `k` and `n` — the dims that stress
/// packing, accumulation depth and the epilogue — are the real ones.
const DEIT_PROJ_SHAPES: &[(&str, usize, usize)] = &[
    ("deit_tiny", 192, 576),
    ("deit_small", 384, 1152),
    ("deit_base", 768, 2304),
];

/// [`int8_gemm`] tracks an f64 reference within the analytic per-row
/// bound at every DeiT projection shape: each of the `k` product terms
/// errs by at most `|a|·εw + |w|·εa + εa·εw` (ε = half a quantization
/// step, εa per activation row), plus a small slack for the f32
/// epilogue's own rounding.
#[test]
fn int8_gemm_within_analytic_bound_at_deit_shapes() {
    for &(name, k, n) in DEIT_PROJ_SHAPES {
        let m = 8;
        let a = random(m, k, 1.0, 0xD0 + k as u64);
        let w = random(k, n, 0.05, 0xA0 + n as u64);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32).sin() * 0.1).collect();

        let a8 = QuantizedRows::quantize(&a);
        let w8 = PackedGemmWeights::pack(&w);
        let out = int8_gemm(&a8, &w8, &bias);

        let ew = w8.scale() as f64 * 0.5;
        let wmax = w.as_slice().iter().fold(0.0f32, |x, &v| x.max(v.abs())) as f64;
        for i in 0..m {
            let ea = a8.row_scale(i) as f64 * 0.5;
            let amax = a.row(i).iter().fold(0.0f32, |x, &v| x.max(v.abs())) as f64;
            let bound = k as f64 * (amax * ew + wmax * ea + ea * ew);
            for (j, &bj) in bias.iter().enumerate() {
                let exact: f64 = (0..k)
                    .map(|kk| a.get(i, kk) as f64 * w.get(kk, j) as f64)
                    .sum::<f64>()
                    + bj as f64;
                let err = (out.get(i, j) as f64 - exact).abs();
                assert!(
                    err <= bound + 1e-3 * exact.abs() + 1e-4,
                    "{name}: |out - exact| = {err} exceeds bound {bound} at ({i},{j})"
                );
            }
        }
    }
}

/// At the documented worst-case reduction depth [`MAX_INT8_GEMM_K`] the
/// i32 accumulator lands exactly on the predicted integer — no
/// wraparound — on both backends, including the lane-tail columns of a
/// non-multiple-of-8 `n`: with all operands saturated to +127, and with
/// the raw −128 weights only an artifact can carry, whose products are
/// the largest the kernel can meet.
#[test]
fn int8_gemm_i32_accumulator_survives_worst_case_k() {
    let k = MAX_INT8_GEMM_K;
    let n = 9; // exercises the packed panel's zero-padded tail lanes
    assert!(
        k as i64 * 127 * 128 <= i32::MAX as i64,
        "MAX_INT8_GEMM_K itself is unsound"
    );

    // All-ones activations quantize to exactly +127 with scale 1/127.
    let a8 = QuantizedRows::quantize(&Matrix::from_vec(1, k, vec![1.0; k]));
    let bias = vec![0.5f32; n];
    for wv in [127i8, i8::MIN] {
        let w8 = PackedGemmWeights::from_quantized(&filled_weights(k, n, |_| wv));
        // Same epilogue expression the kernel applies to its accumulator.
        let acc = (k as i64 * 127 * wv as i64) as i32;
        let expected = acc as f32 * (a8.row_scale(0) * w8.scale()) + 0.5;
        for backend in [Backend::Scalar, Backend::Fast] {
            let out = int8_gemm_with(backend, &a8, &w8, &bias);
            for (j, &v) in out.row(0).iter().enumerate() {
                assert_eq!(v > 0.0, wv > 0, "{backend:?}: accumulator wrapped");
                assert_eq!(v, expected, "{backend:?} col {j}, weights {wv}");
            }
        }
    }
}

/// A `k × n` raw weight whose column `j` holds `col(j)` throughout, at a
/// scale that is not a power of two (the artifact-load constructor: the
/// only one that admits −128).
fn filled_weights(k: usize, n: usize, col: impl Fn(usize) -> i8) -> QuantizedMatrix {
    let data = (0..k * n).map(|i| col(i % n)).collect();
    QuantizedMatrix::from_raw(k, n, data, QuantParams { scale: 0.013 })
}

/// `Fast` ≡ `Scalar` at every edge of the int8 tile: m around the 4-row
/// block, n around the 8-wide panel, k around the pair (odd `k` is
/// zero-padded), around the 256-pair block the fast kernel accumulates
/// exactly in f32, across several such blocks and at DeiT's widest, each
/// empty once — on one worker and on four, where 197 rows split into
/// chunks of 50, not a multiple of the block height. Three operand sets:
/// random; saturated ±127 with the sign set per row and per column, so
/// every output is a full-magnitude sum of either sign; and raw −128
/// weights, the largest products there are. Those are the values at
/// which an accumulator that was not exact would first differ.
#[test]
fn fast_matches_scalar_at_every_tile_edge_on_saturated_data() {
    let sign = |i: usize| [1i8, -1][i % 2];
    for m in [0, 1, 3, 4, 5, 197] {
        for n in [0, 1, 7, 8, 9, 17, 197] {
            for k in [0, 1, 2, 511, 512, 513, 1025, 3072] {
                let seed = (m * 31 + n * 7 + k) as u64;
                let saturated = Matrix::from_fn(m, k, |i, _| sign(i) as f32);
                let operands = [
                    (
                        "random",
                        random(m, k, 1.0, seed),
                        QuantizedMatrix::quantize(&random(k, n, 0.3, seed + 1)),
                    ),
                    (
                        "±127",
                        saturated.clone(),
                        filled_weights(k, n, |j| 127 * sign(j)),
                    ),
                    ("−128", saturated, filled_weights(k, n, |_| i8::MIN)),
                ];
                let bias: Vec<f32> = (0..n).map(|j| (j as f32).cos() * 0.1).collect();
                for (data, a, w) in operands {
                    let a8 = QuantizedRows::quantize(&a);
                    let w8 = PackedGemmWeights::from_quantized(&w);
                    let want = int8_gemm_with(Backend::Scalar, &a8, &w8, &bias);
                    for budget in [1, 4] {
                        let got = kernels::with_thread_budget(budget, || {
                            int8_gemm_with(Backend::Fast, &a8, &w8, &bias)
                        });
                        assert_eq!(got.shape(), want.shape());
                        let same = got
                            .as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{data} ({m},{k},{n}) x{budget} threads");
                    }
                }
            }
        }
    }
}
