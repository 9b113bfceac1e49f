//! Scalar and row-wise neural-network primitives.

/// Fast `tanh` via a clamped 13/6-degree rational (Padé-style)
/// approximation — the classic single-precision kernel used by Eigen
/// and XLA. Accurate to a few ulp of libm over the whole range, but a
/// straight-line sequence of fused multiply-adds and one division, so
/// it pipelines and autovectorises where libm's `tanhf` cannot.
///
/// GELU evaluates one `tanh` per MLP activation; at training scale that
/// makes this function one of the largest elementwise costs of a
/// forward/backward step, which is why the approximation is worth its
/// twelve constants.
fn tanh_fast(x: f32) -> f32 {
    // tanh saturates to ±1 (in f32) past this point.
    const CLAMP: f32 = 7.998_811_7;
    const TINY: f32 = 0.000_4;
    const ALPHA_1: f32 = 4.893_525e-3;
    const ALPHA_3: f32 = 6.372_619e-4;
    const ALPHA_5: f32 = 1.485_722_4e-5;
    const ALPHA_7: f32 = 5.122_297e-8;
    const ALPHA_9: f32 = -8.604_672e-11;
    const ALPHA_11: f32 = 2.000_188e-13;
    const ALPHA_13: f32 = -2.760_768_5e-16;
    const BETA_0: f32 = 4.893_525_3e-3;
    const BETA_2: f32 = 2.268_434_7e-3;
    const BETA_4: f32 = 1.185_347e-4;
    const BETA_6: f32 = 1.198_258_4e-6;
    if x.abs() < TINY {
        // tanh(x) = x - x³/3 + …; below this threshold the linear term
        // is exact in f32 and the rational form would only lose bits.
        return x;
    }
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = ALPHA_13;
    p = x2 * p + ALPHA_11;
    p = x2 * p + ALPHA_9;
    p = x2 * p + ALPHA_7;
    p = x2 * p + ALPHA_5;
    p = x2 * p + ALPHA_3;
    p = x2 * p + ALPHA_1;
    let p = x * p;
    let mut q = BETA_6;
    q = x2 * q + BETA_4;
    q = x2 * q + BETA_2;
    q = x2 * q + BETA_0;
    p / q
}

/// Gaussian Error Linear Unit, the ViT MLP non-linearity.
///
/// Uses the tanh approximation adopted by the original BERT/ViT codebases:
/// `0.5 x (1 + tanh(sqrt(2/π)(x + 0.044715 x³)))`, with the inner tanh
/// evaluated by `tanh_fast`.
///
/// # Example
///
/// ```
/// assert_eq!(vitcod_tensor::gelu(0.0), 0.0);
/// assert!(vitcod_tensor::gelu(3.0) > 2.9);
/// ```
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + tanh_fast(SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)))
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x);
    let t = tanh_fast(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Numerically stable softmax over a single row, in place.
///
/// Entries equal to `f32::NEG_INFINITY` (masked-out attention positions)
/// map to exactly `0.0`.
///
/// # Example
///
/// ```
/// let mut row = [0.0_f32, 0.0, f32::NEG_INFINITY];
/// vitcod_tensor::softmax_row(&mut row);
/// assert!((row[0] - 0.5).abs() < 1e-6);
/// assert_eq!(row[2], 0.0);
/// ```
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // Fully masked row: define softmax as all zeros rather than NaN so
        // pruned attention rows stay well-behaved.
        row.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        if *v == f32::NEG_INFINITY {
            *v = 0.0;
        } else {
            *v = (*v - max).exp();
            sum += *v;
        }
    }
    if sum > 0.0 {
        row.iter_mut().for_each(|v| *v /= sum);
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical kernel replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{kernels, Matrix};

    #[test]
    fn tanh_fast_tracks_libm() {
        // Dense sweep across the active range plus the clamp/tiny
        // boundaries: the rational approximation must stay within 1e-6
        // of libm, and saturate exactly at the tails.
        let mut x = -10.0f32;
        while x <= 10.0 {
            let err = (tanh_fast(x) - x.tanh()).abs();
            assert!(err < 1e-6, "tanh_fast({x}) off by {err}");
            x += 0.001;
        }
        assert_eq!(tanh_fast(0.0), 0.0);
        assert!((tanh_fast(20.0) - 1.0).abs() < 1e-6, "saturates at +1");
        assert!((tanh_fast(-20.0) + 1.0).abs() < 1e-6, "saturates at -1");
        assert_eq!(tanh_fast(1e-5), 1e-5, "tiny inputs pass through");
    }

    #[test]
    fn gelu_reference_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Asymptotics: identity for large positive, zero for large negative.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0_f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "x={x}: analytic {} vs fd {}",
                gelu_grad(x),
                fd
            );
        }
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let mut row = [1.0, 2.0, 3.0, 4.0];
        softmax_row(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.windows(2).all(|w| w[0] < w[1]), "monotone in logits");
    }

    #[test]
    fn softmax_handles_full_mask() {
        let mut row = [f32::NEG_INFINITY; 3];
        softmax_row(&mut row);
        assert_eq!(row, [0.0; 3]);
    }

    #[test]
    fn softmax_handles_partial_mask() {
        let mut row = [0.0, f32::NEG_INFINITY, 0.0];
        softmax_row(&mut row);
        assert!((row[0] - 0.5).abs() < 1e-6);
        assert_eq!(row[1], 0.0);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [101.0, 102.0, 103.0];
        softmax_row(&mut a);
        softmax_row(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        let n = kernels::layernorm_rows(&m, &gamma, &beta, 1e-5);
        let row = n.row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_gamma_beta() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let n = kernels::layernorm_rows(&m, &[2.0, 2.0], &[1.0, 1.0], 1e-5);
        let row = n.row(0);
        // Normalised row is [-1, 1]; scaled by 2 and shifted by 1 -> [-1, 3].
        assert!((row[0] + 1.0).abs() < 1e-2);
        assert!((row[1] - 3.0).abs() < 1e-2);
    }
}
