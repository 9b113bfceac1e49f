//! Pruning with fixed masks (Alg. 1, lines 1–6).

use std::cmp::Ordering;

use vitcod_tensor::Matrix;

use crate::mask::AttentionMask;

/// A NaN has no rank, so neither pruning rule below is defined on a map
/// that holds one (a diverged finetune produces such maps).
fn assert_no_nan(a: &Matrix) {
    // A fold has no early exit, so the scan vectorises.
    let nan = a.as_slice().iter().fold(false, |nan, v| nan | v.is_nan());
    assert!(!nan, "attention map contains NaN");
}

/// Prunes an averaged, row-normalised attention map with the paper's
/// information-quantity criterion: per query row, keep the largest
/// attention scores (descending) until their cumulative sum reaches
/// `theta_p`, pruning the rest.
///
/// `theta_p` close to `1.0` keeps almost everything; lower values prune
/// more aggressively. Each row always keeps at least one position so no
/// query is left with an empty attention set. Equal scores are taken in
/// ascending column order.
///
/// # Panics
///
/// Panics if `a` is not square, `theta_p` is outside `(0, 1]`, or `a`
/// contains a NaN ("attention map contains NaN").
///
/// # Example
///
/// ```
/// use vitcod_core::prune_info;
/// use vitcod_tensor::Matrix;
///
/// // One dominant entry per row -> theta_p = 0.5 keeps only it.
/// let a = Matrix::from_rows(&[&[0.7, 0.2, 0.1], &[0.1, 0.8, 0.1], &[0.2, 0.1, 0.7]]);
/// let mask = prune_info(&a, 0.5);
/// assert_eq!(mask.nnz(), 3);
/// assert!(mask.is_kept(1, 1));
/// ```
pub fn prune_info(a: &Matrix, theta_p: f64) -> AttentionMask {
    assert_eq!(a.rows(), a.cols(), "attention maps are square");
    assert!(
        theta_p > 0.0 && theta_p <= 1.0,
        "theta_p must be in (0, 1], got {theta_p}"
    );
    assert_no_nan(a);
    let n = a.rows();
    let mut mask = AttentionMask::empty(n);
    let mut order: Vec<(f32, usize)> = Vec::with_capacity(n);
    for q in 0..n {
        let row = a.row(q);
        let total: f64 = row.iter().map(|&v| v as f64).sum();
        if total <= 0.0 {
            // Degenerate row: keep the diagonal so softmax stays defined.
            mask.keep(q, q);
            continue;
        }
        // Argsort(A) in descending order (Alg. 1, line 1). The sort is
        // stable, which is what orders equal scores by column.
        order.clear();
        order.extend(row.iter().copied().zip(0..));
        order.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(Ordering::Equal));
        let mut cum = 0.0f64;
        for &(v, k) in &order {
            mask.keep(q, k);
            cum += v as f64 / total;
            if cum >= theta_p {
                break;
            }
        }
    }
    mask
}

/// Prunes to an exact target sparsity ratio by keeping the globally
/// largest `(1 − sparsity) · n²` attention scores.
///
/// This is the controlled-sweep variant used for the paper's
/// {60, 70, 80, 90, 95}% sparsity experiments, where the independent
/// variable is the sparsity ratio itself rather than `θp`.
///
/// **Selection rule.** Each row first keeps its maximum (the first one,
/// if the maximum repeats), so no query is left with an empty attention
/// set and the achieved sparsity can be marginally below the target for
/// extreme ratios. The rest of the budget, `round((1 − sparsity) · n²)`
/// less those `n`, goes to the largest of the other `n² − n` scores.
///
/// **Tie rule.** When scores equal to the smallest kept one outnumber
/// the slots left for them, the slots go to those scores in row-major
/// order. `-0.0` and `+0.0` are equal. This is the set a stable
/// descending sort of all entries keeps.
///
/// **Cost.** `O(n²)` expected time — a selection of the threshold, not a
/// sort — and one scratch `Vec<f32>` of `n² − n` scores.
///
/// # Panics
///
/// Panics if `a` is not square, `sparsity` is outside `[0, 1)`, or `a`
/// contains a NaN ("attention map contains NaN").
///
/// # Example
///
/// ```
/// use vitcod_core::prune_to_sparsity;
/// use vitcod_tensor::Matrix;
///
/// let a = Matrix::from_fn(10, 10, |r, c| if r == c { 1.0 } else { 0.01 });
/// let mask = prune_to_sparsity(&a, 0.9);
/// assert_eq!(mask.nnz(), 10); // exactly the diagonal survives
/// ```
pub fn prune_to_sparsity(a: &Matrix, sparsity: f64) -> AttentionMask {
    assert_eq!(a.rows(), a.cols(), "attention maps are square");
    assert!(
        (0.0..1.0).contains(&sparsity),
        "sparsity must be in [0, 1), got {sparsity}"
    );
    assert_no_nan(a);
    let n = a.rows();
    let keep_budget = (((n * n) as f64) * (1.0 - sparsity)).round().max(n as f64) as usize;

    // Each row's maximum is kept whatever its rank; the others compete
    // for the `extra` slots, and `threshold` is the smallest score that
    // wins one.
    let row_max: Vec<usize> = (0..n)
        .map(|q| q * n + vitcod_tensor::argmax(a.row(q)).unwrap_or(q))
        .collect();
    let extra = keep_budget - n;
    let threshold = if extra == 0 {
        f32::INFINITY
    } else {
        let mut others = Vec::with_capacity(n * n - n);
        for (q, &best) in row_max.iter().enumerate() {
            others.extend_from_slice(&a.as_slice()[q * n..best]);
            others.extend_from_slice(&a.as_slice()[best + 1..(q + 1) * n]);
        }
        // `total_cmp` refines the numeric order on NaN-free data, so the
        // element it selects has the numeric rank asked for; the
        // comparisons against it below are numeric, which is what ties
        // -0.0 with +0.0.
        *others
            .select_nth_unstable_by(extra - 1, |x, y| y.total_cmp(x))
            .1
    };

    let mut bits: Vec<bool> = a.as_slice().iter().map(|&v| v > threshold).collect();
    row_max.iter().for_each(|&i| bits[i] = true);
    let mut slots = keep_budget - bits.iter().filter(|&&b| b).count();
    for (bit, v) in bits.iter_mut().zip(a.as_slice()) {
        if slots == 0 {
            break;
        }
        if !*bit && v.partial_cmp(&threshold) == Some(Ordering::Equal) {
            *bit = true;
            slots -= 1;
        }
    }
    AttentionMask::from_bits(n, bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_tensor::kernels;

    fn diagonal_heavy(n: usize) -> Matrix {
        kernels::softmax_rows(&Matrix::from_fn(n, n, |r, c| {
            let d = (r as f32 - c as f32).abs();
            (-d * d / 2.0).exp()
        }))
    }

    #[test]
    fn prune_info_theta_one_keeps_everything_nonzero() {
        let a = diagonal_heavy(8);
        let mask = prune_info(&a, 1.0);
        assert_eq!(mask.nnz(), 64);
    }

    #[test]
    fn prune_info_monotone_in_theta() {
        let a = diagonal_heavy(16);
        let mut prev = 0;
        for theta in [0.2, 0.4, 0.6, 0.8, 0.95] {
            let nnz = prune_info(&a, theta).nnz();
            assert!(nnz >= prev, "nnz must grow with theta_p");
            prev = nnz;
        }
    }

    #[test]
    fn prune_info_keeps_at_least_one_per_row() {
        let a = diagonal_heavy(12);
        let mask = prune_info(&a, 0.05);
        assert!(mask.row_nnz().iter().all(|&c| c >= 1));
    }

    #[test]
    fn prune_info_retains_requested_information() {
        let a = diagonal_heavy(20);
        for theta in [0.3f64, 0.6, 0.9] {
            let mask = prune_info(&a, theta);
            // Per-row cumulative mass >= theta, so global retention too.
            assert!(
                mask.retained_information(&a) >= theta - 1e-5,
                "theta {theta}: retained {}",
                mask.retained_information(&a)
            );
        }
    }

    #[test]
    fn prune_info_handles_zero_rows() {
        let mut a = diagonal_heavy(4);
        for c in 0..4 {
            a.set(2, c, 0.0);
        }
        let mask = prune_info(&a, 0.9);
        assert!(mask.is_kept(2, 2), "zero row falls back to diagonal");
    }

    #[test]
    fn prune_to_sparsity_hits_target() {
        let a = diagonal_heavy(32);
        for s in [0.5, 0.7, 0.9] {
            let mask = prune_to_sparsity(&a, s);
            assert!(
                (mask.sparsity() - s).abs() < 0.02,
                "target {s} got {}",
                mask.sparsity()
            );
        }
    }

    #[test]
    fn prune_to_sparsity_prefers_large_entries() {
        let a = diagonal_heavy(16);
        let mask = prune_to_sparsity(&a, 0.9);
        // Diagonal is the largest entry of each row; it must survive.
        for i in 0..16 {
            assert!(mask.is_kept(i, i), "diagonal ({i},{i}) pruned");
        }
    }

    #[test]
    fn prune_to_sparsity_zero_keeps_all() {
        let a = diagonal_heavy(6);
        assert_eq!(prune_to_sparsity(&a, 0.0).nnz(), 36);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn prune_to_sparsity_rejects_one() {
        prune_to_sparsity(&diagonal_heavy(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "theta_p")]
    fn prune_info_rejects_zero_theta() {
        prune_info(&diagonal_heavy(4), 0.0);
    }
}
