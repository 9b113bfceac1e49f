//! Attention-map reordering (Alg. 1, lines 7–14).

use crate::mask::AttentionMask;

/// Result of the global-token reordering step: the one record of a
/// head's denser/sparser split. The polarized mask itself is never
/// stored; `pruned.permute_symmetric(&perm)` draws it when a picture is
/// wanted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderResult {
    /// Token permutation: output position `i` holds input token
    /// `perm[i]`. Global tokens occupy positions `0..num_global`.
    pub perm: Vec<usize>,
    /// Number of global tokens `N_gt` moved to the front.
    pub num_global: usize,
    /// The column-count threshold `θd` actually used.
    pub theta_d: usize,
    /// Kept count per column in polarized order: `col_nnz[i]` is input
    /// column `perm[i]`'s count, which a symmetric permutation keeps.
    pub col_nnz: Vec<usize>,
}

impl ReorderResult {
    /// Per-column kept counts of the sparser residue (columns
    /// `N_gt..n`), in polarized order.
    pub fn sparser_col_nnz(&self) -> &[usize] {
        &self.col_nnz[self.num_global..]
    }

    /// Kept positions inside the denser block (the first `N_gt`
    /// columns).
    pub fn denser_nnz(&self) -> usize {
        self.col_nnz[..self.num_global].iter().sum()
    }

    /// Kept positions in the sparser residue.
    pub fn sparser_nnz(&self) -> usize {
        self.sparser_col_nnz().iter().sum()
    }

    /// Density inside the denser block (the first `num_global` columns).
    pub fn denser_density(&self) -> f64 {
        let n = self.col_nnz.len();
        if self.num_global == 0 || n == 0 {
            return 0.0;
        }
        self.denser_nnz() as f64 / (n * self.num_global) as f64
    }

    /// Density of the sparser residue (columns `num_global..n`).
    pub fn sparser_density(&self) -> f64 {
        let n = self.col_nnz.len();
        let rest = n - self.num_global;
        if rest == 0 || n == 0 {
            return 0.0;
        }
        self.sparser_nnz() as f64 / (n * rest) as f64
    }

    /// Polarization gap: denser density minus sparser density. The split
    /// and conquer algorithm exists to make this large.
    pub fn polarization(&self) -> f64 {
        self.denser_density() - self.sparser_density()
    }
}

/// Identifies *global tokens* — columns whose kept count exceeds `θd` —
/// and permutes them to the front (Alg. 1: `SWAP`/`PERMUTE`), polarising
/// the mask into a denser block and a sparser residue. This is
/// [`split_columns`] applied to `mask.col_nnz()`.
///
/// # Example
///
/// ```
/// use vitcod_core::{reorder_global_tokens, AttentionMask};
///
/// // Token 5 of 8 is global (attended by everyone).
/// let mut m = AttentionMask::empty(8);
/// for q in 0..8 {
///     m.keep(q, 5);
///     m.keep(q, q);
/// }
/// let r = reorder_global_tokens(&m, None);
/// assert_eq!(r.num_global, 1);
/// assert_eq!(r.perm[0], 5);
/// ```
pub fn reorder_global_tokens(mask: &AttentionMask, theta_d: Option<usize>) -> ReorderResult {
    split_columns(&mask.col_nnz(), theta_d)
}

/// The θd rule over one head's per-column kept counts (in token order):
/// a column is global when its count exceeds `θd`.
///
/// When `theta_d` is `None` the threshold defaults to
/// `min(⌈2 × n̄⌉, n/2)` — twice the mean column count, rounded up and
/// capped at half the token count — which adapts to the mask's overall
/// sparsity the way the paper's per-model tuned constant does while
/// still classifying the columns of dense/low-sparsity maps as global (a
/// dense map *is* one big global block and belongs on the denser
/// engine).
///
/// The permutation is *symmetric* (it renames queries and keys alike),
/// so it changes no column's count, and it is *stable*: global tokens
/// keep their relative order, as do the rest — matching Alg. 1's
/// in-order SWAP loop. Any index with the same per-column counts (the
/// mask, or the CSC the engine serves) therefore gives the same split.
///
/// # Example
///
/// ```
/// use vitcod_core::split_columns;
///
/// let r = split_columns(&[1, 4, 1, 4], None);
/// assert_eq!((r.theta_d, r.num_global), (2, 2));
/// assert_eq!(r.perm, [1, 3, 0, 2]);
/// assert_eq!(r.col_nnz, [4, 4, 1, 1]);
/// ```
pub fn split_columns(col_nnz: &[usize], theta_d: Option<usize>) -> ReorderResult {
    let n = col_nnz.len();
    let theta_d = theta_d.unwrap_or_else(|| {
        let mean = col_nnz.iter().sum::<usize>() as f64 / n.max(1) as f64;
        ((2.0 * mean).ceil() as usize).min(n / 2)
    });

    // Stable partition: global tokens first (Alg. 1 lines 8-13).
    let mut perm = Vec::with_capacity(n);
    let mut rest = Vec::new();
    for (i, &c) in col_nnz.iter().enumerate() {
        if c > theta_d {
            perm.push(i);
        } else {
            rest.push(i);
        }
    }
    let num_global = perm.len();
    perm.extend(rest);

    let col_nnz = perm.iter().map(|&i| col_nnz[i]).collect();
    ReorderResult {
        perm,
        num_global,
        theta_d,
        col_nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mask with a diagonal plus `g` global columns at chosen positions.
    fn diag_plus_globals(n: usize, globals: &[usize]) -> AttentionMask {
        let mut m = AttentionMask::empty(n);
        for q in 0..n {
            m.keep(q, q);
            for &g in globals {
                m.keep(q, g);
            }
        }
        m
    }

    #[test]
    fn detects_and_fronts_global_tokens() {
        let m = diag_plus_globals(16, &[3, 11]);
        let r = reorder_global_tokens(&m, None);
        assert_eq!(r.num_global, 2);
        assert_eq!(&r.perm[..2], &[3, 11]);
        // After reordering, the first two columns are (nearly) full.
        let cols = m.permute_symmetric(&r.perm).col_nnz();
        assert_eq!(cols[0], 16);
        assert_eq!(cols[1], 16);
        assert_eq!(cols, r.col_nnz);
    }

    #[test]
    fn no_globals_identity_permutation() {
        let mut m = AttentionMask::empty(8);
        for q in 0..8 {
            m.keep(q, q);
        }
        let r = reorder_global_tokens(&m, None);
        assert_eq!(r.num_global, 0);
        assert_eq!(r.perm, (0..8).collect::<Vec<_>>());
        assert_eq!(m.permute_symmetric(&r.perm), m);
    }

    #[test]
    fn explicit_theta_d_is_respected() {
        let m = diag_plus_globals(10, &[4]);
        // Column 4 has 10 entries; diagonal columns have 1-2. With
        // theta_d = 10, nothing qualifies (strict >).
        let r = reorder_global_tokens(&m, Some(10));
        assert_eq!(r.num_global, 0);
        let r2 = reorder_global_tokens(&m, Some(5));
        assert_eq!(r2.num_global, 1);
        assert_eq!(r2.theta_d, 5);
    }

    #[test]
    fn polarization_improves_with_reordering() {
        let m = diag_plus_globals(32, &[7, 15, 23]);
        let r = reorder_global_tokens(&m, None);
        assert!(r.denser_density() > 0.9);
        assert!(r.sparser_density() < 0.15);
        assert!(r.polarization() > 0.75);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let m = diag_plus_globals(20, &[1, 19, 10]);
        let r = reorder_global_tokens(&m, None);
        let mut seen = [false; 20];
        for &p in &r.perm {
            assert!(!seen[p], "duplicate index {p}");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn nnz_is_preserved_by_reordering() {
        let m = diag_plus_globals(24, &[2, 13]);
        let r = reorder_global_tokens(&m, None);
        assert_eq!(m.permute_symmetric(&r.perm).nnz(), m.nnz());
        assert_eq!(r.denser_nnz() + r.sparser_nnz(), m.nnz());
    }

    #[test]
    fn stable_order_within_groups() {
        let m = diag_plus_globals(12, &[8, 2, 5]); // globals at 2, 5, 8
        let r = reorder_global_tokens(&m, None);
        assert_eq!(&r.perm[..3], &[2, 5, 8], "globals keep ascending order");
        // Non-globals also ascend.
        let rest = &r.perm[3..];
        assert!(rest.windows(2).all(|w| w[0] < w[1]));
    }
}
