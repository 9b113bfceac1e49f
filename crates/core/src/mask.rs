//! Fixed binary attention masks and their workload statistics.

use std::fmt;

use vitcod_tensor::sparse::CscMatrix;
use vitcod_tensor::Matrix;

/// A fixed binary attention mask over an `n × n` attention map.
///
/// `true` marks a *kept* (computed) attention position, `false` a pruned
/// one. ViTCoD's central premise is that ViTs tolerate such masks being
/// fixed for **all** inputs, which is what lets the accelerator pre-load
/// the sparse indexes instead of predicting them on the fly.
///
/// # Example
///
/// ```
/// use vitcod_core::AttentionMask;
///
/// let mut m = AttentionMask::dense(4);
/// m.prune(0, 3);
/// assert_eq!(m.nnz(), 15);
/// assert!((m.sparsity() - 1.0 / 16.0).abs() < 1e-9);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct AttentionMask {
    n: usize,
    // Row-major keep-bits.
    bits: Vec<bool>,
}

impl AttentionMask {
    /// All-kept (dense) `n × n` mask.
    pub fn dense(n: usize) -> Self {
        Self {
            n,
            bits: vec![true; n * n],
        }
    }

    /// All-pruned `n × n` mask.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            bits: vec![false; n * n],
        }
    }

    /// Reconstructs the boolean mask of a CSC index (the inverse of
    /// [`Self::to_csc`]).
    pub fn from_csc(csc: &CscMatrix) -> Self {
        let mut m = Self::empty(csc.size());
        for (q, k) in csc.iter_kept() {
            m.keep(q, k);
        }
        m
    }

    /// Compiles the mask to the CSC index the accelerator pre-loads.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_indicator(self.n, |q, k| self.bits[q * self.n + k])
    }

    /// Wraps row-major keep-bits.
    pub(crate) fn from_bits(n: usize, bits: Vec<bool>) -> Self {
        assert_eq!(bits.len(), n * n, "keep-bits are not n × n");
        Self { n, bits }
    }

    /// Token count `n` (the mask is `n × n`).
    pub fn size(&self) -> usize {
        self.n
    }

    /// The keep-bits one query row at a time.
    fn rows(&self) -> impl Iterator<Item = &[bool]> {
        // `max(1)`: an empty mask has no rows, and a zero chunk panics.
        self.bits.chunks_exact(self.n.max(1))
    }

    /// Whether position `(q, k)` is kept.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn is_kept(&self, q: usize, k: usize) -> bool {
        assert!(q < self.n && k < self.n, "index out of bounds");
        self.bits[q * self.n + k]
    }

    /// Marks `(q, k)` as kept.
    #[inline]
    pub fn keep(&mut self, q: usize, k: usize) {
        assert!(q < self.n && k < self.n, "index out of bounds");
        self.bits[q * self.n + k] = true;
    }

    /// Marks `(q, k)` as pruned.
    #[inline]
    pub fn prune(&mut self, q: usize, k: usize) {
        assert!(q < self.n && k < self.n, "index out of bounds");
        self.bits[q * self.n + k] = false;
    }

    /// Number of kept positions.
    pub fn nnz(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Fraction of pruned positions (the paper's "sparsity ratio").
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Fraction of kept positions.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n * self.n) as f64
    }

    /// Kept count per column — `‖(m ⊙ A)·,ᵢ‖₀` in Alg. 1, the statistic
    /// that identifies global tokens.
    pub fn col_nnz(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n];
        for row in self.rows() {
            for (c, &bit) in counts.iter_mut().zip(row) {
                if bit {
                    *c += 1;
                }
            }
        }
        counts
    }

    /// Kept count per row.
    // vitcod-lint: allow(V006, oracle: the Alg. 1 property suites check that every row keeps an entry)
    pub fn row_nnz(&self) -> Vec<usize> {
        self.rows()
            .map(|row| row.iter().filter(|&&b| b).count())
            .collect()
    }

    /// Applies the same permutation to rows and columns (token
    /// reordering): output position `(i, j)` takes input
    /// `(perm[i], perm[j])`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.size()` or an entry of `perm` is not
    /// below `self.size()`.
    pub fn permute_symmetric(&self, perm: &[usize]) -> AttentionMask {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        assert!(
            perm.iter().all(|&p| p < self.n),
            "permutation index out of bounds"
        );
        // A row gather: output row `i` is input row `perm[i]` read at the
        // columns `perm` lists.
        let mut bits = Vec::with_capacity(self.bits.len());
        for &p in perm {
            let src = &self.bits[p * self.n..(p + 1) * self.n];
            bits.extend(perm.iter().map(|&k| src[k]));
        }
        Self::from_bits(self.n, bits)
    }

    /// Converts to a 0/1 matrix: the trainable model's `SparsityPlan`
    /// entry, which `set_sparsity_plan` compiles to the CSC index that
    /// [`Self::to_csc`] gives directly.
    pub fn to_matrix(&self) -> Matrix {
        let ones = self.bits.iter().map(|&b| if b { 1.0 } else { 0.0 });
        Matrix::from_vec(self.n, self.n, ones.collect())
    }

    /// Element-wise application `m ⊙ A`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `n × n`.
    pub fn apply(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.shape(), (self.n, self.n), "matrix shape mismatch");
        let kept = self.bits.iter().zip(a.as_slice());
        let kept = kept.map(|(&b, &v)| if b { v } else { 0.0 });
        Matrix::from_vec(self.n, self.n, kept.collect())
    }

    /// Fraction of the original attention mass retained under this mask,
    /// given the (row-normalised) averaged map `a` — the "information
    /// quantity" the pruning criterion preserves.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `n × n`.
    // vitcod-lint: allow(V006, oracle: the information quantity Alg. 1's θp criterion must preserve)
    pub fn retained_information(&self, a: &Matrix) -> f64 {
        assert_eq!(a.shape(), (self.n, self.n), "matrix shape mismatch");
        let total: f64 = a.as_slice().iter().map(|&v| v as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        let kept: f64 = self
            .bits
            .iter()
            .zip(a.as_slice())
            .filter(|&(&b, _)| b)
            .map(|(_, &v)| v as f64)
            .sum();
        kept / total
    }

    /// Iterator over kept `(q, k)` coordinates in row-major order.
    pub fn iter_kept(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows().enumerate().flat_map(|(q, row)| {
            let kept = row.iter().enumerate().filter(|&(_, &b)| b);
            kept.map(move |(k, _)| (q, k))
        })
    }
}

impl fmt::Debug for AttentionMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AttentionMask({}x{}, {:.1}% sparse)",
            self.n,
            self.n,
            self.sparsity() * 100.0
        )
    }
}

impl fmt::Display for AttentionMask {
    /// ASCII rendering: `█` kept, `·` pruned — the textual analogue of
    /// the paper's Fig. 8 visualisations.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in 0..self.n {
            for k in 0..self.n {
                write!(f, "{}", if self.is_kept(q, k) { '█' } else { '·' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical artifact replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_empty_extremes() {
        let d = AttentionMask::dense(3);
        assert_eq!(d.nnz(), 9);
        assert_eq!(d.sparsity(), 0.0);
        let e = AttentionMask::empty(3);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.sparsity(), 1.0);
    }

    #[test]
    fn keep_prune_round_trip() {
        let mut m = AttentionMask::empty(2);
        m.keep(0, 1);
        assert!(m.is_kept(0, 1));
        m.prune(0, 1);
        assert!(!m.is_kept(0, 1));
    }

    #[test]
    fn col_and_row_nnz() {
        let mut m = AttentionMask::empty(3);
        m.keep(0, 0);
        m.keep(1, 0);
        m.keep(2, 2);
        assert_eq!(m.col_nnz(), vec![2, 0, 1]);
        assert_eq!(m.row_nnz(), vec![1, 1, 1]);
    }

    #[test]
    fn permute_symmetric_moves_structure() {
        // Mask keeps only column 2; after moving token 2 to front, only
        // column 0 is kept.
        let mut m = AttentionMask::empty(3);
        for q in 0..3 {
            m.keep(q, 2);
        }
        let p = m.permute_symmetric(&[2, 0, 1]);
        assert_eq!(p.col_nnz(), vec![3, 0, 0]);
    }

    #[test]
    fn permute_identity_is_noop() {
        let mut m = AttentionMask::empty(4);
        m.keep(1, 2);
        m.keep(3, 0);
        let p = m.permute_symmetric(&[0, 1, 2, 3]);
        assert_eq!(p, m);
    }

    #[test]
    fn matrix_form_marks_kept_entries() {
        let mut m = AttentionMask::empty(3);
        m.keep(0, 1);
        m.keep(2, 2);
        let dense = m.to_matrix();
        let kept: Vec<usize> = (0..9).filter(|&i| dense.as_slice()[i] > 0.5).collect();
        assert_eq!(kept, vec![1, 8]);
    }

    #[test]
    fn apply_zeroes_pruned_entries() {
        let mut m = AttentionMask::empty(2);
        m.keep(0, 0);
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let out = m.apply(&a);
        assert_eq!(out.get(0, 0), 1.0);
        assert_eq!(out.get(0, 1), 0.0);
        assert_eq!(out.get(1, 0), 0.0);
    }

    #[test]
    fn retained_information_bounds() {
        let a = Matrix::filled(4, 4, 0.25);
        assert_eq!(AttentionMask::dense(4).retained_information(&a), 1.0);
        assert_eq!(AttentionMask::empty(4).retained_information(&a), 0.0);
        let mut half = AttentionMask::empty(4);
        for q in 0..4 {
            for k in 0..2 {
                half.keep(q, k);
            }
        }
        assert!((half.retained_information(&a) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn iter_kept_matches_nnz() {
        let mut m = AttentionMask::empty(5);
        m.keep(0, 4);
        m.keep(3, 3);
        let kept: Vec<_> = m.iter_kept().collect();
        assert_eq!(kept, vec![(0, 4), (3, 3)]);
        assert_eq!(kept.len(), m.nnz());
    }

    #[test]
    fn display_renders_grid() {
        let m = AttentionMask::dense(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('█'));
    }
}
