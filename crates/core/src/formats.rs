//! Sparse index formats for the accelerator's sparser engine.
//!
//! The ViTCoD accelerator pre-loads the fixed sparse attention indexes in
//! **CSC** (compressed sparse column) form, which matches its
//! K-stationary dataflow: the SDDMM produces attention scores column by
//! column, so walking one CSC column enumerates exactly the Q rows that
//! pair with the currently-resident K vector (paper Sec. V-B).
//!
//! The [`CscMatrix`] structure itself (and the SDDMM/SpMM kernels that
//! execute over it) lives in [`vitcod_tensor::sparse`], the workspace's
//! sparse kernel layer; an [`AttentionMask`](crate::AttentionMask)
//! compiles to one with [`crate::AttentionMask::to_csc`]. This module
//! re-exports it beside the COO comparison format, which is built from a
//! CSC.
//!
//! ```
//! use vitcod_core::AttentionMask;
//!
//! let mut m = AttentionMask::empty(3);
//! m.keep(0, 1);
//! m.keep(2, 1);
//! let csc = m.to_csc();
//! assert_eq!(csc.col_rows(1), &[0, 2]);
//! assert_eq!(csc.nnz(), 2);
//! ```

pub use vitcod_tensor::sparse::CscMatrix;

/// Coordinate-format index (the rejected design alternative; kept for the
/// paper's CSC-vs-COO storage comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CooMatrix {
    n: usize,
    /// `(row, col)` coordinates of non-zeros.
    coords: Vec<(u32, u32)>,
}

impl CooMatrix {
    /// Builds the COO index of the positions `csc` keeps, in its
    /// column-major value order.
    pub fn from_csc(csc: &CscMatrix) -> Self {
        let coords = csc.iter_kept().map(|(q, k)| (q as u32, k as u32)).collect();
        Self {
            n: csc.size(),
            coords,
        }
    }

    /// Token count `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.coords.len()
    }

    /// `(row, col)` coordinate list.
    pub fn coords(&self) -> &[(u32, u32)] {
        &self.coords
    }

    /// Bytes needed: two 4-byte coordinates per non-zero — always at
    /// least as large as CSC for the same mask once `nnz ≥ n + 1`.
    pub fn index_bytes(&self) -> usize {
        self.coords.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::AttentionMask;

    fn sample_mask() -> AttentionMask {
        let mut m = AttentionMask::empty(5);
        for q in 0..5 {
            m.keep(q, q);
            m.keep(q, 0);
        }
        m.keep(1, 4);
        m
    }

    #[test]
    fn csc_round_trip() {
        let m = sample_mask();
        let csc = m.to_csc();
        assert_eq!(AttentionMask::from_csc(&csc), m);
        assert_eq!(csc.nnz(), m.nnz());
    }

    #[test]
    fn csc_columns_ascending() {
        let csc = sample_mask().to_csc();
        for k in 0..5 {
            let rows = csc.col_rows(k);
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "column {k} not sorted"
            );
        }
    }

    #[test]
    fn csc_column_zero_is_global() {
        let csc = sample_mask().to_csc();
        assert_eq!(csc.col_nnz(0), 5);
        assert_eq!(csc.col_rows(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_dense_extremes() {
        let e = AttentionMask::empty(4).to_csc();
        assert_eq!(e.nnz(), 0);
        for k in 0..4 {
            assert!(e.col_rows(k).is_empty());
        }
        let d = AttentionMask::dense(4).to_csc();
        assert_eq!(d.nnz(), 16);
    }

    #[test]
    fn coo_matches_mask_iteration() {
        let m = sample_mask();
        let coo = CooMatrix::from_csc(&m.to_csc());
        assert_eq!(coo.nnz(), m.nnz());
        for &(q, k) in coo.coords() {
            assert!(m.is_kept(q as usize, k as usize));
        }
    }

    #[test]
    fn csc_beats_coo_storage_on_sparse_masks() {
        // 90 % sparse 64-token mask.
        let mut m = AttentionMask::empty(64);
        for q in 0..64 {
            m.keep(q, q);
            m.keep(q, 0);
            m.keep(q, (q + 1) % 64);
            m.keep(q, (q + 63) % 64);
            m.keep(q, 32);
            m.keep(q, 17);
        }
        let csc = m.to_csc();
        let coo = CooMatrix::from_csc(&csc);
        assert!(
            csc.index_bytes() < coo.index_bytes(),
            "csc {} vs coo {}",
            csc.index_bytes(),
            coo.index_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn csc_col_out_of_bounds_panics() {
        AttentionMask::empty(2).to_csc().col_rows(2);
    }
}
