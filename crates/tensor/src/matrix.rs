use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::ShapeError;

/// A dense, row-major matrix of `f32`.
///
/// `Matrix` is the workhorse type of the workspace: queries, keys, values,
/// attention maps, projection weights and auto-encoder weights are all
/// `Matrix` values. It stores its elements contiguously, exposes the usual
/// elementwise and matrix-product operations, and validates shapes either
/// dynamically (panicking variants, used internally where shapes are
/// invariants) or fallibly (`try_*` variants, for user-facing boundaries).
///
/// # Example
///
/// ```
/// use vitcod_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// # use vitcod_tensor::Matrix;
    /// let m = Matrix::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert_eq!(m.get(1, 2), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape ({rows}, {cols})",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Example
    ///
    /// ```
    /// # use vitcod_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
    /// assert_eq!(m.get(1, 1), 3.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// View of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the transpose (routed through [`crate::kernels`]).
    pub fn transpose(&self) -> Matrix {
        crate::kernels::transpose(self)
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        Ok(crate::kernels::matmul(self, rhs))
    }

    /// Matrix product with a transposed right-hand side: `self · rhsᵀ`.
    ///
    /// This is the natural layout for attention's `S = Q · Kᵀ` where both
    /// `Q` and `K` are stored token-major. Routed through
    /// [`crate::kernels`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        crate::kernels::matmul_nt(self, rhs)
    }

    /// Matrix product with a transposed left-hand side: `selfᵀ · rhs`.
    /// Routed through [`crate::kernels`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        crate::kernels::matmul_tn(self, rhs)
    }

    /// Elementwise sum. See also the `+` operator.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("add", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if shapes differ.
    pub fn try_sub(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("sub", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if shapes differ.
    pub fn try_hadamard(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("hadamard", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise product, panicking on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.try_hadamard(rhs).expect("hadamard shape mismatch")
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `rhs` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Adds `scale * rhs` into `self` in place (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, scale: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Extracts the sub-matrix of rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix bounds or are reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds"
        );
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col range {c0}..{c1} out of bounds"
        );
        let mut data = Vec::with_capacity((r1 - r0) * (c1 - c0));
        for r in r0..r1 {
            data.extend_from_slice(&self.row(r)[c0..c1]);
        }
        Matrix::from_vec(r1 - r0, c1 - c0, data)
    }

    /// Concatenates matrices horizontally (along columns).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat requires at least one part");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "hcat requires equal row counts"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Concatenates matrices vertically (along rows).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vcat requires at least one part");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "vcat requires equal column counts"
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Reorders the rows so that output row `i` is input row `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.rows()` or an index is out of bounds.
    pub fn permute_rows(&self, perm: &[usize]) -> Matrix {
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (i, &p) in perm.iter().enumerate() {
            assert!(p < self.rows, "permutation index {p} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(p));
        }
        out
    }

    /// Reorders the columns so that output column `j` is input column
    /// `perm[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.cols()` or an index is out of bounds.
    pub fn permute_cols(&self, perm: &[usize]) -> Matrix {
        assert_eq!(perm.len(), self.cols, "permutation length mismatch");
        let mut data = Vec::with_capacity(self.data.len());
        for r in 0..self.rows {
            let row = self.row(r);
            data.extend(perm.iter().map(|&p| row[p]));
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Number of elements with absolute value above `eps`.
    pub fn count_nonzero(&self, eps: f32) -> usize {
        self.data.iter().filter(|v| v.abs() > eps).count()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference to `rhs`; useful for numeric tests.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:8.4}"))
                .collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("add shape mismatch")
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs).expect("sub shape mismatch")
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical kernel replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.sum(), 0.0);
        let f = Matrix::filled(2, 3, 2.0);
        assert_eq!(f.sum(), 12.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.5);
        let expected = a.matmul(&b.transpose());
        assert!(a.matmul_nt(&b).max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(4, 5, |r, c| (r + 3 * c) as f32 * 0.1);
        let expected = a.transpose().matmul(&b);
        assert!(a.matmul_tn(&b).max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = a.submatrix(1, 3, 2, 4);
        assert_eq!(s, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
    }

    #[test]
    fn hcat_vcat_round_trip() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let h = Matrix::hcat(&[&a, &b]);
        assert_eq!(h, Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        let v = Matrix::vcat(&[&a, &b]);
        assert_eq!(v, Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
    }

    #[test]
    fn permute_rows_and_cols() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(
            a.permute_rows(&[1, 0]),
            Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]])
        );
        assert_eq!(
            a.permute_cols(&[1, 0]),
            Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]])
        );
    }

    #[test]
    fn row_slice_copies_match_the_get_formula_on_a_ragged_shape() {
        let a = Matrix::from_fn(7, 13, |r, c| (r * 13 + c) as f32 * 0.5 - 3.0);
        let s = a.submatrix(2, 7, 3, 11);
        assert_eq!(s, Matrix::from_fn(5, 8, |r, c| a.get(2 + r, 3 + c)));
        assert_eq!(a.submatrix(4, 4, 0, 13).shape(), (0, 13));
        assert_eq!(a.submatrix(0, 7, 5, 5).shape(), (7, 0));
        let perm = [12, 0, 5, 5, 11, 1, 2, 3, 4, 6, 7, 8, 9];
        assert_eq!(
            a.permute_cols(&perm),
            Matrix::from_fn(7, 13, |r, c| a.get(r, perm[c]))
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn permute_cols_rejects_an_out_of_range_index() {
        Matrix::zeros(2, 2).permute_cols(&[0, 2]);
    }

    #[test]
    fn count_nonzero_uses_eps() {
        let a = Matrix::from_rows(&[&[0.0, 1e-9, 0.5]]);
        assert_eq!(a.count_nonzero(1e-6), 1);
        assert_eq!(a.count_nonzero(0.0), 2);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(1, 2, 1.0);
        let b = Matrix::filled(1, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(1, 2, 2.0));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(1, 0);
    }
}
