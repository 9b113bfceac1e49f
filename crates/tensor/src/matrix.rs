use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major matrix of `f32`.
///
/// `Matrix` is the storage type of the workspace: queries, keys, values,
/// attention maps, projection weights and auto-encoder weights are all
/// `Matrix` values. It stores its elements contiguously and offers
/// construction, element and row access, slicing and concatenation, and
/// the `+`, `-` and `* f32` operators. Every op that computes — the
/// GEMMs, softmax, LayerNorm, elementwise maps — is a free function in
/// [`crate::kernels`], [`crate::sparse`] or the quantized GEMM, and
/// panics with the op's name and both shapes on a mismatch.
///
/// # Example
///
/// ```
/// use vitcod_tensor::{kernels, Matrix};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(kernels::matmul(&a, &b), a);
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
    // vitcod-lint: allow(V006, facade API: the identity constructor every crate's test fixtures use)
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
    // vitcod-lint: allow(V006, facade API: the literal constructor every crate's test fixtures use)
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

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
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
    // vitcod-lint: allow(V006, the tolerance oracle the tensor, autograd, model, sim and core suites compare with)
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

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    /// Every element scaled by `rhs`.
    fn mul(self, rhs: f32) -> Matrix {
        let data = self.data.iter().map(|v| v * rhs).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical kernel replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::kernels;

    fn transposed(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
    }

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
        assert_eq!(kernels::matmul(&a, &Matrix::identity(2)), a);
        assert_eq!(kernels::matmul(&Matrix::identity(2), &a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = kernels::matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.5);
        let expected = kernels::matmul(&a, &transposed(&b));
        assert!(kernels::matmul_nt(&a, &b).max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(4, 5, |r, c| (r + 3 * c) as f32 * 0.1);
        let expected = kernels::matmul(&transposed(&a), &b);
        assert!(kernels::matmul_tn(&a, &b).max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(
            kernels::zip_map(&a, &b, |x, y| x * y),
            Matrix::from_rows(&[&[3.0, 8.0]])
        );
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    #[should_panic(expected = "add shape mismatch")]
    fn add_names_the_op_on_a_shape_mismatch() {
        let _ = &Matrix::zeros(2, 3) + &Matrix::zeros(3, 2);
    }

    #[test]
    #[should_panic(expected = "sub shape mismatch")]
    fn sub_names_the_op_on_a_shape_mismatch() {
        let _ = &Matrix::zeros(2, 3) - &Matrix::zeros(3, 2);
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
    fn row_slice_copies_match_the_get_formula_on_a_ragged_shape() {
        let a = Matrix::from_fn(7, 13, |r, c| (r * 13 + c) as f32 * 0.5 - 3.0);
        let s = a.submatrix(2, 7, 3, 11);
        assert_eq!(s, Matrix::from_fn(5, 8, |r, c| a.get(2 + r, 3 + c)));
        assert_eq!(a.submatrix(4, 4, 0, 13).shape(), (0, 13));
        assert_eq!(a.submatrix(0, 7, 5, 5).shape(), (7, 0));
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
