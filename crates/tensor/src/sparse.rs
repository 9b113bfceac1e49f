//! The sparse kernel layer: CSC-indexed attention dataflows.
//!
//! This module mirrors the dense [`crate::kernels`] layer for the
//! workloads the ViTCoD accelerator's sparser engine runs: a
//! K-stationary SDDMM that emits attention scores column by column over
//! a fixed [`CscMatrix`] index, a row-wise softmax *in the sparse
//! domain*, and an output-stationary SpMM that streams the sparse
//! probabilities through resident output rows. An 8-bit SDDMM variant
//! runs the same walk on per-row-quantized operands with i32
//! accumulation, as the accelerator's MAC lines do.
//!
//! # Agreement contract
//!
//! Every kernel here has one body, and the same walk runs at every
//! thread budget, as the accelerator's schedule runs at any PE count.
//! The kernel layer's fan-outs (`kernels::for_each_unit_run` and
//! [`kernels::for_each_row_chunk_weighted`]) decide only how many
//! workers share a kernel's disjoint outputs — CSC column runs (SDDMM),
//! query-row runs (the two row softmaxes), output-row chunks (SpMM and
//! the gradients) — so **every budget produces bit-identical values**:
//! each output element accumulates along the same ascending chain
//! whichever worker holds it.

use std::sync::Arc;

use crate::kernels;
use crate::ops::softmax_row;
use crate::{Matrix, QuantizedRows};

/// Compressed-sparse-column index structure of a fixed attention mask.
///
/// The ViTCoD accelerator pre-loads fixed sparse attention indexes in
/// CSC form because it matches the K-stationary dataflow: walking one
/// CSC column enumerates exactly the Q rows that pair with the
/// currently-resident K vector.
///
/// The index vectors sit behind one [`Arc`], so a clone is `O(1)`: a
/// fixed mask's index is built once and shared by every score,
/// probability and gradient buffer of its head, every sample of a batch
/// and every call.
///
/// # Example
///
/// ```
/// use vitcod_tensor::sparse::CscMatrix;
///
/// // Keep the diagonal of a 3-token map.
/// let csc = CscMatrix::from_indicator(3, |q, k| q == k);
/// assert_eq!(csc.nnz(), 3);
/// assert_eq!(csc.col_rows(1), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscMatrix {
    n: usize,
    vectors: Arc<CscVectors>,
}

/// The immutable vectors of a [`CscMatrix`].
#[derive(Debug, PartialEq, Eq)]
struct CscVectors {
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    // Row-major companion, precomputed once: for each query row, the
    // positions its values occupy in the CSC-ordered values buffer
    // (ascending column order). This is the gather the row walks need
    // per call; deriving it here keeps the serving hot path free of
    // per-inference index rebuilds.
    row_ptr: Vec<usize>,
    row_pos: Vec<u32>,
    // Column index of every CSC value position (the inverse of the
    // column walk), precomputed once so the row-major backward walks
    // never re-derive it per call.
    col_of: Vec<u32>,
}

impl CscMatrix {
    /// Builds the CSC index of the positions where `kept(q, k)` is true.
    pub fn from_indicator(n: usize, kept: impl Fn(usize, usize) -> bool) -> Self {
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for k in 0..n {
            for q in 0..n {
                if kept(q, k) {
                    row_idx.push(q as u32);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Self::from_csc_vectors(n, col_ptr, row_idx)
    }

    /// Builds the index directly from per-column row lists — the
    /// deserialization constructor: `O(nnz)` instead of the `O(n²)`
    /// indicator scan.
    ///
    /// # Errors
    ///
    /// Returns a message when `cols.len() != n`, a row index is out of
    /// bounds, or a column's rows are not strictly ascending.
    pub fn try_from_col_rows(n: usize, cols: &[Vec<u32>]) -> Result<Self, String> {
        if cols.len() != n {
            return Err(format!("expected {n} columns, got {}", cols.len()));
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for (k, rows) in cols.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &q in rows {
                if q as usize >= n {
                    return Err(format!("column {k}: row {q} out of bounds (n = {n})"));
                }
                if prev.is_some_and(|p| p >= q) {
                    return Err(format!("column {k}: rows not strictly ascending"));
                }
                prev = Some(q);
                row_idx.push(q);
            }
            col_ptr.push(row_idx.len());
        }
        Ok(Self::from_csc_vectors(n, col_ptr, row_idx))
    }

    /// Assembles the full index (including the precomputed row gather
    /// and per-value column map) from validated CSC vectors.
    fn from_csc_vectors(n: usize, col_ptr: Vec<usize>, row_idx: Vec<u32>) -> Self {
        // Counting sort of value positions by row: ascending position
        // within a row is ascending column, since CSC order is
        // column-major.
        let mut row_counts = vec![0usize; n];
        for &q in &row_idx {
            row_counts[q as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        for r in 0..n {
            row_ptr.push(row_ptr[r] + row_counts[r]);
        }
        let mut next = row_ptr[..n].to_vec();
        let mut row_pos = vec![0u32; row_idx.len()];
        for (p, &q) in row_idx.iter().enumerate() {
            row_pos[next[q as usize]] = p as u32;
            next[q as usize] += 1;
        }
        let mut col_of = vec![0u32; row_idx.len()];
        for k in 0..n {
            for c in &mut col_of[col_ptr[k]..col_ptr[k + 1]] {
                *c = k as u32;
            }
        }
        Self {
            n,
            vectors: Arc::new(CscVectors {
                col_ptr,
                row_idx,
                row_ptr,
                row_pos,
                col_of,
            }),
        }
    }

    /// Serializes the index as one line of per-column row lists:
    /// columns separated by `;`, row indices within a column by `,`
    /// (empty columns stay empty). The inverse of
    /// [`CscMatrix::from_index_string`].
    ///
    /// # Example
    ///
    /// ```
    /// use vitcod_tensor::sparse::CscMatrix;
    ///
    /// let csc = CscMatrix::from_indicator(3, |q, k| q == k);
    /// assert_eq!(csc.to_index_string(), "0;1;2");
    /// assert_eq!(CscMatrix::from_index_string(3, "0;1;2").unwrap(), csc);
    /// ```
    pub fn to_index_string(&self) -> String {
        let mut out = String::new();
        for k in 0..self.n {
            if k > 0 {
                out.push(';');
            }
            for (i, q) in self.col_rows(k).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&q.to_string());
            }
        }
        out
    }

    /// Parses an index written by [`CscMatrix::to_index_string`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed numbers, out-of-bounds rows, or
    /// a column count that disagrees with `n`.
    pub fn from_index_string(n: usize, text: &str) -> Result<Self, String> {
        let cols: Vec<Vec<u32>> = text
            .split(';')
            .map(|col| {
                if col.is_empty() {
                    return Ok(Vec::new());
                }
                col.split(',')
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| format!("malformed row index '{v}'"))
                    })
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        // `"".split(';')` yields one empty column; treat it as zero
        // columns so the empty index round-trips at n = 0.
        let cols = if n == 0 && text.is_empty() {
            Vec::new()
        } else {
            cols
        };
        Self::try_from_col_rows(n, &cols)
    }

    /// Token count `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vectors.row_idx.len()
    }

    /// Row indices of column `k`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.size()`.
    pub fn col_rows(&self, k: usize) -> &[u32] {
        assert!(k < self.n, "column {k} out of bounds");
        // Casting back and forth keeps the storage compact (u32 covers
        // any realistic token count) while the API stays usize-friendly.
        let v = &*self.vectors;
        &v.row_idx[v.col_ptr[k]..v.col_ptr[k + 1]]
    }

    /// Non-zero count of column `k`.
    pub fn col_nnz(&self, k: usize) -> usize {
        self.col_rows(k).len()
    }

    /// Positions that row `q`'s kept entries occupy in a CSC-ordered
    /// values buffer, ascending column order (precomputed — the row
    /// gather of the sparse softmax).
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.size()`.
    pub fn row_value_positions(&self, q: usize) -> &[u32] {
        assert!(q < self.n, "row {q} out of bounds");
        let v = &*self.vectors;
        &v.row_pos[v.row_ptr[q]..v.row_ptr[q + 1]]
    }

    /// Size of the index structure in bytes: `(n + 1)` column pointers
    /// (4 B each) plus one 4-byte row index per non-zero. This is what
    /// the accelerator's 20 KB index buffer must hold per tile.
    pub fn index_bytes(&self) -> usize {
        (self.vectors.col_ptr.len() + self.nnz()) * 4
    }

    /// Iterates the kept `(q, k)` positions in column-major (CSC value)
    /// order — the order [`SparseScores`] values are stored in.
    pub fn iter_kept(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |k| self.col_rows(k).iter().map(move |&q| (q as usize, k)))
    }

    /// Column index of every CSC value position, in value order — the
    /// companion of [`Self::row_value_positions`] the row-major backward
    /// walks need to recover which key column a gathered value belongs
    /// to. Precomputed at construction.
    fn value_columns(&self) -> &[u32] {
        &self.vectors.col_of
    }

    /// The query-row walk of the two row softmaxes: `row(positions, out)`
    /// fills `out` with one query row's results, where `positions` are
    /// that row's CSC value positions in ascending column order. Rows are
    /// filled in a row-major buffer (runs of whole rows, balanced by
    /// non-zeros, fan out by `work`) and scattered back to CSC order; no
    /// row allocates.
    fn map_rows(&self, work: usize, row: impl Fn(&[u32], &mut [f32]) + Sync) -> Vec<f32> {
        let CscVectors {
            row_ptr, row_pos, ..
        } = &*self.vectors;
        let mut by_row = vec![0.0f32; self.nnz()];
        kernels::for_each_unit_run(
            &mut by_row,
            self.n,
            |r| row_ptr[r],
            work,
            |rows, run| {
                let base = row_ptr[rows.start];
                for r in rows {
                    let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
                    row(&row_pos[lo..hi], &mut run[lo - base..hi - base]);
                }
            },
        );
        let mut values = vec![0.0f32; by_row.len()];
        for (&v, &p) in by_row.iter().zip(row_pos.iter()) {
            values[p as usize] = v;
        }
        values
    }
}

/// Sparse attention scores in CSC layout: one value per kept `(q, k)`
/// position, column-major, aligned with a [`CscMatrix`] index (shared,
/// not copied: a [`CscMatrix`] clone is `O(1)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseScores {
    index: CscMatrix,
    values: Vec<f32>,
}

impl SparseScores {
    /// Wraps a CSC-ordered values buffer with its index.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != index.nnz()`.
    pub fn new(index: CscMatrix, values: Vec<f32>) -> Self {
        assert_eq!(values.len(), index.nnz(), "one value per kept position");
        Self { index, values }
    }

    /// The CSC index describing which positions the values occupy.
    pub fn index(&self) -> &CscMatrix {
        &self.index
    }

    /// The stored values in column-major (CSC) order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of stored scores.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Densifies into an `n × n` matrix (zeros at pruned positions).
    pub fn to_dense(&self) -> Matrix {
        let n = self.index.size();
        let mut out = Matrix::zeros(n, n);
        let mut pos = 0;
        for k in 0..n {
            for &q in self.index.col_rows(k) {
                out.set(q as usize, k, self.values[pos]);
                pos += 1;
            }
        }
        out
    }

    /// Applies a row-wise softmax *in the sparse domain*: each query
    /// row's kept scores are normalised among themselves, exactly what
    /// the engines' softmax units do after a complete attention row is
    /// available. Each row is gathered through the precomputed row
    /// positions ([`CscMatrix::row_value_positions`]) and normalised in
    /// place.
    pub fn softmax_rows(&self) -> SparseScores {
        let values = self.index.map_rows(self.nnz(), |positions, row| {
            for (v, &p) in row.iter_mut().zip(positions) {
                *v = self.values[p as usize];
            }
            softmax_row(row);
        });
        SparseScores {
            index: self.index.clone(),
            values,
        }
    }
}

/// K-stationary SDDMM (paper Fig. 11(b) / Fig. 13(a)): K columns are
/// loaded one at a time; for each kept `(q, k)` position listed in the
/// CSC index, a `dk`-length dot product accumulates across the MAC line
/// (inter-PE accumulation), emitting attention scores column by column.
///
/// The CSC columns are shared among workers as contiguous
/// non-zero-balanced runs, each worker writing its own disjoint slice of
/// the values buffer (the software analogue of the accelerator
/// distributing K columns over MAC lines).
///
/// `scale` is the `1/sqrt(dk)` attention scaling.
///
/// # Panics
///
/// Panics if `q`/`k` have different feature dims or the index size
/// differs from the token count.
pub fn sddmm_k_stationary(q: &Matrix, k: &Matrix, index: &CscMatrix, scale: f32) -> SparseScores {
    assert_eq!(q.cols(), k.cols(), "q/k feature dims differ");
    assert_eq!(q.rows(), index.size(), "index size must match tokens");
    assert_eq!(k.rows(), index.size(), "index size must match tokens");
    let mut values = vec![0.0f32; index.nnz()];
    let (col_ptr, work) = (&index.vectors.col_ptr, index.nnz() * q.cols());
    kernels::for_each_unit_run(
        &mut values,
        index.n,
        |c| col_ptr[c],
        work,
        |cols, out| {
            let mut pos = 0;
            for col in cols {
                // K column resident; related Q rows stream temporally.
                let k_vec = k.row(col);
                for &qi in index.col_rows(col) {
                    let q_vec = q.row(qi as usize);
                    let mut acc = 0.0f32;
                    for (a, b) in q_vec.iter().zip(k_vec.iter()) {
                        acc += a * b;
                    }
                    out[pos] = acc * scale;
                    pos += 1;
                }
            }
        },
    );
    SparseScores {
        index: index.clone(),
        values,
    }
}

/// Output-stationary SpMM (paper Fig. 13(b)): output rows `V′[q, :]` stay resident in the PE registers (intra-PE
/// accumulation) while the sparse attention probabilities and V rows
/// stream through; each kept `(q, k)` score accumulates `prob · V[k, :]`
/// into output row `q`.
///
/// # Panics
///
/// Panics if shapes disagree with the score index.
pub fn spmm_output_stationary(scores: &SparseScores, v: &Matrix) -> Matrix {
    let n = scores.index.size();
    assert_eq!(v.rows(), n, "V token count must match index");
    let cols = v.cols();
    let mut out = Matrix::zeros(n, cols);
    if cols == 0 {
        return out;
    }
    let index = &scores.index;
    let values = &scores.values;
    // Output rows stay resident (intra-PE accumulation) while the sparse
    // probabilities and V rows stream through. Each invocation owns a
    // disjoint output-row window and walks the full CSC stream,
    // accumulating only the (q, k) pairs whose output row it owns — the
    // index walk is duplicated per worker but the MACs are not.
    let accumulate = |first_row: usize, chunk: &mut [f32]| {
        let chunk_rows = chunk.len() / cols;
        let mut pos = 0;
        for k in 0..n {
            let v_row = v.row(k);
            for &q in index.col_rows(k) {
                let p = values[pos];
                pos += 1;
                let q = q as usize;
                if p == 0.0 || q < first_row || q >= first_row + chunk_rows {
                    continue;
                }
                let local = q - first_row;
                let out_row = &mut chunk[local * cols..(local + 1) * cols];
                for (o, vv) in out_row.iter_mut().zip(v_row.iter()) {
                    *o += p * vv;
                }
            }
        }
    };
    let work_per_row = cols * (scores.values.len() / n.max(1) + 1);
    kernels::for_each_row_chunk_weighted(out.as_mut_slice(), cols, work_per_row, accumulate);
    out
}

/// Executes one head's full sparse attention through the accelerator's
/// dataflow: K-stationary SDDMM → sparse softmax → output-stationary
/// SpMM.
pub fn attention_head(q: &Matrix, k: &Matrix, v: &Matrix, index: &CscMatrix, scale: f32) -> Matrix {
    let scores = sddmm_k_stationary(q, k, index, scale);
    let probs = scores.softmax_rows();
    spmm_output_stationary(&probs, v)
}

/// 8-bit K-stationary SDDMM over per-row-quantized fused activations —
/// the same walk as [`sddmm_k_stationary`] with i8-precision operands and
/// i32 accumulation, dequantised at emission, the MAC lines' arithmetic:
/// the serving engine quantizes the full `n × (h·dk)` Q and K tensors
/// once per layer as [`QuantizedRows`], and each head hands this kernel
/// its column window. Per-row scales survive the slicing, so no
/// per-head requantization happens; each score dequantizes through
/// `q.scale(qi) · k.scale(col) · scale`.
///
/// # Panics
///
/// Panics if shapes or the window disagree with the index.
pub fn sddmm_k_stationary_int8_rows(
    q: &QuantizedRows,
    k: &QuantizedRows,
    cols: std::ops::Range<usize>,
    index: &CscMatrix,
    scale: f32,
) -> SparseScores {
    assert_eq!(q.shape().1, k.shape().1, "q/k feature dims differ");
    assert!(cols.end <= q.shape().1, "column window out of bounds");
    assert_eq!(q.shape().0, index.size(), "index size must match tokens");
    assert_eq!(k.shape().0, index.size(), "index size must match tokens");
    let mut values = vec![0.0f32; index.nnz()];
    let (col_ptr, work) = (&index.vectors.col_ptr, index.nnz() * cols.len());
    kernels::for_each_unit_run(
        &mut values,
        index.n,
        |c| col_ptr[c],
        work,
        |columns, out| {
            let mut pos = 0;
            for col in columns {
                let k_vec = k.row_window_wide(col, cols.clone());
                let k_factor = k.row_scale(col) * scale;
                for &qi in index.col_rows(col) {
                    let q_vec = q.row_window_wide(qi as usize, cols.clone());
                    let mut acc: i32 = 0;
                    for (a, b) in q_vec.iter().zip(k_vec.iter()) {
                        acc += (*a as i32) * (*b as i32);
                    }
                    out[pos] = acc as f32 * (q.row_scale(qi as usize) * k_factor);
                    pos += 1;
                }
            }
        },
    );
    SparseScores {
        index: index.clone(),
        values,
    }
}

/// [`attention_head`] with an 8-bit SDDMM over the layer's shared
/// per-row-quantized Q/K and a head column window: the scores come from
/// i32 accumulation (the MAC lines' arithmetic); softmax and SpMM run in
/// fp32 on the dequantised scores.
pub fn attention_head_int8_rows(
    q: &QuantizedRows,
    k: &QuantizedRows,
    cols: std::ops::Range<usize>,
    v: &Matrix,
    index: &CscMatrix,
    scale: f32,
) -> Matrix {
    let scores = sddmm_k_stationary_int8_rows(q, k, cols, index, scale);
    let probs = scores.softmax_rows();
    spmm_output_stationary(&probs, v)
}

// ---------------------------------------------------------------------------
// Backward kernels (sparse training)
// ---------------------------------------------------------------------------

/// Backward of [`sddmm_k_stationary`]: given the upstream gradient
/// `dscores` w.r.t. the emitted sparse scores, returns `(gq, gk)` — dense
/// gradients for Q and K that only accumulate over the kept positions, so
/// the pass costs `O(nnz · dk)` instead of `O(n² · dk)`.
///
/// Per kept `(q, k)`: `gq[q, :] += scale · dS[q,k] · K[k, :]` and
/// `gk[k, :] += scale · dS[q,k] · Q[q, :]`.
///
/// Two walks: the Q gradient is query-row-parallel (each worker owns
/// disjoint `gq` rows and walks that row's kept positions in ascending
/// column order via the precomputed row gather) and the K gradient
/// key-column-parallel (each worker owns disjoint `gk` rows — CSC
/// columns — and walks each column's kept rows ascending). Every output
/// element accumulates in the same order whoever holds it, so all
/// budgets agree bitwise.
///
/// # Panics
///
/// Panics if `q`/`k` shapes disagree with the score index.
pub fn sddmm_backward(
    q: &Matrix,
    k: &Matrix,
    dscores: &SparseScores,
    scale: f32,
) -> (Matrix, Matrix) {
    let index = &dscores.index;
    let n = index.size();
    assert_eq!(q.cols(), k.cols(), "q/k feature dims differ");
    assert_eq!(q.rows(), n, "index size must match tokens");
    assert_eq!(k.rows(), n, "index size must match tokens");
    let dk = q.cols();
    let ds = &dscores.values;
    let nnz = dscores.nnz();
    let per_row_work = dk * (nnz / n.max(1) + 1);

    let mut gq = Matrix::zeros(n, dk);
    let mut gk = Matrix::zeros(n, dk);
    let col_of = index.value_columns();
    let gq_rows = |first_row: usize, chunk: &mut [f32]| {
        if dk == 0 {
            return;
        }
        for (ci, grow) in chunk.chunks_mut(dk).enumerate() {
            let qi = first_row + ci;
            for &p in index.row_value_positions(qi) {
                let g = ds[p as usize] * scale;
                if g == 0.0 {
                    continue;
                }
                let k_vec = k.row(col_of[p as usize] as usize);
                for (o, &kv) in grow.iter_mut().zip(k_vec.iter()) {
                    *o += g * kv;
                }
            }
        }
    };
    kernels::for_each_row_chunk_weighted(gq.as_mut_slice(), dk.max(1), per_row_work, gq_rows);

    let col_off = &index.vectors.col_ptr;
    let gk_rows = |first_col: usize, chunk: &mut [f32]| {
        if dk == 0 {
            return;
        }
        for (ci, grow) in chunk.chunks_mut(dk).enumerate() {
            let col = first_col + ci;
            for (pos, &qi) in (col_off[col]..).zip(index.col_rows(col).iter()) {
                let g = ds[pos] * scale;
                if g == 0.0 {
                    continue;
                }
                let q_vec = q.row(qi as usize);
                for (o, &qv) in grow.iter_mut().zip(q_vec.iter()) {
                    *o += g * qv;
                }
            }
        }
    };
    kernels::for_each_row_chunk_weighted(gk.as_mut_slice(), dk.max(1), per_row_work, gk_rows);
    (gq, gk)
}

/// Backward of [`SparseScores::softmax_rows`] (the same query-row walk as
/// the forward): given the softmaxed probabilities `probs` and the
/// upstream gradient `dprobs` (both in the same CSC layout), returns the
/// gradient w.r.t. the pre-softmax scores:
/// `dS = P ⊙ (dP − rowsum(dP ⊙ P))`, rows restricted to kept positions.
///
/// # Panics
///
/// Panics if `probs` and `dprobs` disagree in size or non-zero count.
pub fn sparse_softmax_backward(probs: &SparseScores, dprobs: &SparseScores) -> SparseScores {
    // Equality is O(1) in the common case, where dprobs shares probs'
    // index vectors through the backward chain; independently built
    // indexes are compared whole, since a mismatch would silently pair
    // gradients with the wrong (q, k) cells.
    assert!(probs.index == dprobs.index, "probs/dprobs indexes differ");
    let (pv, dv) = (&probs.values, &dprobs.values);
    let values = probs.index.map_rows(2 * probs.nnz(), |positions, row| {
        let mut dot = 0.0f32;
        for &p in positions {
            dot += pv[p as usize] * dv[p as usize];
        }
        for (o, &p) in row.iter_mut().zip(positions) {
            *o = pv[p as usize] * (dv[p as usize] - dot);
        }
    });
    SparseScores {
        index: probs.index.clone(),
        values,
    }
}

/// Backward of [`spmm_output_stationary`]: given the sparse
/// probabilities `probs`, the value matrix `v` and the upstream gradient
/// `gout` of the attention output, returns `(dprobs, gv)`:
///
/// * `dprobs[q, k] = ⟨gout[q, :], v[k, :]⟩` at kept positions — an SDDMM
///   over the same CSC index (`O(nnz · dk)`);
/// * `gv[k, :] = Σ_{q kept in column k} probs[q,k] · gout[q, :]` —
///   key-column-parallel like the K gradient of [`sddmm_backward`].
///
/// # Panics
///
/// Panics if shapes disagree with the score index.
pub fn spmm_backward(probs: &SparseScores, v: &Matrix, gout: &Matrix) -> (SparseScores, Matrix) {
    let index = &probs.index;
    let n = index.size();
    assert_eq!(v.rows(), n, "V token count must match index");
    assert_eq!(gout.rows(), n, "gout token count must match index");
    assert_eq!(gout.cols(), v.cols(), "gout/V feature dims differ");
    let dk = v.cols();
    // dP is the same K-stationary walk as the forward SDDMM, with the
    // upstream gradient standing in for Q and V for K.
    let dprobs = sddmm_k_stationary(gout, v, index, 1.0);

    let mut gv = Matrix::zeros(n, dk);
    let pv = &probs.values;
    let col_off = &index.vectors.col_ptr;
    let gv_rows = |first_col: usize, chunk: &mut [f32]| {
        if dk == 0 {
            return;
        }
        for (ci, grow) in chunk.chunks_mut(dk).enumerate() {
            let col = first_col + ci;
            for (pos, &qi) in (col_off[col]..).zip(index.col_rows(col).iter()) {
                let p = pv[pos];
                if p == 0.0 {
                    continue;
                }
                let g_vec = gout.row(qi as usize);
                for (o, &g) in grow.iter_mut().zip(g_vec.iter()) {
                    *o += p * g;
                }
            }
        }
    };
    let per_row_work = dk * (probs.nnz() / n.max(1) + 1);
    kernels::for_each_row_chunk_weighted(gv.as_mut_slice(), dk.max(1), per_row_work, gv_rows);
    (dprobs, gv)
}

/// Backward of [`attention_head`]: given the cached sparse probabilities
/// of the forward pass and the upstream gradient `gout`, returns
/// `(gq, gk, gv)`. Every stage scales with `nnz` instead of `n²` — this
/// is what makes sparse *training* cost follow the mask density, not just
/// inference.
pub fn attention_head_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
    probs: &SparseScores,
    gout: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    let (dprobs, gv) = spmm_backward(probs, v, gout);
    let dscores = sparse_softmax_backward(probs, &dprobs);
    let (gq, gk) = sddmm_backward(q, k, &dscores, scale);
    (gq, gk, gv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Initializer;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        Initializer::Normal { std: 1.0 }.sample(rows, cols, seed)
    }

    /// Diagonal + first-column + next-neighbour pattern (a miniature of
    /// the paper's polarized maps).
    fn diag_global(n: usize) -> CscMatrix {
        CscMatrix::from_indicator(n, |q, k| q == k || k == 0 || k == (q + 1) % n)
    }

    #[test]
    fn from_indicator_columns_ascending_and_counted() {
        let csc = diag_global(8);
        for k in 0..8 {
            let rows = csc.col_rows(k);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "col {k} not sorted");
            assert_eq!(csc.col_nnz(k), rows.len());
        }
        assert_eq!(csc.iter_kept().count(), csc.nnz());
        assert_eq!(csc.index_bytes(), (9 + csc.nnz()) * 4);
    }

    #[test]
    fn row_value_positions_invert_the_csc_walk() {
        let csc = diag_global(12);
        let entries: Vec<(usize, usize)> = csc.iter_kept().collect();
        let mut seen = vec![false; csc.nnz()];
        for q in 0..12 {
            let mut prev_col = None;
            for &p in csc.row_value_positions(q) {
                let (pq, pk) = entries[p as usize];
                assert_eq!(pq, q, "position {p} gathered into wrong row");
                assert!(
                    prev_col < Some(pk),
                    "row {q} positions not ascending by column"
                );
                prev_col = Some(pk);
                assert!(!seen[p as usize], "position {p} gathered twice");
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some value positions unmapped");
    }

    #[test]
    fn sddmm_matches_dense_scores_at_kept_positions() {
        let (q, k) = (random(24, 16, 1), random(24, 16, 2));
        let index = diag_global(24);
        let sparse = sddmm_k_stationary(&q, &k, &index, 0.25);
        let dense = &kernels::matmul_nt(&q, &k) * 0.25;
        let sd = sparse.to_dense();
        for (qq, kk) in index.iter_kept() {
            assert!(
                (sd.get(qq, kk) - dense.get(qq, kk)).abs() < 1e-5,
                "score ({qq},{kk}) differs"
            );
        }
    }

    /// `f` under a budget of one worker and of four, for the bitwise
    /// comparisons below.
    fn at_budgets_1_and_4<T>(f: impl Fn() -> T) -> (T, T) {
        (
            kernels::with_thread_budget(1, &f),
            kernels::with_thread_budget(4, &f),
        )
    }

    #[test]
    fn budgets_agree_bitwise_on_the_full_dataflow() {
        let (q, k, v) = (random(33, 8, 3), random(33, 8, 4), random(33, 8, 5));
        let index = diag_global(33);
        let (scores_1, scores_4) = at_budgets_1_and_4(|| sddmm_k_stationary(&q, &k, &index, 0.3));
        assert_eq!(scores_1, scores_4);
        let (probs_1, probs_4) = at_budgets_1_and_4(|| scores_1.softmax_rows());
        assert_eq!(probs_1, probs_4);
        let (out_1, out_4) = at_budgets_1_and_4(|| spmm_output_stationary(&probs_1, &v));
        assert_eq!(out_1, out_4);
    }

    #[test]
    fn forced_multithread_dataflow_is_identical() {
        let (q, k, v) = (random(40, 8, 6), random(40, 8, 7), random(40, 8, 8));
        let index = diag_global(40);
        let (sequential, parallel) = at_budgets_1_and_4(|| attention_head(&q, &k, &v, &index, 0.3));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn sparse_softmax_rows_sum_to_one() {
        let (q, k) = (random(16, 8, 9), random(16, 8, 10));
        let index = diag_global(16);
        let probs = sddmm_k_stationary(&q, &k, &index, 0.3).softmax_rows();
        let dense = probs.to_dense();
        for r in 0..16 {
            let s: f32 = dense.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn int8_budgets_agree_bitwise() {
        let (q, k) = (random(24, 32, 11), random(24, 32, 12));
        let index = diag_global(24);
        let (qi, ki) = (QuantizedRows::quantize(&q), QuantizedRows::quantize(&k));
        let (one, four) =
            at_budgets_1_and_4(|| sddmm_k_stationary_int8_rows(&qi, &ki, 8..24, &index, 0.2));
        assert_eq!(one, four);
    }

    #[test]
    fn spmm_rows_lacking_kept_positions_stay_zero() {
        let v = random(8, 4, 13);
        // Only row 3 attends (to columns 1 and 2).
        let index = CscMatrix::from_indicator(8, |q, k| q == 3 && (k == 1 || k == 2));
        let scores = SparseScores::new(index, vec![0.5, 0.5]);
        let out = spmm_output_stationary(&scores, &v);
        for r in 0..8 {
            if r != 3 {
                assert!(out.row(r).iter().all(|&x| x == 0.0), "row {r} not zero");
            }
        }
        assert!(out.row(3).iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "one value per kept position")]
    fn sparse_scores_length_mismatch_panics() {
        SparseScores::new(diag_global(4), vec![0.0; 3]);
    }

    #[test]
    fn index_string_round_trips_including_empty_columns() {
        // Row 0 attends nowhere in column 2; column 3 is fully empty.
        let csc = CscMatrix::from_indicator(5, |q, k| k != 3 && (q + k) % 2 == 0);
        let text = csc.to_index_string();
        let back = CscMatrix::from_index_string(5, &text).unwrap();
        assert_eq!(back, csc);
        // The restored index carries the same precomputed row gather.
        for q in 0..5 {
            assert_eq!(back.row_value_positions(q), csc.row_value_positions(q));
        }
        let dg = diag_global(9);
        assert_eq!(
            CscMatrix::from_index_string(9, &dg.to_index_string()).unwrap(),
            dg
        );
    }

    /// Densifies a CSC-ordered gradient for comparison with the dense
    /// reference.
    fn dense_masked_reference(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        index: &CscMatrix,
        scale: f32,
        gout: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let n = index.size();
        let mut bias = Matrix::filled(n, n, f32::NEG_INFINITY);
        for (qq, kk) in index.iter_kept() {
            bias.set(qq, kk, 0.0);
        }
        let (_, probs) = kernels::attention_head(q, k, v, scale, Some(&bias));
        kernels::attention_head_backward(q, k, v, scale, &probs, gout)
    }

    #[test]
    fn backward_matches_dense_masked_reference() {
        let (n, dk) = (24, 8);
        let (q, k, v) = (random(n, dk, 20), random(n, dk, 21), random(n, dk, 22));
        let gout = random(n, dk, 23);
        let index = diag_global(n);
        let probs = sddmm_k_stationary(&q, &k, &index, 0.3).softmax_rows();
        let (gq, gk, gv) = attention_head_backward(&q, &k, &v, 0.3, &probs, &gout);
        let (rgq, rgk, rgv) = dense_masked_reference(&q, &k, &v, &index, 0.3, &gout);
        assert!(
            gq.max_abs_diff(&rgq) < 1e-4,
            "gq off by {}",
            gq.max_abs_diff(&rgq)
        );
        assert!(
            gk.max_abs_diff(&rgk) < 1e-4,
            "gk off by {}",
            gk.max_abs_diff(&rgk)
        );
        assert!(
            gv.max_abs_diff(&rgv) < 1e-4,
            "gv off by {}",
            gv.max_abs_diff(&rgv)
        );
    }

    #[test]
    fn backward_budgets_agree_bitwise() {
        let (n, dk) = (33, 8);
        let (q, k, v) = (random(n, dk, 24), random(n, dk, 25), random(n, dk, 26));
        let gout = random(n, dk, 27);
        let index = diag_global(n);
        let probs = sddmm_k_stationary(&q, &k, &index, 0.25).softmax_rows();
        let (one, four) =
            at_budgets_1_and_4(|| attention_head_backward(&q, &k, &v, 0.25, &probs, &gout));
        assert_eq!(one.0, four.0, "gq budgets disagree");
        assert_eq!(one.1, four.1, "gk budgets disagree");
        assert_eq!(one.2, four.2, "gv budgets disagree");
        // Granular kernels agree too.
        let (dp_1, dp_4) = at_budgets_1_and_4(|| spmm_backward(&probs, &v, &gout));
        assert_eq!(dp_1, dp_4);
        let (ds_1, ds_4) = at_budgets_1_and_4(|| sparse_softmax_backward(&probs, &dp_1.0));
        assert_eq!(ds_1, ds_4);
        let (g_1, g_4) = at_budgets_1_and_4(|| sddmm_backward(&q, &k, &ds_1, 0.25));
        assert_eq!(g_1, g_4);
    }

    #[test]
    fn forced_multithread_backward_is_identical() {
        let (n, dk) = (40, 8);
        let (q, k, v) = (random(n, dk, 28), random(n, dk, 29), random(n, dk, 30));
        let gout = random(n, dk, 31);
        let index = diag_global(n);
        let probs = sddmm_k_stationary(&q, &k, &index, 0.3).softmax_rows();
        let (sequential, parallel) =
            at_budgets_1_and_4(|| attention_head_backward(&q, &k, &v, 0.3, &probs, &gout));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn sddmm_backward_finite_difference_on_tiny_head() {
        // d/dQ and d/dK of loss = Σ gout ⊙ sddmm(Q, K) on a 4-token head.
        let (n, dk) = (4, 3);
        let (q, k) = (random(n, dk, 32), random(n, dk, 33));
        let index = CscMatrix::from_indicator(n, |r, c| r == c || c == 0);
        let gout: Vec<f32> = (0..index.nnz()).map(|i| 0.5 + 0.1 * i as f32).collect();
        let loss = |q: &Matrix, k: &Matrix| {
            sddmm_k_stationary(q, k, &index, 0.5)
                .values()
                .iter()
                .zip(&gout)
                .map(|(s, g)| s * g)
                .sum::<f32>()
        };
        let ds = SparseScores::new(index.clone(), gout.clone());
        let (gq, gk) = sddmm_backward(&q, &k, &ds, 0.5);
        let h = 1e-2f32;
        for r in 0..n {
            for c in 0..dk {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + h);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - h);
                let fd = (loss(&qp, &k) - loss(&qm, &k)) / (2.0 * h);
                assert!((fd - gq.get(r, c)).abs() < 1e-2, "gq({r},{c})");
                let mut kp = k.clone();
                kp.set(r, c, k.get(r, c) + h);
                let mut km = k.clone();
                km.set(r, c, k.get(r, c) - h);
                let fd = (loss(&q, &kp) - loss(&q, &km)) / (2.0 * h);
                assert!((fd - gk.get(r, c)).abs() < 1e-2, "gk({r},{c})");
            }
        }
    }

    #[test]
    fn value_columns_invert_the_walk() {
        let csc = diag_global(9);
        let cols = csc.value_columns();
        for (p, (_, k)) in csc.iter_kept().enumerate() {
            assert_eq!(cols[p] as usize, k, "position {p}");
        }
    }

    #[test]
    fn from_col_rows_rejects_bad_input() {
        assert!(
            CscMatrix::try_from_col_rows(2, &[vec![0]]).is_err(),
            "short"
        );
        assert!(
            CscMatrix::try_from_col_rows(2, &[vec![0, 2], vec![]]).is_err(),
            "row out of bounds"
        );
        assert!(
            CscMatrix::try_from_col_rows(2, &[vec![1, 0], vec![]]).is_err(),
            "descending rows"
        );
        assert!(CscMatrix::from_index_string(3, "0;1;9").is_err());
        assert!(CscMatrix::from_index_string(3, "0;x;2").is_err());
        assert!(CscMatrix::from_index_string(3, "0;1").is_err());
    }
}
