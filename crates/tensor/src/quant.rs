//! 8-bit quantization substrate.
//!
//! The ViTCoD accelerator computes on 8-bit operands (512 MACs in
//! 3 mm²); this module provides the symmetric quantization scheme its
//! functional model uses — `x ≈ scale · q` with `q ∈ [-127, 127]`, i32
//! accumulation, dequantized read-out — at two granularities:
//!
//! * [`QuantizedMatrix`] — per-tensor scale; the storage format of
//!   int8 `*.vitcod` artifacts.
//! * [`QuantizedRows`] — per-row scales for *activations*: each token
//!   row is quantized against its own max, which keeps projection error
//!   tight without calibration, and the row data is stored pre-widened
//!   to `i16` so every consuming GEMM skips the widening pass. An
//!   activation tensor is quantized **once** per layer and then feeds
//!   every projection / attention head that reads it (per-row scales
//!   survive column slicing, so per-head Q/K views reuse the same
//!   quantization).
//!
//! The serving-path projection product is [`int8_gemm`]: a packed
//! i8×i8→i32 register-tile GEMM over [`PackedGemmWeights`] (weights
//! re-laid out at compile time into interleaved `k`-pair lane panels,
//! the operand shape of the paired i16 multiply–accumulate instruction)
//! with a fused dequantize-and-bias epilogue. [`int8_gemm_window`] runs
//! it over a column window of the packed weight: a layer's Q and KV are
//! two windows over its one `[Wq | Wk | Wv]`, under that tensor's one
//! scale, so one weight tensor is one scale everywhere. Integer
//! accumulation is exact in any order, so it and its naive test oracle,
//! [`int8_gemm_reference`], produce bit-identical results from identical
//! operands, window by window.

use std::ops::Range;

use crate::kernels::{self, F32_PER_VECTOR, LANES, MR, VECTOR_BYTES, VECTOR_REGISTERS};
use crate::Matrix;

/// Symmetric per-tensor quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// Derives the scale that maps the tensor's max magnitude to 127.
    ///
    /// Returns a scale of `1.0` for an all-zero tensor so quantization
    /// stays invertible.
    pub fn fit(m: &Matrix) -> Self {
        let max = m.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        Self {
            scale: if max == 0.0 { 1.0 } else { max / 127.0 },
        }
    }
}

/// A quantized matrix: i8 payload plus its [`QuantParams`].
///
/// # Example
///
/// ```
/// use vitcod_tensor::{Matrix, QuantizedMatrix};
///
/// let m = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.0]]);
/// let q = QuantizedMatrix::quantize(&m);
/// let back = q.dequantize();
/// assert!(m.max_abs_diff(&back) < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    params: QuantParams,
}

impl QuantizedMatrix {
    /// Quantizes `m` with a fitted symmetric scale.
    pub fn quantize(m: &Matrix) -> Self {
        Self::quantize_with(m, QuantParams::fit(m))
    }

    /// Quantizes `m` with explicit parameters (saturating at ±127).
    pub fn quantize_with(m: &Matrix, params: QuantParams) -> Self {
        let data = m
            .as_slice()
            .iter()
            .map(|&v| (v / params.scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data,
            params,
        }
    }

    /// Reassembles a quantized matrix from an already-quantized payload
    /// (the artifact-load path — no requantization round-trip).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn from_raw(rows: usize, cols: usize, data: Vec<i8>, params: QuantParams) -> Self {
        assert_eq!(data.len(), rows * cols, "payload length mismatch");
        Self {
            rows,
            cols,
            data,
            params,
        }
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// The raw i8 element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get_raw(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Raw row slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_raw(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Recovers the real-valued matrix.
    pub fn dequantize(&self) -> Matrix {
        let scale = self.params.scale;
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| q as f32 * scale).collect(),
        )
    }

    /// Memory footprint in bytes (1 byte per element).
    pub fn bytes(&self) -> usize {
        self.data.len()
    }
}

/// Largest shared dimension [`int8_gemm`] accepts: activations are
/// clamped to ±127 but a weight loaded through
/// [`QuantizedMatrix::from_raw`] may be `i8::MIN`, so every `k` step
/// contributes at most `127 · 128` to an i32 accumulator and `k` this
/// large is provably overflow-free (`⌊(2³¹ − 1) / (127 · 128)⌋` =
/// 132,104). ViT shapes top out at `k = 3072`, forty times below the
/// line.
pub const MAX_INT8_GEMM_K: usize = i32::MAX as usize / (127 * 128);

/// Per-row symmetrically quantized activations, stored pre-widened.
///
/// Each row gets its own scale (`max|row| / 127`, `1.0` for an all-zero
/// row), fitted once when the activation tensor is produced; every
/// consumer — the Q, KV and MLP projections via [`int8_gemm`], dense
/// attention scores via [`QuantizedRows::scores_nt`], the sparse SDDMM —
/// reads the same quantization. Values are stored as `i16` (the operand
/// width of the paired multiply–accumulate idiom) with rows padded to an
/// even length so `k`-pair kernels never special-case the last element;
/// the padding is zero and never contributes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRows {
    rows: usize,
    cols: usize,
    /// `cols` rounded up to even: the stored row stride.
    padded: usize,
    data: Vec<i16>,
    scales: Vec<f32>,
}

impl QuantizedRows {
    /// Quantizes `m` row-wise with fitted symmetric per-row scales: each
    /// element is `(v / scale).round().clamp(-127.0, 127.0) as i16`, bit
    /// for bit, but converted without the saturating cast (see
    /// `quantize_lane`), which x86 lowers one lane at a time; the row
    /// loop stays in vector registers and runs at memory speed.
    pub fn quantize(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let padded = cols + cols % 2;
        let mut data = vec![0i16; rows * padded];
        let mut scales = vec![1.0f32; rows];
        for r in 0..rows {
            let src = m.row(r);
            let max = src.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
            scales[r] = scale;
            let dst = &mut data[r * padded..r * padded + cols];
            for (d, &v) in dst.iter_mut().zip(src.iter()) {
                *d = quantize_lane(v, scale);
            }
        }
        Self {
            rows,
            cols,
            padded,
            data,
            scales,
        }
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Scale of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Widened row `r`, including the even-length zero pad.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_wide(&self, r: usize) -> &[i16] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.padded..(r + 1) * self.padded]
    }

    /// A column window of widened row `r` — how per-head attention
    /// slices a fused Q/K activation without requantizing.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the row.
    pub fn row_window_wide(&self, r: usize, cols: std::ops::Range<usize>) -> &[i16] {
        assert!(r < self.rows, "row out of bounds");
        assert!(cols.end <= self.cols, "column window out of bounds");
        &self.data[r * self.padded + cols.start..r * self.padded + cols.end]
    }

    /// Recovers the real-valued matrix (tests and audits).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let scale = self.scales[r];
            let src = &self.data[r * self.padded..r * self.padded + self.cols];
            for (o, &q) in out.row_mut(r).iter_mut().zip(src.iter()) {
                *o = q as f32 * scale;
            }
        }
        out
    }

    /// Attention-score product `self · keysᵀ · scale` over the column
    /// window `cols` (one attention head's feature slice) with i32
    /// accumulation: `out[i][j]` dequantizes through
    /// `self.scale(i) · keys.scale(j) · scale`. The i16·i16→i32 inner
    /// loop is the paired multiply–accumulate shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes or the window disagree.
    pub fn scores_nt(
        &self,
        keys: &QuantizedRows,
        cols: std::ops::Range<usize>,
        scale: f32,
    ) -> Matrix {
        assert_eq!(self.cols, keys.cols, "q/k feature dims differ");
        assert!(cols.end <= self.cols, "column window out of bounds");
        let (m, n) = (self.rows, keys.rows);
        let mut out = Matrix::zeros(m, n);
        if cols.is_empty() {
            return out;
        }
        let dk = cols.len();
        kernels::for_each_row_chunk_weighted(out.as_mut_slice(), n, dk * n, |first_row, chunk| {
            for (ci, orow) in chunk.chunks_mut(n).enumerate() {
                let i = first_row + ci;
                let qrow = self.row_window_wide(i, cols.clone());
                let qfactor = self.row_scale(i) * scale;
                for (j, o) in orow.iter_mut().enumerate() {
                    let krow = keys.row_window_wide(j, cols.clone());
                    let mut acc: i32 = 0;
                    for (&x, &y) in qrow.iter().zip(krow.iter()) {
                        acc += x as i32 * y as i32;
                    }
                    *o = acc as f32 * (qfactor * keys.row_scale(j));
                }
            }
        });
        out
    }
}

/// `(v / scale).round().clamp(-127.0, 127.0) as i16` without the
/// saturating `as`, which x86 lowers lane by lane (`vmaxss`, `vminss`,
/// `vcvttss2si` per element). The clamped value is an integer in
/// [−127, 127] or NaN; NaN goes to 0, as `as` sends it, and
/// [`small_int_to_i32`] converts the rest. Every step is a plain vector
/// op.
#[inline(always)]
fn quantize_lane(v: f32, scale: f32) -> i16 {
    let y = (v / scale).round().clamp(-127.0, 127.0);
    small_int_to_i32(if y.is_nan() { 0.0 } else { y }) as i16
}

/// 1.5 · 2²³: the floats within 2²² of it have an ulp of exactly 1.
const EXACT_INT_MAGIC: f32 = 12_582_912.0;

/// `y as i32` for an integer-valued `y` below 2²² in magnitude, in plain
/// vector ops: `y + 1.5·2²³` is exact and its encoding is the magic's
/// plus `y`. Rust's saturating `as` compiles to per-lane scalar code.
#[inline(always)]
fn small_int_to_i32(y: f32) -> i32 {
    (y + EXACT_INT_MAGIC).to_bits() as i32 - EXACT_INT_MAGIC.to_bits() as i32
}

/// Projection weights packed for [`int8_gemm`] at compile time.
///
/// The `k × n` weight is quantized per-tensor, then re-laid out into
/// panels of [`LANES`] output columns with consecutive `k`-pairs
/// interleaved per lane:
///
/// ```text
/// data[((panel · kp + pair) · LANES + lane) · 2 + s] = w[2·pair + s][panel·LANES + lane]
/// ```
///
/// so the inner loop reads one contiguous `2·LANES` block per `k`-pair
/// per panel — 32 bytes of `(w₀, w₁)` pairs, one 256-bit register or two
/// 128-bit ones — which the fast kernel's tile multiplies against
/// registers of matching activation pairs with one `pmaddwd` per register
/// (16 MACs on a `ymm`, 8 on an `xmm`). The layout is the same whatever
/// the target's vector width. Ragged
/// edges (odd `k`, `n` not a lane multiple) are zero-padded and
/// contribute nothing. Elements are stored widened
/// to `i16`; [`PackedGemmWeights::bytes`] still accounts one byte per
/// logical weight, matching what an accelerator (or the artifact)
/// actually stores.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedGemmWeights {
    k: usize,
    n: usize,
    /// `k.div_ceil(2)`: interleaved pair count per panel.
    kp: usize,
    scale: f32,
    data: Vec<i16>,
}

impl PackedGemmWeights {
    /// Quantizes and packs a real-valued `k × n` weight.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`MAX_INT8_GEMM_K`].
    pub fn pack(w: &Matrix) -> Self {
        Self::from_quantized(&QuantizedMatrix::quantize(w))
    }

    /// Packs an already-quantized weight (the artifact-load path:
    /// identical bytes and scale, no requantization).
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`MAX_INT8_GEMM_K`].
    pub fn from_quantized(w: &QuantizedMatrix) -> Self {
        let (k, n) = (w.rows, w.cols);
        assert!(
            k <= MAX_INT8_GEMM_K,
            "k={k} could overflow i32 accumulation"
        );
        let kp = k.div_ceil(2);
        let panels = n.div_ceil(LANES);
        let mut data = vec![0i16; panels * kp * 2 * LANES];
        for p in 0..panels {
            for pair in 0..kp {
                for l in 0..LANES {
                    let j = p * LANES + l;
                    if j >= n {
                        continue;
                    }
                    let base = ((p * kp + pair) * LANES + l) * 2;
                    data[base] = w.get_raw(2 * pair, j) as i16;
                    if 2 * pair + 1 < k {
                        data[base + 1] = w.get_raw(2 * pair + 1, j) as i16;
                    }
                }
            }
        }
        Self {
            k,
            n,
            kp,
            scale: w.params().scale,
            data,
        }
    }

    /// The `i8` bytes and scale these panels were packed from: the exact
    /// inverse of [`PackedGemmWeights::from_quantized`] (the artifact-save
    /// path of a model that holds its projections only packed).
    pub fn to_quantized(&self) -> QuantizedMatrix {
        let data = (0..self.k)
            .flat_map(|kk| (0..self.n).map(move |j| self.get_wide(kk, j) as i8))
            .collect();
        QuantizedMatrix::from_raw(self.k, self.n, data, QuantParams { scale: self.scale })
    }

    /// Logical shape `(k, n)` of the packed weight.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Per-tensor quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Logical footprint in bytes (one per weight, as stored on disk or
    /// in accelerator SRAM — the in-RAM i16 widening is an x86 detail).
    pub fn bytes(&self) -> usize {
        self.k * self.n
    }

    /// Packed element for logical position `(kk, j)` — the reference
    /// kernel and tests read through this.
    fn get_wide(&self, kk: usize, j: usize) -> i16 {
        let (p, l) = (j / LANES, j % LANES);
        self.data[((p * self.kp + kk / 2) * LANES + l) * 2 + (kk & 1)]
    }
}

/// Int8 projection GEMM: `dequant(a · w) + bias` with i8-precision
/// operands, i32 accumulation and a fused epilogue
/// `out[i][j] = acc · (a.scale(i) · w.scale()) + bias[j]`, run as the
/// register-tile pair kernel, row-parallel across threads:
/// [`int8_gemm_window`] over every column of `w`.
///
/// Bit-identical to [`int8_gemm_reference`] by construction: integer
/// accumulation is order-exact and the epilogue expression is shared.
///
/// # Panics
///
/// Panics if `a.cols() != w.k` or `bias.len() != w.n`.
pub fn int8_gemm(a: &QuantizedRows, w: &PackedGemmWeights, bias: &[f32]) -> Matrix {
    int8_gemm_window(a, w, bias, 0..w.n)
}

/// Columns `cols` of the int8 projection GEMM, `bias` being the window's
/// own (`bias[j]` is added to output column `j`, weight column
/// `cols.start + j`). Only the weight panels that cover the window are
/// walked and only the window's lanes are stored, so a window whose ends
/// fall inside a [`LANES`] panel works, and the result is bit for bit
/// those columns of [`int8_gemm`] under the same per-column bias. This is
/// how Q and KV are two windows over one packed `[Wq | Wk | Wv]`.
///
/// # Panics
///
/// Panics if `a.cols() != w.k`, `cols` reaches past `w.n`, or
/// `bias.len() != cols.len()`.
pub fn int8_gemm_window(
    a: &QuantizedRows,
    w: &PackedGemmWeights,
    bias: &[f32],
    cols: Range<usize>,
) -> Matrix {
    let (m, k, n) = int8_gemm_shape(a, w, bias, &cols);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    kernels::for_each_row_chunk_weighted(out.as_mut_slice(), n, k * n, |first_row, chunk| {
        int8_gemm_panels(a, w, bias, cols.clone(), chunk, first_row)
    });
    out
}

/// `(m, k, n)` of an int8 GEMM over the column window `cols`, after the
/// checks it and its oracle share.
fn int8_gemm_shape(
    a: &QuantizedRows,
    w: &PackedGemmWeights,
    bias: &[f32],
    cols: &Range<usize>,
) -> (usize, usize, usize) {
    let (m, k) = a.shape();
    assert_eq!(k, w.k, "int8_gemm inner dimensions differ");
    assert!(
        cols.start <= cols.end && cols.end <= w.n,
        "int8_gemm column window {cols:?} out of bounds for {} columns",
        w.n
    );
    assert_eq!(bias.len(), cols.len(), "bias length mismatch");
    (m, k, cols.len())
}

/// The test oracle of [`int8_gemm`]: per-element dot products read
/// straight through the packed layout, on the calling thread. Nothing on
/// a serving path calls it; the agreement suites and the kernel bench
/// check the fast kernel, and each of its windows, against it. Same
/// signature and panics.
pub fn int8_gemm_reference(a: &QuantizedRows, w: &PackedGemmWeights, bias: &[f32]) -> Matrix {
    let (m, k, n) = int8_gemm_shape(a, w, bias, &(0..w.n));
    let mut out = Matrix::zeros(m, n);
    let chunk = out.as_mut_slice();
    for i in 0..m {
        let arow = a.row_wide(i);
        let factor = a.row_scale(i) * w.scale;
        for j in 0..n {
            let mut acc: i32 = 0;
            for (kk, &av) in arow[..k].iter().enumerate() {
                acc += av as i32 * w.get_wide(kk, j) as i32;
            }
            chunk[i * n + j] = acc as f32 * factor + bias[j];
        }
    }
    out
}

/// `k`-pairs per block of [`int8_gemm_panels`]' walk, and per
/// exactly-accumulated block of [`int8_tile`]. One pair contributes at
/// most `2 · 127 · 128` in magnitude (activations are clamped to ±127; a
/// raw weight may be −128), so every partial sum of a block is an integer
/// below 2²²: f32 holds it exactly and [`small_int_to_i32`] converts it
/// back. The size is set by L1d: one block of `MR` packed activation rows
/// is 16 KiB at 256 bits (8 at 128), which leaves a 32–48 KiB L1d room
/// for the weight panels streaming past it. A pack over all of `k = 768`
/// (48 KiB) ran `fc2` at 40 Gop/s against 47–51 for the other shapes.
const PAIR_BLOCK: usize = 128;
const _: () = assert!(PAIR_BLOCK * 2 * 127 * 128 < 1 << 22);

/// `i16`s one activation row contributes to one packed `k`-pair step: the
/// `(a₀, a₁)` pair repeated to fill one vector register (16 `i16` at 256
/// bits, 8 at 128), so `pmaddwd` against the weight step needs no
/// shuffle. Its own constant, not the fp32 GEMM's `a` repeat: the integer
/// tile leaves `pmaddwd` for `pmulld` unless the pair fills a register.
const PAIR_REP: usize = VECTOR_BYTES / 2;

// A tile row's weight lanes cover whole activation registers.
const _: () = assert!(LANES.is_multiple_of(PAIR_REP / 2));

// The `MR × LANES` f32 block accumulators, one packed weight step, one
// activation register and one `pmaddwd` product fit the vector register
// file (12 of 16 at 128 bits, 7 at 256).
const _: () =
    assert!(MR * LANES / F32_PER_VECTOR + 4 * LANES / VECTOR_BYTES + 2 <= VECTOR_REGISTERS);

/// Fast arm of [`int8_gemm_window`]. Per [`MR`]-row block, `k` is walked
/// one [`PAIR_BLOCK`] of pairs at a time: the block's activation pairs are
/// packed, every weight panel that covers the window `cols` meets them in
/// [`int8_tile`] (so each packed weight step is read once per `MR` rows),
/// and each panel's block sum is added into an `MR × LANES` `i32` total
/// per panel. After the last block the dequantize-and-bias epilogue runs
/// once per panel, over the panel's lanes inside the window. Rows past a
/// ragged edge are packed as zeros and their totals dropped: there is one
/// instantiation of the tile.
fn int8_gemm_panels(
    a: &QuantizedRows,
    w: &PackedGemmWeights,
    bias: &[f32],
    cols: Range<usize>,
    chunk: &mut [f32],
    first_row: usize,
) {
    let (n, kp) = (cols.len(), w.kp);
    let panel_len = kp * 2 * LANES;
    let panels = cols.start / LANES..cols.end.div_ceil(LANES);
    let mut a_pack = vec![0i16; PAIR_BLOCK.min(kp) * MR * PAIR_REP];
    let mut totals = vec![[[0i32; LANES]; MR]; panels.len()];
    for (bi, out_rows) in chunk.chunks_mut(MR * n).enumerate() {
        let row0 = first_row + bi * MR;
        let rows = out_rows.len() / n;
        totals.fill([[0; LANES]; MR]);
        for k0 in (0..kp).step_by(PAIR_BLOCK) {
            let pairs = PAIR_BLOCK.min(kp - k0);
            let block = &mut a_pack[..pairs * MR * PAIR_REP];
            for r in 0..MR {
                let slots = block
                    .chunks_exact_mut(MR * PAIR_REP)
                    .map(|step| &mut step[r * PAIR_REP..(r + 1) * PAIR_REP]);
                if r < rows {
                    let row = &a.row_wide(row0 + r)[2 * k0..2 * (k0 + pairs)];
                    for (slot, pair) in slots.zip(row.chunks_exact(2)) {
                        for rep in slot.chunks_exact_mut(2) {
                            rep.copy_from_slice(pair);
                        }
                    }
                } else {
                    slots.for_each(|slot| slot.fill(0));
                }
            }
            let block = &*block;
            for (p, total) in panels.clone().zip(totals.iter_mut()) {
                let w0 = p * panel_len + k0 * 2 * LANES;
                int8_tile(block, &w.data[w0..w0 + pairs * 2 * LANES], total);
            }
        }
        for (p, acc) in panels.clone().zip(&totals) {
            // The panel's weight columns inside the window, as lanes of the
            // panel and as output columns.
            let lanes = (p * LANES).max(cols.start)..((p + 1) * LANES).min(cols.end);
            let (l0, j0) = (lanes.start - p * LANES, lanes.start - cols.start);
            let bias = &bias[j0..j0 + lanes.len()];
            for (r, orow) in out_rows.chunks_exact_mut(n).enumerate() {
                let factor = a.row_scale(row0 + r) * w.scale;
                for ((o, &v), &b) in orow[j0..].iter_mut().zip(&acc[r][l0..]).zip(bias) {
                    *o = v as f32 * factor + b;
                }
            }
        }
    }
}

/// The int8 microkernel: an `MR × LANES` block of outputs carried in
/// registers across one [`PAIR_BLOCK`] of a weight panel's `k`-pairs,
/// then added into `total`. One packed `a` step is `MR` pairs, each
/// spread over a vector register ([`PAIR_REP`]), so
/// `a₀·w[2l] + a₁·w[2l+1]` over a register's lanes is a single `pmaddwd`
/// on whole registers — one instruction per 16 MACs at 256 bits
/// (`vpmaddwd` on `ymm`), per 8 at 128.
///
/// The block is accumulated in **f32**, which is exact (see
/// [`PAIR_BLOCK`]) and is what keeps the loop in that shape: with an
/// `i32` accumulator the release profile's thin LTO reassociates
/// `acc + (m₀ + m₁)` into `(acc + m₀) + m₁`, the loop vectorizer then
/// vectorizes across `k`, and the kernel falls to `pmulld`/`pinsrw` at a
/// quarter of the rate with every test still green. f32 addition may not
/// be reassociated, so the release build keeps `pmaddwd`, `cvtdq2ps`,
/// `addps` per register. The block sum is converted back (by
/// [`small_int_to_i32`], not a per-lane `as`) and totalled in `i32`; the
/// result is the same integer any other order produces.
#[inline(always)]
fn int8_tile(a: &[i16], w: &[i16], total: &mut [[i32; LANES]; MR]) {
    debug_assert!(w.len() <= PAIR_BLOCK * 2 * LANES);
    let mut acc = [[0.0f32; LANES]; MR];
    let steps = a.chunks_exact(MR * PAIR_REP);
    for (ak, wk) in steps.zip(w.chunks_exact(2 * LANES)) {
        for r in 0..MR {
            for l in 0..LANES {
                let a0 = ak[r * PAIR_REP + 2 * (l % (PAIR_REP / 2))] as i32;
                let a1 = ak[r * PAIR_REP + 2 * (l % (PAIR_REP / 2)) + 1] as i32;
                acc[r][l] += (a0 * wk[2 * l] as i32 + a1 * wk[2 * l + 1] as i32) as f32;
            }
        }
    }
    for (trow, arow) in total.iter_mut().zip(&acc) {
        for (t, &v) in trow.iter_mut().zip(arow) {
            *t += small_int_to_i32(v);
        }
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical kernel replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::Initializer;

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let m = Initializer::Normal { std: 1.0 }.sample(16, 16, 1);
        let q = QuantizedMatrix::quantize(&m);
        let err = m.max_abs_diff(&q.dequantize());
        assert!(err <= q.params().scale * 0.5 + 1e-7, "err {err}");
    }

    #[test]
    fn zero_matrix_round_trips() {
        let m = Matrix::zeros(3, 3);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.dequantize(), m);
        assert_eq!(q.params().scale, 1.0);
    }

    #[test]
    fn saturation_clamps_outliers() {
        let m = Matrix::from_rows(&[&[1.0, 100.0]]);
        let q = QuantizedMatrix::quantize_with(&m, QuantParams { scale: 0.1 });
        assert_eq!(q.get_raw(0, 1), 127);
        assert_eq!(q.get_raw(0, 0), 10);
    }

    #[test]
    fn quantized_matmul_close_to_fp32() {
        let a = Initializer::Normal { std: 0.5 }.sample(8, 32, 2);
        let b = Initializer::Normal { std: 0.5 }.sample(8, 32, 3);
        let exact = kernels::matmul_nt(&a, &b);
        let approx =
            QuantizedRows::quantize(&a).scores_nt(&QuantizedRows::quantize(&b), 0..32, 1.0);
        let rel = exact.max_abs_diff(&approx) / exact.frobenius_norm().max(1e-6);
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn bytes_is_one_per_element() {
        let m = Matrix::zeros(5, 7);
        assert_eq!(QuantizedMatrix::quantize(&m).bytes(), 35);
    }

    #[test]
    #[should_panic(expected = "q/k feature dims differ")]
    fn mismatched_matmul_panics() {
        let a = QuantizedRows::quantize(&Matrix::zeros(2, 3));
        let b = QuantizedRows::quantize(&Matrix::zeros(2, 4));
        a.scores_nt(&b, 0..3, 1.0);
    }

    #[test]
    fn quantized_rows_round_trip_bounded_per_row() {
        let m = Initializer::Normal { std: 1.0 }.sample(9, 13, 4);
        let q = QuantizedRows::quantize(&m);
        let back = q.dequantize();
        for r in 0..9 {
            let step = q.row_scale(r) * 0.5;
            for c in 0..13 {
                let err = (m.get(r, c) - back.get(r, c)).abs();
                assert!(
                    err <= step + 1e-7,
                    "({r},{c}): err {err} > half step {step}"
                );
            }
        }
    }

    #[test]
    fn packed_layout_preserves_quantized_weights() {
        // Odd k and a non-lane-multiple n exercise both zero pads.
        let w = Initializer::Normal { std: 0.7 }.sample(11, 21, 5);
        let q = QuantizedMatrix::quantize(&w);
        let packed = PackedGemmWeights::from_quantized(&q);
        assert_eq!(packed.shape(), (11, 21));
        assert_eq!(packed.scale(), q.params().scale);
        assert_eq!(packed.bytes(), 11 * 21);
        for kk in 0..11 {
            for j in 0..21 {
                assert_eq!(
                    packed.get_wide(kk, j),
                    q.get_raw(kk, j) as i16,
                    "({kk},{j})"
                );
            }
        }
    }

    #[test]
    fn int8_gemm_matches_its_oracle_and_the_naive_product() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 11, 21),
            (16, 32, 16),
            (9, 17, 33),
            (197, 64, 48),
            // Past one `PAIR_BLOCK`: six full blocks, a ragged last block
            // at odd `k`, and one pair past a block edge, with `n` off the
            // lane grid and `m` off the `MR` grid.
            (197, 768, 192),
            (9, 1031, 33),
            (5, 257, 8),
        ] {
            let a = Initializer::Normal { std: 1.0 }.sample(m, k, 6);
            let wf = Initializer::Normal { std: 0.3 }.sample(k, n, 7);
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 0.1).collect();
            let aq = QuantizedRows::quantize(&a);
            let w = PackedGemmWeights::pack(&wf);
            let wq = QuantizedMatrix::quantize(&wf);
            let scalar = int8_gemm_reference(&aq, &w, &bias);
            let fast = int8_gemm(&aq, &w, &bias);
            assert_eq!(scalar, fast, "shape ({m},{k},{n})");
            // Naive oracle straight off the unpacked quantized operands.
            for i in 0..m {
                let factor = aq.row_scale(i) * w.scale();
                for (j, &bj) in bias.iter().enumerate() {
                    let mut acc: i32 = 0;
                    for kk in 0..k {
                        acc += aq.row_wide(i)[kk] as i32 * wq.get_raw(kk, j) as i32;
                    }
                    let want = acc as f32 * factor + bj;
                    assert_eq!(scalar.get(i, j), want, "({i},{j}) of ({m},{k},{n})");
                }
            }
        }
    }

    /// The conversion `quantize_lane` replaces, kept as its oracle.
    fn quantize_lane_oracle(v: f32, scale: f32) -> i16 {
        (v / scale).round().clamp(-127.0, 127.0) as i16
    }

    #[test]
    fn quantize_lane_is_bit_identical_to_the_saturating_cast() {
        let mut inputs: Vec<f32> = (-200_000..=200_000).map(|i| i as f32 * 1e-3).collect();
        for payload in [
            0x7fc0_0000u32,
            0x7fc0_0001,
            0x7fa0_0000,
            0xffc0_0000,
            0xff80_0001,
        ] {
            inputs.push(f32::from_bits(payload));
        }
        for v in [f32::INFINITY, 0.0, 0.5, 1.5, 126.5, 127.49, 1e30, 1e-30] {
            inputs.extend([v, -v]);
        }
        for scale in [1.0, 0.013, f32::INFINITY, 1e-30] {
            for &v in &inputs {
                assert_eq!(
                    quantize_lane(v, scale),
                    quantize_lane_oracle(v, scale),
                    "v = {v:e} ({:#010x}), scale = {scale:e}",
                    v.to_bits()
                );
            }
        }
    }

    #[test]
    fn small_int_to_i32_is_exact_below_two_to_the_22() {
        let edge = (1 << 22) - 1;
        for i in (-edge..=edge).step_by(997).chain([-edge, -1, 0, 1, edge]) {
            assert_eq!(small_int_to_i32(i as f32), i);
        }
        assert_eq!(small_int_to_i32(-0.0), 0);
    }

    #[test]
    fn quantize_rows_matches_the_oracle_on_zero_nan_and_infinite_rows() {
        let m = Matrix::from_rows(&[
            &[0.0, -0.0, 0.0],
            &[f32::NAN, 1.0, -2.5],
            &[f32::INFINITY, 3.0, -1.0],
            &[f32::NEG_INFINITY, f32::NAN, 0.25],
            &[0.3, -127.0, 64.4],
        ]);
        let q = QuantizedRows::quantize(&m);
        assert_eq!(q.row_scale(0), 1.0);
        for r in 0..m.rows() {
            let scale = q.row_scale(r);
            let want: Vec<i16> = m
                .row(r)
                .iter()
                .map(|&v| quantize_lane_oracle(v, scale))
                .collect();
            assert_eq!(&q.row_wide(r)[..3], &want[..], "row {r}");
            assert_eq!(q.row_wide(r)[3], 0, "row {r}: pad");
        }
    }

    #[test]
    fn scores_nt_matches_per_tensor_reference_shape_and_windows() {
        let q = Initializer::Normal { std: 1.0 }.sample(12, 16, 8);
        let k = Initializer::Normal { std: 1.0 }.sample(12, 16, 9);
        let qr = QuantizedRows::quantize(&q);
        let kr = QuantizedRows::quantize(&k);
        // Head window [8, 16): the naive per-row dot is the oracle.
        let scores = qr.scores_nt(&kr, 8..16, 0.25);
        assert_eq!(scores.shape(), (12, 12));
        for i in 0..12 {
            for j in 0..12 {
                let mut acc: i32 = 0;
                for c in 8..16 {
                    acc += qr.row_wide(i)[c] as i32 * kr.row_wide(j)[c] as i32;
                }
                let want = acc as f32 * (qr.row_scale(i) * 0.25 * kr.row_scale(j));
                assert_eq!(scores.get(i, j), want, "({i},{j})");
            }
        }
    }

    #[test]
    fn int8_gemm_zero_k_is_bias_broadcast() {
        let aq = QuantizedRows::quantize(&Matrix::zeros(3, 0));
        let w = PackedGemmWeights::pack(&Matrix::zeros(0, 4));
        let bias = [1.0, 2.0, 3.0, 4.0];
        let out = int8_gemm(&aq, &w, &bias);
        for i in 0..3 {
            for (j, &b) in bias.iter().enumerate() {
                assert_eq!(out.get(i, j), b);
            }
        }
    }
}
