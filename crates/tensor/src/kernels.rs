//! The shared parallel kernel layer.
//!
//! Every dense hot path in the workspace — the autograd tape, the ViT
//! forward/backward, the functional dataflow checks and the benchmark
//! harness — routes its inner loops through this module instead of
//! open-coding them.
//!
//! # Backend-selection contract
//!
//! Two values steer a kernel call, and they are independent.
//!
//! **[`Backend`] picks the algorithm** of the five ops that have two:
//! [`matmul`], [`matmul_nt`], [`matmul_tn`], [`transpose`] and
//! [`crate::int8_gemm`]. Each has a `*_with` twin taking the backend as an
//! argument; the ambient entry point reads [`backend()`].
//!
//! * [`Backend::Scalar`] — textbook reference loops (`i–j–k` dot-product
//!   GEMM, element-at-a-time transpose, per-element int8 dot products),
//!   on the calling thread. Slow, obviously correct, and the yardstick
//!   the simulator's operation counts are audited against.
//! * [`Backend::Fast`] — the default. One GEMM serves `a·b`, `a·bᵀ` and
//!   `aᵀ·b`: both operands are packed on the fly, straight from whichever
//!   layout they arrive in, into contiguous `k`-major panels (reused
//!   per-thread scratch — no stored second copy of anything), and an
//!   `MR × NR` = 4 × 8 block of outputs is held in register accumulators
//!   across each `K_BLOCK`-step stretch of the reduction while one packed
//!   panel of `b` streams past a block of `a` rows. Calls with fewer than
//!   `MR` output rows (the classifier head) skip the packing and run a
//!   row-axpy; that choice depends on the shape alone. Plain safe Rust
//!   the compiler autovectorizes — no intrinsics, no `unsafe`, no FMA.
//!
//! Every other kernel — softmax, LayerNorm, bias, the elementwise maps,
//! head mixing and the whole [`crate::sparse`] layer — has one algorithm
//! and never reads the backend.
//!
//! **The thread budget picks the fan-out.** [`num_threads`] workers at
//! most share a kernel's disjoint outputs (rows, CSC column segments,
//! heads, samples), on either backend; a kernel whose work is too small
//! to amortise a spawn runs on the calling thread.
//!
//! Each value has a process default and one scoped override, nothing
//! else: the backend is `Fast` unless the `VITCOD_BACKEND` environment
//! variable says `scalar`, the budget is the machine's available
//! parallelism unless `VITCOD_NUM_THREADS` gives a positive count (both
//! read once on first use; a value that does not parse is reported on
//! stderr and the default is used), and [`with_backend_override`] /
//! [`with_thread_budget`] replace either for the calling thread and the
//! workers it fans out to, for the length of one closure.
//!
//! **Neither value changes a result bit**, on non-finite data too (a NaN
//! answers a NaN; which payload survives is not Rust's to promise):
//! every kernel accumulates each output element along ascending `k` in a
//! single dependency chain from `0.0` and skips no term, so packing,
//! register tiling and the fan-out reorder *independent* elements only,
//! never the floating-point reduction itself. Property tests assert exact
//! equality between backends and between budgets; new kernels must either
//! preserve the invariant or document a tolerance.
//!
//! Thread fan-out uses `std::thread::scope` (no work-stealing runtime and
//! no `unsafe`): outputs are split into disjoint `&mut` chunks, one per
//! worker, and each worker inherits the caller's backend override and its
//! share of the caller's budget.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::ops::softmax_row;
use crate::Matrix;

/// Lane count the kernels tile for: eight 32-bit values (one 256-bit
/// vector register, or two 128-bit ones). The fast GEMM's tile is this
/// wide, and so are the int8 panels of [`crate::PackedGemmWeights`].
pub const LANES: usize = 8;

/// Output rows per register tile of the fast GEMMs (fp32 here, int8 in
/// [`crate::quant`]). `MR × NR` accumulators plus one panel step fit the
/// 16 vector registers of baseline x86-64; taller or wider tiles spill
/// and fall off the vectorizer.
pub(crate) const MR: usize = 4;

/// Output columns per register tile, and the width of a packed `b` panel.
const NR: usize = LANES;

/// Copies of each `a` scalar (each `k`-pair, in the int8 GEMM) in a
/// packed `a` panel: one 128-bit vector's worth, the register width of
/// the baseline targets.
pub(crate) const A_REP: usize = 4;

/// Steps of the `k` reduction the fast GEMM packs and multiplies at a time.
const K_BLOCK: usize = 128;

/// Output rows per packed block of `a`: each packed `b` panel is reused
/// by this many rows, and `BLOCK_ROWS × K_BLOCK × A_REP` floats (96 KiB)
/// is all the `a` scratch a thread ever holds, whatever the shape.
const BLOCK_ROWS: usize = 12 * MR;

/// Tile edge for the tiled transpose.
const TRANSPOSE_TILE: usize = 32;

/// Minimum per-thread work (elements touched, or MACs for GEMM-shaped
/// kernels) before a kernel fans out: a scoped-thread spawn/join costs
/// tens of microseconds, so each worker must bring at least ~100 µs of
/// compute for the fan-out to win.
const MIN_WORK_PER_THREAD: usize = 128 * 1024;

/// Algorithm selector of the five two-algorithm ops (the three GEMM
/// flavours, the transpose and the int8 GEMM). See the
/// [module docs](self) for the agreement contract between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Textbook reference loops; slow but auditable.
    Scalar,
    /// Packed-panel register-tile GEMMs and the tiled transpose (the
    /// default); bit-identical to `Scalar` by construction.
    #[default]
    Fast,
}

impl std::fmt::Display for Backend {
    /// Lower-case name, the inverse of [`FromStr`](std::str::FromStr) —
    /// what `VITCOD_BACKEND` accepts and what observability labels
    /// (`/v1/metrics`, `/v1/stats`) report.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Scalar => "scalar",
            Backend::Fast => "fast",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "fast" => Ok(Backend::Fast),
            other => Err(format!(
                "unknown backend '{other}' (expected scalar | fast)"
            )),
        }
    }
}

/// Process-default backend: `VITCOD_BACKEND` if set and valid,
/// otherwise `Fast` — loudly, if the variable was set to something else.
/// Kernels sit on the hot path, so the environment is consulted once.
fn default_backend() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        // vitcod-lint: allow(V004, read once behind a OnceLock at first kernel call; the resolved backend never changes mid-process)
        let (backend, complaint) = resolve_backend(std::env::var("VITCOD_BACKEND").ok().as_deref());
        if let Some(line) = complaint {
            eprintln!("{line}");
        }
        backend
    })
}

/// What a `VITCOD_BACKEND` value selects, plus the one stderr line owed
/// when it names no backend: an audit run with `scaler` must not
/// silently measure the fast path.
fn resolve_backend(value: Option<&str>) -> (Backend, Option<String>) {
    match value.map(str::parse::<Backend>) {
        None => (Backend::default(), None),
        Some(Ok(backend)) => (backend, None),
        Some(Err(err)) => {
            let used = Backend::default();
            (used, Some(format!("VITCOD_BACKEND: {err}; using '{used}'")))
        }
    }
}

/// Process-default thread budget: `VITCOD_NUM_THREADS` if set and valid,
/// otherwise the machine's available parallelism — loudly, if the
/// variable was set to something else. Consulted once, like the backend.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        // vitcod-lint: allow(V004, read once behind a OnceLock at first kernel call; the resolved thread budget never changes mid-process)
        let value = std::env::var("VITCOD_NUM_THREADS").ok();
        let (threads, complaint) = resolve_threads(value.as_deref());
        if let Some(line) = complaint {
            eprintln!("{line}");
        }
        threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// What a `VITCOD_NUM_THREADS` value selects (`None`: the machine's
/// available parallelism), plus the one stderr line owed when it is not
/// a positive count: a run pinned with `one` must not silently fan out
/// over every core.
fn resolve_threads(value: Option<&str>) -> (Option<usize>, Option<String>) {
    let Some(value) = value else {
        return (None, None);
    };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => (Some(n), None),
        _ => {
            let line = format!(
                "VITCOD_NUM_THREADS: expected a positive integer, got '{value}'; \
                 using the available parallelism"
            );
            (None, Some(line))
        }
    }
}

std::thread_local! {
    /// Per-thread backend override installed by [`with_backend_override`].
    static BACKEND_OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };

    /// Per-thread budget installed by [`with_thread_budget`]; `0` means
    /// no override.
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with `cell` holding `value`, restoring what it held before
/// on exit (including panic unwinds).
fn with_scoped<V: Copy, T>(cell: &Cell<V>, value: V, f: impl FnOnce() -> T) -> T {
    struct Restore<'a, V: Copy>(&'a Cell<V>, V);
    impl<V: Copy> Drop for Restore<'_, V> {
        fn drop(&mut self) {
            self.0.set(self.1);
        }
    }
    let _restore = Restore(cell, cell.replace(value));
    f()
}

/// The backend the ambient two-algorithm entry points run on: this
/// thread's [`with_backend_override`] scope if one is active, otherwise
/// the process default (`VITCOD_BACKEND`, else `Fast`).
pub fn backend() -> Backend {
    BACKEND_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_backend)
}

/// Runs `f` with `backend` selected for this thread and the workers its
/// kernels fan out to, restoring the previous selection on exit
/// (including panic unwinds). This is how callers pin a backend per
/// scope — e.g. `with_backend_override(Backend::Scalar, ||
/// engine.infer_batch(..))` to audit a served model against the
/// reference — without touching any other thread.
pub fn with_backend_override<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    BACKEND_OVERRIDE.with(|cell| with_scoped(cell, Some(backend), f))
}

/// Runs `f` with this thread's kernel worker budget set to `n` (`0`
/// removes the override), restoring the previous budget on exit
/// (including panic unwinds). A fan-out divides the caller's budget among
/// its workers, so nested kernels cannot multiply it into `threads²`
/// oversubscription. The budget only changes how many workers a kernel
/// spawns, never its values (the agreement contract).
pub fn with_thread_budget<T>(n: usize, f: impl FnOnce() -> T) -> T {
    THREAD_BUDGET.with(|cell| with_scoped(cell, n, f))
}

/// Resolved worker-thread budget: this thread's [`with_thread_budget`]
/// scope if one is active, otherwise the process default
/// (`VITCOD_NUM_THREADS`, else the machine's available parallelism).
pub fn num_threads() -> usize {
    match THREAD_BUDGET.with(Cell::get) {
        0 => default_threads(),
        local => local,
    }
}

/// Worker count for `items` units of `work_per_item` compute each,
/// capped so every worker gets at least [`MIN_WORK_PER_THREAD`].
fn effective_threads(items: usize, work_per_item: usize) -> usize {
    if items == 0 {
        return 1;
    }
    let total_work = items.saturating_mul(work_per_item.max(1));
    num_threads()
        .min(total_work / MIN_WORK_PER_THREAD + 1)
        .min(items)
        .max(1)
}

/// Thread-local state a parallel driver hands to the workers it spawns:
/// the caller's budget divided among `workers` (so nested kernels cannot
/// re-expand to full machine parallelism — budget is conserved across
/// fan-out levels) plus the caller's backend override verbatim.
fn inherited_overrides(workers: usize) -> (usize, Option<Backend>) {
    let budget = (num_threads() / workers.max(1)).max(1);
    (budget, BACKEND_OVERRIDE.with(Cell::get))
}

/// Installs [`inherited_overrides`] state on a fresh scoped worker
/// thread (no restore needed — the thread ends with `f`).
fn with_inherited<T>((budget, backend): (usize, Option<Backend>), f: impl FnOnce() -> T) -> T {
    THREAD_BUDGET.with(|cell| cell.set(budget));
    BACKEND_OVERRIDE.with(|cell| cell.set(backend));
    f()
}

// ---------------------------------------------------------------------------
// Parallel driving helpers
// ---------------------------------------------------------------------------

/// Runs `f(first_row, chunk)` over contiguous row chunks of a row-major
/// buffer, in parallel when the total work warrants it.
///
/// `data.len()` must be a multiple of `cols`; each invocation receives a
/// disjoint `&mut` window starting at row `first_row`. The work estimate
/// assumes ~`cols` operations per row; kernels that do more per row
/// (GEMM does `cols · k` MACs) should use
/// [`for_each_row_chunk_weighted`] so wide-but-short outputs still fan
/// out.
pub fn for_each_row_chunk<T: Send>(
    data: &mut [T],
    cols: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    for_each_row_chunk_weighted(data, cols, cols, f)
}

/// [`for_each_row_chunk`] with an explicit per-row work estimate
/// (elements touched or MACs), used to decide the fan-out.
pub fn for_each_row_chunk_weighted<T: Send>(
    data: &mut [T],
    cols: usize,
    work_per_row: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() || cols == 0 {
        return;
    }
    debug_assert_eq!(
        data.len() % cols,
        0,
        "buffer is not row-major of width cols"
    );
    let rows = data.len() / cols;
    let threads = effective_threads(rows, work_per_row);
    if threads <= 1 {
        f(0, data);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let ov = inherited_overrides(threads);
    std::thread::scope(|scope| {
        for (i, chunk) in data.chunks_mut(rows_per * cols).enumerate() {
            let f = &f;
            scope.spawn(move || with_inherited(ov, || f(i * rows_per, chunk)));
        }
    });
}

/// Splits `data` at the ascending `bounds` (which must start at `0` and
/// end at `data.len()`) and runs `f(segment_index, segment)` for each
/// piece, in parallel when there is more than one worker available.
///
/// This is the driver for CSC-ordered workloads: the caller partitions a
/// values buffer at column boundaries and each worker owns a disjoint
/// column range.
pub fn par_segments<T: Send>(data: &mut [T], bounds: &[usize], f: impl Fn(usize, &mut [T]) + Sync) {
    assert!(bounds.len() >= 2, "need at least one segment");
    assert_eq!(*bounds.first().unwrap(), 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().unwrap(),
        data.len(),
        "bounds must end at data.len()"
    );
    let segments = bounds.len() - 1;
    if segments == 1 || num_threads() <= 1 {
        let mut rest = data;
        let mut offset = 0;
        for (i, w) in bounds.windows(2).enumerate() {
            let (seg, tail) = rest.split_at_mut(w[1] - offset);
            f(i, seg);
            rest = tail;
            offset = w[1];
        }
        return;
    }
    let ov = inherited_overrides(segments);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut offset = 0;
        for (i, w) in bounds.windows(2).enumerate() {
            let (seg, tail) = rest.split_at_mut(w[1] - offset);
            let f = &f;
            scope.spawn(move || with_inherited(ov, || f(i, seg)));
            rest = tail;
            offset = w[1];
        }
    });
}

/// Builds a `Vec` of `n` items where item `i` is `f(i)`, fanning the
/// calls out across scoped threads when `n · work_per_item` justifies
/// the spawns. Used to parallelise per-head and per-sample work that
/// produces owned values.
pub fn par_map_collect<T: Send, F: Fn(usize) -> T + Sync>(
    n: usize,
    work_per_item: usize,
    f: F,
) -> Vec<T> {
    let threads = effective_threads(n, work_per_item);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let per = n.div_ceil(threads);
    let ov = inherited_overrides(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let range = t * per..((t + 1) * per).min(n);
                scope.spawn(move || with_inherited(ov, || range.map(f).collect::<Vec<T>>()))
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(items) => out.extend(items),
                // Re-raise the worker's own panic payload, so a shape
                // assert inside `f` reaches the caller with its message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

// ---------------------------------------------------------------------------
// GEMM flavours
// ---------------------------------------------------------------------------

/// Matrix product `a · b` on the ambient backend.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(backend(), a, b)
}

/// Matrix product `a · b` on an explicit backend.
pub fn matmul_with(backend: Backend, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimensions differ: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    match backend {
        Backend::Scalar => scalar_matmul(a, b),
        Backend::Fast => fast_gemm(Operand::rows(a), Operand::cols(b)),
    }
}

/// Matrix product with a transposed right-hand side, `a · bᵀ`, on the
/// ambient backend. This is attention's `S = Q · Kᵀ` layout: both
/// operands token-major.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_nt_with(backend(), a, b)
}

/// `a · bᵀ` on an explicit backend.
pub fn matmul_nt_with(backend: Backend, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt inner dimensions differ: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    match backend {
        Backend::Scalar => scalar_matmul_nt(a, b),
        // The rows of `b` are the columns of `bᵀ`: the packer reads them
        // where they lie, so the transpose is never materialised.
        Backend::Fast => fast_gemm(Operand::rows(a), Operand::rows(b)),
    }
}

/// Matrix product with a transposed left-hand side, `aᵀ · b`, on the
/// ambient backend.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_tn_with(backend(), a, b)
}

/// `aᵀ · b` on an explicit backend.
pub fn matmul_tn_with(backend: Backend, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn inner dimensions differ: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    match backend {
        Backend::Scalar => scalar_matmul_tn(a, b),
        Backend::Fast => fast_gemm(Operand::cols(a), Operand::cols(b)),
    }
}

/// Transpose on the ambient backend.
pub fn transpose(a: &Matrix) -> Matrix {
    transpose_with(backend(), a)
}

/// Transpose on an explicit backend. The fast flavour walks
/// [`TRANSPOSE_TILE`]-square tiles so both the source and destination are
/// touched a cache line at a time, and fans output rows across threads.
pub fn transpose_with(backend: Backend, a: &Matrix) -> Matrix {
    let (rows, cols) = a.shape();
    let mut out = Matrix::zeros(cols, rows);
    if a.is_empty() {
        return out;
    }
    match backend {
        Backend::Scalar => {
            let src = a.as_slice();
            let dst = out.as_mut_slice();
            for r in 0..rows {
                for c in 0..cols {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
        Backend::Fast => {
            let src = a.as_slice();
            // Parallel over output row chunks; each output row is a
            // source column, so chunks read disjoint column stripes.
            for_each_row_chunk(out.as_mut_slice(), rows, |first_out_row, chunk| {
                let out_rows = chunk.len() / rows;
                for c0 in (0..out_rows).step_by(TRANSPOSE_TILE) {
                    let c1 = (c0 + TRANSPOSE_TILE).min(out_rows);
                    for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
                        let r1 = (r0 + TRANSPOSE_TILE).min(rows);
                        for c in c0..c1 {
                            let col = first_out_row + c;
                            for r in r0..r1 {
                                chunk[c * rows + r] = src[r * cols + col];
                            }
                        }
                    }
                }
            });
        }
    }
    out
}

/// Textbook `i–j–k` GEMM: per-element dot products with a column-strided
/// walk of `b`. Kept deliberately naive — this is the reference the
/// fast kernel (and the simulator's MAC counts) are audited against.
fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, kdim) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kdim {
                acc += av[i * kdim + k] * bv[k * n + j];
            }
            ov[i * n + j] = acc;
        }
    }
    out
}

fn scalar_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, kdim) = a.shape();
    let n = b.rows();
    let mut out = Matrix::zeros(m, n);
    let ov = out.as_mut_slice();
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for k in 0..kdim {
                acc += arow[k] * brow[k];
            }
            ov[i * n + j] = acc;
        }
    }
    out
}

fn scalar_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (kdim, m) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kdim {
                acc += av[k * m + i] * bv[k * n + j];
            }
            ov[i * n + j] = acc;
        }
    }
    out
}

/// One side of a GEMM as the fast kernel reads it: `lanes` vectors of
/// `depth` elements along the reduction axis, element `kk` of lane `l` at
/// `data[l * lane_stride + kk * step_stride]`. For the left operand a
/// lane is an output row, for the right operand an output column. A
/// row-major matrix is either [`rows`](Self::rows) (each lane contiguous)
/// or [`cols`](Self::cols) (the lanes of one `k` step contiguous), so the
/// three transpose flavours are three pairings of the two constructors.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    lanes: usize,
    depth: usize,
    lane_stride: usize,
    step_stride: usize,
}

impl<'a> Operand<'a> {
    /// The rows of `m` are the lanes: `a` in `a·b`, `b` in `a·bᵀ`.
    fn rows(m: &'a Matrix) -> Self {
        Operand {
            data: m.as_slice(),
            lanes: m.rows(),
            depth: m.cols(),
            lane_stride: m.cols(),
            step_stride: 1,
        }
    }

    /// The columns of `m` are the lanes: `b` in `a·b`, `a` in `aᵀ·b`.
    fn cols(m: &'a Matrix) -> Self {
        Operand {
            data: m.as_slice(),
            lanes: m.cols(),
            depth: m.rows(),
            lane_stride: 1,
            step_stride: m.cols(),
        }
    }

    fn at(&self, lane: usize, kk: usize) -> f32 {
        self.data[lane * self.lane_stride + kk * self.step_stride]
    }

    /// Packs steps `k0..k0 + kc` of lanes `first..first + W` into `panel`
    /// as `kc × W`, every value stored `REP` times over
    /// (`panel[(kk * W + l) * REP + r]`) — the layouts [`register_tile`]
    /// streams. Lanes past the operand's edge repeat its last one; their
    /// products land in accumulator slots the caller never stores.
    fn pack<const W: usize, const REP: usize>(
        &self,
        first: usize,
        k0: usize,
        kc: usize,
        panel: &mut [f32],
    ) {
        let steps = panel[..kc * W * REP].chunks_exact_mut(W * REP);
        if self.lane_stride == 1 && first + W <= self.lanes {
            // A full panel of adjacent lanes: each `k` step is one run of
            // `W` values in the source.
            for (kk, step) in (k0..).zip(steps) {
                let src = &self.data[first + kk * self.step_stride..][..W];
                for (dst, &v) in step.chunks_exact_mut(REP).zip(src) {
                    dst.fill(v);
                }
            }
            return;
        }
        let lanes: [usize; W] = std::array::from_fn(|l| (first + l).min(self.lanes - 1));
        for (kk, step) in (k0..).zip(steps) {
            for (dst, lane) in step.chunks_exact_mut(REP).zip(lanes) {
                dst.fill(self.at(lane, kk));
            }
        }
    }
}

std::thread_local! {
    /// Packing scratch of [`fast_gemm`], kept per thread so steady-state
    /// calls allocate nothing: one block of packed left rows followed by
    /// one right panel.
    static GEMM_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The fast GEMM: `out[i][j] = Σ_k a.lane(i)[k] · b.lane(j)[k]`,
/// row-parallel over the output. Fewer than `MR` rows in the whole
/// product is the GEMV case, where packing would cost as much as the
/// multiply: those take [`axpy_rows`] unpacked, everything else
/// [`tiled_rows`]. Either way each output element is one ascending-`k`
/// chain from `0.0` with no term skipped, so results are bit-identical to
/// the Scalar reference.
fn fast_gemm(a: Operand, b: Operand) -> Matrix {
    let (m, kdim, n) = (a.lanes, a.depth, b.lanes);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || kdim == 0 {
        return out;
    }
    // Each output row costs kdim · n MACs, far more than the n elements
    // it holds — weight the fan-out decision accordingly.
    for_each_row_chunk_weighted(out.as_mut_slice(), n, kdim * n, |first_row, chunk| {
        if m < MR {
            axpy_rows(a, b, first_row, chunk);
        } else {
            GEMM_SCRATCH.with_borrow_mut(|s| tiled_rows(a, b, first_row, chunk, s));
        }
    });
    out
}

/// The packed path of [`fast_gemm`] over one worker's rows: [`BLOCK_ROWS`]
/// at a time and, inside a block, the reduction [`K_BLOCK`] steps at a
/// time in ascending order. Each `a` block is packed into `K_BLOCK × MR`
/// panels; every `NR`-column panel of `b` — packed once per block, reused
/// by all its rows — then meets each row panel in [`register_tile`], which
/// picks the outputs up where the previous `k` block stored them (a store
/// and reload is exact, so the chain is unbroken).
fn tiled_rows(a: Operand, b: Operand, first_row: usize, chunk: &mut [f32], scratch: &mut Vec<f32>) {
    let (kdim, n) = (a.depth, b.lanes);
    scratch.resize(K_BLOCK * (BLOCK_ROWS * A_REP + NR), 0.0);
    let (a_block, b_panel) = scratch.split_at_mut(K_BLOCK * BLOCK_ROWS * A_REP);
    for (bi, out_block) in chunk.chunks_mut(BLOCK_ROWS * n).enumerate() {
        let block_row = first_row + bi * BLOCK_ROWS;
        let panels = (out_block.len() / n).div_ceil(MR);
        for k0 in (0..kdim).step_by(K_BLOCK) {
            let kc = K_BLOCK.min(kdim - k0);
            let a_block = &mut a_block[..panels * kc * MR * A_REP];
            for (p, panel) in a_block.chunks_exact_mut(kc * MR * A_REP).enumerate() {
                a.pack::<MR, A_REP>(block_row + p * MR, k0, kc, panel);
            }
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                b.pack::<NR, 1>(j0, k0, kc, b_panel);
                let a_panels = a_block.chunks_exact(kc * MR * A_REP);
                for (a_panel, out_rows) in a_panels.zip(out_block.chunks_mut(MR * n)) {
                    let mut acc = [[0.0f32; NR]; MR];
                    for (arow, orow) in acc.iter_mut().zip(out_rows.chunks_exact(n)) {
                        arow[..nr].copy_from_slice(&orow[j0..j0 + nr]);
                    }
                    acc = register_tile(a_panel, &b_panel[..kc * NR], acc);
                    for (orow, arow) in out_rows.chunks_exact_mut(n).zip(&acc) {
                        orow[j0..j0 + nr].copy_from_slice(&arow[..nr]);
                    }
                }
            }
        }
    }
}

/// The microkernel: an `MR × NR` block of outputs carried in registers
/// across one block of the `k` reduction. One packed `a` step is `MR`
/// scalars, each already spread over a vector's worth of slots, so
/// `acc[r] += a[r] · b` is multiply-add on whole registers with no
/// broadcast shuffle competing for the arithmetic ports. The fixed-size
/// inner loops are what the autovectorizer lowers.
#[inline(always)]
fn register_tile(a: &[f32], b: &[f32], mut acc: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    for (ak, bk) in a.chunks_exact(MR * A_REP).zip(b.chunks_exact(NR)) {
        for r in 0..MR {
            for l in 0..NR {
                acc[r][l] += ak[r * A_REP + l % A_REP] * bk[l];
            }
        }
    }
    acc
}

/// GEMV-shaped products (`m < MR`): each output row is the sum over `k`
/// of `a[i][k] · b[k][..]`, read from the operands where they lie.
fn axpy_rows(a: Operand, b: Operand, first_row: usize, chunk: &mut [f32]) {
    let n = b.lanes;
    for (ci, orow) in chunk.chunks_exact_mut(n).enumerate() {
        for kk in 0..a.depth {
            let aik = a.at(first_row + ci, kk);
            if b.lane_stride == 1 {
                let brow = &b.data[kk * b.step_stride..][..n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aik * bkj;
                }
            } else {
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += aik * b.at(j, kk);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row-wise and elementwise ops
// ---------------------------------------------------------------------------

/// Row-wise softmax (row-parallel).
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    let cols = x.cols();
    for_each_row_chunk(out.as_mut_slice(), cols, |_, chunk| {
        for row in chunk.chunks_mut(cols) {
            softmax_row(row);
        }
    });
    out
}

/// Backward of a row-wise softmax: given probabilities `p` and upstream
/// gradient `dp`, returns `ds` where
/// `ds = p ⊙ (dp − rowsum(dp ⊙ p))`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn softmax_backward(probs: &Matrix, dp: &Matrix) -> Matrix {
    assert_eq!(probs.shape(), dp.shape(), "softmax_backward shape mismatch");
    let cols = probs.cols();
    let mut out = Matrix::zeros(probs.rows(), cols);
    if cols == 0 {
        return out;
    }
    let pv = probs.as_slice();
    let dv = dp.as_slice();
    for_each_row_chunk(out.as_mut_slice(), cols, |first_row, chunk| {
        for (ci, orow) in chunk.chunks_mut(cols).enumerate() {
            let base = (first_row + ci) * cols;
            let prow = &pv[base..base + cols];
            let drow = &dv[base..base + cols];
            let mut dot = 0.0f32;
            for (p, d) in prow.iter().zip(drow.iter()) {
                dot += p * d;
            }
            for ((o, &p), &d) in orow.iter_mut().zip(prow).zip(drow) {
                *o = p * (d - dot);
            }
        }
    });
    out
}

/// Row-wise LayerNorm, inference form (row-parallel).
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from `x.cols()`.
pub fn layernorm_rows(x: &Matrix, gamma: &[f32], beta: &[f32], eps: f32) -> Matrix {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    let cols = x.cols();
    let mut out = x.clone();
    if cols == 0 {
        return out;
    }
    let normalise = |row: &mut [f32]| {
        let n = row.len() as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + eps).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv * gamma[i] + beta[i];
        }
    };
    for_each_row_chunk(out.as_mut_slice(), cols, |_, chunk| {
        for row in chunk.chunks_mut(cols) {
            normalise(row);
        }
    });
    out
}

/// Training-mode LayerNorm forward: returns `(out, normed, inv_std)`
/// where `normed` caches the pre-scale normalised activations and
/// `inv_std` the per-row `1/σ`, both needed by
/// [`layernorm_backward`].
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from `x.cols()`.
pub fn layernorm_train_forward(
    x: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> (Matrix, Matrix, Vec<f32>) {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    let (rows, cols) = x.shape();
    let mut out = Matrix::zeros(rows, cols);
    let mut normed = Matrix::zeros(rows, cols);
    let mut inv_std = vec![0.0f32; rows];
    if rows == 0 || cols == 0 {
        return (out, normed, inv_std);
    }
    let xv = x.as_slice();
    // Per-row statistics (two reductions per row) fan out like the
    // elementwise passes that follow, so no stage of the op serialises.
    let stats = par_map_collect(rows, cols * 3, |r| {
        let row = &xv[r * cols..(r + 1) * cols];
        let n = cols as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        (mean, 1.0 / (var + eps).sqrt())
    });
    let mut means = vec![0.0f32; rows];
    for (r, &(mean, inv)) in stats.iter().enumerate() {
        means[r] = mean;
        inv_std[r] = inv;
    }
    for_each_row_chunk(normed.as_mut_slice(), cols, |first_row, chunk| {
        for (ci, nrow) in chunk.chunks_mut(cols).enumerate() {
            let r = first_row + ci;
            let xrow = &xv[r * cols..(r + 1) * cols];
            for (n, &xval) in nrow.iter_mut().zip(xrow.iter()) {
                *n = (xval - means[r]) * inv_std[r];
            }
        }
    });
    let nv = normed.as_slice();
    for_each_row_chunk(out.as_mut_slice(), cols, |first_row, chunk| {
        for (ci, orow) in chunk.chunks_mut(cols).enumerate() {
            let base = (first_row + ci) * cols;
            for (c, o) in orow.iter_mut().enumerate() {
                *o = nv[base + c] * gamma[c] + beta[c];
            }
        }
    });
    (out, normed, inv_std)
}

/// Backward of [`layernorm_train_forward`]: returns `(gx, ggamma, gbeta)`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn layernorm_backward(
    gout: &Matrix,
    normed: &Matrix,
    inv_std: &[f32],
    gamma: &[f32],
) -> (Matrix, Matrix, Matrix) {
    let (rows, cols) = gout.shape();
    assert_eq!(normed.shape(), (rows, cols), "normed shape mismatch");
    assert_eq!(inv_std.len(), rows, "inv_std length mismatch");
    assert_eq!(gamma.len(), cols, "gamma length mismatch");
    let mut gx = Matrix::zeros(rows, cols);
    let mut ggamma = Matrix::zeros(1, cols);
    let mut gbeta = Matrix::zeros(1, cols);
    if rows == 0 || cols == 0 {
        return (gx, ggamma, gbeta);
    }
    let gv = gout.as_slice();
    let nv = normed.as_slice();
    // gx is row-parallel; the 1×c parameter gradients are column
    // reductions over rows and stay sequential (they are O(rows·cols)
    // adds on 1×c outputs — cheap next to the gx pass).
    for_each_row_chunk(gx.as_mut_slice(), cols, |first_row, chunk| {
        let n = cols as f32;
        for (ci, grow) in chunk.chunks_mut(cols).enumerate() {
            let r = first_row + ci;
            let base = r * cols;
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for c in 0..cols {
                let d = gv[base + c] * gamma[c];
                sum_dxhat += d;
                sum_dxhat_xhat += d * nv[base + c];
            }
            for (c, g) in grow.iter_mut().enumerate() {
                let d = gv[base + c] * gamma[c];
                let xh = nv[base + c];
                *g = inv_std[r] / n * (n * d - sum_dxhat - xh * sum_dxhat_xhat);
            }
        }
    });
    {
        let gg = ggamma.as_mut_slice();
        let gb = gbeta.as_mut_slice();
        for r in 0..rows {
            let base = r * cols;
            for c in 0..cols {
                gg[c] += gv[base + c] * nv[base + c];
                gb[c] += gv[base + c];
            }
        }
    }
    (gx, ggamma, gbeta)
}

/// Broadcast-adds a bias row to every row of `x` (row-parallel).
///
/// # Panics
///
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias(x: &Matrix, bias: &[f32]) -> Matrix {
    assert_eq!(bias.len(), x.cols(), "bias length mismatch");
    let cols = x.cols();
    let mut out = x.clone();
    for_each_row_chunk(out.as_mut_slice(), cols, |_, chunk| {
        for row in chunk.chunks_mut(cols) {
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    });
    out
}

/// Column sums as a `1 × cols` matrix (the gradient of a broadcast bias).
pub fn col_sums(x: &Matrix) -> Matrix {
    let (rows, cols) = x.shape();
    let mut out = Matrix::zeros(1, cols);
    let xv = x.as_slice();
    let ov = out.as_mut_slice();
    for r in 0..rows {
        for (o, &v) in ov.iter_mut().zip(&xv[r * cols..(r + 1) * cols]) {
            *o += v;
        }
    }
    out
}

/// Column means as a `1 × cols` matrix.
pub fn mean_rows(x: &Matrix) -> Matrix {
    let rows = x.rows().max(1) as f32;
    let mut out = col_sums(x);
    let inv = 1.0 / rows;
    for v in out.as_mut_slice() {
        *v *= inv;
    }
    out
}

/// Repeats a `1 × cols` row `rows` times, scaled by `scale` (the backward
/// of [`mean_rows`] uses `scale = 1/rows`).
///
/// # Panics
///
/// Panics if `row` is not a single row.
pub fn broadcast_row(row: &Matrix, rows: usize, scale: f32) -> Matrix {
    assert_eq!(row.rows(), 1, "broadcast_row needs a 1 x c matrix");
    let cols = row.cols();
    let mut out = Matrix::zeros(rows, cols);
    let rv = row.as_slice();
    for_each_row_chunk(out.as_mut_slice(), cols, |_, chunk| {
        for orow in chunk.chunks_mut(cols) {
            for (o, &v) in orow.iter_mut().zip(rv.iter()) {
                *o = v * scale;
            }
        }
    });
    out
}

/// Elementwise map (row-parallel).
pub fn map(x: &Matrix, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
    let mut out = x.clone();
    for_each_row_chunk(out.as_mut_slice(), x.cols().max(1), |_, chunk| {
        for v in chunk {
            *v = f(*v);
        }
    });
    out
}

/// Elementwise binary map `f(a[i], b[i])` (row-parallel).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn zip_map(a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "zip_map shape mismatch");
    let cols = a.cols().max(1);
    let mut out = a.clone();
    let bv = b.as_slice();
    for_each_row_chunk(out.as_mut_slice(), cols, |first_row, chunk| {
        let base = first_row * cols;
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = f(*v, bv[base + i]);
        }
    });
    out
}

/// Adds an additive attention-mask bias in place: finite entries add to
/// the score, `-inf` entries force the score to `-inf` (an exactly-zero
/// probability after softmax).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn apply_mask_bias(scores: &mut Matrix, bias: &Matrix) {
    assert_eq!(scores.shape(), bias.shape(), "mask shape mismatch");
    let cols = scores.cols();
    let bv = bias.as_slice();
    for_each_row_chunk(scores.as_mut_slice(), cols.max(1), |first_row, chunk| {
        let base = first_row * cols.max(1);
        for (i, s) in chunk.iter_mut().enumerate() {
            let b = bv[base + i];
            if b == f32::NEG_INFINITY {
                *s = f32::NEG_INFINITY;
            } else {
                *s += b;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Head-mixing (the ViTCoD auto-encoder primitive)
// ---------------------------------------------------------------------------

/// Head-dimension mixing: with `a` of shape `n × (h_in·dk)` and `w` of
/// shape `h_in × h_out`, output head `j` is `Σ_i w[i,j] · head_i`
/// (token-row-parallel).
///
/// # Panics
///
/// Panics if `a.cols() != w.rows() · dk`.
pub fn head_mix(a: &Matrix, w: &Matrix, dk: usize) -> Matrix {
    let (h_in, h_out) = w.shape();
    assert_eq!(a.cols(), h_in * dk, "input cols must equal h_in * dk");
    let n = a.rows();
    let mut out = Matrix::zeros(n, h_out * dk);
    if n == 0 || h_out == 0 || dk == 0 {
        return out;
    }
    let av = a.as_slice();
    let wv = w.as_slice();
    let in_cols = h_in * dk;
    let out_cols = h_out * dk;
    for_each_row_chunk_weighted(
        out.as_mut_slice(),
        out_cols,
        in_cols * h_out,
        |first_row, chunk| {
            for (ci, orow) in chunk.chunks_mut(out_cols).enumerate() {
                let arow = &av[(first_row + ci) * in_cols..(first_row + ci + 1) * in_cols];
                for j in 0..h_out {
                    let oseg = &mut orow[j * dk..(j + 1) * dk];
                    for i in 0..h_in {
                        let wij = wv[i * h_out + j];
                        if wij == 0.0 {
                            continue;
                        }
                        let aseg = &arow[i * dk..(i + 1) * dk];
                        for (o, &x) in oseg.iter_mut().zip(aseg.iter()) {
                            *o += wij * x;
                        }
                    }
                }
            }
        },
    );
    out
}

/// Backward of [`head_mix`]: returns `(ga, gw)` for upstream gradient
/// `gout` of shape `n × (h_out·dk)`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn head_mix_backward(a: &Matrix, w: &Matrix, dk: usize, gout: &Matrix) -> (Matrix, Matrix) {
    let (h_in, h_out) = w.shape();
    let n = a.rows();
    assert_eq!(a.cols(), h_in * dk, "input cols must equal h_in * dk");
    assert_eq!(gout.shape(), (n, h_out * dk), "gout shape mismatch");
    let in_cols = h_in * dk;
    let out_cols = h_out * dk;
    let av = a.as_slice();
    let wv = w.as_slice();
    let gv = gout.as_slice();
    // d_in[t, i·dk+f] = Σ_j gout[t, j·dk+f] · w[i,j] — token-row-parallel.
    let mut ga = Matrix::zeros(n, in_cols);
    for_each_row_chunk_weighted(
        ga.as_mut_slice(),
        in_cols.max(1),
        in_cols * h_out,
        |first_row, chunk| {
            for (ci, grow) in chunk.chunks_mut(in_cols).enumerate() {
                let gorow = &gv[(first_row + ci) * out_cols..(first_row + ci + 1) * out_cols];
                for i in 0..h_in {
                    let gseg = &mut grow[i * dk..(i + 1) * dk];
                    for j in 0..h_out {
                        let wij = wv[i * h_out + j];
                        if wij == 0.0 {
                            continue;
                        }
                        let goseg = &gorow[j * dk..(j + 1) * dk];
                        for (g, &go) in gseg.iter_mut().zip(goseg.iter()) {
                            *g += go * wij;
                        }
                    }
                }
            }
        },
    );
    // dW[i,j] = Σ_{t,f} a[t, i·dk+f] · gout[t, j·dk+f] — small output,
    // sequential accumulation over tokens.
    let mut gw = Matrix::zeros(h_in, h_out);
    {
        let gwv = gw.as_mut_slice();
        for t in 0..n {
            let arow = &av[t * in_cols..(t + 1) * in_cols];
            let gorow = &gv[t * out_cols..(t + 1) * out_cols];
            for i in 0..h_in {
                let aseg = &arow[i * dk..(i + 1) * dk];
                for j in 0..h_out {
                    let goseg = &gorow[j * dk..(j + 1) * dk];
                    let mut acc = 0.0f32;
                    for (&x, &go) in aseg.iter().zip(goseg.iter()) {
                        acc += x * go;
                    }
                    gwv[i * h_out + j] += acc;
                }
            }
        }
    }
    (ga, gw)
}

// ---------------------------------------------------------------------------
// Attention
// ---------------------------------------------------------------------------

/// Forward pass of one attention head:
/// `softmax(q·kᵀ·scale + mask_bias) · v`; returns `(out, probs)`.
///
/// # Panics
///
/// Panics if `q`/`k` feature dims differ, `k`/`v` token counts differ, or
/// the mask is not `q.rows() × k.rows()`.
pub fn attention_head(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
    mask_bias: Option<&Matrix>,
) -> (Matrix, Matrix) {
    assert_eq!(q.cols(), k.cols(), "q/k feature dims differ");
    assert_eq!(k.rows(), v.rows(), "k/v token counts differ");
    let mut scores = matmul_nt(q, k);
    for s in scores.as_mut_slice() {
        *s *= scale;
    }
    if let Some(bias) = mask_bias {
        assert_eq!(
            bias.shape(),
            (q.rows(), k.rows()),
            "mask shape must be q.rows x k.rows"
        );
        apply_mask_bias(&mut scores, bias);
    }
    let probs = softmax_rows(&scores);
    let out = matmul(&probs, v);
    (out, probs)
}

/// Backward pass of one attention head given its cached `probs`; returns
/// `(gq, gk, gv)`.
pub fn attention_head_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f32,
    probs: &Matrix,
    gout: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    // dV = Pᵀ · dO
    let gv = matmul_tn(probs, gout);
    // dP = dO · Vᵀ
    let dp = matmul_nt(gout, v);
    // dS = P ⊙ (dP − rowsum(dP ⊙ P))
    let mut ds = softmax_backward(probs, &dp);
    // dQ = dS·K·scale ; dK = dSᵀ·Q·scale — fold the scale into dS once.
    for s in ds.as_mut_slice() {
        *s *= scale;
    }
    let gq = matmul(&ds, k);
    let gk = matmul_tn(&ds, q);
    (gq, gk, gv)
}

/// Result of [`multi_head_attention`].
#[derive(Debug, Clone)]
pub struct MhaForward {
    /// Concatenated head outputs, `n × (h·dk)`.
    pub out: Matrix,
    /// Per-head probability matrices, each `n × n`.
    pub probs: Vec<Matrix>,
}

/// Fused multi-head attention forward over head-fused `q`/`k`/`v` of
/// shape `n × (h·dk)`: heads fan out across worker threads, each running
/// [`attention_head`] on its column stripe.
///
/// `masks[h]`, when present, is the additive bias for head `h` (`0` kept,
/// `-inf` pruned); pass an empty slice for all-dense heads.
///
/// Forward only. The tape's one attention op runs [`attention_head`] /
/// [`attention_head_backward`] per `(sample, head)` itself, so nothing in
/// the product calls this; it outlives its backward because the
/// benchmark of record times it as `tensor.attn_dense_s` and the tape
/// tests compare the op against it. Repoint the probe at the next
/// `[benchmark]` PR, then delete it.
///
/// # Panics
///
/// Panics if shapes are inconsistent, `q.cols()` is not a multiple of
/// `dk`, or `masks` is non-empty but shorter than the head count.
pub fn multi_head_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    dk: usize,
    scale: f32,
    masks: &[Option<Matrix>],
) -> MhaForward {
    assert!(dk > 0, "dk must be positive");
    assert_eq!(q.shape(), k.shape(), "q/k shapes differ");
    assert_eq!(q.shape(), v.shape(), "q/v shapes differ");
    assert_eq!(q.cols() % dk, 0, "cols must be a multiple of dk");
    let heads = q.cols() / dk;
    assert!(
        masks.is_empty() || masks.len() >= heads,
        "masks must cover all heads"
    );
    let n = q.rows();
    // Per-head cost: two n×n×dk GEMMs plus the softmax.
    let per_head = par_map_collect(heads, 2 * n * n * dk, |h| {
        let c0 = h * dk;
        let qh = q.submatrix(0, n, c0, c0 + dk);
        let kh = k.submatrix(0, n, c0, c0 + dk);
        let vh = v.submatrix(0, n, c0, c0 + dk);
        let bias = masks.get(h).and_then(|m| m.as_ref());
        attention_head(&qh, &kh, &vh, scale, bias)
    });
    let outs: Vec<&Matrix> = per_head.iter().map(|(o, _)| o).collect();
    let out = Matrix::hcat(&outs);
    let probs = per_head.into_iter().map(|(_, p)| p).collect();
    MhaForward { out, probs }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical kernel replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::Initializer;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        Initializer::Normal { std: 1.0 }.sample(rows, cols, seed)
    }

    #[test]
    fn backends_agree_bitwise_on_all_gemm_flavours() {
        // A smoke test of the axpy path, ragged tiles and two `k` blocks;
        // tests/backend_props.rs sweeps every tile edge.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (65, 33, 17), (197, 192, 64)] {
            let a = random(m, k, 1);
            let b = random(k, n, 2);
            assert_eq!(
                matmul_with(Backend::Fast, &a, &b),
                matmul_with(Backend::Scalar, &a, &b),
                "nn shape ({m},{k},{n})"
            );
            let bt = random(n, k, 3);
            assert_eq!(
                matmul_nt_with(Backend::Fast, &a, &bt),
                matmul_nt_with(Backend::Scalar, &a, &bt),
                "nt shape ({m},{k},{n})"
            );
            let at = random(k, m, 4);
            assert_eq!(
                matmul_tn_with(Backend::Fast, &at, &b),
                matmul_tn_with(Backend::Scalar, &at, &b),
                "tn shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn backend_parses_from_str() {
        assert_eq!("scalar".parse(), Ok(Backend::Scalar));
        assert_eq!(" Fast ".parse(), Ok(Backend::Fast));
        assert_eq!(Backend::Fast.to_string().parse(), Ok(Backend::Fast));
        // The retired names are not aliases.
        for retired in ["blocked", "simd", "avx512"] {
            let err = retired.parse::<Backend>().expect_err(retired);
            assert!(err.contains("scalar | fast"), "{err}");
            assert!(err.contains(retired), "{err}");
        }
    }

    #[test]
    fn mistyped_backend_variable_is_reported_not_swallowed() {
        assert_eq!(resolve_backend(None), (Backend::Fast, None));
        assert_eq!(resolve_backend(Some("scalar")), (Backend::Scalar, None));
        let (used, complaint) = resolve_backend(Some("scaler"));
        assert_eq!(used, Backend::Fast);
        let line = complaint.expect("an unknown value owes a stderr line");
        for part in ["'scaler'", "scalar | fast", "using 'fast'"] {
            assert!(line.contains(part) && !line.contains('\n'), "{line}");
        }
    }

    #[test]
    fn mistyped_thread_budget_variable_is_reported_not_swallowed() {
        assert_eq!(resolve_threads(None), (None, None));
        assert_eq!(resolve_threads(Some("4")), (Some(4), None));
        for bad in ["one", "0", "-1", ""] {
            let (used, complaint) = resolve_threads(Some(bad));
            assert_eq!(
                used, None,
                "'{bad}' must fall back to the machine's parallelism"
            );
            let line = complaint.expect("an unusable value owes a stderr line");
            let quoted = format!("'{bad}'");
            for part in [quoted.as_str(), "positive integer", "available parallelism"] {
                assert!(line.contains(part) && !line.contains('\n'), "{line}");
            }
        }
    }

    #[test]
    fn transpose_matches_naive() {
        let a = random(37, 61, 6);
        assert_eq!(
            transpose_with(Backend::Fast, &a),
            transpose_with(Backend::Scalar, &a)
        );
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let a = Matrix::zeros(1, 0);
        let b = Matrix::zeros(0, 5);
        assert_eq!(matmul(&a, &b), Matrix::zeros(1, 5));
        assert_eq!(transpose(&Matrix::zeros(0, 7)).shape(), (7, 0));
    }

    #[test]
    fn forced_multithread_path_is_identical() {
        // Shapes big enough to clear MIN_WORK_PER_THREAD so the scoped
        // fan-out genuinely runs with several workers.
        let a = random(256, 256, 7);
        let b = random(256, 256, 8);
        let soft_input = random(1024, 512, 9);
        let run = || {
            (
                matmul_with(Backend::Fast, &a, &b),
                softmax_rows(&soft_input),
            )
        };
        let sequential = with_thread_budget(1, run);
        let parallel = with_thread_budget(4, || {
            assert_eq!(effective_threads(256, 256 * 256), 4);
            run()
        });
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn small_kernels_stay_sequential() {
        // A ViT-scale softmax row block is ~40k elements — below the
        // fan-out threshold, so no threads should spawn for it.
        let threads = with_thread_budget(8, || effective_threads(197, 197));
        assert_eq!(threads, 1);
    }

    #[test]
    fn softmax_backward_matches_tape_formula() {
        let p = softmax_rows(&random(5, 9, 9));
        let dp = random(5, 9, 10);
        let ds = softmax_backward(&p, &dp);
        for r in 0..5 {
            let mut dot = 0.0f32;
            for c in 0..9 {
                dot += dp.get(r, c) * p.get(r, c);
            }
            for c in 0..9 {
                let want = p.get(r, c) * (dp.get(r, c) - dot);
                assert!((ds.get(r, c) - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn head_mix_identity_is_noop() {
        let x = random(6, 4 * 3, 11);
        let w = Matrix::identity(4);
        assert!(head_mix(&x, &w, 3).max_abs_diff(&x) < 1e-7);
    }

    #[test]
    fn head_mix_backward_matches_finite_difference() {
        let a = random(3, 2 * 2, 12);
        let w = random(2, 3, 13);
        let gout = random(3, 3 * 2, 14);
        let (ga, gw) = head_mix_backward(&a, &w, 2, &gout);
        let loss = |a: &Matrix, w: &Matrix| {
            let y = head_mix(a, w, 2);
            y.as_slice()
                .iter()
                .zip(gout.as_slice())
                .map(|(y, g)| y * g)
                .sum::<f32>()
        };
        let h = 1e-2;
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let mut ap = a.clone();
                ap.set(r, c, a.get(r, c) + h);
                let mut am = a.clone();
                am.set(r, c, a.get(r, c) - h);
                let fd = (loss(&ap, &w) - loss(&am, &w)) / (2.0 * h);
                assert!((fd - ga.get(r, c)).abs() < 1e-2, "ga({r},{c})");
            }
        }
        for r in 0..w.rows() {
            for c in 0..w.cols() {
                let mut wp = w.clone();
                wp.set(r, c, w.get(r, c) + h);
                let mut wm = w.clone();
                wm.set(r, c, w.get(r, c) - h);
                let fd = (loss(&a, &wp) - loss(&a, &wm)) / (2.0 * h);
                assert!((fd - gw.get(r, c)).abs() < 1e-2, "gw({r},{c})");
            }
        }
    }

    #[test]
    fn multi_head_attention_matches_per_head_composition() {
        let n = 8;
        let dk = 4;
        let heads = 3;
        let q = random(n, heads * dk, 15);
        let k = random(n, heads * dk, 16);
        let v = random(n, heads * dk, 17);
        let mut mask = Matrix::zeros(n, n);
        mask.set(2, 5, f32::NEG_INFINITY);
        let masks = vec![None, Some(mask.clone()), None];
        let fused = multi_head_attention(&q, &k, &v, dk, 0.5, &masks);
        for (h, mask) in masks.iter().enumerate() {
            let c0 = h * dk;
            let qh = q.submatrix(0, n, c0, c0 + dk);
            let kh = k.submatrix(0, n, c0, c0 + dk);
            let vh = v.submatrix(0, n, c0, c0 + dk);
            let (out_h, probs_h) = attention_head(&qh, &kh, &vh, 0.5, mask.as_ref());
            assert_eq!(fused.probs[h], probs_h, "head {h} probs");
            assert_eq!(
                fused.out.submatrix(0, n, c0, c0 + dk),
                out_h,
                "head {h} out"
            );
        }
        assert_eq!(fused.probs[1].get(2, 5), 0.0, "masked position");
    }

    #[test]
    fn par_segments_covers_every_segment() {
        let mut data: Vec<u32> = vec![0; 10];
        par_segments(&mut data, &[0, 3, 3, 7, 10], |i, seg| {
            for v in seg {
                *v = i as u32 + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 3, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn thread_budget_caps_and_restores() {
        let inside = with_thread_budget(2, || {
            assert_eq!(num_threads(), 2);
            let nested = with_thread_budget(5, num_threads);
            assert_eq!(nested, 5);
            assert_eq!(num_threads(), 2, "nested cap must restore");
            effective_threads(1024, 1 << 20)
        });
        assert_eq!(inside, 2);
    }

    #[test]
    fn nested_fanout_inherits_divided_budget_and_backend() {
        // 4 items of heavy work under a budget of 4 → 4 workers, each
        // inheriting a budget of 4/4 = 1 and the caller's backend
        // override, so nested kernels can neither oversubscribe nor
        // escape a pinned backend.
        let seen = with_backend_override(Backend::Scalar, || {
            with_thread_budget(4, || {
                par_map_collect(4, 1 << 20, |_| (num_threads(), backend()))
            })
        });
        assert_eq!(seen.len(), 4);
        for (budget, b) in seen {
            assert_eq!(budget, 1, "worker budget not divided");
            assert_eq!(b, Backend::Scalar, "backend override not inherited");
        }
    }

    #[test]
    fn backend_override_scopes_and_survives_panics() {
        let ambient = backend();
        let inside = with_backend_override(Backend::Scalar, backend);
        assert_eq!(inside, Backend::Scalar);
        assert_eq!(backend(), ambient, "override must restore on exit");
        let result =
            std::panic::catch_unwind(|| with_backend_override(Backend::Scalar, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(backend(), ambient, "override must restore on panic");
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let v = with_thread_budget(3, || par_map_collect(10, 1 << 20, |i| i * i));
        assert_eq!(v, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_collect_reraises_the_workers_panic_payload() {
        let result = std::panic::catch_unwind(|| {
            with_thread_budget(4, || {
                par_map_collect(4, 1 << 20, |i| assert_ne!(i, 2, "q/k feature dims differ"))
            })
        });
        let payload = result.expect_err("item 2 panics on a spawned worker");
        let message = payload.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("q/k feature dims differ"), "{message}");
    }
}
