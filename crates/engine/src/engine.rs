//! The batched serving engine: a tape-free forward over a frozen
//! [`CompiledVit`].

use std::sync::Arc;
use std::time::Instant;

use vitcod_autograd::LAYERNORM_EPS;
use vitcod_model::Sample;
use vitcod_tensor::sparse;
use vitcod_tensor::{argmax, gelu, int8_gemm, int8_gemm_window, kernels, Matrix, QuantizedRows};

use crate::compiled::{CompiledLayer, CompiledVit, HeadPlan, SiteWeight};
use crate::profile::{
    OpClock, OpProfile, Untimed, WallClock, OP_FC1, OP_FC2, OP_OUT_PROJ, OP_QKV, OP_SCORES,
    OP_SOFTMAX, OP_SPMM,
};

/// LayerNorm epsilon, shared with the training tape so the fp32 dense
/// forward reproduces the tape's logits bit for bit.
const LN_EPS: f32 = LAYERNORM_EPS;

/// Numeric precision of the serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full fp32: bit-identical to the training tape's forward on dense
    /// models.
    #[default]
    Fp32,
    /// 8-bit weights, 8-bit projection GEMMs and 8-bit attention
    /// scores. The four projection sites of a layer — fused QKV,
    /// attention output, both MLP matrices — are quantized per tensor,
    /// packed for the i8×i8→i32 GEMM ([`vitcod_tensor::int8_gemm`]) and
    /// held **only** packed (2 B per weight resident; the fp32 matrix
    /// is freed at build or never made at load). Q and KV are two
    /// column windows of the one packed `[Wq | Wk | Wv]`
    /// ([`vitcod_tensor::int8_gemm_window`]), so they read its one
    /// scale and its codes. The matrices the
    /// forward still reads as fp32 — patch embedding, positional
    /// embedding, classifier, AE mixers — are round-tripped through
    /// the same quantization at build time: the values an int8
    /// artifact carries. The projections run against per-row-quantized
    /// activations, each activation tensor quantized **once per layer**
    /// and shared by every consumer — the Q and KV GEMMs, and attention
    /// Q/K, since per-row scales survive per-head column slicing. A Q
    /// cut to fewer rows than KV quantizes its rows on their own, to the
    /// same codes. Attention scores use i32 accumulation, the
    /// accelerator MAC lines' arithmetic.
    /// Softmax, GELU, residuals and LayerNorm stay fp32, as the paper's
    /// softmax units do.
    Int8,
}

impl std::fmt::Display for Precision {
    /// The wire name used in artifacts, `/v1/reload` bodies and metric
    /// labels: `fp32` or `int8`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::Fp32 => "fp32",
            Precision::Int8 => "int8",
        })
    }
}

/// One classification result.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class (argmax of `logits`).
    pub class: usize,
    /// Raw class logits.
    pub logits: Vec<f32>,
}

/// Builder for [`Engine`]; see [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    compiled: Arc<CompiledVit>,
    precision: Precision,
}

impl EngineBuilder {
    /// Selects the numeric precision (default [`Precision::Fp32`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Finalises the engine: every projection site ends up holding the
    /// one form of its weight `precision` reads (see
    /// [`crate::SiteWeight`]).
    ///
    /// An fp32 build over fp32 sites never copies the weights: the
    /// engine shares the builder's `Arc`'d artifact, so any number of
    /// engines (and any number of serving workers behind them) hold the
    /// same frozen scalars. An [`Precision::Int8`] build is where
    /// weights are quantized — sites still fp32 are packed for the int8
    /// GEMM one at a time, each matrix freed before the next is packed
    /// (sites loaded from an int8 artifact are already packed and keep
    /// those identical bytes), so the engine never holds a projection
    /// twice. An fp32 build over an int8 artifact dequantizes its sites
    /// the same way. A uniquely owned artifact (what [`Engine::builder`]
    /// makes) is converted in place; a shared one is left untouched and
    /// the engine converts its own clone of it.
    pub fn build(self) -> Engine {
        let precision = self.precision;
        let int8 = precision == Precision::Int8;
        let mut model = self.compiled;
        let mut int8_weight_bytes = None;
        if int8 || model.sites().any(|s| matches!(s, SiteWeight::Int8(_))) {
            let mut owned =
                Arc::try_unwrap(model).unwrap_or_else(|shared| CompiledVit::clone(&shared));
            let scalars = owned.lower(precision);
            int8_weight_bytes = int8.then_some(scalars);
            model = Arc::new(owned);
        }
        Engine {
            model,
            precision,
            int8_weight_bytes,
        }
    }
}

/// A compile-once / serve-many inference engine.
///
/// The engine owns an immutable [`CompiledVit`] and runs a tape-free
/// forward: no gradient bookkeeping, fused QKV weights, and sparse
/// heads executed through the real SDDMM → sparse-softmax → SpMM
/// dataflow over their pre-compiled CSC indexes (not dense `-inf`
/// masking). [`Engine::infer_batch`] fans samples across worker
/// threads; every per-sample forward is independent, so results are
/// deterministic regardless of the worker count.
///
/// The engine holds no kernel settings of its own: it runs on the
/// calling thread's thread budget (the process default
/// `VITCOD_NUM_THREADS` in practice). A caller that wants a cap scopes
/// it around the call — `kernels::with_thread_budget(w, ||
/// engine.infer_batch(..))` — and that changes no logit bit (the kernel
/// layer's agreement contract).
///
/// # Example
///
/// ```no_run
/// use vitcod_core::{PipelineConfig, ViTCoDPipeline};
/// use vitcod_engine::{CompiledVit, Engine, Precision};
/// use vitcod_model::{SyntheticTask, SyntheticTaskConfig, ViTConfig};
///
/// let task = SyntheticTask::generate(SyntheticTaskConfig::default());
/// let cfg = PipelineConfig::paper_default(
///     ViTConfig::deit_tiny().reduced_for_training());
/// let report = ViTCoDPipeline::new(cfg).run(&task);
/// let compiled = CompiledVit::from_parts(report.trainer.model(), report.trainer.store());
/// let engine = Engine::builder(compiled)
///     .precision(Precision::Fp32)
///     .build();
/// let predictions = engine.infer_batch(&task.test);
/// assert_eq!(predictions.len(), task.test.len());
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    model: Arc<CompiledVit>,
    precision: Precision,
    int8_weight_bytes: Option<usize>,
}

impl Engine {
    /// Starts building an engine over a frozen artifact.
    pub fn builder(compiled: CompiledVit) -> EngineBuilder {
        Self::builder_shared(Arc::new(compiled))
    }

    /// Starts building an engine over an already-shared artifact: several
    /// engines built from clones of the same `Arc` serve the same weight
    /// scalars without copying them. That holds for fp32 builds over
    /// fp32-held sites, which keep the `Arc` as is; a build that has to
    /// convert a site — int8 over fp32 sites, or fp32 over an artifact
    /// loaded from int8 — works on the engine's own copy, one per engine.
    pub fn builder_shared(compiled: Arc<CompiledVit>) -> EngineBuilder {
        EngineBuilder {
            compiled,
            precision: Precision::Fp32,
        }
    }

    /// The frozen artifact this engine serves.
    pub fn compiled(&self) -> &CompiledVit {
        &self.model
    }

    /// The engine's numeric precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes the int8 weight artifact occupies (1 per weight scalar);
    /// `None` under fp32.
    pub fn int8_weight_bytes(&self) -> Option<usize> {
        self.int8_weight_bytes
    }

    /// Classifies a batch of samples, fanning them across the thread
    /// budget's workers (each worker's kernels inherit its share of the
    /// budget, so the two levels never multiply into oversubscription).
    /// Results are returned in input order.
    ///
    /// # Panics
    ///
    /// Panics if a sample's token shape does not match the compiled
    /// model, with that forward's own message whichever worker ran it.
    pub fn infer_batch(&self, samples: &[Sample]) -> Vec<Prediction> {
        // A forward is far above the kernel layer's per-worker grain, so
        // the budget and the batch size alone decide the worker count.
        kernels::par_map_collect(samples.len(), usize::MAX, |i| {
            self.predict(&samples[i].tokens, &mut Untimed)
        })
    }

    /// Classifies one raw token matrix (`tokens × in_dim`, row 0 the
    /// class-token slot).
    ///
    /// # Panics
    ///
    /// Panics if the token shape does not match the compiled model.
    // vitcod-lint: allow(V006, facade API: the one-sample entry point the parity and serving suites drive)
    pub fn infer_one(&self, tokens: &Matrix) -> Prediction {
        self.predict(tokens, &mut Untimed)
    }

    /// Classifies a batch **sequentially**, timing every named compute
    /// op of every layer on a monotonic clock (see
    /// [`crate::profile::OP_NAMES`]). This is the sampled-trace slow
    /// path: neither samples nor attention heads fan out (worker
    /// interleaving would corrupt wall-clock attribution). It is the
    /// same forward body as [`Engine::infer_batch`] with a timing hook
    /// around each op — the same kernel sequence — so the logits are
    /// bitwise equal to the served ones (asserted by this crate's
    /// tests).
    pub fn infer_batch_profiled(&self, samples: &[Sample]) -> Vec<(Prediction, OpProfile)> {
        samples
            .iter()
            .map(|s| self.predict_profiled(&s.tokens))
            .collect()
    }

    /// Arithmetic ops one forward pass performs (1 MAC = 2 ops, softmax
    /// = 1 op per attention entry scored): the Q, KV, output and MLP
    /// projections and each head's `Q·Kᵀ`/`S·V` core and softmax, over
    /// the rows the forward runs them on — a sparse head's kept entries,
    /// and in the last block one query row for Q and the dense heads and
    /// one token row from `out_proj` on. Feeds the achieved-Gop/s gauge:
    /// `ops_per_sample × requests / compute_seconds / 1e9`.
    pub fn approx_ops_per_sample(&self) -> f64 {
        let cfg = self.model.config();
        let (n, d, dk) = (cfg.tokens, cfg.dim, cfg.head_dim());
        let depth = self.model.layers.len();
        let (mut macs, mut softmax) = (0, 0);
        for (i, layer) in self.model.layers.iter().enumerate() {
            let (rows, q_rows) = query_rows(layer, i + 1 == depth, n);
            // Q over the query rows, KV over every token; `out_proj`,
            // `fc1`, `fc2` over the rows carried on.
            macs += (q_rows + 2 * n) * d * d + rows * d * d * (1 + 2 * cfg.mlp_ratio);
            for head in &layer.heads {
                let entries = match head {
                    HeadPlan::Dense => q_rows * n,
                    HeadPlan::Sparse(csc) => csc.nnz(),
                };
                macs += 2 * entries * dk;
                softmax += entries;
            }
        }
        2.0 * macs as f64 + softmax as f64
    }

    fn predict<C: OpClock>(&self, tokens: &Matrix, clock: &mut C) -> Prediction {
        let logits = self.forward(tokens, clock);
        let class = argmax(&logits).unwrap_or(0);
        Prediction { class, logits }
    }

    fn predict_profiled(&self, tokens: &Matrix) -> (Prediction, OpProfile) {
        let mut clock = WallClock::default();
        let start = Instant::now();
        let prediction = self.predict(tokens, &mut clock);
        clock.profile.total_s = start.elapsed().as_secs_f64();
        (prediction, clock.profile)
    }

    /// The tape-free forward — the only one: a served and a profiled
    /// pass differ in `clock` alone, so their logits are bitwise equal.
    /// The clock times the named ops; LayerNorms, residual adds, the
    /// stem and the classifier stay unattributed (a layer's op seconds
    /// sum to strictly less than the forward total), and activation
    /// quantization is charged to the op that consumes it.
    ///
    /// Fp32 does the training tape's per-row arithmetic (same GEMM,
    /// bias, LayerNorm, GELU and per-head attention kernels in the same
    /// order, each output element one fixed reduction chain), with the
    /// last block on the class token's row alone: that block projects Q
    /// for query row 0 only (K and V for every token), attention answers
    /// that row, and `out_proj`, LN2, the MLP and both residuals run on
    /// it (see [`query_rows`]). The classifier reads nothing else, so the
    /// dense path is bit-identical to the tape's logits;
    /// [`Precision::Int8`] describes what int8 changes.
    fn forward<C: OpClock>(&self, tokens: &Matrix, clock: &mut C) -> Vec<f32> {
        let cfg = self.model.config();
        assert_eq!(
            tokens.shape(),
            (cfg.tokens, self.model.in_dim()),
            "input token shape mismatch"
        );
        let n = cfg.tokens;
        let dim = cfg.dim;
        let dk = cfg.head_dim();
        let int8 = self.precision == Precision::Int8;

        let embedded = kernels::matmul(tokens, &self.model.patch_w);
        let mut x = &kernels::add_bias(&embedded, &self.model.patch_b) + &self.model.pos_embed;

        let depth = self.model.layers.len();
        for (i, layer) in self.model.layers.iter().enumerate() {
            let (rows, q_rows) = query_rows(layer, i + 1 == depth, n);
            let normed = kernels::layernorm_rows(&x, &layer.ln1_gamma, &layer.ln1_beta, LN_EPS);
            // Q over the query rows, then KV, one dim × 2·dim GEMM, over
            // every token: two column windows of the one QKV weight. Each
            // column accumulates in the same order as its own projection
            // would, so the windows and the fusion change layout, not
            // numerics. The AE round trip feeds
            // directly into attention from the projections, so it is
            // charged to `qkv`; its heads × heads mixers are tiny and stay
            // fp32, like the paper's AE decoder.
            let (q, k, v) = clock.time(OP_QKV, || {
                let (mut q, kv) = project_qkv(&normed, q_rows, layer);
                let mut k = kv.submatrix(0, n, 0, dim);
                let v = kv.submatrix(0, n, dim, 2 * dim);
                if let Some(ae) = &layer.ae {
                    q = kernels::head_mix(&kernels::head_mix(&q, &ae.enc_q, dk), &ae.dec_q, dk);
                    k = kernels::head_mix(&kernels::head_mix(&k, &ae.enc_k, dk), &ae.dec_k, dk);
                }
                (q, k, v)
            });

            let attn = first_rows(attention(layer, &q, &k, &v, int8, dk, &*clock), rows);
            let projected = clock.time(OP_OUT_PROJ, || project(&attn, &layer.w_out, &layer.b_out));
            x = &first_rows(x, rows) + &projected;

            let normed2 = kernels::layernorm_rows(&x, &layer.ln2_gamma, &layer.ln2_beta, LN_EPS);
            let act = clock.time(OP_FC1, || {
                kernels::map(&project(&normed2, &layer.w_fc1, &layer.b_fc1), gelu)
            });
            let h2 = clock.time(OP_FC2, || project(&act, &layer.w_fc2, &layer.b_fc2));
            x = &x + &h2;
            clock.end_layer();
        }

        let cls = x.submatrix(0, 1, 0, dim);
        let (final_gamma, final_beta) = (&self.model.final_gamma, &self.model.final_beta);
        let normed = kernels::layernorm_rows(&cls, final_gamma, final_beta, LN_EPS);
        let logits = kernels::add_bias(
            &kernels::matmul(&normed, &self.model.head_w),
            &self.model.head_b,
        );
        logits.row(0).to_vec()
    }
}

/// `(rows, q_rows)` of one layer: the token rows it carries from its
/// attention output on, and the query rows it projects Q for and its
/// heads score. The classifier reads only the class token's row of the
/// last layer's output, and every op from the Q projection on reduces
/// each row on its own (int8 activations are quantized per row), so the
/// last layer keeps row 0 alone and computes the same bits for it; its K
/// and V still take every row. A sparse head's CSC kernels take a square
/// index, so a last layer with one still projects and scores every query
/// row and drops the rest after.
fn query_rows(layer: &CompiledLayer, last: bool, n: usize) -> (usize, usize) {
    let rows = if last { 1 } else { n };
    let square = layer.heads.iter().any(HeadPlan::is_sparse);
    (rows, if square { n } else { rows })
}

/// The first `rows` rows of `m`, which is moved through when that is all
/// of it.
fn first_rows(m: Matrix, rows: usize) -> Matrix {
    if m.rows() == rows {
        m
    } else {
        m.submatrix(0, rows, 0, m.cols())
    }
}

/// One projection site, `x · W + bias`. A site with packed int8 weights
/// per-row-quantizes `x` and runs the i8×i8→i32 GEMM, whose epilogue
/// dequantizes and adds the bias — no separate bias pass.
fn project(x: &Matrix, w: &SiteWeight, bias: &[f32]) -> Matrix {
    match w {
        SiteWeight::Int8(w8) => int8_gemm(&QuantizedRows::quantize(x), w8, bias),
        SiteWeight::Fp32(w) => kernels::add_bias(&kernels::matmul(x, w), bias),
    }
}

/// A layer's `(Q, KV)` projections of `x`, the two column windows of its
/// QKV site: Q over the first `q_rows` rows, KV over all of them. An int8
/// layer quantizes `x` once for both GEMMs; a Q cut to fewer rows
/// quantizes those rows on their own, to the same codes, since every row
/// has its own scale.
fn project_qkv(x: &Matrix, q_rows: usize, layer: &CompiledLayer) -> (Matrix, Matrix) {
    let dim = x.cols();
    let (q_cols, kv_cols) = (0..dim, dim..3 * dim);
    let (b_q, b_kv) = layer.b_qkv.split_at(dim);
    let cut = (q_rows < x.rows()).then(|| x.submatrix(0, q_rows, 0, dim));
    match &layer.w_qkv {
        SiteWeight::Int8(w) => {
            let x8 = QuantizedRows::quantize(x);
            let cut8 = cut.map(|rows| QuantizedRows::quantize(&rows));
            (
                int8_gemm_window(cut8.as_ref().unwrap_or(&x8), w, b_q, q_cols),
                int8_gemm_window(&x8, w, b_kv, kv_cols),
            )
        }
        SiteWeight::Fp32(w) => (
            kernels::add_bias(
                &kernels::matmul_window(cut.as_ref().unwrap_or(x), w, q_cols),
                b_q,
            ),
            kernels::add_bias(&kernels::matmul_window(x, w, kv_cols), b_kv),
        ),
    }
}

/// One layer's multi-head attention over head-fused `q`/`k`/`v`: each
/// head runs scores → softmax → `S·V` on its `dk`-wide column stripe,
/// the scores kernel chosen by the head's compiled plan and `int8`.
/// `q` holds the query rows to answer (the first rows of the layer's
/// tokens; see [`query_rows`]), `k` and `v` every token, and the output
/// has one row per query. Dense fp32 heads compute, per query row, what
/// the tape's fused attention records; sparse heads take the
/// accelerator's SDDMM → sparse-softmax → SpMM dataflow over their
/// square CSC index instead of dense `-inf` masks, so a layer with one
/// is handed every query row. Int8 quantizes Q and K once for all heads,
/// charged to `scores`.
fn attention<C: OpClock>(
    layer: &CompiledLayer,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    int8: bool,
    dk: usize,
    clock: &C,
) -> Matrix {
    let (m, n) = (q.rows(), k.rows());
    let heads = layer.heads.len();
    let scale = 1.0 / (dk as f32).sqrt();
    let qk8 = int8.then(|| {
        clock.time(OP_SCORES, || {
            (QuantizedRows::quantize(q), QuantizedRows::quantize(k))
        })
    });
    let head = |h: usize| {
        let cols = h * dk..(h + 1) * dk;
        let stripe = |x: &Matrix| x.submatrix(0, x.rows(), cols.start, cols.end);
        let vh = stripe(v);
        match &layer.heads[h] {
            HeadPlan::Dense => {
                let scores = clock.time(OP_SCORES, || match &qk8 {
                    Some((q8, k8)) => q8.scores_nt(k8, cols.clone(), scale),
                    None => {
                        let mut scores = kernels::matmul_nt(&stripe(q), &stripe(k));
                        for s in scores.as_mut_slice() {
                            *s *= scale;
                        }
                        scores
                    }
                });
                let probs = clock.time(OP_SOFTMAX, || kernels::softmax_rows(&scores));
                clock.time(OP_SPMM, || kernels::matmul(&probs, &vh))
            }
            HeadPlan::Sparse(csc) => {
                let scores = clock.time(OP_SCORES, || match &qk8 {
                    Some((q8, k8)) => {
                        sparse::sddmm_k_stationary_int8_rows(q8, k8, cols.clone(), csc, scale)
                    }
                    None => sparse::sddmm_k_stationary(&stripe(q), &stripe(k), csc, scale),
                });
                let probs = clock.time(OP_SOFTMAX, || scores.softmax_rows());
                clock.time(OP_SPMM, || sparse::spmm_output_stationary(&probs, &vh))
            }
        }
    };
    let per_head = if C::FAN_OUT_HEADS {
        // Per-head cost upper bound: the dense path's two m×n×dk GEMMs.
        kernels::par_map_collect(heads, 2 * m * n * dk, head)
    } else {
        (0..heads).map(head).collect()
    };
    Matrix::hcat(&per_head.iter().collect::<Vec<_>>())
}
