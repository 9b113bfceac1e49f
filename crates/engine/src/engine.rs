//! The batched serving engine: a tape-free forward over a frozen
//! [`CompiledVit`].

use std::sync::Arc;
use std::time::Instant;

use vitcod_autograd::LAYERNORM_EPS;
use vitcod_model::Sample;
use vitcod_tensor::sparse;
use vitcod_tensor::{argmax, gelu, int8_gemm, kernels, Matrix, QuantizedRows};

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
    /// is freed at build or never made at load). The matrices the
    /// forward still reads as fp32 — patch embedding, positional
    /// embedding, classifier, AE mixers — are round-tripped through
    /// the same quantization at build time: the values an int8
    /// artifact carries. The projections run against per-row-quantized
    /// activations, each activation tensor quantized **once per layer**
    /// and shared by every consumer — attention Q/K included, since
    /// per-row scales survive per-head column slicing. Attention scores
    /// use i32 accumulation, the accelerator MAC lines' arithmetic.
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
/// forward: no gradient bookkeeping, fused QKV projections, and sparse
/// heads executed through the real SDDMM → sparse-softmax → SpMM
/// dataflow over their pre-compiled CSC indexes (not dense `-inf`
/// masking). [`Engine::infer_batch`] fans samples across worker
/// threads; every per-sample forward is independent, so results are
/// deterministic regardless of the worker count.
///
/// The engine holds no kernel settings of its own: it runs on the
/// calling thread's backend and thread budget (the process defaults
/// `VITCOD_BACKEND` / `VITCOD_NUM_THREADS` in practice). A caller that
/// wants a pin scopes it around the call —
/// `kernels::with_backend_override(Backend::Scalar, ||
/// engine.infer_batch(..))` audits a model on the reference kernels,
/// `kernels::with_thread_budget(w, ..)` caps its workers — and neither
/// changes a logit bit (the kernel layer's agreement contract).
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

    /// The shared handle to the frozen artifact. Two engines with
    /// `Arc::ptr_eq` handles serve the identical weight allocation —
    /// the serving layer's no-copy tests key on this.
    pub fn compiled_arc(&self) -> Arc<CompiledVit> {
        Arc::clone(&self.model)
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

    /// [`Engine::infer_batch_profiled`] for one raw token matrix.
    ///
    /// # Panics
    ///
    /// Panics if the token shape does not match the compiled model.
    pub fn infer_one_profiled(&self, tokens: &Matrix) -> (Prediction, OpProfile) {
        self.predict_profiled(tokens)
    }

    /// Approximate arithmetic ops one forward pass performs (1 MAC = 2
    /// ops, softmax = 1 op per kept attention entry), with the
    /// quadratic `Q·Kᵀ`/`S·V` core and softmax discounted by the
    /// compiled sparsity plan. Feeds the achieved-Gop/s gauge:
    /// `ops_per_sample × requests / compute_seconds / 1e9`.
    pub fn approx_ops_per_sample(&self) -> f64 {
        let cfg = self.model.config();
        let f = cfg.flops();
        let layers = &self.model.layers;
        let total_heads = layers.iter().map(|l| l.heads.len()).sum::<usize>();
        let kept = if total_heads == 0 {
            1.0
        } else {
            let sparse_frac = self.model.num_sparse_heads() as f64 / total_heads as f64;
            1.0 - sparse_frac * self.model.mean_attention_sparsity()
        };
        let dense_macs = (f.total() - f.attention_core() - f.softmax_ops) as f64;
        let core_macs = f.attention_core() as f64 * kept;
        2.0 * (dense_macs + core_macs) + f.softmax_ops as f64 * kept
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
    /// Fp32 mirrors the training tape's kernel sequence exactly (same
    /// GEMM, bias, LayerNorm, GELU and per-head attention kernels in the
    /// same order), so the dense path is bit-identical to the tape's
    /// logits; [`Precision::Int8`] describes what int8 changes.
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

        for layer in &self.model.layers {
            let normed = kernels::layernorm_rows(&x, &layer.ln1_gamma, &layer.ln1_beta, LN_EPS);
            // Fused QKV: one dim × 3·dim GEMM; each column accumulates in
            // the same order as the three separate projections, so the
            // fusion changes layout, not numerics. The AE round trip
            // feeds directly into attention from the fused projection,
            // so it is charged to `qkv`; its heads × heads mixers are
            // tiny and stay fp32, like the paper's AE decoder.
            let (q, k, v) = clock.time(OP_QKV, || {
                let qkv = project(&normed, &layer.w_qkv, &layer.b_qkv);
                let mut q = qkv.submatrix(0, n, 0, dim);
                let mut k = qkv.submatrix(0, n, dim, 2 * dim);
                let v = qkv.submatrix(0, n, 2 * dim, 3 * dim);
                if let Some(ae) = &layer.ae {
                    q = kernels::head_mix(&kernels::head_mix(&q, &ae.enc_q, dk), &ae.dec_q, dk);
                    k = kernels::head_mix(&kernels::head_mix(&k, &ae.enc_k, dk), &ae.dec_k, dk);
                }
                (q, k, v)
            });

            let attn = attention(layer, &q, &k, &v, int8, dk, &*clock);
            let projected = clock.time(OP_OUT_PROJ, || project(&attn, &layer.w_out, &layer.b_out));
            x = &x + &projected;

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

/// One projection site, `x · W + bias`. A site with packed int8 weights
/// per-row-quantizes `x` and runs the i8×i8→i32 GEMM, whose epilogue
/// dequantizes and adds the bias — no separate bias pass.
fn project(x: &Matrix, w: &SiteWeight, bias: &[f32]) -> Matrix {
    match w {
        SiteWeight::Int8(w8) => int8_gemm(&QuantizedRows::quantize(x), w8, bias),
        SiteWeight::Fp32(w) => kernels::add_bias(&kernels::matmul(x, w), bias),
    }
}

/// One layer's multi-head attention over head-fused `q`/`k`/`v`: each
/// head runs scores → softmax → `S·V` on its `dk`-wide column stripe,
/// the scores kernel chosen by the head's compiled plan and `int8`.
/// Dense fp32 heads replay what the tape's fused attention records;
/// sparse heads take the accelerator's SDDMM → sparse-softmax → SpMM
/// dataflow over their CSC index instead of dense `-inf` masks. Int8
/// quantizes Q and K once for all heads, charged to `scores`.
fn attention<C: OpClock>(
    layer: &CompiledLayer,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    int8: bool,
    dk: usize,
    clock: &C,
) -> Matrix {
    let n = q.rows();
    let heads = layer.heads.len();
    let scale = 1.0 / (dk as f32).sqrt();
    let qk8 = int8.then(|| {
        clock.time(OP_SCORES, || {
            (QuantizedRows::quantize(q), QuantizedRows::quantize(k))
        })
    });
    let head = |h: usize| {
        let cols = h * dk..(h + 1) * dk;
        let stripe = |m: &Matrix| m.submatrix(0, n, cols.start, cols.end);
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
        // Per-head cost upper bound: the dense path's two n×n×dk GEMMs.
        kernels::par_map_collect(heads, 2 * n * n * dk, head)
    } else {
        (0..heads).map(head).collect()
    };
    Matrix::hcat(&per_head.iter().collect::<Vec<_>>())
}
