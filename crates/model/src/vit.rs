//! A trainable Vision Transformer with fixed sparse attention masks and
//! ViTCoD auto-encoder modules.

use std::sync::Arc;

use rand::Rng;
use vitcod_autograd::{HeadExec, LayerNorm, Linear, ParamId, ParamStore, Tape, Var};
use vitcod_tensor::sparse::CscMatrix;
use vitcod_tensor::Matrix;

use crate::config::ViTConfig;

/// Specification of the ViTCoD auto-encoder (AE) modules inserted into
/// every attention layer (paper Sec. IV-C).
///
/// The AE compresses Q and K along the *head* dimension: `heads` input
/// heads are linearly mixed down to `compressed_heads` (the paper uses a
/// 50 % ratio, e.g. 12 → 6) before being written to off-chip memory, and
/// mixed back up when reloaded. Training minimises the reconstruction
/// error jointly with the task loss (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoEncoderSpec {
    /// Number of compressed heads (must be `>= 1` and `<= heads`).
    pub compressed_heads: usize,
}

impl AutoEncoderSpec {
    /// The paper's default 50 % compression (rounding down, minimum 1).
    pub fn half(heads: usize) -> Self {
        Self {
            compressed_heads: (heads / 2).max(1),
        }
    }

    /// Compression ratio relative to `heads`.
    pub fn ratio(&self, heads: usize) -> f64 {
        self.compressed_heads as f64 / heads as f64
    }
}

/// Fixed sparse attention masks, one per `[layer][head]`.
///
/// Each mask is an `n × n` 0/1 matrix (`1.0` = keep). `None` means the
/// head stays dense. Masks are produced by `vitcod-core`'s
/// split-and-conquer algorithm and stay fixed during finetuning and
/// inference (the paper's central premise for ViTs).
pub type SparsityPlan = Vec<Vec<Option<Matrix>>>;

/// Output of one forward pass.
///
/// For [`VisionTransformer::forward`] the logits node is
/// `1 × num_classes`; for [`VisionTransformer::forward_batch`] it holds
/// one row per sample in batch order.
#[derive(Debug)]
pub struct VitOutput {
    /// Class logits node, one row per sample.
    pub logits: Var,
    /// Summed Q/K reconstruction loss node if AE modules are active
    /// (mean over every stacked token row, so batched and per-sample
    /// passes weight it identically).
    pub recon_loss: Option<Var>,
    /// One [`Tape::attention`] node per layer; the probability map of a
    /// `(sample, head)` is read via [`Tape::try_head_probs`] (borrowed,
    /// `None` for heads on the sparse dataflow) or
    /// [`Tape::head_probs_dense`] (owned, any head).
    pub attention_nodes: Vec<Var>,
}

#[derive(Clone)]
struct AeParams {
    enc_q: ParamId,
    dec_q: ParamId,
    enc_k: ParamId,
    dec_k: ParamId,
}

/// Parameter handles of one block's auto-encoder modules (encoder and
/// decoder head-mixing matrices for Q and K).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeParamIds {
    /// Q encoder, `heads × compressed_heads`.
    pub enc_q: ParamId,
    /// Q decoder, `compressed_heads × heads`.
    pub dec_q: ParamId,
    /// K encoder, `heads × compressed_heads`.
    pub enc_k: ParamId,
    /// K decoder, `compressed_heads × heads`.
    pub dec_k: ParamId,
}

/// Read-only views of one transformer block's modules, in forward-pass
/// order. This is the reflection surface inference compilers (the
/// `vitcod-engine` crate) use to freeze a trained model's weights out of
/// its [`vitcod_autograd::ParamStore`].
#[derive(Debug, Clone, Copy)]
pub struct BlockModules<'a> {
    /// Pre-attention LayerNorm.
    pub ln1: &'a LayerNorm,
    /// Query projection.
    pub wq: &'a Linear,
    /// Key projection.
    pub wk: &'a Linear,
    /// Value projection.
    pub wv: &'a Linear,
    /// Attention output projection.
    pub wo: &'a Linear,
    /// Pre-MLP LayerNorm.
    pub ln2: &'a LayerNorm,
    /// MLP expansion layer.
    pub fc1: &'a Linear,
    /// MLP contraction layer.
    pub fc2: &'a Linear,
    /// Auto-encoder parameter handles, if AE modules are installed.
    pub ae: Option<AeParamIds>,
}

#[derive(Clone)]
struct Block {
    ln1: LayerNorm,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
    ae: Option<AeParams>,
}

/// A small trainable ViT (DeiT-style: pre-norm blocks, class-token
/// readout) used for the paper's algorithm-level experiments.
///
/// Token row 0 is the class-token slot; its content is learned through
/// the positional embedding. Sparse masks and AE modules can be attached
/// after construction, mirroring the paper's two-step pipeline
/// (insert AE → finetune → split-and-conquer → finetune).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use vitcod_autograd::{ParamStore, Tape};
/// use vitcod_model::{ViTConfig, VisionTransformer};
/// use vitcod_tensor::Matrix;
///
/// let cfg = ViTConfig::deit_tiny().reduced_for_training();
/// let mut store = ParamStore::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let vit = VisionTransformer::new(&cfg, 8, 4, &mut store, &mut rng);
/// let mut tape = Tape::new();
/// let out = vit.forward(&mut tape, &store, &Matrix::zeros(17, 8));
/// assert_eq!(tape.value(out.logits).shape(), (1, 4));
/// ```
#[derive(Clone)]
pub struct VisionTransformer {
    cfg: ViTConfig,
    in_dim: usize,
    num_classes: usize,
    patch_embed: Linear,
    pos_embed: ParamId,
    blocks: Vec<Block>,
    final_ln: LayerNorm,
    head: Linear,
    masks: Option<SparsityPlan>,
    /// Additive `-inf` biases compiled from `masks` once at install time
    /// and `Arc`-shared into every tape, `[layer][head]`.
    mask_biases: Option<Vec<Vec<Option<Arc<Matrix>>>>>,
    /// CSC indexes compiled from `masks` by
    /// [`Self::freeze_sparse_attention`], `[layer][head]`; when present,
    /// masked heads run the truly-sparse dataflow in forward passes.
    frozen: Option<Vec<Vec<Option<Arc<CscMatrix>>>>>,
    ae_spec: Option<AutoEncoderSpec>,
}

impl std::fmt::Debug for VisionTransformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VisionTransformer({}, {} blocks, {} heads, masks={}, ae={:?})",
            self.cfg.name,
            self.blocks.len(),
            self.cfg.heads,
            self.masks.is_some(),
            self.ae_spec
        )
    }
}

impl VisionTransformer {
    /// Builds a ViT for `cfg` that consumes `in_dim`-dimensional patch
    /// tokens and predicts `num_classes` classes, registering all
    /// parameters in `store`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dim` is not divisible by `cfg.heads`.
    pub fn new<R: Rng>(
        cfg: &ViTConfig,
        in_dim: usize,
        num_classes: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        assert_eq!(cfg.dim % cfg.heads, 0, "dim must divide into heads");
        let patch_embed = Linear::new(store, "patch_embed", in_dim, cfg.dim, rng);
        let pos_embed = store.register(
            "pos_embed",
            vitcod_tensor::Initializer::Normal { std: 0.02 }.sample_with(cfg.tokens, cfg.dim, rng),
        );
        let blocks = (0..cfg.depth)
            .map(|l| {
                let p = |s: &str| format!("block{l}.{s}");
                Block {
                    ln1: LayerNorm::new(store, &p("ln1"), cfg.dim),
                    wq: Linear::new(store, &p("wq"), cfg.dim, cfg.dim, rng),
                    wk: Linear::new(store, &p("wk"), cfg.dim, cfg.dim, rng),
                    wv: Linear::new(store, &p("wv"), cfg.dim, cfg.dim, rng),
                    wo: Linear::new(store, &p("wo"), cfg.dim, cfg.dim, rng),
                    ln2: LayerNorm::new(store, &p("ln2"), cfg.dim),
                    fc1: Linear::new(store, &p("fc1"), cfg.dim, cfg.dim * cfg.mlp_ratio, rng),
                    fc2: Linear::new(store, &p("fc2"), cfg.dim * cfg.mlp_ratio, cfg.dim, rng),
                    ae: None,
                }
            })
            .collect();
        let final_ln = LayerNorm::new(store, "final_ln", cfg.dim);
        let head = Linear::new(store, "head", cfg.dim, num_classes, rng);
        Self {
            cfg: cfg.clone(),
            in_dim,
            num_classes,
            patch_embed,
            pos_embed,
            blocks,
            final_ln,
            head,
            masks: None,
            mask_biases: None,
            frozen: None,
            ae_spec: None,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ViTConfig {
        &self.cfg
    }

    /// Number of classes predicted.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Raw patch feature dimension consumed.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Whether AE modules are installed.
    pub fn has_auto_encoder(&self) -> bool {
        self.ae_spec.is_some()
    }

    /// Whether a sparsity plan is installed.
    pub fn has_masks(&self) -> bool {
        self.masks.is_some()
    }

    /// The installed sparsity plan, if any.
    pub fn sparsity_plan(&self) -> Option<&SparsityPlan> {
        self.masks.as_ref()
    }

    /// The installed auto-encoder spec, if any.
    pub fn ae_spec(&self) -> Option<AutoEncoderSpec> {
        self.ae_spec
    }

    /// The patch-embedding layer.
    pub fn patch_embedding(&self) -> &Linear {
        &self.patch_embed
    }

    /// Handle to the positional-embedding parameter (`tokens × dim`).
    pub fn positional_embedding(&self) -> ParamId {
        self.pos_embed
    }

    /// The final LayerNorm applied to the class token.
    pub fn final_layernorm(&self) -> &LayerNorm {
        &self.final_ln
    }

    /// The classification head.
    pub fn classifier(&self) -> &Linear {
        &self.head
    }

    /// Read-only views of block `l`'s modules.
    ///
    /// # Panics
    ///
    /// Panics if `l >= config().depth`.
    pub fn block_modules(&self, l: usize) -> BlockModules<'_> {
        let b = &self.blocks[l];
        BlockModules {
            ln1: &b.ln1,
            wq: &b.wq,
            wk: &b.wk,
            wv: &b.wv,
            wo: &b.wo,
            ln2: &b.ln2,
            fc1: &b.fc1,
            fc2: &b.fc2,
            ae: b.ae.as_ref().map(|ae| AeParamIds {
                enc_q: ae.enc_q,
                dec_q: ae.dec_q,
                enc_k: ae.enc_k,
                dec_k: ae.dec_k,
            }),
        }
    }

    /// Installs the ViTCoD auto-encoder modules (paper Fig. 10, Step 1),
    /// registering fresh encoder/decoder weights initialised close to a
    /// head-identity so finetuning starts from a near-lossless state.
    ///
    /// # Panics
    ///
    /// Panics if `spec.compressed_heads` is zero or exceeds the head
    /// count.
    pub fn insert_auto_encoder<R: Rng>(
        &mut self,
        spec: AutoEncoderSpec,
        store: &mut ParamStore,
        rng: &mut R,
    ) {
        let h = self.cfg.heads;
        assert!(
            spec.compressed_heads >= 1 && spec.compressed_heads <= h,
            "compressed heads must be in 1..=heads"
        );
        for (l, block) in self.blocks.iter_mut().enumerate() {
            let mk =
                |store: &mut ParamStore, name: String, rows: usize, cols: usize, rng: &mut R| {
                    // Partial-identity init: head j maps mostly to compressed
                    // slot j % hc, plus small noise for symmetry breaking.
                    let mut m = Matrix::zeros(rows, cols);
                    for i in 0..rows {
                        for j in 0..cols {
                            let base = if i % cols.max(1) == j || j % rows.max(1) == i {
                                0.7
                            } else {
                                0.0
                            };
                            m.set(i, j, base + rng.gen_range(-0.05..0.05));
                        }
                    }
                    store.register(name, m)
                };
            block.ae = Some(AeParams {
                enc_q: mk(
                    store,
                    format!("block{l}.ae.enc_q"),
                    h,
                    spec.compressed_heads,
                    rng,
                ),
                dec_q: mk(
                    store,
                    format!("block{l}.ae.dec_q"),
                    spec.compressed_heads,
                    h,
                    rng,
                ),
                enc_k: mk(
                    store,
                    format!("block{l}.ae.enc_k"),
                    h,
                    spec.compressed_heads,
                    rng,
                ),
                dec_k: mk(
                    store,
                    format!("block{l}.ae.dec_k"),
                    spec.compressed_heads,
                    h,
                    rng,
                ),
            });
        }
        self.ae_spec = Some(spec);
    }

    /// Installs fixed sparse attention masks (paper Fig. 10, Step 2).
    ///
    /// # Panics
    ///
    /// Panics if the plan's layer/head structure or mask shapes do not
    /// match the model.
    pub fn set_sparsity_plan(&mut self, plan: SparsityPlan) {
        assert_eq!(plan.len(), self.blocks.len(), "plan must cover all layers");
        for (l, layer) in plan.iter().enumerate() {
            assert_eq!(
                layer.len(),
                self.cfg.heads,
                "layer {l} must cover all heads"
            );
            for m in layer.iter().flatten() {
                assert_eq!(
                    m.shape(),
                    (self.cfg.tokens, self.cfg.tokens),
                    "mask must be tokens x tokens"
                );
            }
        }
        // Compile the additive biases once; tapes share them by Arc
        // instead of re-materialising an n x n bias per sample.
        self.mask_biases = Some(
            plan.iter()
                .map(|layer| {
                    layer
                        .iter()
                        .map(|m| {
                            m.as_ref().map(|mask| {
                                let mut bias = mask.clone();
                                bias.map_inplace(
                                    |kept| if kept == 0.0 { f32::NEG_INFINITY } else { 0.0 },
                                );
                                Arc::new(bias)
                            })
                        })
                        .collect()
                })
                .collect(),
        );
        self.frozen = None;
        self.masks = Some(plan);
    }

    /// Removes any installed sparsity plan (back to dense attention).
    pub fn clear_sparsity_plan(&mut self) {
        self.masks = None;
        self.mask_biases = None;
        self.frozen = None;
    }

    /// Whether the installed masks have been frozen to CSC indexes (the
    /// truly-sparse training path).
    pub fn has_frozen_sparse(&self) -> bool {
        self.frozen.is_some()
    }

    /// Compiles the installed sparsity plan into per-head CSC indexes,
    /// switching every masked head's forward *and* backward onto the
    /// accelerator's SDDMM → sparse-softmax → SpMM dataflow so a
    /// training step's attention cost scales with `nnz` instead of `n²`.
    /// This is the mask-freeze step of the sparse-finetune loop; call it
    /// after [`Self::set_sparsity_plan`] and before finetuning.
    ///
    /// Returns the number of heads that now run sparse.
    ///
    /// # Panics
    ///
    /// Panics if no sparsity plan is installed.
    pub fn freeze_sparse_attention(&mut self) -> usize {
        let masks = self
            .masks
            .as_ref()
            .expect("freeze_sparse_attention requires an installed sparsity plan");
        let mut sparse_heads = 0;
        let frozen = masks
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|m| {
                        m.as_ref().map(|mask| {
                            sparse_heads += 1;
                            Arc::new(CscMatrix::from_indicator(mask.rows(), |q, k| {
                                mask.get(q, k) != 0.0
                            }))
                        })
                    })
                    .collect()
            })
            .collect();
        self.frozen = Some(frozen);
        sparse_heads
    }

    /// Runs a forward pass for a single sample of raw tokens
    /// (`tokens × in_dim`, row 0 being the class-token slot): a
    /// [`Self::forward_batch`] of one.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` does not have the configured shape.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, tokens: &Matrix) -> VitOutput {
        self.forward_batch(tape, store, &[tokens])
    }

    /// Runs one forward pass over a whole minibatch on a single tape:
    /// the samples' token matrices are stacked vertically and every
    /// layer processes the stack in one set of ops, so weights are
    /// imported once per step (not once per sample) and the per-op
    /// bookkeeping amortises across the batch. Attention runs through
    /// [`Tape::attention`], with `(sample, head)` tasks fanned across
    /// worker threads; masked heads follow the model's execution plans
    /// (dense `-inf` biases, or the truly-sparse CSC dataflow after
    /// [`Self::freeze_sparse_attention`]).
    ///
    /// Returns logits with one row per sample, in batch order. Losses
    /// built on them (e.g. [`Tape::cross_entropy`] with one target per
    /// row) average over the batch, so the flushed gradients are the
    /// batch means — the same semantics as accumulating per-sample tapes
    /// and rescaling.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or a sample's token matrix does not
    /// have the configured shape.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &[&Matrix],
    ) -> VitOutput {
        assert!(!batch.is_empty(), "forward_batch needs at least one sample");
        for (i, tokens) in batch.iter().enumerate() {
            assert_eq!(
                tokens.shape(),
                (self.cfg.tokens, self.in_dim),
                "sample {i} token shape mismatch"
            );
        }
        let b = batch.len();
        let n = self.cfg.tokens;
        let dk = self.cfg.head_dim();
        let scale = 1.0 / (dk as f32).sqrt();

        let stacked = Matrix::vcat(batch);
        let x0 = tape.constant(stacked);
        let embedded = self.patch_embed.forward(tape, store, x0);
        let pos = tape.param(store, self.pos_embed);
        let pos_tiled = tape.tile_rows(pos, b);
        let mut x = tape.add(embedded, pos_tiled);

        let mut recon_total: Option<Var> = None;
        let mut attention_nodes = Vec::with_capacity(self.blocks.len());

        for (l, block) in self.blocks.iter().enumerate() {
            let normed = block.ln1.forward(tape, store, x);
            let mut q = block.wq.forward(tape, store, normed);
            let mut k = block.wk.forward(tape, store, normed);
            let v = block.wv.forward(tape, store, normed);

            if let Some(ae) = &block.ae {
                let (q2, rq) = apply_ae(tape, store, q, ae.enc_q, ae.dec_q, dk);
                let (k2, rk) = apply_ae(tape, store, k, ae.enc_k, ae.dec_k, dk);
                q = q2;
                k = k2;
                let layer_recon = tape.weighted_sum(rq, rk, 1.0, 1.0);
                recon_total = Some(match recon_total {
                    Some(acc) => tape.weighted_sum(acc, layer_recon, 1.0, 1.0),
                    None => layer_recon,
                });
            }

            let plans = self.layer_head_plans(l);
            let attn = tape.attention(q, k, v, dk, scale, b, &plans);
            attention_nodes.push(attn);
            let projected = block.wo.forward(tape, store, attn);
            x = tape.add(x, projected);

            let normed2 = block.ln2.forward(tape, store, x);
            let h1 = block.fc1.forward(tape, store, normed2);
            let act = tape.gelu(h1);
            let h2 = block.fc2.forward(tape, store, act);
            x = tape.add(x, h2);
        }

        // One class-token row per sample: rows 0, n, 2n, ...
        let cls_rows: Vec<usize> = (0..b).map(|s| s * n).collect();
        let cls = tape.gather_rows(x, &cls_rows);
        let normed = self.final_ln.forward(tape, store, cls);
        let logits = self.head.forward(tape, store, normed);
        VitOutput {
            logits,
            recon_loss: recon_total,
            attention_nodes,
        }
    }

    /// Per-head execution plans for `layer`: frozen CSC indexes when the
    /// masks are frozen, cached `-inf` biases when only installed, empty
    /// (all dense) otherwise.
    fn layer_head_plans(&self, layer: usize) -> Vec<HeadExec> {
        if let Some(frozen) = &self.frozen {
            return frozen[layer]
                .iter()
                .map(|csc| match csc {
                    Some(csc) => HeadExec::Sparse(csc.clone()),
                    None => HeadExec::Dense,
                })
                .collect();
        }
        if let Some(biases) = &self.mask_biases {
            return biases[layer]
                .iter()
                .map(|bias| match bias {
                    Some(bias) => HeadExec::Masked(bias.clone()),
                    None => HeadExec::Dense,
                })
                .collect();
        }
        Vec::new()
    }

    /// Averaged per-head attention maps over `samples`, the statistic the
    /// split-and-conquer algorithm consumes ("extract averaged attention
    /// maps by forwarding the pretrained models on all training samples").
    ///
    /// Returns `[layer][head]` matrices of shape `tokens × tokens`.
    pub fn averaged_attention_maps(
        &self,
        store: &ParamStore,
        samples: &[crate::Sample],
    ) -> Vec<Vec<Matrix>> {
        let n = self.cfg.tokens;
        let mut acc: Vec<Vec<Matrix>> = (0..self.blocks.len())
            .map(|_| (0..self.cfg.heads).map(|_| Matrix::zeros(n, n)).collect())
            .collect();
        for s in samples {
            let mut tape = Tape::new();
            let out = self.forward(&mut tape, store, &s.tokens);
            for (l, &node) in out.attention_nodes.iter().enumerate() {
                for (h, m) in acc[l].iter_mut().enumerate() {
                    // Dense heads accumulate by reference; only sparse
                    // heads pay a densification copy.
                    match tape.try_head_probs(node, 0, h) {
                        Some(p) => m.add_assign(p),
                        None => m.add_assign(&tape.head_probs_dense(node, 0, h)),
                    }
                }
            }
        }
        let inv = 1.0 / samples.len().max(1) as f32;
        for layer in &mut acc {
            for m in layer {
                m.map_inplace(|v| v * inv);
            }
        }
        acc
    }
}

/// Applies one AE (encode → decode) to a fused `n × (h·dk)` Q or K
/// matrix; returns the reconstruction and its MSE against the input.
fn apply_ae(
    tape: &mut Tape,
    store: &ParamStore,
    x: Var,
    enc: ParamId,
    dec: ParamId,
    dk: usize,
) -> (Var, Var) {
    let enc_w = tape.param(store, enc);
    let dec_w = tape.param(store, dec);
    let compressed = tape.head_mix(x, enc_w, dk);
    let recovered = tape.head_mix(compressed, dec_w, dk);
    let recon = tape.mse_between(recovered, x);
    (recovered, recon)
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_model() -> (VisionTransformer, ParamStore) {
        let cfg = ViTConfig::deit_tiny().reduced_for_training();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let vit = VisionTransformer::new(&cfg, 8, 4, &mut store, &mut rng);
        (vit, store)
    }

    #[test]
    fn forward_produces_logits() {
        let (vit, store) = tiny_model();
        let mut tape = Tape::new();
        let tokens = Matrix::zeros(vit.config().tokens, 8);
        let out = vit.forward(&mut tape, &store, &tokens);
        assert_eq!(tape.value(out.logits).shape(), (1, 4));
        assert!(out.recon_loss.is_none());
        assert_eq!(out.attention_nodes.len(), vit.config().depth);
        assert_eq!(tape.num_heads(out.attention_nodes[0]), vit.config().heads);
    }

    #[test]
    fn attention_probs_rows_sum_to_one() {
        let (vit, store) = tiny_model();
        let mut tape = Tape::new();
        let tokens =
            vitcod_tensor::Initializer::Normal { std: 1.0 }.sample(vit.config().tokens, 8, 7);
        let out = vit.forward(&mut tape, &store, &tokens);
        let p = tape
            .try_head_probs(out.attention_nodes[0], 0, 0)
            .expect("dense heads cache dense probabilities");
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
    }

    #[test]
    fn ae_insertion_adds_recon_loss_and_keeps_logits_shape() {
        let (mut vit, mut store) = tiny_model();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        vit.insert_auto_encoder(
            AutoEncoderSpec::half(vit.config().heads),
            &mut store,
            &mut rng,
        );
        assert!(vit.has_auto_encoder());
        let mut tape = Tape::new();
        let tokens = Matrix::zeros(vit.config().tokens, 8);
        let out = vit.forward(&mut tape, &store, &tokens);
        assert!(out.recon_loss.is_some());
        assert!(tape.scalar(out.recon_loss.unwrap()) >= 0.0);
        assert_eq!(tape.value(out.logits).shape(), (1, 4));
    }

    #[test]
    fn sparsity_plan_zeroes_pruned_probabilities() {
        let (mut vit, store) = tiny_model();
        let n = vit.config().tokens;
        // Keep only the diagonal plus the class-token column.
        let mut mask = Matrix::zeros(n, n);
        for i in 0..n {
            mask.set(i, i, 1.0);
            mask.set(i, 0, 1.0);
        }
        let plan: SparsityPlan = (0..vit.config().depth)
            .map(|_| {
                (0..vit.config().heads)
                    .map(|_| Some(mask.clone()))
                    .collect()
            })
            .collect();
        vit.set_sparsity_plan(plan);
        let mut tape = Tape::new();
        let tokens = vitcod_tensor::Initializer::Normal { std: 1.0 }.sample(n, 8, 11);
        let out = vit.forward(&mut tape, &store, &tokens);
        let p = tape
            .try_head_probs(out.attention_nodes[1], 0, 0)
            .expect("masked heads cache dense probabilities");
        for r in 0..n {
            for c in 0..n {
                if r != c && c != 0 {
                    assert_eq!(p.get(r, c), 0.0, "pruned ({r},{c}) must be zero");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan must cover all layers")]
    fn bad_plan_rejected() {
        let (mut vit, _) = tiny_model();
        vit.set_sparsity_plan(vec![]);
    }

    #[test]
    fn averaged_attention_maps_have_correct_shape_and_normalisation() {
        let (vit, store) = tiny_model();
        let task = crate::SyntheticTask::generate(crate::SyntheticTaskConfig {
            train_samples: 4,
            test_samples: 1,
            ..Default::default()
        });
        let maps = vit.averaged_attention_maps(&store, &task.train);
        assert_eq!(maps.len(), vit.config().depth);
        assert_eq!(maps[0].len(), vit.config().heads);
        let m = &maps[0][0];
        assert_eq!(m.shape(), (vit.config().tokens, vit.config().tokens));
        for r in 0..m.rows() {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-3, "averaged row {r} sums to {s}");
        }
    }

    #[test]
    fn forward_batch_matches_per_sample_forwards() {
        let (vit, store) = tiny_model();
        let n = vit.config().tokens;
        let samples: Vec<Matrix> = (0..3)
            .map(|i| vitcod_tensor::Initializer::Normal { std: 1.0 }.sample(n, 8, 40 + i))
            .collect();
        let refs: Vec<&Matrix> = samples.iter().collect();
        let mut batched = Tape::new();
        let out = vit.forward_batch(&mut batched, &store, &refs);
        let logits = batched.value(out.logits).clone();
        assert_eq!(logits.shape(), (3, 4));
        for (s, tokens) in samples.iter().enumerate() {
            let mut single = Tape::new();
            let o = vit.forward(&mut single, &store, tokens);
            // Bitwise: every kernel on the path reduces each output row
            // on its own in ascending-`k` order, so batch composition
            // cannot move a sample's logits.
            assert_eq!(
                logits.submatrix(s, s + 1, 0, 4),
                *single.value(o.logits),
                "sample {s} logits depend on batch composition"
            );
        }
    }

    #[test]
    fn forward_batch_with_ae_reports_mean_recon() {
        let (mut vit, mut store) = tiny_model();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        vit.insert_auto_encoder(
            AutoEncoderSpec::half(vit.config().heads),
            &mut store,
            &mut rng,
        );
        let n = vit.config().tokens;
        let samples: Vec<Matrix> = (0..2)
            .map(|i| vitcod_tensor::Initializer::Normal { std: 1.0 }.sample(n, 8, 50 + i))
            .collect();
        let refs: Vec<&Matrix> = samples.iter().collect();
        let mut batched = Tape::new();
        let out = vit.forward_batch(&mut batched, &store, &refs);
        let batched_recon = batched.scalar(out.recon_loss.expect("AE installed"));
        // Mean of the per-sample recon losses (each a mean over the same
        // number of token rows).
        let mut sum = 0.0;
        for tokens in &samples {
            let mut single = Tape::new();
            let o = vit.forward(&mut single, &store, tokens);
            sum += single.scalar(o.recon_loss.unwrap());
        }
        assert!((batched_recon - sum / 2.0).abs() < 1e-4);
    }

    #[test]
    fn frozen_sparse_routes_masked_heads_through_csc() {
        let (mut vit, store) = tiny_model();
        let n = vit.config().tokens;
        let mut mask = Matrix::zeros(n, n);
        for i in 0..n {
            mask.set(i, i, 1.0);
            mask.set(i, 0, 1.0);
        }
        let plan: SparsityPlan = (0..vit.config().depth)
            .map(|_| {
                (0..vit.config().heads)
                    .map(|_| Some(mask.clone()))
                    .collect()
            })
            .collect();
        vit.set_sparsity_plan(plan);

        // Masked (dense -inf) pass first, then freeze and rerun sparse.
        let tokens = vitcod_tensor::Initializer::Normal { std: 1.0 }.sample(n, 8, 60);
        let mut masked_tape = Tape::new();
        let masked_out = vit.forward(&mut masked_tape, &store, &tokens);
        let masked_logits = masked_tape.value(masked_out.logits).clone();

        let sparse_heads = vit.freeze_sparse_attention();
        assert!(vit.has_frozen_sparse());
        assert_eq!(sparse_heads, vit.config().depth * vit.config().heads);
        let mut sparse_tape = Tape::new();
        let sparse_out = vit.forward(&mut sparse_tape, &store, &tokens);
        let sparse_logits = sparse_tape.value(sparse_out.logits).clone();
        assert!(
            sparse_logits.max_abs_diff(&masked_logits) < 1e-4,
            "sparse logits differ from masked by {}",
            sparse_logits.max_abs_diff(&masked_logits)
        );
        // Pruned positions stay exactly zero in the sparse probabilities.
        let p = sparse_tape.head_probs_dense(sparse_out.attention_nodes[0], 0, 0);
        for r in 1..n {
            for c in 1..n {
                if r != c {
                    assert_eq!(p.get(r, c), 0.0, "pruned ({r},{c}) must be zero");
                }
            }
        }
        // Clearing the plan restores the dense path.
        vit.clear_sparsity_plan();
        assert!(!vit.has_frozen_sparse());
    }

    #[test]
    fn clear_sparsity_plan_restores_dense() {
        let (mut vit, _) = tiny_model();
        let n = vit.config().tokens;
        let plan: SparsityPlan = (0..vit.config().depth)
            .map(|_| {
                (0..vit.config().heads)
                    .map(|_| Some(Matrix::identity(n)))
                    .collect()
            })
            .collect();
        vit.set_sparsity_plan(plan);
        assert!(vit.has_masks());
        vit.clear_sparsity_plan();
        assert!(!vit.has_masks());
    }
}
