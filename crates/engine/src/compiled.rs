//! The frozen, compile-once inference artifact.
//!
//! [`CompiledVit`] is everything a serving process needs and nothing it
//! does not: weights lifted out of the training-time
//! [`vitcod_autograd::ParamStore`] into an inference-friendly layout
//! (per layer one fused QKV projection, LayerNorm parameters as plain
//! vectors) plus one [`HeadPlan`] per attention head — either dense or a
//! pre-built [`CscMatrix`] index, the same artifact the accelerator's
//! sparser engine pre-loads. Compilation happens once; the artifact is
//! immutable and shared by every worker of an [`crate::Engine`].
//!
//! Each of a layer's four projection sites (QKV, attention output, both
//! MLP matrices) holds **one** weight, a [`SiteWeight`] in the form its
//! precision reads: the fp32 [`Matrix`] (4 B per weight) or the int8
//! GEMM's packed panels (1 B per weight on disk, 2 B resident as `i16`
//! multiply–accumulate pairs) — never both. An int8 artifact loads
//! straight into panels and an int8 engine build turns each fp32 site
//! into panels and frees the matrix, so an int8 model is the smaller one
//! in memory as well as on disk. Every site is one tensor with one int8
//! scale; the forward reads Q and KV as two column windows of the QKV
//! site.

use std::borrow::Cow;

use vitcod_autograd::ParamStore;
use vitcod_model::{Sample, ViTConfig, VisionTransformer};
use vitcod_tensor::kernels::LANES;
use vitcod_tensor::sparse::CscMatrix;
use vitcod_tensor::{Matrix, PackedGemmWeights, QuantizedMatrix};

use crate::Precision;

/// Per-head execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadPlan {
    /// Full `n × n` attention on the dense kernel path.
    Dense,
    /// Fixed sparse attention over a pre-compiled CSC index; the head
    /// runs the SDDMM → sparse-softmax → SpMM dataflow.
    Sparse(CscMatrix),
}

impl HeadPlan {
    /// Whether this head runs the sparse dataflow.
    pub fn is_sparse(&self) -> bool {
        matches!(self, HeadPlan::Sparse(_))
    }
}

/// Frozen auto-encoder weights of one layer (encode → decode for Q and
/// K, exactly the round trip the finetuned forward applies).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAe {
    /// Q encoder, `heads × compressed_heads`.
    pub enc_q: Matrix,
    /// Q decoder, `compressed_heads × heads`.
    pub dec_q: Matrix,
    /// K encoder, `heads × compressed_heads`.
    pub enc_k: Matrix,
    /// K decoder, `compressed_heads × heads`.
    pub dec_k: Matrix,
}

/// The weight of one projection site (`x · W + bias`), held in the one
/// form the site's precision reads.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteWeight {
    /// The fp32 matrix the fp32 GEMM reads.
    Fp32(Matrix),
    /// Quantized per-tensor and packed for [`vitcod_tensor::int8_gemm`]
    /// — once, at artifact load or engine build — and shared read-only
    /// by every engine worker, so serving never re-packs per batch.
    Int8(PackedGemmWeights),
}

impl SiteWeight {
    /// Weight scalars at the site (`k · n`), whichever form holds them.
    pub(crate) fn len(&self) -> usize {
        match self {
            SiteWeight::Fp32(m) => m.len(),
            SiteWeight::Int8(p) => p.bytes(),
        }
    }

    /// Bytes of the buffer the site holds: 4 per fp32 scalar, 2 per
    /// packed `i16` (the panels' zero pads — `k` to a pair, `n` to a
    /// lane multiple — included).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            SiteWeight::Fp32(m) => 4 * m.len(),
            SiteWeight::Int8(p) => {
                let (k, n) = p.shape();
                2 * k.next_multiple_of(2) * n.next_multiple_of(LANES)
            }
        }
    }

    /// The site's int8 bytes: an fp32 site quantized with its fitted
    /// scale, a packed site's own bytes and scale.
    pub(crate) fn quantized(&self) -> QuantizedMatrix {
        match self {
            SiteWeight::Fp32(m) => QuantizedMatrix::quantize(m),
            SiteWeight::Int8(p) => p.to_quantized(),
        }
    }

    /// The site's fp32 values: an fp32 site's own, a packed site's bytes
    /// dequantized to exactly the values they stand for.
    pub(crate) fn values(&self) -> Cow<'_, Matrix> {
        match self {
            SiteWeight::Fp32(m) => Cow::Borrowed(m),
            SiteWeight::Int8(p) => Cow::Owned(p.to_quantized().dequantize()),
        }
    }

    /// The site in the form `precision` reads, if that is not the form
    /// it holds. Fp32 → int8 quantizes and packs; int8 → fp32 yields
    /// exactly the values the bytes stand for.
    fn lowered(&self, precision: Precision) -> Option<SiteWeight> {
        Some(match (self, precision) {
            (SiteWeight::Fp32(_), Precision::Int8) => {
                SiteWeight::Int8(PackedGemmWeights::from_quantized(&self.quantized()))
            }
            (SiteWeight::Int8(_), Precision::Fp32) => SiteWeight::Fp32(self.values().into_owned()),
            _ => return None,
        })
    }
}

/// One transformer block's frozen weights in inference layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLayer {
    /// Pre-attention LayerNorm gamma.
    pub ln1_gamma: Vec<f32>,
    /// Pre-attention LayerNorm beta.
    pub ln1_beta: Vec<f32>,
    /// Fused QKV projection, `dim × 3·dim` (`[Wq | Wk | Wv]`), one
    /// tensor with one int8 scale. The forward reads it as two column
    /// windows: Q (`..dim`) over the query rows alone (one row in a last
    /// layer without a sparse head), KV (`dim..`) over every token, each
    /// column bit-identical to its own projection's.
    pub w_qkv: SiteWeight,
    /// QKV bias, length `3·dim` (`[bq | bk | bv]`), split where the
    /// windows of `w_qkv` are.
    pub b_qkv: Vec<f32>,
    /// Attention output projection, `dim × dim`.
    pub w_out: SiteWeight,
    /// Output-projection bias.
    pub b_out: Vec<f32>,
    /// Pre-MLP LayerNorm gamma.
    pub ln2_gamma: Vec<f32>,
    /// Pre-MLP LayerNorm beta.
    pub ln2_beta: Vec<f32>,
    /// MLP expansion weights, `dim × mlp·dim`.
    pub w_fc1: SiteWeight,
    /// MLP expansion bias.
    pub b_fc1: Vec<f32>,
    /// MLP contraction weights, `mlp·dim × dim`.
    pub w_fc2: SiteWeight,
    /// MLP contraction bias.
    pub b_fc2: Vec<f32>,
    /// Frozen auto-encoder round-trip weights, if installed.
    pub ae: Option<CompiledAe>,
    /// One execution plan per attention head.
    pub heads: Vec<HeadPlan>,
}

/// A Vision Transformer frozen for inference.
///
/// Build one with [`CompiledVit::from_parts`] — after a finished
/// `vitcod_core::ViTCoDPipeline` run that is
/// `CompiledVit::from_parts(report.trainer.model(), report.trainer.store())`
/// — then serve it through [`crate::Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledVit {
    pub(crate) cfg: ViTConfig,
    pub(crate) in_dim: usize,
    pub(crate) num_classes: usize,
    pub(crate) patch_w: Matrix,
    pub(crate) patch_b: Vec<f32>,
    pub(crate) pos_embed: Matrix,
    pub(crate) layers: Vec<CompiledLayer>,
    pub(crate) final_gamma: Vec<f32>,
    pub(crate) final_beta: Vec<f32>,
    pub(crate) head_w: Matrix,
    pub(crate) head_b: Vec<f32>,
}

fn row_vec(store: &ParamStore, id: vitcod_autograd::ParamId) -> Vec<f32> {
    store.value(id).row(0).to_vec()
}

impl CompiledVit {
    /// Freezes `model`'s weights out of `store`.
    ///
    /// Sparse heads share the CSC indexes of the model's installed
    /// sparsity plan (an `O(1)` clone each); heads without a mask stay
    /// dense.
    pub fn from_parts(model: &VisionTransformer, store: &ParamStore) -> Self {
        let cfg = model.config().clone();
        let plan = model.sparsity_plan();
        let layers = (0..cfg.depth)
            .map(|l| {
                let heads = (0..cfg.heads)
                    .map(|h| {
                        plan.and_then(|p| p[l][h].clone())
                            .map_or(HeadPlan::Dense, HeadPlan::Sparse)
                    })
                    .collect();
                let b = model.block_modules(l);
                let wq = store.value(b.wq.weight());
                let wk = store.value(b.wk.weight());
                let wv = store.value(b.wv.weight());
                let mut b_qkv = row_vec(store, b.wq.bias());
                b_qkv.extend_from_slice(store.value(b.wk.bias()).row(0));
                b_qkv.extend_from_slice(store.value(b.wv.bias()).row(0));
                CompiledLayer {
                    ln1_gamma: row_vec(store, b.ln1.gamma()),
                    ln1_beta: row_vec(store, b.ln1.beta()),
                    w_qkv: SiteWeight::Fp32(Matrix::hcat(&[wq, wk, wv])),
                    b_qkv,
                    w_out: SiteWeight::Fp32(store.value(b.wo.weight()).clone()),
                    b_out: row_vec(store, b.wo.bias()),
                    ln2_gamma: row_vec(store, b.ln2.gamma()),
                    ln2_beta: row_vec(store, b.ln2.beta()),
                    w_fc1: SiteWeight::Fp32(store.value(b.fc1.weight()).clone()),
                    b_fc1: row_vec(store, b.fc1.bias()),
                    w_fc2: SiteWeight::Fp32(store.value(b.fc2.weight()).clone()),
                    b_fc2: row_vec(store, b.fc2.bias()),
                    ae: b.ae.map(|ae| CompiledAe {
                        enc_q: store.value(ae.enc_q).clone(),
                        dec_q: store.value(ae.dec_q).clone(),
                        enc_k: store.value(ae.enc_k).clone(),
                        dec_k: store.value(ae.dec_k).clone(),
                    }),
                    heads,
                }
            })
            .collect();
        Self {
            in_dim: model.in_dim(),
            num_classes: model.num_classes(),
            patch_w: store.value(model.patch_embedding().weight()).clone(),
            patch_b: row_vec(store, model.patch_embedding().bias()),
            pos_embed: store.value(model.positional_embedding()).clone(),
            layers,
            final_gamma: row_vec(store, model.final_layernorm().gamma()),
            final_beta: row_vec(store, model.final_layernorm().beta()),
            head_w: store.value(model.classifier().weight()).clone(),
            head_b: row_vec(store, model.classifier().bias()),
            cfg,
        }
    }

    /// Model configuration the artifact was compiled from.
    pub fn config(&self) -> &ViTConfig {
        &self.cfg
    }

    /// Raw patch feature dimension consumed.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of classes predicted.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of sparse heads across all layers.
    pub fn num_sparse_heads(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| &l.heads)
            .filter(|h| h.is_sparse())
            .count()
    }

    /// Mean sparsity across the sparse heads' CSC indexes (0.0 when the
    /// model is fully dense).
    pub fn mean_attention_sparsity(&self) -> f64 {
        let n = self.cfg.tokens;
        let mut sum = 0.0;
        let mut count = 0usize;
        for l in &self.layers {
            for h in &l.heads {
                if let HeadPlan::Sparse(csc) = h {
                    sum += 1.0 - csc.nnz() as f64 / (n * n) as f64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Total frozen weight scalars. A projection site counts `k · n` by
    /// shape, so an fp32-held and an int8-held model read the same.
    pub fn num_weight_scalars(&self) -> usize {
        self.weigh(SiteWeight::len, 1)
    }

    /// Bytes of every weight buffer the model holds: 4 per fp32 scalar,
    /// 2 per packed `i16` of an int8 site (zero pads included). The
    /// number `/proc` cannot give a test: an int8-held model is about
    /// half an fp32-held one.
    // vitcod-lint: allow(V006, the resident footprint the int8-holds-half-of-fp32 contract is stated in)
    pub fn resident_weight_bytes(&self) -> usize {
        self.weigh(SiteWeight::resident_bytes, 4)
    }

    /// `site` summed over the projection sites plus `per_scalar` for
    /// each scalar of every other (fp32) buffer.
    fn weigh(&self, site: impl Fn(&SiteWeight) -> usize, per_scalar: usize) -> usize {
        let mut scalars = self.patch_w.len()
            + self.patch_b.len()
            + self.pos_embed.len()
            + self.final_gamma.len()
            + self.final_beta.len()
            + self.head_w.len()
            + self.head_b.len();
        for l in &self.layers {
            scalars += l.b_qkv.len()
                + l.b_out.len()
                + l.b_fc1.len()
                + l.b_fc2.len()
                + l.ln1_gamma.len()
                + l.ln1_beta.len()
                + l.ln2_gamma.len()
                + l.ln2_beta.len();
            if let Some(ae) = &l.ae {
                scalars += ae.enc_q.len() + ae.dec_q.len() + ae.enc_k.len() + ae.dec_k.len();
            }
        }
        self.sites().map(site).sum::<usize>() + per_scalar * scalars
    }

    /// Every projection site, layer by layer.
    pub(crate) fn sites(&self) -> impl Iterator<Item = &SiteWeight> {
        self.layers
            .iter()
            .flat_map(|l| [&l.w_qkv, &l.w_out, &l.w_fc1, &l.w_fc2])
    }

    /// Puts the model in the form an engine of `precision` reads, in
    /// place, and returns the weight-matrix scalars it visited (one byte
    /// each in an int8 artifact). Every projection site is lowered one
    /// at a time, its old form freed before the next is touched, so at
    /// most one site is ever held twice. Under int8 the matrices the
    /// forward still reads as fp32 — patch embedding, positional
    /// embedding, classifier and the AE mixers — are round-tripped
    /// through quantization: the values an int8 artifact carries.
    pub(crate) fn lower(&mut self, precision: Precision) -> usize {
        let round_trip = |w: &mut Matrix| {
            if precision == Precision::Int8 {
                *w = QuantizedMatrix::quantize(w).dequantize();
            }
            w.len()
        };
        let mut scalars = round_trip(&mut self.patch_w)
            + round_trip(&mut self.pos_embed)
            + round_trip(&mut self.head_w);
        for l in &mut self.layers {
            if let Some(ae) = &mut l.ae {
                let mixers = [&mut ae.enc_q, &mut ae.dec_q, &mut ae.enc_k, &mut ae.dec_k];
                scalars += mixers.map(round_trip).iter().sum::<usize>();
            }
            for site in [&mut l.w_qkv, &mut l.w_out, &mut l.w_fc1, &mut l.w_fc2] {
                // The assignment frees the form the site held.
                if let Some(lowered) = site.lowered(precision) {
                    *site = lowered;
                }
                scalars += site.len();
            }
        }
        scalars
    }
}

/// Convenience for tests and benchmarks: labelled samples the engine can
/// classify, straight from a synthetic task split.
pub fn accuracy(predictions: &[crate::Prediction], samples: &[Sample]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(samples)
        .filter(|(p, s)| p.class == s.label)
        .count();
    correct as f32 / samples.len() as f32
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::{load_compiled_vit, save_compiled_vit, Engine};

    /// A depth-2 model at the reduced training shape whose every
    /// `[Wq | Wk | Wv]` has its Q columns (`zero_q`) or its KV columns all
    /// zero, with each layer's `[Wq | Wk | Wv]` from the parameter store:
    /// a scale fitted per window would read 1.0 on the zero window and
    /// something else on the other, where the fused tensor has one.
    fn half_zero_model(zero_q: bool) -> (CompiledVit, Vec<Matrix>) {
        let cfg = ViTConfig::deit_tiny().reduced_for_training();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let vit = VisionTransformer::new(&cfg, 8, 4, &mut store, &mut rng);
        for l in 0..cfg.depth {
            let b = vit.block_modules(l);
            let zeroed = if zero_q {
                vec![b.wq.weight()]
            } else {
                vec![b.wk.weight(), b.wv.weight()]
            };
            for id in zeroed {
                let m = store.value_mut(id);
                *m = Matrix::zeros(m.rows(), m.cols());
            }
        }
        let fused = (0..cfg.depth)
            .map(|l| {
                let b = vit.block_modules(l);
                Matrix::hcat(&[b.wq, b.wk, b.wv].map(|p| store.value(p.weight())))
            })
            .collect();
        (CompiledVit::from_parts(&vit, &store), fused)
    }

    #[test]
    fn q_and_kv_sites_keep_the_scale_and_codes_of_the_fused_tensor() {
        for zero_q in [true, false] {
            let (model, fused) = half_zero_model(zero_q);
            let engine = Engine::builder(model.clone())
                .precision(Precision::Int8)
                .build();
            let built = engine.compiled();
            for (l, (layer, fused)) in built.layers.iter().zip(&fused).enumerate() {
                let SiteWeight::Int8(packed) = &layer.w_qkv else {
                    panic!("layer {l}: a packed QKV site was expected");
                };
                let want = QuantizedMatrix::quantize(fused);
                assert_eq!(packed.to_quantized(), want, "zero_q {zero_q}, layer {l}");
            }

            // The writer quantizes fp32 sites to the bytes the build packs,
            // and the load packs them back into the same site.
            let text = save_compiled_vit(built, Precision::Int8);
            assert!(save_compiled_vit(&model, Precision::Int8) == text);
            let (loaded, precision) = load_compiled_vit(&text).unwrap();
            assert_eq!(precision, Precision::Int8);
            assert!(save_compiled_vit(&loaded, Precision::Int8) == text);
            let reloaded = Engine::builder(loaded).precision(Precision::Int8).build();
            assert!(reloaded.compiled() == built);

            // One byte per weight-matrix scalar, fewer resident bytes than
            // fp32 — the int8 engine's contracts.
            let scalars = model.num_weight_scalars();
            let vectors = model.weigh(|_| 0, 1)
                - model.patch_w.len()
                - model.pos_embed.len()
                - model.head_w.len();
            assert_eq!(engine.int8_weight_bytes(), Some(scalars - vectors));
            assert_eq!(built.num_weight_scalars(), scalars);
            assert_eq!(
                reloaded.compiled().resident_weight_bytes(),
                built.resident_weight_bytes()
            );
            assert!(built.resident_weight_bytes() < model.resident_weight_bytes());
        }
    }
}
