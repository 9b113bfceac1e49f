//! On-disk persistence for [`CompiledVit`]: the hooks that lower the
//! engine's frozen artifact into the format-level
//! [`CompiledModelArtifact`] record (and back), so a compiled model can
//! outlive the process that trained it.
//!
//! The format itself lives in [`vitcod_core::artifact`]
//! ([`save_compiled`]/[`load_compiled`], same line-oriented style as
//! `save_masks`); this module owns the *schema*: which meta keys carry
//! the [`ViTConfig`], which tensor names hold which weights, and which
//! tensors an int8 save stores as 1-byte quantized payloads.
//!
//! Guarantees:
//!
//! * **fp32 saves are bit-exact** — every weight scalar is written as
//!   its IEEE-754 bit pattern, so a reloaded model's logits are
//!   bit-identical to the original's.
//! * **int8 saves are byte-exact** — weight matrices on the engine's
//!   quantization set are stored as raw i8 bytes plus their bit-exact
//!   scale; save → load → save reproduces the identical artifact text.
//!   A projection site's bytes load straight into the serving GEMM's
//!   panels — never through fp32 — and an int8 save writes a packed
//!   site's bytes back verbatim.

use std::collections::HashMap;
use std::fmt;

use vitcod_core::{
    load_compiled, save_compiled, CompiledModelArtifact, HeadPlanRecord, NamedTensor,
    ParseArtifactError, TensorPayload,
};
use vitcod_model::{ModelFamily, StageConfig, ViTConfig};
use vitcod_tensor::{Matrix, PackedGemmWeights, QuantizedMatrix};

use crate::compiled::{CompiledAe, CompiledLayer, CompiledVit, HeadPlan, SiteWeight};
use crate::Precision;

/// Error loading a [`CompiledVit`] from its serialized form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The text failed to parse at the format level; carries the
    /// offending line number.
    Parse(ParseArtifactError),
    /// The record parsed but does not describe a valid compiled ViT
    /// (missing tensor, wrong shape, inconsistent plan counts, ...).
    Schema(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Parse(e) => write!(f, "{e}"),
            ArtifactError::Schema(m) => write!(f, "invalid compiled-model schema: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<ParseArtifactError> for ArtifactError {
    fn from(e: ParseArtifactError) -> Self {
        ArtifactError::Parse(e)
    }
}

fn schema(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(msg.into())
}

/// Serializes `model` to the versioned text format. Under
/// [`Precision::Int8`] the engine's quantization set (projections, MLPs,
/// AE mixers, patch/pos/classifier weights) is stored as 1-byte
/// payloads; biases and LayerNorm parameters stay fp32, exactly as the
/// int8 engine computes.
pub fn save_compiled_vit(model: &CompiledVit, precision: Precision) -> String {
    save_compiled(&model.to_artifact(precision))
}

/// Parses a model written by [`save_compiled_vit`], returning the
/// reconstructed artifact and the precision it was saved under. An int8
/// projection payload becomes a packed [`SiteWeight::Int8`] site, bytes
/// and scale verbatim; every other int8 payload dequantizes to exactly
/// the values its bytes represent.
///
/// # Errors
///
/// [`ArtifactError::Parse`] on malformed text (with line number),
/// [`ArtifactError::Schema`] when the record is not a compiled ViT.
pub fn load_compiled_vit(text: &str) -> Result<(CompiledVit, Precision), ArtifactError> {
    let record = load_compiled(text)?;
    let stored = record.meta.iter().find(|(k, _)| k == "precision");
    let precision = match stored.map(|(_, v)| v.as_str()) {
        Some("int8") => Precision::Int8,
        Some("fp32") | None => Precision::Fp32,
        Some(other) => return Err(schema(format!("unknown precision '{other}'"))),
    };
    Ok((CompiledVit::from_artifact(record)?, precision))
}

/// Pushes a weight matrix, quantizing it when `int8` (the engine's
/// 1-byte-per-weight artifact bytes).
fn push_weight(tensors: &mut Vec<NamedTensor>, name: String, m: &Matrix, int8: bool) {
    let payload = if int8 {
        TensorPayload::I8(QuantizedMatrix::quantize(m))
    } else {
        TensorPayload::F32(m.clone())
    };
    tensors.push(NamedTensor { name, payload });
}

/// Pushes a projection site. A packed site's bytes and scale go out
/// verbatim under `int8` (and as the values they stand for otherwise):
/// save → load → save is byte-identical by construction.
fn push_site(tensors: &mut Vec<NamedTensor>, name: String, w: &SiteWeight, int8: bool) {
    let payload = match w {
        SiteWeight::Fp32(m) => return push_weight(tensors, name, m, int8),
        SiteWeight::Int8(p) if int8 => TensorPayload::I8(p.to_quantized()),
        SiteWeight::Int8(p) => TensorPayload::F32(p.to_quantized().dequantize()),
    };
    tensors.push(NamedTensor { name, payload });
}

/// Pushes a parameter vector as a 1 × n fp32 tensor (vectors are never
/// quantized — the int8 engine keeps biases and LayerNorm in fp32).
fn push_vec(tensors: &mut Vec<NamedTensor>, name: String, v: &[f32]) {
    tensors.push(NamedTensor {
        name,
        payload: TensorPayload::F32(Matrix::from_vec(1, v.len(), v.to_vec())),
    });
}

/// `(name, value)` pairs indexed by name, so a load moves each value
/// out once instead of scanning for it and cloning it. A repeated name
/// is an error: a scan would let the first silently shadow the rest.
fn index_by_name<V>(
    what: &str,
    pairs: impl IntoIterator<Item = (String, V)>,
) -> Result<HashMap<String, V>, ArtifactError> {
    let mut map = HashMap::new();
    for (name, value) in pairs {
        if map.contains_key(&name) {
            return Err(schema(format!("duplicate {what} '{name}'")));
        }
        map.insert(name, value);
    }
    Ok(map)
}

type Tensors = HashMap<String, TensorPayload>;

/// Moves tensor `name` out of the record, checking its shape.
fn take_payload(
    tensors: &mut Tensors,
    name: &str,
    shape: (usize, usize),
) -> Result<TensorPayload, ArtifactError> {
    let payload = tensors
        .remove(name)
        .ok_or_else(|| schema(format!("missing tensor '{name}'")))?;
    if payload.shape() != shape {
        return Err(schema(format!(
            "tensor '{name}' has shape {:?}, expected {:?}",
            payload.shape(),
            shape
        )));
    }
    Ok(payload)
}

/// Tensor `name` as the fp32 values it holds or, from an int8 payload,
/// the values its bytes stand for.
fn take(tensors: &mut Tensors, name: &str, shape: (usize, usize)) -> Result<Matrix, ArtifactError> {
    Ok(match take_payload(tensors, name, shape)? {
        TensorPayload::F32(m) => m,
        TensorPayload::I8(q) => q.dequantize(),
    })
}

fn take_vec(tensors: &mut Tensors, name: &str, len: usize) -> Result<Vec<f32>, ArtifactError> {
    Ok(take(tensors, name, (1, len))?.into_vec())
}

/// A projection site in the form its payload is read in. An int8
/// payload is packed straight into the serving GEMM layout — the
/// artifact's bytes and scale verbatim, no fp32 copy made — so the site
/// is identical to the one an int8 build packed before the save.
fn take_site(
    tensors: &mut Tensors,
    name: &str,
    shape: (usize, usize),
) -> Result<SiteWeight, ArtifactError> {
    Ok(match take_payload(tensors, name, shape)? {
        TensorPayload::F32(m) => SiteWeight::Fp32(m),
        TensorPayload::I8(q) => SiteWeight::Int8(PackedGemmWeights::from_quantized(&q)),
    })
}

fn meta_parse<T: std::str::FromStr>(
    meta: &HashMap<String, String>,
    key: &str,
) -> Result<T, ArtifactError> {
    meta.get(key)
        .ok_or_else(|| schema(format!("missing meta key '{key}'")))?
        .parse::<T>()
        .map_err(|_| schema(format!("malformed meta value for '{key}'")))
}

/// Resolves a model name back to the `&'static str` the [`ViTConfig`]
/// zoo uses; unknown names (custom configs) are interned in a process
/// table, leaking one allocation per *distinct* name — so a long-lived
/// server reloading the same artifact forever holds constant memory.
fn static_name(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    for cfg in ViTConfig::all_paper_models() {
        if cfg.name == name {
            return cfg.name;
        }
    }
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    // Poison recovery: the only mutation under this lock is a single
    // HashSet insert of an already-leaked str, so a panicking interner
    // cannot leave the table inconsistent.
    let mut table = INTERNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match table.get(name) {
        Some(interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            table.insert(leaked);
            leaked
        }
    }
}

impl CompiledVit {
    /// Lowers the frozen model into the schema-free format record.
    /// Under [`Precision::Int8`], the weight matrices the int8 engine
    /// quantizes are stored as i8 payloads (a packed site's own bytes,
    /// verbatim); everything else stays fp32. Under [`Precision::Fp32`]
    /// a packed site is written as the values its bytes stand for.
    pub fn to_artifact(&self, precision: Precision) -> CompiledModelArtifact {
        let int8 = precision == Precision::Int8;
        let cfg = &self.cfg;
        let stages: Vec<String> = cfg
            .stages
            .iter()
            .map(|s| format!("{},{},{},{}", s.tokens, s.dim, s.heads, s.depth))
            .collect();
        let meta = vec![
            ("model".to_string(), cfg.name.to_string()),
            ("family".to_string(), cfg.family.to_string()),
            ("tokens".to_string(), cfg.tokens.to_string()),
            ("dim".to_string(), cfg.dim.to_string()),
            ("heads".to_string(), cfg.heads.to_string()),
            ("depth".to_string(), cfg.depth.to_string()),
            ("mlp_ratio".to_string(), cfg.mlp_ratio.to_string()),
            ("stages".to_string(), stages.join(";")),
            ("stem_macs".to_string(), cfg.stem_macs.to_string()),
            // f64 stored bit-exactly, like every other scalar.
            (
                "paper_sparsity".to_string(),
                format!("{:016x}", cfg.paper_sparsity.to_bits()),
            ),
            ("in_dim".to_string(), self.in_dim.to_string()),
            ("num_classes".to_string(), self.num_classes.to_string()),
            (
                "precision".to_string(),
                if int8 { "int8" } else { "fp32" }.to_string(),
            ),
        ];

        let mut tensors = Vec::new();
        push_weight(&mut tensors, "patch_w".into(), &self.patch_w, int8);
        push_vec(&mut tensors, "patch_b".into(), &self.patch_b);
        push_weight(&mut tensors, "pos_embed".into(), &self.pos_embed, int8);
        for (l, layer) in self.layers.iter().enumerate() {
            let name = |field: &str| format!("layer{l}.{field}");
            push_vec(&mut tensors, name("ln1_gamma"), &layer.ln1_gamma);
            push_vec(&mut tensors, name("ln1_beta"), &layer.ln1_beta);
            push_site(&mut tensors, name("w_qkv"), &layer.w_qkv, int8);
            push_vec(&mut tensors, name("b_qkv"), &layer.b_qkv);
            push_site(&mut tensors, name("w_out"), &layer.w_out, int8);
            push_vec(&mut tensors, name("b_out"), &layer.b_out);
            push_vec(&mut tensors, name("ln2_gamma"), &layer.ln2_gamma);
            push_vec(&mut tensors, name("ln2_beta"), &layer.ln2_beta);
            push_site(&mut tensors, name("w_fc1"), &layer.w_fc1, int8);
            push_vec(&mut tensors, name("b_fc1"), &layer.b_fc1);
            push_site(&mut tensors, name("w_fc2"), &layer.w_fc2, int8);
            push_vec(&mut tensors, name("b_fc2"), &layer.b_fc2);
            if let Some(ae) = &layer.ae {
                push_weight(&mut tensors, name("ae.enc_q"), &ae.enc_q, int8);
                push_weight(&mut tensors, name("ae.dec_q"), &ae.dec_q, int8);
                push_weight(&mut tensors, name("ae.enc_k"), &ae.enc_k, int8);
                push_weight(&mut tensors, name("ae.dec_k"), &ae.dec_k, int8);
            }
        }
        push_vec(&mut tensors, "final_gamma".into(), &self.final_gamma);
        push_vec(&mut tensors, "final_beta".into(), &self.final_beta);
        push_weight(&mut tensors, "head_w".into(), &self.head_w, int8);
        push_vec(&mut tensors, "head_b".into(), &self.head_b);

        let plans = self
            .layers
            .iter()
            .map(|layer| {
                layer
                    .heads
                    .iter()
                    .map(|h| match h {
                        HeadPlan::Dense => HeadPlanRecord::Dense,
                        HeadPlan::Sparse(csc) => HeadPlanRecord::Sparse(csc.clone()),
                    })
                    .collect()
            })
            .collect();

        CompiledModelArtifact {
            meta,
            tensors,
            plans,
        }
    }

    /// Reconstructs a frozen model from a format record, validating the
    /// schema (tensor presence, shapes, plan counts, no repeated name)
    /// along the way. The record is consumed: every tensor moves into
    /// the model, so a load never holds the weights twice.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] naming the first inconsistency.
    pub fn from_artifact(record: CompiledModelArtifact) -> Result<Self, ArtifactError> {
        let meta = &index_by_name("meta key", record.meta)?;
        let tensors = &mut index_by_name(
            "tensor",
            record.tensors.into_iter().map(|t| (t.name, t.payload)),
        )?;
        let family = match meta_parse::<String>(meta, "family")?.as_str() {
            "DeiT" => ModelFamily::DeiT,
            "LeViT" => ModelFamily::LeViT,
            "Strided Transformer" => ModelFamily::Strided,
            other => return Err(schema(format!("unknown model family '{other}'"))),
        };
        let tokens: usize = meta_parse(meta, "tokens")?;
        let dim: usize = meta_parse(meta, "dim")?;
        let heads: usize = meta_parse(meta, "heads")?;
        let depth: usize = meta_parse(meta, "depth")?;
        let mlp_ratio: usize = meta_parse(meta, "mlp_ratio")?;
        let stem_macs: u64 = meta_parse(meta, "stem_macs")?;
        let paper_sparsity = f64::from_bits(
            u64::from_str_radix(&meta_parse::<String>(meta, "paper_sparsity")?, 16)
                .map_err(|_| schema("malformed 'paper_sparsity' bit pattern"))?,
        );
        let stages = meta_parse::<String>(meta, "stages")?
            .split(';')
            .map(|s| {
                let fields: Vec<usize> = s
                    .split(',')
                    .map(|v| v.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| schema(format!("malformed stage '{s}'")))?;
                if fields.len() != 4 {
                    return Err(schema(format!("stage '{s}' needs 4 fields")));
                }
                Ok(StageConfig {
                    tokens: fields[0],
                    dim: fields[1],
                    heads: fields[2],
                    depth: fields[3],
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if stages.is_empty() {
            return Err(schema("model needs at least one stage"));
        }
        if heads == 0 || !dim.is_multiple_of(heads) {
            return Err(schema(format!("dim {dim} not divisible by heads {heads}")));
        }
        let cfg = ViTConfig {
            name: static_name(&meta_parse::<String>(meta, "model")?),
            family,
            tokens,
            dim,
            heads,
            depth,
            mlp_ratio,
            stages,
            stem_macs,
            paper_sparsity,
        };
        let in_dim: usize = meta_parse(meta, "in_dim")?;
        let num_classes: usize = meta_parse(meta, "num_classes")?;

        if record.plans.len() != depth {
            return Err(schema(format!(
                "{} plan layers for depth {depth}",
                record.plans.len()
            )));
        }
        // Meta values are untrusted: shape arithmetic must error, not
        // overflow-panic (matching the core parser's hardening).
        let overflow = || schema(format!("dim {dim} x mlp_ratio {mlp_ratio} overflows"));
        let three_dim = dim.checked_mul(3).ok_or_else(overflow)?;
        let hidden = dim.checked_mul(mlp_ratio).ok_or_else(overflow)?;
        let layers = record
            .plans
            .into_iter()
            .enumerate()
            .map(|(l, plan)| {
                if plan.len() != heads {
                    return Err(schema(format!(
                        "layer {l} has {} head plans for {heads} heads",
                        plan.len()
                    )));
                }
                let name = |field: &str| format!("layer{l}.{field}");
                let head_plans = plan
                    .into_iter()
                    .map(|h| match h {
                        HeadPlanRecord::Dense => Ok(HeadPlan::Dense),
                        HeadPlanRecord::Sparse(csc) if csc.size() != tokens => {
                            Err(schema(format!(
                                "layer {l}: CSC index size {} != tokens {tokens}",
                                csc.size()
                            )))
                        }
                        HeadPlanRecord::Sparse(csc) => Ok(HeadPlan::Sparse(csc)),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                // The AE's compressed width is not in the meta — recover
                // it from the encoder tensor itself.
                let enc_q_shape = tensors.get(&name("ae.enc_q")).map(TensorPayload::shape);
                let ae = if let Some((_, compressed)) = enc_q_shape {
                    Some(CompiledAe {
                        enc_q: take(tensors, &name("ae.enc_q"), (heads, compressed))?,
                        dec_q: take(tensors, &name("ae.dec_q"), (compressed, heads))?,
                        enc_k: take(tensors, &name("ae.enc_k"), (heads, compressed))?,
                        dec_k: take(tensors, &name("ae.dec_k"), (compressed, heads))?,
                    })
                } else {
                    None
                };
                Ok(CompiledLayer {
                    ln1_gamma: take_vec(tensors, &name("ln1_gamma"), dim)?,
                    ln1_beta: take_vec(tensors, &name("ln1_beta"), dim)?,
                    w_qkv: take_site(tensors, &name("w_qkv"), (dim, three_dim))?,
                    b_qkv: take_vec(tensors, &name("b_qkv"), three_dim)?,
                    w_out: take_site(tensors, &name("w_out"), (dim, dim))?,
                    b_out: take_vec(tensors, &name("b_out"), dim)?,
                    ln2_gamma: take_vec(tensors, &name("ln2_gamma"), dim)?,
                    ln2_beta: take_vec(tensors, &name("ln2_beta"), dim)?,
                    w_fc1: take_site(tensors, &name("w_fc1"), (dim, hidden))?,
                    b_fc1: take_vec(tensors, &name("b_fc1"), hidden)?,
                    w_fc2: take_site(tensors, &name("w_fc2"), (hidden, dim))?,
                    b_fc2: take_vec(tensors, &name("b_fc2"), dim)?,
                    ae,
                    heads: head_plans,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(CompiledVit {
            patch_w: take(tensors, "patch_w", (in_dim, dim))?,
            patch_b: take_vec(tensors, "patch_b", dim)?,
            pos_embed: take(tensors, "pos_embed", (tokens, dim))?,
            layers,
            final_gamma: take_vec(tensors, "final_gamma", dim)?,
            final_beta: take_vec(tensors, "final_beta", dim)?,
            head_w: take(tensors, "head_w", (dim, num_classes))?,
            head_b: take_vec(tensors, "head_b", num_classes)?,
            cfg,
            in_dim,
            num_classes,
        })
    }
}
