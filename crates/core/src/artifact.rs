//! Serialization of compiled accelerator programs.
//!
//! The paper's interface pipeline (Fig. 14) compiles a sparse ViT once
//! and amortizes the cost "across the execution lifetime of each task".
//! That implies a durable artifact: this module defines a versioned,
//! line-oriented text format for [`AcceleratorProgram`]s so a compiled
//! model can be written to disk and reloaded without re-running the
//! split-and-conquer pass.
//!
//! The format is deliberately plain text (diff-able, inspectable, no
//! external dependencies):
//!
//! ```text
//! vitcod-program v1
//! model DeiT-Base
//! tokens 197
//! head_dim 64
//! heads 12
//! ae 12 6
//! layer 0 12
//! head 5 985 2891 0,3,1,...   # num_global denser_nnz sparser_nnz col_nnz
//! ...
//! end
//! ```

use std::error::Error;
use std::fmt;

use vitcod_tensor::{Matrix, QuantParams, QuantizedMatrix};

use crate::autoencoder::AutoEncoderConfig;
use crate::formats::CscMatrix;
use crate::interface::{AcceleratorProgram, LayerProgram, PhaseWorkload};

/// Error produced when parsing a serialized program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArtifactError {
    line: usize,
    message: String,
}

impl ParseArtifactError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid program artifact at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseArtifactError {}

/// Serializes a compiled program to the versioned text format.
///
/// # Example
///
/// ```
/// use vitcod_core::{compile_model, load_program, save_program,
///                   SplitConquer, SplitConquerConfig};
/// use vitcod_model::{AttentionStats, ViTConfig};
///
/// let cfg = ViTConfig::deit_tiny();
/// let stats = AttentionStats::for_model(&cfg, 1);
/// let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
/// let program = compile_model(&cfg, &sc.apply(&stats.maps), None);
/// let text = save_program(&program);
/// let restored = load_program(&text).unwrap();
/// assert_eq!(restored.total_macs(), program.total_macs());
/// ```
pub fn save_program(program: &AcceleratorProgram) -> String {
    let mut out = String::new();
    out.push_str("vitcod-program v1\n");
    out.push_str(&format!("model {}\n", program.model));
    out.push_str(&format!("tokens {}\n", program.tokens));
    out.push_str(&format!("head_dim {}\n", program.head_dim));
    out.push_str(&format!("heads {}\n", program.heads));
    if let Some(ae) = program.auto_encoder {
        out.push_str(&format!("ae {} {}\n", ae.heads(), ae.compressed_heads()));
    }
    for layer in &program.layers {
        out.push_str(&format!("layer {} {}\n", layer.layer, layer.heads.len()));
        for h in &layer.heads {
            let cols: Vec<String> = h.sparser_col_nnz.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "head {} {} {} {}\n",
                h.num_global,
                h.denser_nnz,
                h.sparser_nnz,
                cols.join(",")
            ));
        }
    }
    out.push_str("end\n");
    out
}

/// Parses a program previously written by [`save_program`].
///
/// # Errors
///
/// Returns [`ParseArtifactError`] on version mismatch, truncation, or
/// malformed fields; the error carries the offending line number.
pub fn load_program(text: &str) -> Result<AcceleratorProgram, ParseArtifactError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let err = |line: usize, msg: &str| ParseArtifactError::new(line, msg);

    let (ln, header) = lines.next().ok_or_else(|| err(1, "empty artifact"))?;
    if header != "vitcod-program v1" {
        return Err(err(ln, "unsupported header (expected 'vitcod-program v1')"));
    }

    let mut model = None;
    let mut tokens = None;
    let mut head_dim = None;
    let mut heads = None;
    let mut ae = None;
    let mut layers: Vec<LayerProgram> = Vec::new();
    let mut pending_heads: usize = 0;
    let mut saw_end = false;

    for (ln, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or("");
        match tag {
            "model" => {
                model = Some(parts.collect::<Vec<_>>().join(" "));
            }
            "tokens" => tokens = Some(parse_usize(&mut parts, ln, "tokens")?),
            "head_dim" => head_dim = Some(parse_usize(&mut parts, ln, "head_dim")?),
            "heads" => heads = Some(parse_usize(&mut parts, ln, "heads")?),
            "ae" => {
                let h = parse_usize(&mut parts, ln, "ae heads")?;
                let c = parse_usize(&mut parts, ln, "ae compressed")?;
                if c == 0 || c > h {
                    return Err(err(ln, "ae compressed heads out of range"));
                }
                ae = Some(AutoEncoderConfig::new(h, c));
            }
            "layer" => {
                if pending_heads != 0 {
                    return Err(err(ln, "previous layer is missing head records"));
                }
                let idx = parse_usize(&mut parts, ln, "layer index")?;
                pending_heads = parse_usize(&mut parts, ln, "layer head count")?;
                layers.push(LayerProgram {
                    layer: idx,
                    heads: Vec::with_capacity(pending_heads),
                });
            }
            "head" => {
                let layer = layers
                    .last_mut()
                    .ok_or_else(|| err(ln, "head record before any layer"))?;
                if pending_heads == 0 {
                    return Err(err(ln, "more head records than declared"));
                }
                let num_global = parse_usize(&mut parts, ln, "num_global")?;
                let denser_nnz = parse_usize(&mut parts, ln, "denser_nnz")?;
                let sparser_nnz = parse_usize(&mut parts, ln, "sparser_nnz")?;
                let cols_field = parts.next().unwrap_or("");
                let sparser_col_nnz: Vec<usize> = if cols_field.is_empty() {
                    Vec::new()
                } else {
                    cols_field
                        .split(',')
                        .map(|c| {
                            c.parse::<usize>()
                                .map_err(|_| err(ln, "malformed col_nnz list"))
                        })
                        .collect::<Result<_, _>>()?
                };
                let n = tokens.ok_or_else(|| err(ln, "head record before tokens"))?;
                let dk = head_dim.ok_or_else(|| err(ln, "head record before head_dim"))?;
                if sparser_col_nnz.iter().sum::<usize>() != sparser_nnz {
                    return Err(err(ln, "col_nnz sum disagrees with sparser_nnz"));
                }
                layer.heads.push(PhaseWorkload {
                    tokens: n,
                    head_dim: dk,
                    num_global,
                    denser_nnz,
                    sparser_nnz,
                    sparser_col_nnz,
                });
                pending_heads -= 1;
            }
            "end" => {
                saw_end = true;
                break;
            }
            other => return Err(err(ln, &format!("unknown record '{other}'"))),
        }
    }
    if !saw_end {
        return Err(ParseArtifactError::new(
            text.lines().count(),
            "missing 'end' terminator (truncated artifact?)",
        ));
    }
    if pending_heads != 0 {
        return Err(ParseArtifactError::new(
            text.lines().count(),
            "last layer is missing head records",
        ));
    }
    Ok(AcceleratorProgram {
        model: model.ok_or_else(|| err(0, "missing 'model'"))?,
        tokens: tokens.ok_or_else(|| err(0, "missing 'tokens'"))?,
        head_dim: head_dim.ok_or_else(|| err(0, "missing 'head_dim'"))?,
        heads: heads.ok_or_else(|| err(0, "missing 'heads'"))?,
        layers,
        auto_encoder: ae,
    })
}

fn parse_usize<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    field: &str,
) -> Result<usize, ParseArtifactError> {
    parts
        .next()
        .ok_or_else(|| ParseArtifactError::new(line, format!("missing {field}")))?
        .parse::<usize>()
        .map_err(|_| ParseArtifactError::new(line, format!("malformed {field}")))
}

/// Serializes a set of fixed attention masks (the *training-side*
/// artifact: what finetuning and deployment share) as run-length-encoded
/// rows. Masks are `[layer][head]`, as produced by
/// [`crate::SplitConquer::apply`].
///
/// Format:
///
/// ```text
/// vitcod-masks v1
/// size 197
/// mask 0 0            # layer, head
/// 3k2p5k...           # per row: alternating keep/prune run lengths
/// ...
/// end
/// ```
pub fn save_masks(masks: &[Vec<crate::AttentionMask>]) -> String {
    let mut out = String::from("vitcod-masks v1\n");
    let n = masks
        .first()
        .and_then(|l| l.first())
        .map(|m| m.size())
        .unwrap_or(0);
    out.push_str(&format!("size {n}\n"));
    for (l, layer) in masks.iter().enumerate() {
        for (h, mask) in layer.iter().enumerate() {
            out.push_str(&format!("mask {l} {h}\n"));
            for q in 0..n {
                let mut row = String::new();
                let mut run_kept = true; // rows start with a (possibly 0) keep run
                let mut run_len = 0usize;
                for k in 0..n {
                    let kept = mask.is_kept(q, k);
                    if kept == run_kept {
                        run_len += 1;
                    } else {
                        row.push_str(&format!("{run_len}{}", if run_kept { 'k' } else { 'p' }));
                        run_kept = kept;
                        run_len = 1;
                    }
                }
                row.push_str(&format!("{run_len}{}", if run_kept { 'k' } else { 'p' }));
                out.push_str(&row);
                out.push('\n');
            }
        }
    }
    out.push_str("end\n");
    out
}

/// Parses masks written by [`save_masks`].
///
/// # Errors
///
/// Returns [`ParseArtifactError`] on malformed input, wrong row lengths
/// or a missing terminator.
pub fn load_masks(text: &str) -> Result<Vec<Vec<crate::AttentionMask>>, ParseArtifactError> {
    use crate::AttentionMask;
    let err = ParseArtifactError::new;
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let (ln, header) = lines
        .next()
        .ok_or_else(|| err(1, "empty artifact".into()))?;
    if header != "vitcod-masks v1" {
        return Err(err(ln, "unsupported header".into()));
    }
    let (ln, size_line) = lines.next().ok_or_else(|| err(2, "missing size".into()))?;
    let n: usize = size_line
        .strip_prefix("size ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(ln, "malformed size".into()))?;

    let mut out: Vec<Vec<AttentionMask>> = Vec::new();
    let mut current: Option<(usize, AttentionMask, usize)> = None; // (layer, mask, next row)
    let mut saw_end = false;
    for (ln, line) in lines {
        if line.is_empty() {
            continue;
        }
        if line == "end" {
            saw_end = true;
            break;
        }
        if let Some(rest) = line.strip_prefix("mask ") {
            if let Some((_, mask, rows)) = current.take() {
                if rows != n {
                    return Err(err(ln, "previous mask has missing rows".into()));
                }
                out.last_mut().expect("layer exists").push(mask);
            }
            let mut parts = rest.split_whitespace();
            let layer: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(ln, "malformed mask layer".into()))?;
            let _head: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(ln, "malformed mask head".into()))?;
            while out.len() <= layer {
                out.push(Vec::new());
            }
            current = Some((layer, AttentionMask::empty(n), 0));
            continue;
        }
        // RLE row.
        let (_, mask, row) = current
            .as_mut()
            .ok_or_else(|| err(ln, "row data before any mask record".into()))?;
        if *row >= n {
            return Err(err(ln, "too many rows for mask".into()));
        }
        let mut col = 0usize;
        let mut num = 0usize;
        for ch in line.chars() {
            match ch {
                '0'..='9' => num = num * 10 + (ch as usize - '0' as usize),
                'k' | 'p' => {
                    if col + num > n {
                        return Err(err(ln, "run exceeds row width".into()));
                    }
                    if ch == 'k' {
                        for k in col..col + num {
                            mask.keep(*row, k);
                        }
                    }
                    col += num;
                    num = 0;
                }
                other => {
                    return Err(err(
                        ln,
                        format!("unexpected character '{other}' in RLE row"),
                    ))
                }
            }
        }
        if col != n {
            return Err(err(ln, "row runs do not cover the full width".into()));
        }
        *row += 1;
    }
    if let Some((_, mask, rows)) = current.take() {
        if rows != n {
            return Err(ParseArtifactError::new(0, "last mask truncated"));
        }
        out.last_mut().expect("layer exists").push(mask);
    }
    if !saw_end {
        return Err(ParseArtifactError::new(
            text.lines().count(),
            "missing 'end' terminator",
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Compiled-model artifacts: the serving-side counterpart of
// `save_program`/`save_masks`. A `CompiledModelArtifact` is the
// format-level view of a frozen inference model — named weight tensors,
// configuration metadata, and one execution plan per attention head —
// that a `vitcod_engine::CompiledVit` lowers into and reconstructs from,
// so a compiled ViT can outlive its process.
// ---------------------------------------------------------------------------

/// One tensor's stored values.
///
/// fp32 payloads are written as the hexadecimal IEEE-754 bit patterns of
/// their elements, so a save → load round trip is **bit-exact** (NaN
/// payloads and signed zeros included). int8 payloads carry the raw i8
/// bytes plus their symmetric quantization scale (itself bit-exact), the
/// 1-byte-per-weight artifact the accelerator streams.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorPayload {
    /// Full-precision values, serialized bit-exactly.
    F32(Matrix),
    /// Symmetric 8-bit quantized values, `x ≈ scale · q`: the raw bytes
    /// and the real value of one integer step.
    I8(QuantizedMatrix),
}

impl TensorPayload {
    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            TensorPayload::F32(m) => m.shape(),
            TensorPayload::I8(q) => q.shape(),
        }
    }
}

/// A named tensor of a compiled model.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    /// Dotted-path name, e.g. `layer3.w_qkv`.
    pub name: String,
    /// Stored values.
    pub payload: TensorPayload,
}

/// One attention head's execution plan, as stored on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadPlanRecord {
    /// Full dense attention.
    Dense,
    /// Fixed sparse attention over the stored CSC index.
    Sparse(CscMatrix),
}

/// The format-level record of a compiled inference model: ordered
/// configuration metadata, named weight tensors, and per-`[layer][head]`
/// execution plans.
///
/// This type is deliberately schema-free — the *engine* decides which
/// meta keys and tensor names a `CompiledVit` needs; the format only
/// guarantees lossless transport. Serialize with [`save_compiled`],
/// parse with [`load_compiled`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledModelArtifact {
    /// Ordered `(key, value)` configuration metadata.
    pub meta: Vec<(String, String)>,
    /// Named weight tensors.
    pub tensors: Vec<NamedTensor>,
    /// Per-layer, per-head execution plans.
    pub plans: Vec<Vec<HeadPlanRecord>>,
}

/// Serializes a compiled model to the versioned text format.
///
/// Layout (one record per line; tensor payloads span one line per row):
///
/// ```text
/// vitcod-compiled v1
/// meta model DeiT-Tiny
/// tensor f32 patch_w 8 16
/// 3f800000 40000000 ...          # one row: IEEE-754 bit patterns
/// tensor i8 layer0.w_qkv 16 48 3b23d70a
/// 127,-4,0,...                   # one row: raw i8 bytes
/// plans 2
/// layer 0 4                      # layer index, head count
/// head dense
/// head sparse 17 0,1;1,2;...     # CscMatrix::to_index_string
/// end
/// ```
///
/// fp32 values round-trip **bit-exactly** (hex bit patterns), which is
/// what lets a reloaded model reproduce its logits bit for bit. Meta
/// values round-trip verbatim (backslashes and line breaks are
/// escaped); meta *keys* and tensor names must not contain whitespace.
///
/// Payload tokens, and all [`load_compiled`] accepts of them — a token
/// cut short by corruption is an error, never a different weight:
///
/// * **f32** (an i8 tensor's scale too): exactly 8 hex digits — lowercase
///   here, either case on load — separated by one space (on load: by any
///   run of ASCII space/tab).
/// * **i8**: optional `-`, 1–3 ASCII digits, −128..=127, separated by
///   exactly one `,`. A raw `-128`, which quantization never produces, is
///   accepted and harmless: `vitcod_tensor::MAX_INT8_GEMM_K` is taken at
///   |w| = 128, so the int8 GEMM's accumulator cannot overflow on it.
/// * A row of no values (zero columns) is an empty line, for both kinds.
///
/// # Panics
///
/// Panics if a meta key or tensor name is empty or contains whitespace —
/// the loader could not split such a record back losslessly, so writing
/// it would silently corrupt the artifact.
pub fn save_compiled(artifact: &CompiledModelArtifact) -> String {
    let splittable = |what: &str, s: &str| {
        assert!(
            !s.is_empty() && !s.chars().any(char::is_whitespace),
            "{what} {s:?} must be non-empty and whitespace-free"
        );
    };
    let mut out = String::from("vitcod-compiled v1\n");
    for (k, v) in &artifact.meta {
        splittable("meta key", k);
        out.push_str(&format!("meta {k} {}\n", escape_meta(v)));
    }
    let (mut row, i8_tokens) = (Vec::new(), i8_tokens());
    for t in &artifact.tensors {
        splittable("tensor name", &t.name);
        let (rows, cols) = t.payload.shape();
        match &t.payload {
            TensorPayload::F32(m) => {
                out.push_str(&format!("tensor f32 {} {rows} {cols}\n", t.name));
                out.reserve(rows * (9 * cols).max(1));
                for r in 0..rows {
                    push_row(&mut out, &mut row, m.row(r), hex8_token);
                }
            }
            TensorPayload::I8(q) => {
                let scale = q.params().scale.to_bits();
                out.push_str(&format!("tensor i8 {} {rows} {cols} {scale:08x}\n", t.name));
                out.reserve(rows * (5 * cols).max(1));
                for r in 0..rows {
                    push_row(&mut out, &mut row, q.row_raw(r), |v| {
                        i8_tokens[usize::from(v as u8)]
                    });
                }
            }
        }
    }
    out.push_str(&format!("plans {}\n", artifact.plans.len()));
    for (l, layer) in artifact.plans.iter().enumerate() {
        // Head counts are declared per layer, so ragged plan sets
        // transport losslessly too.
        out.push_str(&format!("layer {l} {}\n", layer.len()));
        for head in layer {
            match head {
                HeadPlanRecord::Dense => out.push_str("head dense\n"),
                HeadPlanRecord::Sparse(csc) => {
                    out.push_str(&format!(
                        "head sparse {} {}\n",
                        csc.size(),
                        csc.to_index_string()
                    ));
                }
            }
        }
    }
    out.push_str("end\n");
    out
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends one payload row to `out`. `token` gives a value's token and
/// separator padded to the fixed width `W`, and the length of the two: the
/// bytes land in `row` at full width, the cursor moves by the length, and
/// the last separator becomes the line break. `row` is scratch reused
/// across rows, UTF-8-checked once per row — no `String` per scalar.
fn push_row<T: Copy, const W: usize>(
    out: &mut String,
    row: &mut Vec<u8>,
    values: &[T],
    token: impl Fn(T) -> ([u8; W], usize),
) {
    if row.len() < values.len() * W + 1 {
        row.resize(values.len() * W + 1, 0);
    }
    let mut end = 0;
    for &v in values {
        let (bytes, len) = token(v);
        row[end..end + W].copy_from_slice(&bytes);
        end += len;
    }
    let end = end.max(1);
    row[end - 1] = b'\n';
    out.push_str(std::str::from_utf8(&row[..end]).expect("payload tokens are ASCII"));
}

/// The bit pattern of `v` as exactly eight lowercase hex digits, then
/// the separating space.
fn hex8_token(v: f32) -> ([u8; 9], usize) {
    let mut token = [b' '; 9];
    for (i, digit) in token[..8].iter_mut().enumerate() {
        *digit = HEX[(v.to_bits() >> (28 - 4 * i)) as usize & 15];
    }
    (token, 9)
}

/// Every i8, indexed by its byte: its decimal token (`-` if negative, one
/// to three digits) and the separating `,`, with the length of the two.
fn i8_tokens() -> [([u8; 5], usize); 256] {
    std::array::from_fn(|byte| {
        let text = format!("{},", byte as u8 as i8);
        let mut token = [0; 5];
        token[..text.len()].copy_from_slice(text.as_bytes());
        (token, text.len())
    })
}

/// Parses a compiled model written by [`save_compiled`].
///
/// # Errors
///
/// Returns [`ParseArtifactError`] — carrying the offending 1-based line
/// number — on version mismatch, truncation, malformed numbers, wrong
/// payload widths, or inconsistent plan counts.
pub fn load_compiled(text: &str) -> Result<CompiledModelArtifact, ParseArtifactError> {
    let err = |line: usize, msg: String| ParseArtifactError::new(line, msg);
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));

    let (ln, header) = lines
        .next()
        .ok_or_else(|| err(1, "empty artifact".into()))?;
    if header.trim() != "vitcod-compiled v1" {
        return Err(err(
            ln,
            "unsupported header (expected 'vitcod-compiled v1')".into(),
        ));
    }

    let mut artifact = CompiledModelArtifact::default();
    let mut declared_layers: Option<usize> = None;
    let mut declared_heads: Vec<usize> = Vec::new();
    let mut saw_end = false;
    let mut last_line = 1;

    while let Some((ln, raw)) = lines.next() {
        last_line = ln;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next().unwrap_or("") {
            "meta" => {
                // Values are taken verbatim from the raw line (not the
                // whitespace-split parts) so interior spacing survives;
                // escape_meta keeps them single-line.
                let rest = raw
                    .trim_start()
                    .trim_end_matches('\r')
                    .strip_prefix("meta ")
                    .ok_or_else(|| err(ln, "meta record missing key".into()))?;
                let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
                if key.is_empty() {
                    return Err(err(ln, "meta record missing key".into()));
                }
                artifact.meta.push((key.to_string(), unescape_meta(value)));
            }
            "tensor" => {
                let kind = parts
                    .next()
                    .ok_or_else(|| err(ln, "tensor record missing kind".into()))?;
                let name = parts
                    .next()
                    .ok_or_else(|| err(ln, "tensor record missing name".into()))?
                    .to_string();
                let rows = parse_usize(&mut parts, ln, "tensor rows")?;
                let cols = parse_usize(&mut parts, ln, "tensor cols")?;
                // Sizes come from untrusted input: reject overflow and
                // cap the pre-reservation so a corrupt header yields a
                // parse error, never a capacity panic or huge alloc.
                let elems = rows
                    .checked_mul(cols)
                    .ok_or_else(|| err(ln, format!("tensor '{name}' size overflows")))?;
                const MAX_PREALLOC: usize = 1 << 22;
                let capacity = elems.min(MAX_PREALLOC);
                let header = (ln, name.as_str());
                let payload = match kind {
                    "f32" => {
                        let data =
                            read_rows(&mut lines, header, (rows, cols), capacity, decode_f32_row)?;
                        TensorPayload::F32(Matrix::from_vec(rows, cols, data))
                    }
                    "i8" => {
                        let scale_hex = parts
                            .next()
                            .ok_or_else(|| err(ln, "i8 tensor missing scale".into()))?;
                        let scale = hex8(scale_hex.as_bytes()).ok_or_else(|| {
                            err(ln, format!("malformed scale bit pattern '{scale_hex}'"))
                        })?;
                        let params = QuantParams { scale };
                        let data =
                            read_rows(&mut lines, header, (rows, cols), capacity, decode_i8_row)?;
                        TensorPayload::I8(QuantizedMatrix::from_raw(rows, cols, data, params))
                    }
                    other => return Err(err(ln, format!("unknown tensor kind '{other}'"))),
                };
                last_line = ln + rows;
                artifact.tensors.push(NamedTensor { name, payload });
            }
            "plans" => {
                declared_layers = Some(parse_usize(&mut parts, ln, "plan layer count")?);
            }
            "layer" => {
                let idx = parse_usize(&mut parts, ln, "layer index")?;
                if idx != artifact.plans.len() {
                    return Err(err(
                        ln,
                        format!(
                            "layer {idx} out of order (expected {})",
                            artifact.plans.len()
                        ),
                    ));
                }
                declared_heads.push(parse_usize(&mut parts, ln, "layer head count")?);
                artifact.plans.push(Vec::new());
            }
            "head" => {
                let layer = artifact
                    .plans
                    .last_mut()
                    .ok_or_else(|| err(ln, "head record before any layer".into()))?;
                match parts.next() {
                    Some("dense") => layer.push(HeadPlanRecord::Dense),
                    Some("sparse") => {
                        let n = parse_usize(&mut parts, ln, "sparse head size")?;
                        let index = parts.next().unwrap_or("");
                        let csc = CscMatrix::from_index_string(n, index)
                            .map_err(|m| err(ln, format!("malformed CSC index: {m}")))?;
                        layer.push(HeadPlanRecord::Sparse(csc));
                    }
                    other => {
                        return Err(err(
                            ln,
                            format!("unknown head plan '{}'", other.unwrap_or("")),
                        ))
                    }
                }
            }
            "end" => {
                saw_end = true;
                break;
            }
            other => return Err(err(ln, format!("unknown record '{other}'"))),
        }
    }
    if !saw_end {
        return Err(err(
            last_line,
            "missing 'end' terminator (truncated artifact?)".into(),
        ));
    }
    if let Some(layers) = declared_layers {
        if artifact.plans.len() != layers {
            return Err(err(
                last_line,
                format!(
                    "declared {layers} plan layers but found {}",
                    artifact.plans.len()
                ),
            ));
        }
        for (l, (plan, &heads)) in artifact.plans.iter().zip(&declared_heads).enumerate() {
            if plan.len() != heads {
                return Err(err(
                    last_line,
                    format!("layer {l} has {} head plans, declared {heads}", plan.len()),
                ));
            }
        }
    } else if !artifact.plans.is_empty() {
        return Err(err(
            last_line,
            "layer records without a 'plans' header".into(),
        ));
    }
    Ok(artifact)
}

/// Byte → hex-digit value (either case), `0xFF` for any other byte; the
/// decimal digits are the entries below 10.
const DIGIT: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut d = 0;
    while d < 16 {
        table[HEX[d] as usize] = d as u8;
        table[HEX[d].to_ascii_uppercase() as usize] = d as u8;
        d += 1;
    }
    table
};

/// The f32 whose bit pattern exactly eight hex digits spell.
fn hex8(token: &[u8]) -> Option<f32> {
    let token: &[u8; 8] = token.try_into().ok()?;
    let (mut bits, mut seen) = (0u32, 0u8);
    for &b in token {
        let d = DIGIT[b as usize];
        seen |= d;
        bits = bits << 4 | u32::from(d & 15);
    }
    (seen < 16).then_some(f32::from_bits(bits))
}

/// Reads the `rows` payload lines of the tensor declared by `header`
/// (line, name), `cols` values each, through `decode_row`.
fn read_rows<'a, T>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    (ln, name): (usize, &str),
    (rows, cols): (usize, usize),
    capacity: usize,
    decode_row: impl Fn(&str, &mut Vec<T>) -> Result<(), String>,
) -> Result<Vec<T>, ParseArtifactError> {
    let err = ParseArtifactError::new;
    let mut data = Vec::with_capacity(capacity);
    for r in 0..rows {
        let (rln, row) = lines
            .next()
            .ok_or_else(|| err(ln, format!("tensor '{name}' truncated")))?;
        let before = data.len();
        decode_row(row, &mut data).map_err(|msg| err(rln, msg))?;
        let count = data.len() - before;
        if count != cols {
            return Err(err(
                rln,
                format!("row {r} has {count} values, expected {cols}"),
            ));
        }
    }
    Ok(data)
}

/// Appends the values of one f32 row: [`hex8`] tokens between runs of
/// ASCII space/tab.
fn decode_f32_row(row: &str, data: &mut Vec<f32>) -> Result<(), String> {
    let bytes = row.as_bytes();
    let is_sep = |b: u8| b == b' ' || b == b'\t';
    let mut i = 0;
    while i < bytes.len() {
        if is_sep(bytes[i]) {
            i += 1;
            continue;
        }
        let end = bytes.len().min(i + 8);
        match hex8(&bytes[i..end]) {
            Some(v) if bytes.get(end).is_none_or(|&b| is_sep(b)) => data.push(v),
            _ => {
                let token = row[i..].split([' ', '\t']).next().unwrap_or("");
                return Err(format!("malformed f32 bit pattern '{token}'"));
            }
        }
        i = end;
    }
    Ok(())
}

/// Appends the values of one i8 row: optional `-`, one to three digits,
/// −128..=127, single `,` between tokens; an empty row holds no value.
fn decode_i8_row(row: &str, data: &mut Vec<i8>) -> Result<(), String> {
    let bytes = row.as_bytes();
    if bytes.last() == Some(&b',') {
        return Err("malformed i8 value ''".into());
    }
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        i += usize::from(bytes[i] == b'-');
        let (first, mut magnitude) = (i, 0i16);
        while i < bytes.len().min(first + 3) && DIGIT[bytes[i] as usize] < 10 {
            magnitude = 10 * magnitude + i16::from(DIGIT[bytes[i] as usize]);
            i += 1;
        }
        let ended = i == bytes.len() || bytes[i] == b',';
        match i8::try_from(if first > start { -magnitude } else { magnitude }) {
            Ok(v) if i > first && ended => data.push(v),
            _ => {
                let token = row[start..].split(',').next().unwrap_or("");
                return Err(format!("malformed i8 value '{token}'"));
            }
        }
        i += 1;
    }
    Ok(())
}

/// Escapes a meta value onto one line: backslashes, newlines and
/// carriage returns become two-character sequences.
fn escape_meta(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`escape_meta`]; unknown escapes pass through verbatim.
fn unescape_meta(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
// Exact float equality below asserts bit-identical artifact replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{compile_model, SplitConquer, SplitConquerConfig};
    use vitcod_model::{AttentionStats, ViTConfig};

    fn sample_program(ae: bool) -> AcceleratorProgram {
        let cfg = ViTConfig::deit_tiny();
        let stats = AttentionStats::for_model(&cfg, 77);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        let ae_cfg = ae.then(|| AutoEncoderConfig::half(cfg.heads));
        compile_model(&cfg, &sc.apply(&stats.maps), ae_cfg)
    }

    #[test]
    fn round_trip_preserves_everything() {
        for ae in [false, true] {
            let p = sample_program(ae);
            let restored = load_program(&save_program(&p)).unwrap();
            assert_eq!(restored.model, p.model);
            assert_eq!(restored.tokens, p.tokens);
            assert_eq!(restored.head_dim, p.head_dim);
            assert_eq!(restored.heads, p.heads);
            assert_eq!(restored.auto_encoder, p.auto_encoder);
            assert_eq!(restored.layers.len(), p.layers.len());
            assert_eq!(restored.total_macs(), p.total_macs());
            assert_eq!(restored.overall_sparsity(), p.overall_sparsity());
            for (la, lb) in restored.layers.iter().zip(p.layers.iter()) {
                assert_eq!(la.layer, lb.layer);
                for (ha, hb) in la.heads.iter().zip(lb.heads.iter()) {
                    assert_eq!(ha.num_global, hb.num_global);
                    assert_eq!(ha.sparser_col_nnz, hb.sparser_col_nnz);
                }
            }
        }
    }

    #[test]
    fn rejects_wrong_header() {
        let e = load_program("vitcod-program v9\nend\n").unwrap_err();
        assert_eq!(e.line(), 1);
        assert!(e.to_string().contains("unsupported header"));
    }

    #[test]
    fn rejects_truncation() {
        let p = sample_program(false);
        let text = save_program(&p);
        let truncated = &text[..text.len() / 2];
        // Truncation must be rejected — either as a missing terminator
        // or because the cut line fails a consistency check.
        assert!(load_program(truncated).is_err());
        // Clean truncation at a line boundary reports the terminator.
        let lines: Vec<&str> = text.lines().collect();
        let clean_cut = lines[..lines.len() / 2].join("\n");
        let e = load_program(&clean_cut).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("missing"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn rejects_inconsistent_col_nnz() {
        let text = "vitcod-program v1\nmodel X\ntokens 4\nhead_dim 2\nheads 1\nlayer 0 1\nhead 1 4 5 1,1\nend\n";
        let e = load_program(text).unwrap_err();
        assert!(e.to_string().contains("col_nnz sum"));
    }

    #[test]
    fn rejects_unknown_record() {
        let text = "vitcod-program v1\nbogus 1\nend\n";
        let e = load_program(text).unwrap_err();
        assert!(e.to_string().contains("unknown record"));
        assert_eq!(e.line(), 2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = sample_program(false);
        let text = save_program(&p).replace("layer 0", "# a comment\n\nlayer 0");
        assert!(load_program(&text).is_ok());
    }

    #[test]
    fn masks_round_trip_through_rle() {
        let cfg = ViTConfig::deit_tiny();
        let stats = AttentionStats::for_model(&cfg, 5);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        let heads = sc.apply(&stats.maps);
        let masks: Vec<Vec<crate::AttentionMask>> = heads
            .iter()
            .map(|l| l.iter().map(|h| h.pruned.clone()).collect())
            .collect();
        let text = save_masks(&masks);
        let restored = load_masks(&text).unwrap();
        assert_eq!(restored.len(), masks.len());
        for (la, lb) in restored.iter().zip(masks.iter()) {
            assert_eq!(la.len(), lb.len());
            for (a, b) in la.iter().zip(lb.iter()) {
                assert_eq!(a, b);
            }
        }
        // RLE should compress the 90%-sparse masks well below one byte
        // per position.
        let positions = 12 * 3 * 197 * 197;
        assert!(text.len() < positions / 2, "RLE too large: {}", text.len());
    }

    #[test]
    fn mask_artifact_rejects_bad_rows() {
        let text = "vitcod-masks v1\nsize 4\nmask 0 0\n2k2p\n2k2p\n2k2p\n3k\nend\n";
        let e = load_masks(text).unwrap_err();
        assert!(e.to_string().contains("cover the full width"));
        let text2 = "vitcod-masks v1\nsize 2\nmask 0 0\n2k\n1k1x\nend\n";
        assert!(load_masks(text2).is_err());
    }

    #[test]
    fn mask_artifact_requires_terminator() {
        let text = "vitcod-masks v1\nsize 2\nmask 0 0\n2k\n2p\n";
        let e = load_masks(text).unwrap_err();
        assert!(e.to_string().contains("terminator"));
    }

    #[test]
    fn empty_mask_set_round_trips() {
        let text = save_masks(&[]);
        let restored = load_masks(&text).unwrap();
        assert!(restored.is_empty());
    }

    fn sample_compiled() -> CompiledModelArtifact {
        CompiledModelArtifact {
            meta: vec![
                ("model".into(), "DeiT-Tiny".into()),
                ("note".into(), "value with spaces".into()),
            ],
            tensors: vec![
                NamedTensor {
                    name: "w".into(),
                    payload: TensorPayload::F32(Matrix::from_rows(&[
                        &[1.0, -0.0, f32::MIN_POSITIVE],
                        &[0.5, 3.25e-7, -17.0],
                    ])),
                },
                NamedTensor {
                    name: "layer0.w_qkv".into(),
                    payload: TensorPayload::I8(QuantizedMatrix::from_raw(
                        2,
                        3,
                        vec![127, -127, 0, 1, -1, 64],
                        QuantParams {
                            scale: 0.007_843_138,
                        },
                    )),
                },
            ],
            plans: vec![
                vec![
                    HeadPlanRecord::Dense,
                    HeadPlanRecord::Sparse(CscMatrix::from_indicator(4, |q, k| q == k || k == 0)),
                ],
                vec![HeadPlanRecord::Dense, HeadPlanRecord::Dense],
            ],
        }
    }

    #[test]
    fn compiled_round_trip_is_exact() {
        let a = sample_compiled();
        let text = save_compiled(&a);
        let restored = load_compiled(&text).unwrap();
        assert_eq!(restored, a);
        // Bit-exactness: -0.0 and subnormals survive, and re-saving is
        // byte-identical.
        assert_eq!(save_compiled(&restored), text);
        assert_eq!(restored.meta[1].1, "value with spaces");
        assert_eq!(restored.tensors[0].payload.shape(), (2, 3));
    }

    #[test]
    fn compiled_f32_nan_bits_survive() {
        let weird = f32::from_bits(0x7fc0_1234); // NaN with payload
        let a = CompiledModelArtifact {
            meta: vec![],
            tensors: vec![NamedTensor {
                name: "t".into(),
                payload: TensorPayload::F32(Matrix::from_vec(1, 1, vec![weird])),
            }],
            plans: vec![],
        };
        let restored = load_compiled(&save_compiled(&a)).unwrap();
        match &restored.tensors[0].payload {
            TensorPayload::F32(m) => assert_eq!(m.get(0, 0).to_bits(), weird.to_bits()),
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn compiled_rejects_malformed_with_line_numbers() {
        let e = load_compiled("vitcod-compiled v9\nend\n").unwrap_err();
        assert_eq!(e.line(), 1);

        // Wrong row width inside a tensor payload.
        let text = "vitcod-compiled v1\ntensor f32 w 1 3\n3f800000 3f800000\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert_eq!(e.line(), 3);
        assert!(e.to_string().contains("expected 3"));

        // Malformed hex.
        let text = "vitcod-compiled v1\ntensor f32 w 1 1\nzz\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert_eq!(e.line(), 3);

        // Malformed i8 byte.
        let text = "vitcod-compiled v1\ntensor i8 w 1 2 3f800000\n1,999\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert_eq!(e.line(), 3);

        // Head plan before any layer.
        let text = "vitcod-compiled v1\nplans 1 1\nhead dense\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert_eq!(e.line(), 3);

        // Truncation: payload rows missing entirely.
        let full = save_compiled(&sample_compiled());
        let lines: Vec<&str> = full.lines().collect();
        let cut = lines[..lines.len() - 2].join("\n");
        assert!(load_compiled(&cut).is_err());
        let no_end: String = lines[..lines.len() - 1].join("\n");
        let e = load_compiled(&no_end).unwrap_err();
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn compiled_rejects_inconsistent_plan_counts() {
        let text = "vitcod-compiled v1\nplans 2\nlayer 0 1\nhead dense\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert!(e.to_string().contains("declared 2"));
        let text = "vitcod-compiled v1\nplans 1\nlayer 0 2\nhead dense\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert!(e.to_string().contains("declared 2"));
        let text = "vitcod-compiled v1\nlayer 0 1\nhead dense\nend\n";
        assert!(load_compiled(text).is_err());
        let text = "vitcod-compiled v1\nplans 1\nlayer 0\nhead dense\nend\n";
        let e = load_compiled(text).unwrap_err();
        assert!(e.to_string().contains("layer head count"));
    }

    #[test]
    fn compiled_rejects_huge_tensor_headers_gracefully() {
        // Corrupt size fields must produce a parse error, not a
        // capacity panic or a giant allocation.
        for text in [
            "vitcod-compiled v1\ntensor f32 w 4000000000000000000 4000000000000000000\nend\n",
            "vitcod-compiled v1\ntensor i8 w 999999999 999999999 3f800000\nend\n",
        ] {
            let e = load_compiled(text).unwrap_err();
            assert!(e.line() > 0, "error must carry a line number: {e}");
        }
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn compiled_save_rejects_unsplittable_meta_keys() {
        save_compiled(&CompiledModelArtifact {
            meta: vec![("my key".into(), "v".into())],
            tensors: vec![],
            plans: vec![],
        });
    }

    #[test]
    fn compiled_ragged_plans_and_hostile_meta_values_round_trip() {
        let a = CompiledModelArtifact {
            meta: vec![
                ("double".into(), "a  b".into()),
                ("newline".into(), "line1\nline2\\more\r".into()),
                ("empty".into(), String::new()),
            ],
            tensors: vec![],
            // Ragged: per-layer head counts differ.
            plans: vec![
                vec![HeadPlanRecord::Dense],
                vec![HeadPlanRecord::Dense, HeadPlanRecord::Dense],
            ],
        };
        let text = save_compiled(&a);
        let restored = load_compiled(&text).unwrap();
        assert_eq!(restored, a);
        assert_eq!(save_compiled(&restored), text);
    }

    #[test]
    fn simulates_identically_after_round_trip() {
        let p = sample_program(true);
        let restored = load_program(&save_program(&p)).unwrap();
        // Structural identity implies identical simulation; verify the
        // workload numbers the simulator keys on.
        for (la, lb) in restored.layers.iter().zip(p.layers.iter()) {
            assert_eq!(la.total_macs(), lb.total_macs());
            assert_eq!(la.mean_global_tokens(), lb.mean_global_tokens());
        }
    }
}
