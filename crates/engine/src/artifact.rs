//! `vitcod-compiled v1`, the on-disk form of a [`CompiledVit`].
//!
//! The paper's interface pipeline (Fig. 14) compiles a sparse ViT once
//! and amortizes the cost "across the execution lifetime of each task",
//! so a compiled model must outlive the process that trained it without
//! re-running split-and-conquer. The engine owns that format, grammar and
//! schema alike: [`save_compiled_vit`] writes each field of the model
//! straight to text, and [`load_compiled_vit`] parses the text and builds
//! the model, rejecting malformed input with the offending line and a
//! text that is not a compiled ViT — a missing, misshapen or leftover
//! tensor — by name.
//!
//! The format is versioned, line-oriented text (diff-able, inspectable,
//! no external dependencies), one record per line; a tensor payload
//! spans one line per row:
//!
//! ```text
//! vitcod-compiled v1
//! meta model DeiT-Tiny
//! tensor f32 patch_b 1 16
//! 3f800000 40000000 ...          # one row: IEEE-754 bit patterns
//! tensor i8 layer0.w_qkv 16 48 3b23d70a
//! 127,-4,0,...                   # one row: raw i8 bytes, [Wq | Wk | Wv]
//! plans 2
//! layer 0 4                      # layer index, head count
//! head dense
//! head sparse 17 0,1;1,2;...     # CscMatrix::to_index_string
//! end
//! ```
//!
//! The reader takes records in any order, skips blank lines and `#`
//! comments, and reads a missing `precision` meta as fp32; a meta key it
//! does not read is an error, like a tensor it does not read. Meta values
//! round-trip verbatim: backslashes, line feeds and carriage returns are
//! escaped.
//!
//! Every projection site is one tensor on disk under one int8 scale, and
//! a layer's QKV site is `layerL.w_qkv` (`dim × 3·dim`, `[Wq | Wk | Wv]`):
//! the loader reads it into one site, whose first `dim` columns the
//! forward reads as Q and the rest as KV.
//!
//! Payload tokens, and all the reader accepts of them — a token cut short
//! by corruption is an error, never a different weight:
//!
//! * **f32** (an i8 tensor's scale too): exactly 8 hex digits — lowercase
//!   when written, either case when read — separated by one space (when
//!   read: by any run of ASCII space/tab).
//! * **i8**: optional `-`, 1–3 ASCII digits, −128..=127, separated by
//!   exactly one `,`. A raw `-128`, which quantization never produces, is
//!   accepted and harmless: `vitcod_tensor::MAX_INT8_GEMM_K` is taken at
//!   |w| = 128, so the int8 GEMM's accumulator cannot overflow on it.
//! * A row of no values (zero columns) is an empty line, for both kinds.
//!
//! Guarantees:
//!
//! * **fp32 saves are bit-exact** — every weight scalar is written as
//!   its IEEE-754 bit pattern (NaN payloads and signed zeros included),
//!   so a reloaded model's logits are bit-identical to the original's.
//! * **int8 saves are byte-exact** — weight matrices on the engine's
//!   quantization set are stored as raw i8 bytes plus their bit-exact
//!   scale; save → load → save reproduces the identical artifact text.
//!   A projection site's bytes load straight into the serving GEMM's
//!   panels — never through fp32 — and an int8 save writes a packed
//!   site's bytes back verbatim.

use std::collections::HashMap;
use std::fmt;

use vitcod_model::{ModelFamily, StageConfig, ViTConfig};
use vitcod_tensor::sparse::CscMatrix;
use vitcod_tensor::{Matrix, PackedGemmWeights, QuantParams, QuantizedMatrix};

use crate::compiled::{CompiledAe, CompiledLayer, CompiledVit, HeadPlan, SiteWeight};
use crate::Precision;

/// Error loading a [`CompiledVit`] from its serialized form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The text is not well-formed `vitcod-compiled v1`.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// What is wrong on that line.
        message: String,
    },
    /// The text parsed but does not describe a valid compiled ViT
    /// (missing or leftover tensor, wrong shape, inconsistent plan
    /// counts, ...).
    Schema(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Parse { line, message } => {
                write!(f, "invalid compiled artifact at line {line}: {message}")
            }
            ArtifactError::Schema(m) => write!(f, "invalid compiled-model schema: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

fn parse_error(line: usize, message: impl Into<String>) -> ArtifactError {
    ArtifactError::Parse {
        line,
        message: message.into(),
    }
}

fn schema(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(msg.into())
}

/// Serializes `model` to the versioned text format. Under
/// [`Precision::Int8`] the engine's quantization set (projections, MLPs,
/// AE mixers, patch/pos/classifier weights) is stored as 1-byte
/// payloads — a packed site's own bytes, verbatim; biases and LayerNorm
/// parameters stay fp32, exactly as the int8 engine computes. Under
/// [`Precision::Fp32`] a packed site is written as the values its bytes
/// stand for.
pub fn save_compiled_vit(model: &CompiledVit, precision: Precision) -> String {
    let cfg = &model.cfg;
    let int8 = precision == Precision::Int8;
    let stages: Vec<String> = cfg
        .stages
        .iter()
        .map(|s| format!("{},{},{},{}", s.tokens, s.dim, s.heads, s.depth))
        .collect();
    let mut w = Writer {
        out: String::from("vitcod-compiled v1\n"),
        row: Vec::new(),
        i8_tokens: i8_tokens(),
        int8,
    };
    for (key, value) in [
        ("model", cfg.name.to_string()),
        ("family", cfg.family.to_string()),
        ("tokens", cfg.tokens.to_string()),
        ("dim", cfg.dim.to_string()),
        ("heads", cfg.heads.to_string()),
        ("depth", cfg.depth.to_string()),
        ("mlp_ratio", cfg.mlp_ratio.to_string()),
        ("stages", stages.join(";")),
        ("stem_macs", cfg.stem_macs.to_string()),
        // f64 stored bit-exactly, like every other scalar.
        (
            "paper_sparsity",
            format!("{:016x}", cfg.paper_sparsity.to_bits()),
        ),
        ("in_dim", model.in_dim.to_string()),
        ("num_classes", model.num_classes.to_string()),
        ("precision", if int8 { "int8" } else { "fp32" }.to_string()),
    ] {
        w.out
            .push_str(&format!("meta {key} {}\n", escape_meta(&value)));
    }

    w.weight("patch_w", &model.patch_w);
    w.vector("patch_b", &model.patch_b);
    w.weight("pos_embed", &model.pos_embed);
    for (l, layer) in model.layers.iter().enumerate() {
        let name = |field: &str| format!("layer{l}.{field}");
        w.vector(&name("ln1_gamma"), &layer.ln1_gamma);
        w.vector(&name("ln1_beta"), &layer.ln1_beta);
        w.site(&name("w_qkv"), &layer.w_qkv);
        w.vector(&name("b_qkv"), &layer.b_qkv);
        w.site(&name("w_out"), &layer.w_out);
        w.vector(&name("b_out"), &layer.b_out);
        w.vector(&name("ln2_gamma"), &layer.ln2_gamma);
        w.vector(&name("ln2_beta"), &layer.ln2_beta);
        w.site(&name("w_fc1"), &layer.w_fc1);
        w.vector(&name("b_fc1"), &layer.b_fc1);
        w.site(&name("w_fc2"), &layer.w_fc2);
        w.vector(&name("b_fc2"), &layer.b_fc2);
        if let Some(ae) = &layer.ae {
            w.weight(&name("ae.enc_q"), &ae.enc_q);
            w.weight(&name("ae.dec_q"), &ae.dec_q);
            w.weight(&name("ae.enc_k"), &ae.enc_k);
            w.weight(&name("ae.dec_k"), &ae.dec_k);
        }
    }
    w.vector("final_gamma", &model.final_gamma);
    w.vector("final_beta", &model.final_beta);
    w.weight("head_w", &model.head_w);
    w.vector("head_b", &model.head_b);

    let out = &mut w.out;
    out.push_str(&format!("plans {}\n", model.layers.len()));
    for (l, layer) in model.layers.iter().enumerate() {
        out.push_str(&format!("layer {l} {}\n", layer.heads.len()));
        for head in &layer.heads {
            match head {
                HeadPlan::Dense => out.push_str("head dense\n"),
                HeadPlan::Sparse(csc) => out.push_str(&format!(
                    "head sparse {} {}\n",
                    csc.size(),
                    csc.to_index_string()
                )),
            }
        }
    }
    out.push_str("end\n");
    w.out
}

/// The text being written, with the scratch row and token table its
/// payload rows are built from.
struct Writer {
    out: String,
    row: Vec<u8>,
    i8_tokens: [([u8; 5], usize); 256],
    int8: bool,
}

impl Writer {
    /// An f32 tensor of `rows × cols` row-major `values`.
    fn f32_tensor(&mut self, name: &str, (rows, cols): (usize, usize), values: &[f32]) {
        self.out
            .push_str(&format!("tensor f32 {name} {rows} {cols}\n"));
        self.out.reserve(rows * (9 * cols).max(1));
        for r in 0..rows {
            push_row(
                &mut self.out,
                &mut self.row,
                &values[r * cols..(r + 1) * cols],
                hex8_token,
            );
        }
    }

    /// An i8 tensor: `q`'s bytes under its scale.
    fn i8_tensor(&mut self, name: &str, q: &QuantizedMatrix) {
        let (rows, cols) = q.shape();
        let scale = q.params().scale.to_bits();
        self.out
            .push_str(&format!("tensor i8 {name} {rows} {cols} {scale:08x}\n"));
        self.out.reserve(rows * (5 * cols).max(1));
        let tokens = &self.i8_tokens;
        for r in 0..rows {
            push_row(&mut self.out, &mut self.row, q.row_raw(r), |v| {
                tokens[usize::from(v as u8)]
            });
        }
    }

    /// A weight matrix, quantized under int8 (the engine's
    /// 1-byte-per-weight artifact bytes).
    fn weight(&mut self, name: &str, m: &Matrix) {
        if self.int8 {
            self.i8_tensor(name, &QuantizedMatrix::quantize(m));
        } else {
            self.f32_tensor(name, m.shape(), m.as_slice());
        }
    }

    /// A projection site. Under int8 a packed site's bytes and scale go
    /// out verbatim and an fp32 site is quantized as [`Writer::weight`]
    /// quantizes; otherwise the site goes out as the values it holds or
    /// its bytes stand for. Save → load → save is byte-identical by
    /// construction.
    fn site(&mut self, name: &str, site: &SiteWeight) {
        if self.int8 {
            self.i8_tensor(name, &site.quantized());
        } else {
            let values = site.values();
            self.f32_tensor(name, values.shape(), values.as_slice());
        }
    }

    /// A parameter vector as a 1 × n fp32 tensor (vectors are never
    /// quantized — the int8 engine keeps biases and LayerNorm in fp32).
    fn vector(&mut self, name: &str, v: &[f32]) {
        self.f32_tensor(name, (1, v.len()), v);
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends one payload row, `values`, to `out`. `token` gives a value's
/// token and separator padded to the fixed width `W`, and the length of
/// the two: the bytes land in `row` at full width, the cursor moves by
/// the length, and the last separator becomes the line break. `row` is scratch reused across rows, UTF-8-checked
/// once per row — no `String` per scalar.
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
    // Every token byte is ASCII, so the check always passes. Were it to
    // fail, the row would be left out and the load would reject the text.
    out.push_str(std::str::from_utf8(&row[..end]).unwrap_or_default());
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

/// Parses a model written by [`save_compiled_vit`], returning the
/// reconstructed model and the precision it was saved under. An int8
/// projection payload becomes a packed [`SiteWeight::Int8`] site, bytes
/// and scale verbatim; every other int8 payload dequantizes to exactly
/// the values its bytes represent.
///
/// # Errors
///
/// [`ArtifactError::Parse`] on malformed text (with line number) — a
/// version mismatch, truncation, a malformed number, a wrong payload
/// width or inconsistent plan counts; [`ArtifactError::Schema`] when the
/// text is not a compiled ViT: a missing or leftover meta key, a missing,
/// misshapen, repeated or leftover tensor, a partial auto-encoder, a plan
/// that does not fit the configuration.
pub fn load_compiled_vit(text: &str) -> Result<(CompiledVit, Precision), ArtifactError> {
    let mut parsed = parse(text)?;
    let precision = match parsed.meta.remove("precision").as_deref() {
        Some("int8") => Precision::Int8,
        Some("fp32") | None => Precision::Fp32,
        Some(other) => return Err(schema(format!("unknown precision '{other}'"))),
    };
    let model = build(&mut parsed)?;
    // Every meta value and tensor the model reads has been moved out:
    // whatever is left would otherwise be dropped without a word — a
    // misspelt `precision` would serve an int8 artifact at fp32.
    if let Some(key) = parsed.meta.keys().min() {
        return Err(schema(format!("unexpected meta key '{key}'")));
    }
    if let Some(name) = parsed.tensors.keys().min() {
        return Err(schema(format!("unexpected tensor '{name}'")));
    }
    Ok((model, precision))
}

/// One tensor's stored values: fp32, or i8 bytes with their scale.
enum Payload {
    F32(Matrix),
    I8(QuantizedMatrix),
}

impl Payload {
    fn shape(&self) -> (usize, usize) {
        match self {
            Payload::F32(m) => m.shape(),
            Payload::I8(q) => q.shape(),
        }
    }

    /// The fp32 values the payload holds or, from i8, the values its bytes
    /// stand for.
    fn into_matrix(self) -> Matrix {
        match self {
            Payload::F32(m) => m,
            Payload::I8(q) => q.dequantize(),
        }
    }
}

/// A well-formed text before its schema is checked: meta values and
/// tensors by name, and the per-`[layer][head]` plans.
struct Parsed {
    meta: HashMap<String, String>,
    tensors: HashMap<String, Payload>,
    plans: Vec<Vec<HeadPlan>>,
}

fn parse_usize<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    field: &str,
) -> Result<usize, ArtifactError> {
    parts
        .next()
        .ok_or_else(|| parse_error(line, format!("missing {field}")))?
        .parse::<usize>()
        .map_err(|_| parse_error(line, format!("malformed {field}")))
}

/// The grammar half of a load. A repeated meta key or tensor name is a
/// schema error: keeping either would let one silently shadow the other.
fn parse(text: &str) -> Result<Parsed, ArtifactError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));

    let (ln, header) = lines
        .next()
        .ok_or_else(|| parse_error(1, "empty artifact"))?;
    if header.trim() != "vitcod-compiled v1" {
        return Err(parse_error(
            ln,
            "unsupported header (expected 'vitcod-compiled v1')",
        ));
    }

    let mut parsed = Parsed {
        meta: HashMap::new(),
        tensors: HashMap::new(),
        plans: Vec::new(),
    };
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
                    .ok_or_else(|| parse_error(ln, "meta record missing key"))?;
                let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
                if key.is_empty() {
                    return Err(parse_error(ln, "meta record missing key"));
                }
                if parsed.meta.contains_key(key) {
                    return Err(schema(format!("duplicate meta key '{key}'")));
                }
                parsed.meta.insert(key.to_string(), unescape_meta(value));
            }
            "tensor" => {
                let kind = parts
                    .next()
                    .ok_or_else(|| parse_error(ln, "tensor record missing kind"))?;
                let name = parts
                    .next()
                    .ok_or_else(|| parse_error(ln, "tensor record missing name"))?;
                let rows = parse_usize(&mut parts, ln, "tensor rows")?;
                let cols = parse_usize(&mut parts, ln, "tensor cols")?;
                // Sizes come from untrusted input: reject overflow (and
                // `read_rows` caps its pre-reservation) so a corrupt header
                // yields a parse error, never a capacity panic or huge
                // alloc.
                rows.checked_mul(cols)
                    .ok_or_else(|| parse_error(ln, format!("tensor '{name}' size overflows")))?;
                let header = (ln, name);
                let payload = match kind {
                    "f32" => {
                        let data = read_rows(&mut lines, header, (rows, cols), decode_f32_row)?;
                        Payload::F32(Matrix::from_vec(rows, cols, data))
                    }
                    "i8" => {
                        let scale_hex = parts
                            .next()
                            .ok_or_else(|| parse_error(ln, "i8 tensor missing scale"))?;
                        let scale = hex8(scale_hex.as_bytes()).ok_or_else(|| {
                            parse_error(ln, format!("malformed scale bit pattern '{scale_hex}'"))
                        })?;
                        let data = read_rows(&mut lines, header, (rows, cols), decode_i8_row)?;
                        let params = QuantParams { scale };
                        Payload::I8(QuantizedMatrix::from_raw(rows, cols, data, params))
                    }
                    other => return Err(parse_error(ln, format!("unknown tensor kind '{other}'"))),
                };
                last_line = ln + rows;
                if parsed.tensors.contains_key(name) {
                    return Err(schema(format!("duplicate tensor '{name}'")));
                }
                parsed.tensors.insert(name.to_string(), payload);
            }
            "plans" => {
                declared_layers = Some(parse_usize(&mut parts, ln, "plan layer count")?);
            }
            "layer" => {
                let idx = parse_usize(&mut parts, ln, "layer index")?;
                let expected = parsed.plans.len();
                if idx != expected {
                    return Err(parse_error(
                        ln,
                        format!("layer {idx} out of order (expected {expected})"),
                    ));
                }
                declared_heads.push(parse_usize(&mut parts, ln, "layer head count")?);
                parsed.plans.push(Vec::new());
            }
            "head" => {
                let layer = parsed
                    .plans
                    .last_mut()
                    .ok_or_else(|| parse_error(ln, "head record before any layer"))?;
                match parts.next() {
                    Some("dense") => layer.push(HeadPlan::Dense),
                    Some("sparse") => {
                        let n = parse_usize(&mut parts, ln, "sparse head size")?;
                        let index = parts.next().unwrap_or("");
                        let csc = CscMatrix::from_index_string(n, index)
                            .map_err(|m| parse_error(ln, format!("malformed CSC index: {m}")))?;
                        layer.push(HeadPlan::Sparse(csc));
                    }
                    other => {
                        let other = other.unwrap_or("");
                        return Err(parse_error(ln, format!("unknown head plan '{other}'")));
                    }
                }
            }
            "end" => {
                saw_end = true;
                break;
            }
            other => return Err(parse_error(ln, format!("unknown record '{other}'"))),
        }
    }
    if !saw_end {
        return Err(parse_error(
            last_line,
            "missing 'end' terminator (truncated artifact?)",
        ));
    }
    let found = parsed.plans.len();
    match declared_layers {
        Some(layers) if found != layers => {
            return Err(parse_error(
                last_line,
                format!("declared {layers} plan layers but found {found}"),
            ));
        }
        None if found > 0 => {
            return Err(parse_error(
                last_line,
                "layer records without a 'plans' header",
            ));
        }
        _ => {}
    }
    for (l, (plan, &heads)) in parsed.plans.iter().zip(&declared_heads).enumerate() {
        if plan.len() != heads {
            return Err(parse_error(
                last_line,
                format!("layer {l} has {} head plans, declared {heads}", plan.len()),
            ));
        }
    }
    Ok(parsed)
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
/// (line, name), `cols` values each, through `decode_row`. `rows · cols`
/// must not overflow; the pre-reservation is capped, so a corrupt header
/// cannot make a huge allocation.
fn read_rows<'a, T>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    (ln, name): (usize, &str),
    (rows, cols): (usize, usize),
    decode_row: impl Fn(&str, &mut Vec<T>) -> Result<(), String>,
) -> Result<Vec<T>, ArtifactError> {
    const MAX_PREALLOC: usize = 1 << 22;
    let mut data = Vec::with_capacity((rows * cols).min(MAX_PREALLOC));
    for r in 0..rows {
        let (rln, row) = lines
            .next()
            .ok_or_else(|| parse_error(ln, format!("tensor '{name}' truncated")))?;
        let before = data.len();
        decode_row(row, &mut data).map_err(|msg| parse_error(rln, msg))?;
        let count = data.len() - before;
        if count != cols {
            return Err(parse_error(
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

type Tensors = HashMap<String, Payload>;

/// Moves tensor `name` out of the parsed text, checking its shape.
fn take_payload(
    tensors: &mut Tensors,
    name: &str,
    shape: (usize, usize),
) -> Result<Payload, ArtifactError> {
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
    Ok(take_payload(tensors, name, shape)?.into_matrix())
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
        Payload::I8(q) => SiteWeight::Int8(PackedGemmWeights::from_quantized(&q)),
        fp32 => SiteWeight::Fp32(fp32.into_matrix()),
    })
}

/// Moves meta value `key` out of the parsed text, parsed as a `T`.
fn meta_parse<T: std::str::FromStr>(
    meta: &mut HashMap<String, String>,
    key: &str,
) -> Result<T, ArtifactError> {
    meta.remove(key)
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

/// The schema half of a load: builds the model from the parsed text,
/// checking meta, tensor shapes and plan counts along the way. Every
/// tensor the model reads moves out of `parsed`, so a load never holds
/// the weights twice.
fn build(parsed: &mut Parsed) -> Result<CompiledVit, ArtifactError> {
    let (meta, tensors) = (&mut parsed.meta, &mut parsed.tensors);
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
            match fields[..] {
                [tokens, dim, heads, depth] => Ok(StageConfig {
                    tokens,
                    dim,
                    heads,
                    depth,
                }),
                _ => Err(schema(format!("stage '{s}' needs 4 fields"))),
            }
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

    if parsed.plans.len() != depth {
        return Err(schema(format!(
            "{} plan layers for depth {depth}",
            parsed.plans.len()
        )));
    }
    // Meta values are untrusted: shape arithmetic must error, not
    // overflow-panic (matching the parser's hardening).
    let overflow = || schema(format!("dim {dim} x mlp_ratio {mlp_ratio} overflows"));
    let three_dim = dim.checked_mul(3).ok_or_else(overflow)?;
    let hidden = dim.checked_mul(mlp_ratio).ok_or_else(overflow)?;
    let layers = std::mem::take(&mut parsed.plans)
        .into_iter()
        .enumerate()
        .map(|(l, plan)| {
            if plan.len() != heads {
                return Err(schema(format!(
                    "layer {l} has {} head plans for {heads} heads",
                    plan.len()
                )));
            }
            for head in &plan {
                if let HeadPlan::Sparse(csc) = head {
                    if csc.size() != tokens {
                        return Err(schema(format!(
                            "layer {l}: CSC index size {} != tokens {tokens}",
                            csc.size()
                        )));
                    }
                }
            }
            let name = |field: &str| format!("layer{l}.{field}");
            // The AE's compressed width is not in the meta — recover it
            // from the encoder tensor itself. The four tensors come as a
            // set or not at all.
            let ae_names = ["ae.enc_q", "ae.dec_q", "ae.enc_k", "ae.dec_k"].map(name);
            let present = ae_names.iter().filter(|n| tensors.contains_key(*n)).count();
            let ae = match tensors.get(&ae_names[0]).map(Payload::shape) {
                Some((_, compressed)) if present == 4 => Some(CompiledAe {
                    enc_q: take(tensors, &ae_names[0], (heads, compressed))?,
                    dec_q: take(tensors, &ae_names[1], (compressed, heads))?,
                    enc_k: take(tensors, &ae_names[2], (heads, compressed))?,
                    dec_k: take(tensors, &ae_names[3], (compressed, heads))?,
                }),
                _ if present == 0 => None,
                _ => {
                    return Err(schema(format!(
                        "layer {l} has {present} of the 4 auto-encoder tensors"
                    )))
                }
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
                heads: plan,
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
