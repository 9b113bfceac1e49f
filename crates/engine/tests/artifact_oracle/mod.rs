//! The `vitcod-compiled v1` writer as it stood before the byte codec —
//! one `format!` `String` per scalar, `join`ed per row — kept as the
//! oracle the codec's writer must match byte for byte. It lowers the
//! model and parameter store that `CompiledVit::from_parts` freezes (the
//! frozen model's fields are private to the engine), so it checks the
//! freeze and the writer together. Shared by `artifact_roundtrip.rs` and
//! `artifact_codec.rs`.

use vitcod_autograd::ParamStore;
use vitcod_engine::Precision;
use vitcod_model::VisionTransformer;
use vitcod_tensor::{Matrix, QuantizedMatrix};

pub fn save_compiled_oracle(
    vit: &VisionTransformer,
    store: &ParamStore,
    precision: Precision,
) -> String {
    let int8 = precision == Precision::Int8;
    let cfg = vit.config();
    let stages: Vec<String> = cfg
        .stages
        .iter()
        .map(|s| format!("{},{},{},{}", s.tokens, s.dim, s.heads, s.depth))
        .collect();
    let meta = [
        ("model", cfg.name.to_string()),
        ("family", cfg.family.to_string()),
        ("tokens", cfg.tokens.to_string()),
        ("dim", cfg.dim.to_string()),
        ("heads", cfg.heads.to_string()),
        ("depth", cfg.depth.to_string()),
        ("mlp_ratio", cfg.mlp_ratio.to_string()),
        ("stages", stages.join(";")),
        ("stem_macs", cfg.stem_macs.to_string()),
        (
            "paper_sparsity",
            format!("{:016x}", cfg.paper_sparsity.to_bits()),
        ),
        ("in_dim", vit.in_dim().to_string()),
        ("num_classes", vit.num_classes().to_string()),
        ("precision", if int8 { "int8" } else { "fp32" }.to_string()),
    ];
    let mut out = String::from("vitcod-compiled v1\n");
    for (k, v) in &meta {
        out.push_str(&format!("meta {k} {}\n", escape_meta(v)));
    }

    let mut tensors: Vec<(String, Matrix, bool)> = Vec::new();
    let mut push = |name: String, m: &Matrix, quantized: bool| {
        tensors.push((name, m.clone(), quantized && int8));
    };
    let value = |id| store.value(id);
    push(
        "patch_w".into(),
        value(vit.patch_embedding().weight()),
        true,
    );
    push("patch_b".into(), value(vit.patch_embedding().bias()), false);
    push("pos_embed".into(), value(vit.positional_embedding()), true);
    for l in 0..cfg.depth {
        let b = vit.block_modules(l);
        let name = |field: &str| format!("layer{l}.{field}");
        let fused = |w: [vitcod_autograd::ParamId; 3]| Matrix::hcat(&w.map(value));
        push(name("ln1_gamma"), value(b.ln1.gamma()), false);
        push(name("ln1_beta"), value(b.ln1.beta()), false);
        let w_qkv = fused([b.wq.weight(), b.wk.weight(), b.wv.weight()]);
        push(name("w_qkv"), &w_qkv, true);
        let b_qkv = fused([b.wq.bias(), b.wk.bias(), b.wv.bias()]);
        push(name("b_qkv"), &b_qkv, false);
        push(name("w_out"), value(b.wo.weight()), true);
        push(name("b_out"), value(b.wo.bias()), false);
        push(name("ln2_gamma"), value(b.ln2.gamma()), false);
        push(name("ln2_beta"), value(b.ln2.beta()), false);
        push(name("w_fc1"), value(b.fc1.weight()), true);
        push(name("b_fc1"), value(b.fc1.bias()), false);
        push(name("w_fc2"), value(b.fc2.weight()), true);
        push(name("b_fc2"), value(b.fc2.bias()), false);
        if let Some(ae) = b.ae {
            push(name("ae.enc_q"), value(ae.enc_q), true);
            push(name("ae.dec_q"), value(ae.dec_q), true);
            push(name("ae.enc_k"), value(ae.enc_k), true);
            push(name("ae.dec_k"), value(ae.dec_k), true);
        }
    }
    push(
        "final_gamma".into(),
        value(vit.final_layernorm().gamma()),
        false,
    );
    push(
        "final_beta".into(),
        value(vit.final_layernorm().beta()),
        false,
    );
    push("head_w".into(), value(vit.classifier().weight()), true);
    push("head_b".into(), value(vit.classifier().bias()), false);

    for (name, m, quantized) in &tensors {
        if !quantized {
            out.push_str(&format!("tensor f32 {} {} {}\n", name, m.rows(), m.cols()));
            for r in 0..m.rows() {
                let row: Vec<String> = m
                    .row(r)
                    .iter()
                    .map(|v| format!("{:08x}", v.to_bits()))
                    .collect();
                out.push_str(&row.join(" "));
                out.push('\n');
            }
        } else {
            let q = QuantizedMatrix::quantize(m);
            let (shape, scale) = (&q.shape(), &q.params().scale);
            let data: Vec<i8> = (0..shape.0).flat_map(|r| q.row_raw(r).to_vec()).collect();
            out.push_str(&format!(
                "tensor i8 {} {} {} {:08x}\n",
                name,
                shape.0,
                shape.1,
                scale.to_bits()
            ));
            for r in 0..shape.0 {
                let row: Vec<String> = data[r * shape.1..(r + 1) * shape.1]
                    .iter()
                    .map(|b| b.to_string())
                    .collect();
                out.push_str(&row.join(","));
                out.push('\n');
            }
        }
    }

    out.push_str(&format!("plans {}\n", cfg.depth));
    for l in 0..cfg.depth {
        out.push_str(&format!("layer {l} {}\n", cfg.heads));
        for h in 0..cfg.heads {
            match vit.sparsity_plan().and_then(|p| p[l][h].as_ref()) {
                None => out.push_str("head dense\n"),
                Some(csc) => {
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

/// Escapes a meta value onto one line: backslashes, newlines and
/// carriage returns become two-character sequences.
fn escape_meta(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}
