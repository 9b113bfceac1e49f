//! The `vitcod-compiled v1` writer as it stood before the byte codec —
//! one `format!` `String` per scalar, `join`ed per row — kept verbatim
//! as the oracle the codec's writer must match byte for byte. Shared by
//! `crates/core/tests/artifact_props.rs` and, through `#[path]`,
//! `crates/engine/tests/artifact_roundtrip.rs`.

use vitcod_core::{CompiledModelArtifact, HeadPlanRecord, TensorPayload};

pub fn save_compiled_oracle(artifact: &CompiledModelArtifact) -> String {
    let mut out = String::from("vitcod-compiled v1\n");
    for (k, v) in &artifact.meta {
        assert!(
            !k.is_empty() && !k.chars().any(char::is_whitespace),
            "meta key {k:?} must be non-empty and whitespace-free"
        );
        out.push_str(&format!("meta {k} {}\n", escape_meta(v)));
    }
    for t in &artifact.tensors {
        match &t.payload {
            TensorPayload::F32(m) => {
                out.push_str(&format!(
                    "tensor f32 {} {} {}\n",
                    t.name,
                    m.rows(),
                    m.cols()
                ));
                for r in 0..m.rows() {
                    let row: Vec<String> = m
                        .row(r)
                        .iter()
                        .map(|v| format!("{:08x}", v.to_bits()))
                        .collect();
                    out.push_str(&row.join(" "));
                    out.push('\n');
                }
            }
            TensorPayload::I8(q) => {
                // The one edit: `I8` held this triple inline at the
                // commit the writer was copied from.
                let (shape, scale) = (&q.shape(), &q.params().scale);
                let data: Vec<i8> = (0..shape.0).flat_map(|r| q.row_raw(r).to_vec()).collect();
                out.push_str(&format!(
                    "tensor i8 {} {} {} {:08x}\n",
                    t.name,
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

/// Escapes a meta value onto one line: backslashes, newlines and
/// carriage returns become two-character sequences.
fn escape_meta(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}
