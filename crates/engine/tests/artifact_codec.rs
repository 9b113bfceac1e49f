//! The `vitcod-compiled v1` codec on hand-sized models: the committed v1
//! bytes; the byte-loop writer against the `format!`/`join` writer it
//! replaced; `load ∘ save` and `save ∘ load` as identities; and a reader
//! that accepts exactly the documented token grammar — a damaged token is
//! an error with its line number, never a different weight — and only
//! the tensors a compiled ViT reads.

mod artifact_oracle;

use artifact_oracle::save_compiled_oracle;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{load_compiled_vit, save_compiled_vit, ArtifactError, CompiledVit, Precision};
use vitcod_model::{
    AutoEncoderSpec, ModelFamily, SparsityPlan, StageConfig, ViTConfig, VisionTransformer,
};
use vitcod_tensor::Matrix;

/// A hand-sized model: 3 tokens, dim 2, 2 heads, 2 blocks, a one-head
/// auto-encoder in each block and three sparse heads (one with empty
/// columns). Every weight is an exact fraction, so its bits are the same
/// on every platform.
fn hand_model(
    name: &'static str,
    in_dim: usize,
    classes: usize,
    mlp_ratio: usize,
) -> (VisionTransformer, ParamStore) {
    let (tokens, dim, heads, depth) = (3, 2, 2, 2);
    let cfg = ViTConfig {
        name,
        family: ModelFamily::DeiT,
        tokens,
        dim,
        heads,
        depth,
        mlp_ratio,
        stages: vec![StageConfig {
            tokens,
            dim,
            heads,
            depth,
        }],
        stem_macs: 5,
        paper_sparsity: 0.9,
    };
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut vit = VisionTransformer::new(&cfg, in_dim, classes, &mut store, &mut rng);
    vit.insert_auto_encoder(
        AutoEncoderSpec {
            compressed_heads: 1,
        },
        &mut store,
        &mut rng,
    );
    let ids: Vec<_> = store.ids().collect();
    for (p, id) in ids.into_iter().enumerate() {
        let m = store.value_mut(id);
        let cols = m.cols();
        *m = Matrix::from_fn(m.rows(), cols, |r, c| {
            ((p * 37 + (r * cols + c) * 11) % 29) as f32 / 13.0 - 1.0
        });
    }
    let mask = |kept: fn(usize, usize) -> bool| {
        Some(Matrix::from_fn(tokens, tokens, |q, k| {
            f32::from(u8::from(kept(q, k)))
        }))
    };
    let plan: SparsityPlan = vec![
        vec![None, mask(|q, k| q == k || k == 0)],
        vec![mask(|_, k| k == 0), mask(|q, k| q == k)],
    ];
    vit.set_sparsity_plan(plan);
    (vit, store)
}

/// The v1 bytes of a hand-sized model in both precisions, committed: a
/// writer change that moves the format shows here even if writer and
/// reader move together. The model name needs every meta escape, and the
/// fp32 vectors hold a NaN with a payload, −0.0, a subnormal and −∞.
#[test]
fn golden_v1_bytes() {
    const NAME: &str = "hand  vit\n\\ \r";
    let (vit, mut store) = hand_model(NAME, 2, 2, 1);
    let special = [0x7fc0_1234, 0x8000_0000, 0x0000_0001, 0xff80_0000].map(f32::from_bits);
    *store.value_mut(vit.patch_embedding().bias()) = Matrix::from_vec(1, 2, special[..2].to_vec());
    *store.value_mut(vit.classifier().bias()) = Matrix::from_vec(1, 2, special[2..].to_vec());
    let model = CompiledVit::from_parts(&vit, &store);
    for (precision, golden) in [
        (Precision::Fp32, GOLDEN_FP32),
        (Precision::Int8, GOLDEN_INT8),
    ] {
        assert_eq!(save_compiled_vit(&model, precision), golden);
        let (loaded, loaded_precision) = load_compiled_vit(golden).unwrap();
        assert_eq!(loaded_precision, precision);
        assert_eq!(loaded.config().name, NAME);
        assert_eq!(save_compiled_vit(&loaded, precision), golden);
    }
}

/// Saves at `precision` through the codec and through the oracle, which
/// must agree byte for byte, and checks `save(load(text)) == text`.
fn save_checked(vit: &VisionTransformer, store: &ParamStore, precision: Precision) -> String {
    let text = save_compiled_vit(&CompiledVit::from_parts(vit, store), precision);
    assert_eq!(text, save_compiled_oracle(vit, store, precision));
    let (loaded, loaded_precision) = load_compiled_vit(&text).unwrap();
    assert_eq!(loaded_precision, precision);
    assert_eq!(save_compiled_vit(&loaded, precision), text);
    text
}

/// Any bit pattern, with the awkward ones over-represented: NaNs with
/// payloads, −0.0, subnormals, infinities.
fn f32_bits(rng: &mut ChaCha8Rng) -> f32 {
    f32::from_bits(match rng.gen_range(0..8) {
        0 => 0x7fc0_0000 | (rng.next_u32() & 0x003f_ffff),
        1 => 0x8000_0000,
        2 => rng.next_u32() & 0x807f_ffff,
        3 => 0xff80_0000,
        _ => rng.next_u32(),
    })
}

/// Sets every element of every parameter through `value`.
fn fill(store: &mut ParamStore, mut value: impl FnMut() -> f32) {
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let m = store.value_mut(id);
        let (rows, cols) = m.shape();
        *m = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| value()).collect());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Writer ≡ oracle byte for byte and `save ∘ load` is the identity,
    /// over random names needing every meta escape, zero-sized patch and
    /// classifier tensors, random plans, and fp32 weights of any bits
    /// (int8 saves take finite weights: quantization is defined on them).
    #[test]
    fn writer_matches_oracle_and_round_trips(seed in any::<u64>()) {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);
        const PALETTE: [char; 12] = [
            'a', 'Z', '7', ' ', ' ', '\\', '\n', '\r', '\t', 'n', 'é', '\u{a0}',
        ];
        let name: String = (0..rng.gen_range(0..9usize))
            .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
            .collect();
        let name: &'static str = Box::leak(name.into_boxed_str());
        let (in_dim, classes) = (rng.gen_range(0..4), rng.gen_range(0..4));
        let (mut vit, mut store) = hand_model(name, in_dim, classes, rng.gen_range(1..4));
        let plan: SparsityPlan = (0..2)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        let pick = rng.next_u32();
                        let mask = Matrix::from_fn(3, 3, |q, k| (pick >> (q * 3 + k) & 1) as f32);
                        rng.gen_bool(0.7).then_some(mask)
                    })
                    .collect()
            })
            .collect();
        vit.set_sparsity_plan(plan);
        fill(&mut store, || f32_bits(rng));
        save_checked(&vit, &store, Precision::Fp32);
        fill(&mut store, || (rng.next_u32() as i32) as f32 / 1e9);
        save_checked(&vit, &store, Precision::Int8);
    }
}

/// Every i8 and the f32 bit patterns at the edges of each hex digit go
/// through the writer's token tables and back, entry by entry.
#[test]
fn every_i8_and_every_nibble_round_trips() {
    let (vit, mut store) = hand_model("tokens", 2, 2, 128);
    let b = vit.block_modules(0);
    // fc1 is 2 x 256: k / 127 quantizes to k at scale 1 / 127.
    *store.value_mut(b.fc1.weight()) =
        Matrix::from_fn(2, 256, |r, c| ((r * 256 + c) % 255) as f32 / 127.0 - 1.0);
    // fc2 is 256 x 2: one nibble in each of the eight hex places.
    let nibbles: Vec<f32> = (0..16u32)
        .flat_map(|d| (0..8).map(move |pos| f32::from_bits(d << (4 * pos))))
        .chain(std::iter::repeat(0.0))
        .take(512)
        .collect();
    *store.value_mut(b.fc2.weight()) = Matrix::from_vec(256, 2, nibbles);
    save_checked(&vit, &store, Precision::Fp32);
    let text = save_checked(&vit, &store, Precision::Int8);
    let fc1_rows = |text: &str| {
        let lines: Vec<&str> = text.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with("tensor i8 layer0.w_fc1 "))
            .unwrap();
        (at + 1, lines[at + 1].to_string())
    };
    let (at, row) = fc1_rows(&text);
    let mut values: Vec<i8> = row.split(',').map(|v| v.parse().unwrap()).collect();
    values.sort_unstable();
    values.dedup();
    assert_eq!(values, (-127..=127).collect::<Vec<i8>>());

    // −128, which quantization never writes, loads into the packed site
    // and is written back verbatim.
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    lines[at] = lines[at].replacen("-127,", "-128,", 1);
    let edited = lines.join("\n") + "\n";
    let (loaded, _) = load_compiled_vit(&edited).unwrap();
    let resaved = save_compiled_vit(&loaded, Precision::Int8);
    assert_eq!(resaved, edited);
    assert!(fc1_rows(&resaved).1.contains("-128,"));
}

/// Tensors with a zero dimension round-trip for both kinds: `patch_w`
/// has no rows and `head_w` / `head_b` no columns. Before the byte
/// reader an i8 tensor with zero columns saved as empty rows and then
/// failed to load (`"".split(',')` yields one empty token).
#[test]
fn zero_sized_payloads_round_trip() {
    let (vit, store) = hand_model("empty", 0, 0, 1);
    save_checked(&vit, &store, Precision::Fp32);
    let text = save_checked(&vit, &store, Precision::Int8);
    assert!(text.contains("tensor i8 patch_w 0 2 "));
    assert!(text.contains("tensor i8 head_w 2 0 3f800000\n\n\ntensor f32 head_b 1 0\n\n"));
}

/// The fp32 and int8 texts of the golden model.
fn hand_texts() -> [String; 2] {
    let (vit, store) = hand_model("hand", 2, 2, 1);
    let model = CompiledVit::from_parts(&vit, &store);
    [Precision::Fp32, Precision::Int8].map(|p| save_compiled_vit(&model, p))
}

/// `text` with `extra` lines inserted after its first `at` lines.
fn insert(text: &str, at: usize, extra: &[&str]) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.splice(at..at, extra.iter().copied());
    lines.join("\n") + "\n"
}

/// The line of the parse error loading `text` fails with; `None` if it
/// loads or fails on its schema.
fn parse_error_line(text: &str) -> Option<usize> {
    match load_compiled_vit(text) {
        Err(ArtifactError::Parse { line, .. }) => Some(line),
        _ => None,
    }
}

/// The reader's language is what the writer emits and no more: each of
/// these loaded as *some* weight (or fell through to a later check)
/// before the byte reader, and is an error on its own line. Each tensor
/// goes in as line 2 of a valid model.
#[test]
fn rejection_table() {
    let [fp32, int8] = hand_texts();
    let f32_1 = "tensor f32 w 1 1";
    let f32_2 = "tensor f32 w 1 2";
    let i8_1 = "tensor i8 w 1 1 3f800000";
    let i8_2 = "tensor i8 w 1 2 3f800000";
    let cases: &[(&str, &[&str], usize)] = &[
        // f32: exactly eight hex digits.
        (f32_1, &["3f8"], 3),
        (f32_1, &["3f8000000"], 3),
        (f32_1, &["003f800000"], 3),
        (f32_1, &["+3f800000"], 3),
        (f32_1, &["0x3f8000"], 3),
        (f32_1, &["3f80000g"], 3),
        (f32_2, &["3f80 0000"], 3),
        (f32_2, &["3f800000\u{a0}3f800000"], 3),
        (f32_2, &["3f800000,3f800000"], 3),
        ("tensor f32 w 2 1", &["3f800000", "3f80000"], 4),
        // i8: optional `-`, one to three digits, −128..=127, single `,`.
        (i8_1, &["+5"], 3),
        (i8_1, &["128"], 3),
        (i8_1, &["-129"], 3),
        (i8_1, &["1234"], 3),
        (i8_1, &["0001"], 3),
        (i8_1, &["-"], 3),
        (i8_1, &["--1"], 3),
        (i8_1, &["1-"], 3),
        (i8_1, &["٣"], 3),
        (i8_1, &[" 1"], 3),
        (i8_1, &["1 "], 3),
        (i8_2, &["1, 2"], 3),
        (i8_2, &["1,,2"], 3),
        (i8_2, &["1,2,"], 3),
        (i8_2, &[",1,2"], 3),
        (i8_2, &["1 2"], 3),
        (i8_2, &["1\u{a0},2"], 3),
        ("tensor i8 w 2 1 3f800000", &["1", "1x"], 4),
        // The scale is an f32 token too.
        ("tensor i8 w 1 1 3f8", &["1"], 2),
        ("tensor i8 w 1 1 +3f80000", &["1"], 2),
        // Row width is still checked after the tokens.
        (f32_2, &["3f800000"], 3),
        (i8_2, &["1"], 3),
        (i8_1, &[""], 3),
    ];
    for text in [&fp32, &int8] {
        for (header, rows, line) in cases {
            let mut extra = vec![*header];
            extra.extend_from_slice(rows);
            assert_eq!(
                parse_error_line(&insert(text, 1, &extra)),
                Some(*line),
                "{header:?} with rows {rows:?}"
            );
        }
    }
}

/// What the grammar does allow beyond the writer's exact bytes: either
/// hex case, runs of spaces and tabs between f32 tokens, `-0`, leading
/// zeros and a raw −128 in i8 rows, records in any order, blank lines,
/// `#` comments, and no `precision` meta (fp32).
#[test]
fn accepted_variations() {
    let [fp32, int8] = hand_texts();
    let replace_rows = |text: &str, header: &str, rows: [&str; 2]| {
        let mut lines: Vec<&str> = text.lines().collect();
        let at = lines.iter().position(|l| l.starts_with(header)).unwrap();
        lines.splice(at + 1..at + 3, rows);
        lines.join("\n") + "\n"
    };
    let rows_after = |text: &str, header: &str| {
        let lines: Vec<&str> = text.lines().collect();
        let at = lines.iter().position(|l| l.starts_with(header)).unwrap();
        [lines[at + 1], lines[at + 2]].join("|")
    };

    let header = "tensor f32 layer0.w_out ";
    let text = replace_rows(
        &fp32,
        header,
        ["3F800000\t bf80000A", "  80000000 7fc01234 "],
    );
    let (model, _) = load_compiled_vit(&text).unwrap();
    let resaved = save_compiled_vit(&model, Precision::Fp32);
    assert_eq!(
        rows_after(&resaved, header),
        "3f800000 bf80000a|80000000 7fc01234"
    );

    let header = "tensor i8 layer0.w_out ";
    let text = replace_rows(&int8, header, ["-128,127", "-0,007"]);
    let (model, _) = load_compiled_vit(&text).unwrap();
    let resaved = save_compiled_vit(&model, Precision::Int8);
    assert_eq!(rows_after(&resaved, header), "-128,127|0,7");

    // Reordered records, upper-case hex, comments, blank lines and no
    // `precision`: the same model.
    let lines: Vec<&str> = fp32.lines().collect();
    let patch_w = lines
        .iter()
        .position(|l| l.starts_with("tensor f32 patch_w "))
        .unwrap();
    let plans = lines.iter().position(|l| l.starts_with("plans ")).unwrap();
    let mut shuffled: Vec<String> = vec![lines[0].into(), "# a comment".into(), String::new()];
    let moved = [
        &lines[patch_w..patch_w + 3],
        &lines[1..patch_w],
        &lines[patch_w + 3..],
    ];
    for line in moved.concat() {
        if line.starts_with("meta precision") {
            continue;
        }
        let hex_row = line.bytes().all(|b| b == b' ' || b.is_ascii_hexdigit());
        shuffled.push(if hex_row {
            line.to_uppercase()
        } else {
            line.into()
        });
        if line == lines[plans] {
            shuffled.push("   # indented comment".into());
            shuffled.push("\t".into());
        }
    }
    let text = shuffled.join("\n") + "\n";
    assert_ne!(text, fp32);
    let (model, precision) = load_compiled_vit(&text).unwrap();
    assert_eq!(precision, Precision::Fp32);
    assert_eq!(save_compiled_vit(&model, Precision::Fp32), fp32);
}

/// Truncation anywhere is an error with a line of the text — never a
/// panic, never a model. (The one prefix that does load is the whole text
/// less its final line break: `end` is the terminator, the `\n` after it
/// is not.)
#[test]
fn every_byte_prefix_is_rejected() {
    let [_, text] = hand_texts();
    assert!(text.is_ascii() && (1500..4000).contains(&text.len()));
    assert!(load_compiled_vit(&text).is_ok());
    assert!(load_compiled_vit(&text[..text.len() - 1]).is_ok());
    for cut in 0..text.len() - 1 {
        let lines = text[..cut].lines().count().max(1);
        let line = parse_error_line(&text[..cut]);
        assert!(
            line.is_some_and(|l| (1..=lines).contains(&l)),
            "cut at {cut}: {line:?} of {lines}"
        );
    }
}

/// Corrupt size fields are a parse error with its line, not a capacity
/// panic or a giant allocation.
#[test]
fn huge_tensor_headers_are_rejected() {
    let [fp32, _] = hand_texts();
    for header in [
        "tensor f32 w 4000000000000000000 4000000000000000000",
        "tensor i8 w 999999999 999999999 3f800000",
    ] {
        let line = parse_error_line(&insert(&fp32, 1, &[header]));
        assert!(line.is_some_and(|l| l > 1), "{header}: {line:?}");
    }
}

/// Malformed text names its line, under the parse error's prefix; a text
/// that parses but is not a ViT gets the schema error's prefix.
#[test]
fn malformed_text_reports_its_line() {
    let cases: &[(&str, usize, &str)] = &[
        ("vitcod-compiled v9\nend\n", 1, "unsupported header"),
        (
            "vitcod-compiled v1\ntensor f32 w 1 3\n3f800000 3f800000\nend\n",
            3,
            "expected 3",
        ),
        ("vitcod-compiled v1\ntensor f32 w 1 1\nzz\nend\n", 3, "'zz'"),
        (
            "vitcod-compiled v1\ntensor i8 w 1 2 3f800000\n1,999\nend\n",
            3,
            "'999'",
        ),
        (
            "vitcod-compiled v1\nplans 1 1\nhead dense\nend\n",
            3,
            "before any layer",
        ),
        (
            "vitcod-compiled v1\nplans 2\nlayer 0 1\nhead dense\nend\n",
            5,
            "declared 2",
        ),
        (
            "vitcod-compiled v1\nplans 1\nlayer 0 2\nhead dense\nend\n",
            5,
            "declared 2",
        ),
        (
            "vitcod-compiled v1\nlayer 0 1\nhead dense\nend\n",
            4,
            "without a 'plans' header",
        ),
        (
            "vitcod-compiled v1\nplans 1\nlayer 0\nhead dense\nend\n",
            3,
            "layer head count",
        ),
        ("vitcod-compiled v1\nmeta model x\n", 2, "truncated"),
    ];
    for (text, line, message) in cases {
        let e = load_compiled_vit(text).map(|_| ()).unwrap_err();
        assert_eq!(parse_error_line(text), Some(*line), "{text:?}: {e}");
        let prefix = format!("invalid compiled artifact at line {line}: ");
        let shown = e.to_string();
        assert!(
            shown.starts_with(&prefix) && shown.contains(message),
            "{shown}"
        );
    }

    let [fp32, _] = hand_texts();
    let lines: Vec<&str> = fp32.lines().collect();
    for cut in [lines.len() / 4, lines.len() / 2, lines.len() - 1] {
        assert!(parse_error_line(&lines[..cut].join("\n")).is_some());
    }
    let e = load_compiled_vit("vitcod-compiled v1\nmeta model X\nend\n").unwrap_err();
    assert_eq!(
        e.to_string(),
        "invalid compiled-model schema: missing meta key 'family'"
    );
}

/// Every meta key in the text must be one the loader reads. A misspelt
/// `precision` used to load as a missing one: an int8 artifact came back
/// as fp32 and was served at its dequantized values. The error names the
/// smallest unknown key.
#[test]
fn unknown_meta_keys_are_rejected() {
    let [fp32, int8] = hand_texts();
    let misspelt = int8.replace("meta precision int8\n", "meta precison int8\n");
    assert_ne!(misspelt, int8);
    assert_eq!(
        load_compiled_vit(&misspelt).map(|_| ()),
        Err(ArtifactError::Schema(
            "unexpected meta key 'precison'".into()
        ))
    );
    for text in [&fp32, &int8] {
        let extra = insert(text, 1, &["meta zeta 1", "meta author someone"]);
        assert_eq!(
            load_compiled_vit(&extra).map(|_| ()),
            Err(ArtifactError::Schema("unexpected meta key 'author'".into()))
        );
    }
}

/// Every tensor in the text must be one the model reads: a leftover
/// tensor and a partial auto-encoder set are schema errors. Both used
/// to load, the leftover silently dropped — with `layer0.ae.enc_q`
/// renamed, layer 0 lost its auto-encoder and the logits changed.
#[test]
fn leftover_tensors_and_partial_auto_encoders_are_rejected() {
    let [fp32, int8] = hand_texts();
    let schema_error = |text: &str| match load_compiled_vit(text) {
        Err(ArtifactError::Schema(msg)) => msg,
        other => panic!("expected a schema error, got {:?}", other.map(|_| ())),
    };
    for text in [&fp32, &int8] {
        let renamed = text.replace(" layer0.ae.enc_q ", " layer0.ae.enc_z ");
        assert_eq!(
            schema_error(&renamed),
            "layer 0 has 3 of the 4 auto-encoder tensors"
        );
        let moved = text.replace(" layer1.ae.", " layer2.ae.");
        assert_eq!(schema_error(&moved), "unexpected tensor 'layer2.ae.dec_k'");
        let plans = text.lines().position(|l| l.starts_with("plans ")).unwrap();
        let extra = insert(
            text,
            plans,
            &["tensor f32 layer0.w_extra 1 2", "3f800000 3f800000"],
        );
        assert_eq!(schema_error(&extra), "unexpected tensor 'layer0.w_extra'");
    }
}

const GOLDEN_FP32: &str = "\
    vitcod-compiled v1\n\
    meta model hand  vit\\n\\\\ \\r\n\
    meta family DeiT\n\
    meta tokens 3\n\
    meta dim 2\n\
    meta heads 2\n\
    meta depth 2\n\
    meta mlp_ratio 1\n\
    meta stages 3,2,2,2\n\
    meta stem_macs 5\n\
    meta paper_sparsity 3feccccccccccccd\n\
    meta in_dim 2\n\
    meta num_classes 2\n\
    meta precision fp32\n\
    tensor f32 patch_w 2 2\n\
    bf800000 be1d89d8\n\
    3f313b14 bf313b14\n\
    tensor f32 patch_b 1 2\n\
    7fc01234 80000000\n\
    tensor f32 pos_embed 3 2\n\
    3e6c4ec8 3f89d89e\n\
    be9d89d8 3f09d89e\n\
    bf589d8a 00000000\n\
    tensor f32 layer0.ln1_gamma 1 2\n\
    3f589d8a bf09d89e\n\
    tensor f32 layer0.ln1_beta 1 2\n\
    bf44ec4f 3d9d89e0\n\
    tensor f32 layer0.w_qkv 2 6\n\
    be1d89d8 3f313b14 3f89d89e be9d89d8 3d9d89e0 3f6c4ec4\n\
    bf313b14 3e1d89d8 3f09d89e bf589d8a beec4ec4 3ec4ec50\n\
    tensor f32 layer0.b_qkv 1 6\n\
    3eec4ec4 bf6c4ec5 bf09d89e 3e9d89d8 3f313b14 bf313b14\n\
    tensor f32 layer0.w_out 2 2\n\
    bf6c4ec5 bd9d89d8\n\
    3f44ec4e bf1d89d8\n\
    tensor f32 layer0.b_out 1 2\n\
    be9d89d8 3f09d89e\n\
    tensor f32 layer0.ln2_gamma 1 2\n\
    3e9d89d8 3f93b13c\n\
    tensor f32 layer0.ln2_beta 1 2\n\
    3f6c4ec4 beec4ec4\n\
    tensor f32 layer0.w_fc1 2 2\n\
    bf313b14 3e1d89d8\n\
    3f800000 bec4ec4e\n\
    tensor f32 layer0.b_fc1 1 2\n\
    bd9d89d8 3f44ec4e\n\
    tensor f32 layer0.w_fc2 2 2\n\
    3f09d89e bf589d8a\n\
    00000000 3f589d8a\n\
    tensor f32 layer0.b_fc2 1 2\n\
    3f93b13c be6c4ec4\n\
    tensor f32 layer0.ae.enc_q 2 1\n\
    3f313b14\n\
    bf313b14\n\
    tensor f32 layer0.ae.dec_q 1 2\n\
    bf6c4ec5 bd9d89d8\n\
    tensor f32 layer0.ae.enc_k 2 1\n\
    be9d89d8\n\
    3f09d89e\n\
    tensor f32 layer0.ae.dec_k 1 2\n\
    3e9d89d8 3f93b13c\n\
    tensor f32 layer1.ln1_gamma 1 2\n\
    beec4ec4 3ec4ec50\n\
    tensor f32 layer1.ln1_beta 1 2\n\
    3e1d89d8 3f800000\n\
    tensor f32 layer1.w_qkv 2 6\n\
    3f44ec4e bf1d89d8 be6c4ec4 3f1d89d8 3f800000 bec4ec4e\n\
    3e6c4ec8 3f89d89e bf44ec4f 3d9d89e0 3eec4ec4 bf6c4ec5\n\
    tensor f32 layer1.b_qkv 1 6\n\
    bf589d8a 00000000 3ec4ec50 bf800000 bf1d89d8 3e6c4ec8\n\
    tensor f32 layer1.w_out 2 2\n\
    00000000 3f589d8a\n\
    bf09d89e 3e9d89d8\n\
    tensor f32 layer1.b_out 1 2\n\
    3f1d89d8 bf44ec4f\n\
    tensor f32 layer1.ln2_gamma 1 2\n\
    bf800000 be1d89d8\n\
    tensor f32 layer1.ln2_beta 1 2\n\
    bec4ec4e 3eec4ec4\n\
    tensor f32 layer1.w_fc1 2 2\n\
    3e6c4ec8 3f89d89e\n\
    be9d89d8 3f09d89e\n\
    tensor f32 layer1.b_fc1 1 2\n\
    3f589d8a bf09d89e\n\
    tensor f32 layer1.w_fc2 2 2\n\
    bf44ec4f 3d9d89e0\n\
    3f6c4ec4 beec4ec4\n\
    tensor f32 layer1.b_fc2 1 2\n\
    be1d89d8 3f313b14\n\
    tensor f32 layer1.ae.enc_q 2 1\n\
    3f6c4ec4\n\
    beec4ec4\n\
    tensor f32 layer1.ae.dec_q 1 2\n\
    bf313b14 3e1d89d8\n\
    tensor f32 layer1.ae.enc_k 2 1\n\
    bd9d89d8\n\
    3f44ec4e\n\
    tensor f32 layer1.ae.dec_k 1 2\n\
    3f09d89e bf589d8a\n\
    tensor f32 final_gamma 1 2\n\
    3eec4ec4 bf6c4ec5\n\
    tensor f32 final_beta 1 2\n\
    3f89d89e be9d89d8\n\
    tensor f32 head_w 2 2\n\
    bf09d89e 3e9d89d8\n\
    3f93b13c be6c4ec4\n\
    tensor f32 head_b 1 2\n\
    00000001 ff800000\n\
    plans 2\n\
    layer 0 2\n\
    head dense\n\
    head sparse 3 0,1,2;1;2\n\
    layer 1 2\n\
    head sparse 3 0,1,2;;\n\
    head sparse 3 0;1;2\n\
    end\n\
    ";
const GOLDEN_INT8: &str = "\
    vitcod-compiled v1\n\
    meta model hand  vit\\n\\\\ \\r\n\
    meta family DeiT\n\
    meta tokens 3\n\
    meta dim 2\n\
    meta heads 2\n\
    meta depth 2\n\
    meta mlp_ratio 1\n\
    meta stages 3,2,2,2\n\
    meta stem_macs 5\n\
    meta paper_sparsity 3feccccccccccccd\n\
    meta in_dim 2\n\
    meta num_classes 2\n\
    meta precision int8\n\
    tensor i8 patch_w 2 2 3c010204\n\
    -127,-20\n\
    88,-88\n\
    tensor f32 patch_b 1 2\n\
    7fc01234 80000000\n\
    tensor i8 pos_embed 3 2 3c0aee7b\n\
    27,127\n\
    -36,64\n\
    -100,0\n\
    tensor f32 layer0.ln1_gamma 1 2\n\
    3f589d8a bf09d89e\n\
    tensor f32 layer0.ln1_beta 1 2\n\
    bf44ec4f 3d9d89e0\n\
    tensor i8 layer0.w_qkv 2 6 3c0aee7b\n\
    -18,82,127,-36,9,109\n\
    -82,18,64,-100,-54,45\n\
    tensor f32 layer0.b_qkv 1 6\n\
    3eec4ec4 bf6c4ec5 bf09d89e 3e9d89d8 3f313b14 bf313b14\n\
    tensor i8 layer0.w_out 2 2 3bee2b1b\n\
    -127,-11\n\
    106,-85\n\
    tensor f32 layer0.b_out 1 2\n\
    be9d89d8 3f09d89e\n\
    tensor f32 layer0.ln2_gamma 1 2\n\
    3e9d89d8 3f93b13c\n\
    tensor f32 layer0.ln2_beta 1 2\n\
    3f6c4ec4 beec4ec4\n\
    tensor i8 layer0.w_fc1 2 2 3c010204\n\
    -88,20\n\
    127,-49\n\
    tensor f32 layer0.b_fc1 1 2\n\
    bd9d89d8 3f44ec4e\n\
    tensor i8 layer0.w_fc2 2 2 3bda522e\n\
    81,-127\n\
    0,127\n\
    tensor f32 layer0.b_fc2 1 2\n\
    3f93b13c be6c4ec4\n\
    tensor i8 layer0.ae.enc_q 2 1 3bb2a055\n\
    127\n\
    -127\n\
    tensor i8 layer0.ae.dec_q 1 2 3bee2b1b\n\
    -127,-11\n\
    tensor i8 layer0.ae.enc_k 2 1 3b8aee7b\n\
    -73\n\
    127\n\
    tensor i8 layer0.ae.dec_k 1 2 3c14daf2\n\
    34,127\n\
    tensor f32 layer1.ln1_gamma 1 2\n\
    beec4ec4 3ec4ec50\n\
    tensor f32 layer1.ln1_beta 1 2\n\
    3e1d89d8 3f800000\n\
    tensor i8 layer1.w_qkv 2 6 3c0aee7b\n\
    91,-73,-27,73,118,-45\n\
    27,127,-91,9,54,-109\n\
    tensor f32 layer1.b_qkv 1 6\n\
    bf589d8a 00000000 3ec4ec50 bf800000 bf1d89d8 3e6c4ec8\n\
    tensor i8 layer1.w_out 2 2 3bda522e\n\
    0,127\n\
    -81,46\n\
    tensor f32 layer1.b_out 1 2\n\
    3f1d89d8 bf44ec4f\n\
    tensor f32 layer1.ln2_gamma 1 2\n\
    bf800000 be1d89d8\n\
    tensor f32 layer1.ln2_beta 1 2\n\
    bec4ec4e 3eec4ec4\n\
    tensor i8 layer1.w_fc1 2 2 3c0aee7b\n\
    27,127\n\
    -36,64\n\
    tensor f32 layer1.b_fc1 1 2\n\
    3f589d8a bf09d89e\n\
    tensor i8 layer1.w_fc2 2 2 3bee2b1a\n\
    -106,11\n\
    127,-64\n\
    tensor f32 layer1.b_fc2 1 2\n\
    be1d89d8 3f313b14\n\
    tensor i8 layer1.ae.enc_q 2 1 3bee2b1a\n\
    127\n\
    -64\n\
    tensor i8 layer1.ae.dec_q 1 2 3bb2a055\n\
    -127,28\n\
    tensor i8 layer1.ae.enc_k 2 1 3bc67941\n\
    -13\n\
    127\n\
    tensor i8 layer1.ae.dec_k 1 2 3bda522e\n\
    81,-127\n\
    tensor f32 final_gamma 1 2\n\
    3eec4ec4 bf6c4ec5\n\
    tensor f32 final_beta 1 2\n\
    3f89d89e be9d89d8\n\
    tensor i8 head_w 2 2 3c14daf2\n\
    -59,34\n\
    127,-25\n\
    tensor f32 head_b 1 2\n\
    00000001 ff800000\n\
    plans 2\n\
    layer 0 2\n\
    head dense\n\
    head sparse 3 0,1,2;1;2\n\
    layer 1 2\n\
    head sparse 3 0,1,2;;\n\
    head sparse 3 0;1;2\n\
    end\n\
    ";
