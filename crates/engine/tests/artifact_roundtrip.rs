//! Artifact persistence acceptance: a `CompiledVit` saved to text and
//! reloaded must be *indistinguishable* from the original —
//! bit-identical fp32 logits through `Engine::infer_batch`, byte-exact
//! int8 payloads — and malformed artifacts must be rejected with the
//! offending line number.

mod artifact_oracle;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{load_compiled_vit, save_compiled_vit, CompiledVit, Engine, Precision};
use vitcod_model::{AutoEncoderSpec, Sample, SparsityPlan, ViTConfig, VisionTransformer};
use vitcod_tensor::{Initializer, Matrix, QuantParams, QuantizedMatrix};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

/// A small but fully featured model: optional AE round trip, optional
/// per-head sparsity plan.
fn tiny_model(seed: u64, ae: bool, sparse: bool) -> CompiledVit {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    if ae {
        vit.insert_auto_encoder(
            AutoEncoderSpec::half(vit.config().heads),
            &mut store,
            &mut rng,
        );
    }
    if sparse {
        let n = vit.config().tokens;
        let mut mask = Matrix::zeros(n, n);
        for q in 0..n {
            mask.set(q, q, 1.0);
            mask.set(q, 0, 1.0);
            mask.set(q, (q + 1) % n, 1.0);
        }
        let plan: SparsityPlan = (0..vit.config().depth)
            .map(|_| {
                (0..vit.config().heads)
                    .map(|_| Some(mask.clone()))
                    .collect()
            })
            .collect();
        vit.set_sparsity_plan(plan);
    }
    CompiledVit::from_parts(&vit, &store)
}

fn batch(tokens: usize, seed: u64, count: usize) -> Vec<Sample> {
    (0..count)
        .map(|i| Sample {
            tokens: Initializer::Normal { std: 1.0 }.sample(tokens, IN_DIM, seed + i as u64),
            label: 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// save → load → `Engine::infer_batch` reproduces the original fp32
    /// logits **bit-identically**, across random weights, AE on/off and
    /// sparse/dense head plans; and re-saving the loaded model is
    /// byte-identical.
    #[test]
    fn fp32_round_trip_serves_bit_identical_logits(
        seed in 0u64..1000,
        ae in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        let original = tiny_model(seed, ae, sparse);
        let text = save_compiled_vit(&original, Precision::Fp32);
        let (restored, precision) = load_compiled_vit(&text).unwrap();
        prop_assert_eq!(precision, Precision::Fp32);
        prop_assert_eq!(save_compiled_vit(&restored, Precision::Fp32), text);

        let samples = batch(original.config().tokens, 5000 + seed, 3);
        let before = Engine::builder(original).build().infer_batch(&samples);
        let after = Engine::builder(restored).build().infer_batch(&samples);
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert_eq!(&b.logits, &a.logits, "logits must be bit-identical");
            prop_assert_eq!(b.class, a.class);
        }
    }

    /// int8 plans round-trip **byte-identically**: the saved artifact's
    /// quantized payloads survive load → re-save unchanged, and an int8
    /// engine over the reloaded fp32 weights computes the same logits
    /// as one over the originals.
    #[test]
    fn int8_plans_round_trip_byte_identical(
        seed in 0u64..1000,
        sparse in any::<bool>(),
    ) {
        let original = tiny_model(seed, false, sparse);

        // Byte-identity of the int8 artifact itself.
        let int8_text = save_compiled_vit(&original, Precision::Int8);
        let (restored_q, precision) = load_compiled_vit(&int8_text).unwrap();
        prop_assert_eq!(precision, Precision::Int8);
        prop_assert_eq!(save_compiled_vit(&restored_q, Precision::Int8), int8_text);

        // Bit-identity of int8 *serving* through an fp32 round trip:
        // identical weights quantize identically.
        let fp32_text = save_compiled_vit(&original, Precision::Fp32);
        let (restored, _) = load_compiled_vit(&fp32_text).unwrap();
        let samples = batch(original.config().tokens, 7000 + seed, 2);
        let before = Engine::builder(original)
            .precision(Precision::Int8)
            .build()
            .infer_batch(&samples);
        let after = Engine::builder(restored)
            .precision(Precision::Int8)
            .build()
            .infer_batch(&samples);
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert_eq!(&b.logits, &a.logits);
        }

        // An engine over the int8 artifact itself uses the packed
        // projection payloads carried in the file — same logits again.
        let from_q = Engine::builder(restored_q)
            .precision(Precision::Int8)
            .build()
            .infer_batch(&samples);
        for (b, a) in before.iter().zip(from_q.iter()) {
            prop_assert_eq!(&b.logits, &a.logits);
        }
    }
}

#[test]
fn int8_artifact_stores_one_byte_weight_payloads() {
    let model = tiny_model(11, false, false);
    let text = save_compiled_vit(&model, Precision::Int8);
    let kind = |name: &str| {
        let suffix = format!(" {name} ");
        let header = text
            .lines()
            .find(|l| l.starts_with("tensor ") && l.contains(&suffix));
        header.unwrap().split(' ').nth(1).unwrap().to_string()
    };
    let is_i8 = |name: &str| kind(name) == "i8";
    // The engine's quantization set is i8; biases/LayerNorm stay f32.
    for name in ["patch_w", "pos_embed", "head_w", "layer0.w_qkv"] {
        assert!(is_i8(name), "{name} should be quantized");
    }
    for name in ["patch_b", "layer0.ln1_gamma", "final_beta", "head_b"] {
        assert!(!is_i8(name), "{name} should stay fp32");
    }
}

/// At the real DeiT-Tiny shape (5.4 M scalars, the benchmark of
/// record's artifact) the byte-loop writer equals the per-scalar
/// `format!` writer it replaced, in both precisions, and the text
/// survives load → save unchanged.
#[test]
fn deit_tiny_artifact_matches_the_oracle_writer() {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let vit = VisionTransformer::new(&ViTConfig::deit_tiny(), 48, 10, &mut store, &mut rng);
    let model = CompiledVit::from_parts(&vit, &store);
    for (precision, bytes) in [(Precision::Fp32, 48_496_814), (Precision::Int8, 19_767_427)] {
        let text = save_compiled_vit(&model, precision);
        // `assert!`, not `assert_eq!`: a failure must not print 48 MB.
        assert!(
            text == artifact_oracle::save_compiled_oracle(&vit, &store, precision),
            "{precision:?}: writer and oracle disagree"
        );
        assert_eq!(text.len(), bytes, "{precision:?}: the v1 format moved");
        let (loaded, loaded_precision) = load_compiled_vit(&text).unwrap();
        assert_eq!(loaded_precision, precision);
        assert!(
            save_compiled_vit(&loaded, precision) == text,
            "{precision:?}: save(load(text)) != text"
        );
    }
}

/// A repeated tensor name or meta key is a schema error. Both used to
/// load, the first record silently shadowing the second.
#[test]
fn duplicate_names_are_rejected() {
    use vitcod_engine::ArtifactError;
    let good = save_compiled_vit(&tiny_model(6, false, false), Precision::Fp32);
    let lines: Vec<&str> = good.lines().collect();
    let patch_b = lines
        .iter()
        .position(|l| l.starts_with("tensor f32 patch_b "))
        .unwrap();
    let again = |at: usize, len: usize| {
        let mut doubled = lines[..at + len].to_vec();
        doubled.extend_from_slice(&lines[at..]);
        doubled.join("\n")
    };
    for (text, message) in [
        (again(patch_b, 2), "duplicate tensor 'patch_b'"),
        (again(1, 1), "duplicate meta key 'model'"),
    ] {
        match load_compiled_vit(&text) {
            Err(ArtifactError::Schema(msg)) => assert_eq!(msg, message),
            other => panic!("expected {message:?}, got {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn malformed_artifacts_report_line_numbers() {
    use vitcod_engine::ArtifactError;

    // Format-level failures carry the offending line.
    let cases: &[(&str, usize)] = &[
        ("vitcod-compiled v2\nend\n", 1),
        ("vitcod-compiled v1\ntensor f32 w 1 2\n3f800000\nend\n", 3),
        ("vitcod-compiled v1\ntensor f32 w 1 1\nnothex\nend\n", 3),
        ("vitcod-compiled v1\nbogus record\nend\n", 2),
        ("vitcod-compiled v1\nplans 1 1\nhead dense\nend\n", 3),
    ];
    for (text, line) in cases {
        match load_compiled_vit(text).unwrap_err() {
            ArtifactError::Parse { line: got, .. } => {
                assert_eq!(got, *line, "wrong line for {text:?}");
            }
            other => panic!("expected parse error for {text:?}, got {other}"),
        }
    }

    // Truncation is always rejected.
    let text = save_compiled_vit(&tiny_model(3, true, true), Precision::Fp32);
    let lines: Vec<&str> = text.lines().collect();
    for cut in [lines.len() / 4, lines.len() / 2, lines.len() - 1] {
        assert!(
            load_compiled_vit(&lines[..cut].join("\n")).is_err(),
            "truncation at line {cut} must fail"
        );
    }

    // Schema-level failure: a parseable record that is not a ViT.
    let text = "vitcod-compiled v1\nmeta model X\nend\n";
    match load_compiled_vit(text).unwrap_err() {
        ArtifactError::Schema(msg) => assert!(msg.contains("family"), "got: {msg}"),
        other => panic!("expected schema error, got {other}"),
    }
}

#[test]
fn schema_rejects_wrong_shapes_and_missing_tensors() {
    let model = tiny_model(4, false, false);
    let good = save_compiled_vit(&model, Precision::Fp32);

    // Drop a tensor record (name survives in other layers' tensors).
    let missing = good.replace("tensor f32 layer0.w_out", "tensor f32 layer0.w_out_gone");
    let err = load_compiled_vit(&missing).unwrap_err().to_string();
    assert!(err.contains("layer0.w_out"), "got: {err}");

    // Declare the wrong token count: pos_embed shape check fires.
    let bad_tokens = good.replace("meta tokens 17", "meta tokens 18");
    let err = load_compiled_vit(&bad_tokens).unwrap_err().to_string();
    assert!(err.contains("shape") || err.contains("CSC"), "got: {err}");
}

/// `Arc`-shared weights: engines built from the same shared artifact
/// serve the identical allocation — no per-engine (and so no
/// per-request) weight copies.
#[test]
fn shared_artifact_is_never_copied_by_fp32_engines() {
    use std::sync::Arc;
    let compiled = Arc::new(tiny_model(5, false, true));
    let scalars = compiled.num_weight_scalars();
    let engines: Vec<Engine> = (0..4)
        .map(|_| Engine::builder_shared(Arc::clone(&compiled)).build())
        .collect();
    let samples = batch(compiled.config().tokens, 9000, 4);
    let baseline = engines[0].infer_batch(&samples);
    for e in &engines {
        // Same allocation, not an equal copy.
        assert!(
            std::ptr::eq(e.compiled(), Arc::as_ptr(&compiled)),
            "fp32 build must share the artifact"
        );
        assert_eq!(e.infer_batch(&samples)[0].logits, baseline[0].logits);
    }
    // Serving changed nothing about the frozen weights.
    assert_eq!(compiled.num_weight_scalars(), scalars);
    // 4 engines + the local handle:
    // strong count proves no engine cloned the artifact.
    assert_eq!(Arc::strong_count(&compiled), 5);
    // An int8 build over the shared artifact lowers its own clone: the
    // artifact is untouched (still all fp32, same count), no engine's
    // handle moved, and the fp32 engines answer as before.
    let int8 = Engine::builder_shared(Arc::clone(&compiled))
        .precision(Precision::Int8)
        .build();
    assert_eq!(Arc::strong_count(&compiled), 5);
    assert_eq!(compiled.num_weight_scalars(), scalars);
    assert_eq!(compiled.resident_weight_bytes(), 4 * scalars);
    for e in &engines {
        assert_eq!(e.infer_batch(&samples), baseline);
    }
    // The int8 engine's own model counts the same scalars and holds no
    // fp32 projection site: it is the model an owned int8 build makes.
    let owned = Engine::builder(CompiledVit::clone(&compiled))
        .precision(Precision::Int8)
        .build();
    assert_eq!(int8.compiled().num_weight_scalars(), scalars);
    assert!(int8.compiled().resident_weight_bytes() < 4 * scalars);
    assert!(int8.compiled() == owned.compiled());
    assert_eq!(int8.infer_batch(&samples), owned.infer_batch(&samples));
}

/// Each projection site holds one weight, in the form its precision
/// reads: at the DeiT-Tiny shape an int8 model — built from fp32 or
/// loaded from its own save — is about half the fp32-held one, where
/// holding the dequantized twin beside the panels made it 1.5×.
#[test]
fn deit_tiny_int8_model_holds_half_the_bytes_of_fp32() {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let vit = VisionTransformer::new(&ViTConfig::deit_tiny(), 48, 10, &mut store, &mut rng);
    let fp32 = CompiledVit::from_parts(&vit, &store);
    let scalars = fp32.num_weight_scalars();
    assert_eq!(fp32.resident_weight_bytes(), 4 * scalars);

    let (loaded, _) = load_compiled_vit(&save_compiled_vit(&fp32, Precision::Int8)).unwrap();
    let built = Engine::builder(fp32).precision(Precision::Int8).build();
    let built = built.compiled();
    assert_eq!(built.num_weight_scalars(), scalars);
    assert_eq!(loaded.num_weight_scalars(), scalars);
    assert_eq!(
        loaded.resident_weight_bytes(),
        built.resident_weight_bytes()
    );
    let ratio = built.resident_weight_bytes() as f64 / (4 * scalars) as f64;
    assert!(ratio <= 0.55, "int8-held / fp32-held = {ratio}");
    // Same packed sites, same round-tripped fp32 tensors: the load of an
    // int8 save is the model the int8 build serves.
    let reloaded = Engine::builder(loaded).precision(Precision::Int8).build();
    assert!(reloaded.compiled() == built);
}

/// An int8 artifact served at fp32 computes on exactly the values its
/// bytes stand for: the engine's logits equal those of an fp32 engine
/// over the text with every i8 payload `dequantize()`d, and an fp32
/// re-save of the loaded model is that text.
#[test]
fn int8_artifact_serves_and_saves_at_fp32_as_its_dequantized_values() {
    let text = save_compiled_vit(&tiny_model(21, true, true), Precision::Int8);
    let dequantized_text = dequantize_payloads(&text);
    assert_ne!(dequantized_text, text);
    let (loaded, _) = load_compiled_vit(&text).unwrap();
    assert!(save_compiled_vit(&loaded, Precision::Fp32) == dequantized_text);

    let samples = batch(loaded.config().tokens, 9100, 2);
    let (dequantized, precision) = load_compiled_vit(&dequantized_text).unwrap();
    assert_eq!(precision, Precision::Fp32);
    let want = Engine::builder(dequantized).build().infer_batch(&samples);
    // Owned and shared builds both dequantize the packed sites once.
    let shared = std::sync::Arc::new(loaded.clone());
    let got_shared = Engine::builder_shared(std::sync::Arc::clone(&shared)).build();
    assert_eq!(got_shared.infer_batch(&samples), want);
    assert!(
        shared.as_ref() == &loaded,
        "a shared artifact is not rewritten"
    );
    assert_eq!(Engine::builder(loaded).build().infer_batch(&samples), want);
}

/// `text` with every `tensor i8` record rewritten as the `tensor f32`
/// record of the values its bytes stand for, and `meta precision fp32`.
fn dequantize_payloads(text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields[..] {
            ["meta", "precision", _] => out.push_str("meta precision fp32\n"),
            ["tensor", "i8", name, rows, cols, scale] => {
                let (rows, cols) = (rows.parse().unwrap(), cols.parse().unwrap());
                let data = (0..rows)
                    .flat_map(|_| lines.next().unwrap().split(','))
                    .filter(|v| !v.is_empty())
                    .map(|v| v.parse::<i8>().unwrap())
                    .collect();
                let scale = f32::from_bits(u32::from_str_radix(scale, 16).unwrap());
                let q = QuantizedMatrix::from_raw(rows, cols, data, QuantParams { scale });
                let m = q.dequantize();
                out.push_str(&format!("tensor f32 {name} {rows} {cols}\n"));
                for r in 0..rows {
                    let row: Vec<String> = m
                        .row(r)
                        .iter()
                        .map(|v| format!("{:08x}", v.to_bits()))
                        .collect();
                    out.push_str(&row.join(" "));
                    out.push('\n');
                }
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}
