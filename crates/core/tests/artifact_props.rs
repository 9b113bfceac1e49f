//! The `vitcod-compiled v1` codec against its oracle and its grammar:
//! the byte-loop writer must equal the `format!`/`join` writer it
//! replaced on any record, `load ∘ save` and `save ∘ load` must be
//! identities, and the reader must accept exactly the documented token
//! grammar — a damaged token is an error with its line number, never a
//! different weight.

mod artifact_oracle;

use artifact_oracle::save_compiled_oracle;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vitcod_core::{
    load_compiled, save_compiled, CompiledModelArtifact, CscMatrix, HeadPlanRecord, NamedTensor,
    TensorPayload,
};
use vitcod_tensor::{Matrix, QuantParams, QuantizedMatrix};

fn i8_payload(rows: usize, cols: usize, scale: f32, data: Vec<i8>) -> TensorPayload {
    TensorPayload::I8(QuantizedMatrix::from_raw(
        rows,
        cols,
        data,
        QuantParams { scale },
    ))
}

/// A dimension, zero one time in four.
fn dim(rng: &mut ChaCha8Rng) -> usize {
    [0, 1, 2, 3, 5, 8, 0, 13][rng.gen_range(0..8)]
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

/// A random record: any shapes (zero-sized included), any f32 bits, every
/// i8, ragged plans, meta values that need every escape.
fn record(seed: u64) -> CompiledModelArtifact {
    let rng = &mut ChaCha8Rng::seed_from_u64(seed);
    const PALETTE: [char; 12] = [
        'a', 'Z', '7', ' ', ' ', '\\', '\n', '\r', '\t', 'n', 'é', '\u{a0}',
    ];
    let meta = (0..rng.gen_range(0..4usize))
        .map(|i| {
            let value = (0..rng.gen_range(0..9usize))
                .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                .collect();
            (format!("key{i}"), value)
        })
        .collect();
    let tensors = (0..rng.gen_range(0..4usize))
        .map(|i| {
            let (rows, cols) = (dim(rng), dim(rng));
            let payload = if rng.gen_bool(0.5) {
                let data = (0..rows * cols).map(|_| f32_bits(rng)).collect();
                TensorPayload::F32(Matrix::from_vec(rows, cols, data))
            } else {
                let data = (0..rows * cols).map(|_| rng.next_u32() as i8).collect();
                i8_payload(rows, cols, f32_bits(rng), data)
            };
            NamedTensor {
                name: format!("layer{i}.w"),
                payload,
            }
        })
        .collect();
    let plans = (0..rng.gen_range(0..3usize))
        .map(|_| {
            (0..rng.gen_range(0..4usize))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        return HeadPlanRecord::Dense;
                    }
                    let pick = rng.next_u64();
                    let kept = |q: usize, k: usize| pick >> ((q * 5 + k) % 64) & 1 == 1;
                    HeadPlanRecord::Sparse(CscMatrix::from_indicator(rng.gen_range(0..6), kept))
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

/// Everything in a record with floats as bit patterns, so NaN payloads
/// compare equal to themselves.
type Bits = (
    Vec<(String, String)>,
    Vec<(String, (usize, usize), Option<u32>, Vec<u32>)>,
    Vec<Vec<HeadPlanRecord>>,
);

fn bits(a: &CompiledModelArtifact) -> Bits {
    let tensors = a
        .tensors
        .iter()
        .map(|t| {
            let (scale, values) = match &t.payload {
                TensorPayload::F32(m) => (None, m.as_slice().iter().map(|v| v.to_bits()).collect()),
                TensorPayload::I8(q) => (
                    Some(q.params().scale.to_bits()),
                    (0..q.shape().0)
                        .flat_map(|r| q.row_raw(r).iter().map(|&b| b as u32))
                        .collect(),
                ),
            };
            (t.name.clone(), t.payload.shape(), scale, values)
        })
        .collect();
    (a.meta.clone(), tensors, a.plans.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// New writer ≡ oracle writer byte for byte; `load(save(a)) == a`
    /// bit for bit; `save(load(text)) == text`.
    #[test]
    fn writer_matches_oracle_and_round_trips(seed in any::<u64>()) {
        let a = record(seed);
        let text = save_compiled(&a);
        prop_assert_eq!(&text, &save_compiled_oracle(&a));
        let restored = load_compiled(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(bits(&restored), bits(&a));
        prop_assert_eq!(save_compiled(&restored), text);
    }
}

/// Every i8 and the f32 bit patterns at the edges of each hex digit, in
/// one record, so the two token tables are covered entry by entry.
#[test]
fn every_i8_and_every_nibble_round_trips() {
    let all_i8: Vec<i8> = (i8::MIN..=i8::MAX).collect();
    let nibbles: Vec<f32> = (0..16u32)
        .flat_map(|d| (0..8).map(move |pos| f32::from_bits(d << (4 * pos))))
        .collect();
    let a = CompiledModelArtifact {
        meta: vec![],
        tensors: vec![
            NamedTensor {
                name: "bytes".into(),
                payload: i8_payload(2, 128, 0.5, all_i8),
            },
            NamedTensor {
                name: "nibbles".into(),
                payload: TensorPayload::F32(Matrix::from_vec(8, 16, nibbles)),
            },
        ],
        plans: vec![],
    };
    let text = save_compiled(&a);
    assert_eq!(text, save_compiled_oracle(&a));
    assert_eq!(bits(&load_compiled(&text).unwrap()), bits(&a));
}

/// A payload with a zero dimension round-trips for both kinds. Before
/// the byte reader an i8 tensor with zero columns saved as empty rows
/// and then failed to load (`"".split(',')` yields one empty token).
#[test]
fn zero_sized_payloads_round_trip() {
    for (rows, cols) in [(0, 3), (3, 0), (0, 0)] {
        let a = CompiledModelArtifact {
            meta: vec![],
            tensors: vec![
                NamedTensor {
                    name: "f".into(),
                    payload: TensorPayload::F32(Matrix::zeros(rows, cols)),
                },
                NamedTensor {
                    name: "q".into(),
                    payload: i8_payload(rows, cols, 1.0, vec![]),
                },
            ],
            plans: vec![],
        };
        let text = save_compiled(&a);
        assert_eq!(text, save_compiled_oracle(&a));
        let restored = load_compiled(&text).unwrap_or_else(|e| panic!("{rows} x {cols}: {e}"));
        assert_eq!(restored, a);
    }
    // The same at the text level, for a reader that never saw the writer.
    let text = "vitcod-compiled v1\ntensor i8 q 2 0 3f800000\n\n\ntensor f32 f 1 0\n\nend\n";
    let restored = load_compiled(text).unwrap();
    let shapes: Vec<_> = restored.tensors.iter().map(|t| t.payload.shape()).collect();
    assert_eq!(shapes, [(2, 0), (1, 0)]);
}

/// Loads one tensor declared by `header` whose payload is `rows`.
fn load_tensor(header: &str, rows: &[&str]) -> Result<CompiledModelArtifact, usize> {
    let text = format!("vitcod-compiled v1\n{header}\n{}\nend\n", rows.join("\n"));
    load_compiled(&text).map_err(|e| e.line())
}

/// The reader's language is what the writer emits and no more: each of
/// these loaded as *some* weight (or fell through to a later check)
/// before the byte reader, and is now an error on its own line.
#[test]
fn rejection_table() {
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
    for (header, rows, line) in cases {
        assert_eq!(
            load_tensor(header, rows).map(|_| ()),
            Err(*line),
            "{header:?} with rows {rows:?}"
        );
    }
}

/// What the grammar does allow beyond the writer's exact bytes.
#[test]
fn accepted_variations() {
    let f = load_tensor(
        "tensor f32 w 2 2",
        &["3F800000\t bf80000A", "  00000000 7fc01234 "],
    )
    .unwrap();
    let TensorPayload::F32(m) = &f.tensors[0].payload else {
        panic!("f32 payload expected");
    };
    let got: Vec<u32> = m.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, [0x3f80_0000, 0xbf80_000a, 0, 0x7fc0_1234]);

    // A raw −128 loads: quantization never writes it, the kernels bound
    // their accumulators as if it could appear.
    let q = load_tensor("tensor i8 w 1 5 3F800000", &["-128,127,-0,007,0"]).unwrap();
    let TensorPayload::I8(q) = &q.tensors[0].payload else {
        panic!("i8 payload expected");
    };
    assert_eq!(q.row_raw(0), [-128, 127, 0, 7, 0]);
}

/// A ~2 KB artifact with every record kind.
fn small_artifact() -> CompiledModelArtifact {
    let wave = |i: usize| (i as f32 * 0.37).sin();
    CompiledModelArtifact {
        meta: vec![
            ("model".into(), "DeiT-Tiny".into()),
            ("note".into(), "two  spaces\nand a break".into()),
        ],
        tensors: vec![
            NamedTensor {
                name: "patch_w".into(),
                payload: TensorPayload::F32(Matrix::from_fn(12, 12, |r, c| wave(r * 12 + c))),
            },
            NamedTensor {
                name: "layer0.w_qkv".into(),
                payload: i8_payload(
                    8,
                    24,
                    0.0123,
                    (0..192).map(|i| (wave(i) * 127.0) as i8).collect(),
                ),
            },
        ],
        plans: vec![vec![
            HeadPlanRecord::Dense,
            HeadPlanRecord::Sparse(CscMatrix::from_indicator(9, |q, k| q == k || k == 0)),
        ]],
    }
}

/// Truncation anywhere is an error — never a panic, never a record.
/// (The one prefix that does load is the whole text less its final line
/// break: `end` is the terminator, the `\n` after it is not.)
#[test]
fn every_byte_prefix_is_rejected() {
    let text = save_compiled(&small_artifact());
    assert!(text.is_ascii() && (1500..4000).contains(&text.len()));
    assert!(load_compiled(&text).is_ok());
    assert!(load_compiled(&text[..text.len() - 1]).is_ok());
    for cut in 0..text.len() - 1 {
        let e = load_compiled(&text[..cut]).expect_err("a truncated artifact must not load");
        let lines = text[..cut].lines().count().max(1);
        assert!(
            (1..=lines).contains(&e.line()),
            "cut at {cut}: line {} of {lines}: {e}",
            e.line()
        );
    }
}

/// The v1 bytes, committed: a writer change that moves the format shows
/// here even if writer and reader move together.
#[test]
fn golden_v1_bytes() {
    const GOLDEN: &str = "vitcod-compiled v1\n\
        meta model DeiT-Tiny\n\
        meta note a  b\\nc\\\\d\\r\n\
        meta empty \n\
        tensor f32 w 2 3\n\
        3f800000 80000000 00800000\n\
        7fc01234 ff800000 c1880000\n\
        tensor i8 layer0.w_qkv 2 4 3c008081\n\
        127,-127,0,-128\n\
        1,-1,64,-100\n\
        tensor f32 none 0 2\n\
        tensor i8 thin 2 0 3f800000\n\
        \n\
        \n\
        plans 2\n\
        layer 0 2\n\
        head dense\n\
        head sparse 3 0,1,2;1;2\n\
        layer 1 1\n\
        head sparse 2 ;\n\
        end\n";
    let a = CompiledModelArtifact {
        meta: vec![
            ("model".into(), "DeiT-Tiny".into()),
            ("note".into(), "a  b\nc\\d\r".into()),
            ("empty".into(), String::new()),
        ],
        tensors: vec![
            NamedTensor {
                name: "w".into(),
                payload: TensorPayload::F32(Matrix::from_vec(
                    2,
                    3,
                    [
                        0x3f80_0000,
                        0x8000_0000,
                        0x0080_0000,
                        0x7fc0_1234,
                        0xff80_0000,
                        0xc188_0000,
                    ]
                    .map(f32::from_bits)
                    .to_vec(),
                )),
            },
            NamedTensor {
                name: "layer0.w_qkv".into(),
                payload: i8_payload(
                    2,
                    4,
                    f32::from_bits(0x3c00_8081),
                    vec![127, -127, 0, -128, 1, -1, 64, -100],
                ),
            },
            NamedTensor {
                name: "none".into(),
                payload: TensorPayload::F32(Matrix::zeros(0, 2)),
            },
            NamedTensor {
                name: "thin".into(),
                payload: i8_payload(2, 0, 1.0, vec![]),
            },
        ],
        plans: vec![
            vec![
                HeadPlanRecord::Dense,
                HeadPlanRecord::Sparse(CscMatrix::from_indicator(3, |q, k| q == k || k == 0)),
            ],
            vec![HeadPlanRecord::Sparse(CscMatrix::from_indicator(
                2,
                |_, _| false,
            ))],
        ],
    };
    assert_eq!(save_compiled(&a), GOLDEN);
    assert_eq!(bits(&load_compiled(GOLDEN).unwrap()), bits(&a));
}

/// A tensor name the loader could not split back is refused at save
/// time, exactly as a meta key is.
#[test]
#[should_panic(expected = "tensor name \"layer0 w\" must be non-empty and whitespace-free")]
fn save_rejects_unsplittable_tensor_names() {
    save_compiled(&CompiledModelArtifact {
        meta: vec![],
        tensors: vec![NamedTensor {
            name: "layer0 w".into(),
            payload: TensorPayload::F32(Matrix::zeros(1, 1)),
        }],
        plans: vec![],
    });
}
