//! Kernel-layer benchmark: the Scalar reference vs the Fast backend on
//! the GEMM shapes a DeiT layer actually runs — projections, both MLP
//! halves, the attention core's `Q·Kᵀ` and `S·V`, a narrow-head `S·V`
//! and a training weight-gradient `Xᵀ·dY` — in fp32 and, for the
//! projections and MLP halves, through the packed int8 GEMM, plus the
//! 1024³ acceptance shape. A last section times the `*.vitcod` codec
//! (`save_compiled_vit` / `load_compiled_vit`) on a DeiT-Tiny artifact in
//! fp32 and int8.
//!
//! Run with `cargo bench -p vitcod-bench --bench kernels`; results are
//! printed and recorded to `BENCH_kernels.json` at the workspace root so
//! later PRs have a perf trajectory to compare against. Every shape is
//! first checked bit-identical between the two backends (and the int8
//! GEMM between its reference and panel paths), enforcing the agreement
//! contract at benchmark scale.
//!
//! Gates are absolute, anchored on rates recorded on this box, not on
//! fp32-vs-int8 ratios (which a faster kernel on either side flips for a
//! good reason; the ratios are still recorded):
//!
//! * Fast reaches ≥ [`RATE_FLOOR`] × the recorded max(Blocked, Simd)
//!   GFLOP/s at every shape that has one;
//! * the int8 GEMM reaches ≥ [`INT8_RATE_FLOOR`] × its own recorded
//!   Gop/s, a floor no half-rate lowering of its tile can reach;
//! * Fast beats Scalar ≥ 4× on the 1024³ GEMM;
//! * the artifact codec writes and reads ≥ [`ARTIFACT_RATE_FLOOR`] × its
//!   own recorded MB/s, which a per-scalar `String` misses by 2.3–11×.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_bench::timing::{time_repeats, Timing};
use vitcod_engine::{load_compiled_vit, save_compiled_vit, CompiledVit, Precision};
use vitcod_model::{ViTConfig, VisionTransformer};
use vitcod_tensor::kernels::{
    matmul_nt_with, matmul_tn_with, matmul_with, num_threads, softmax_rows, with_thread_budget,
    Backend,
};
use vitcod_tensor::{
    int8_gemm, int8_gemm_with, Initializer, Matrix, PackedGemmWeights, QuantizedRows,
};

/// Share of the recorded max(Blocked, Simd) rate Fast must reach. At the
/// least favourable shape (Simd's 28.9 at 197×192×192, its B resident in
/// L2) Fast reads 27.5–35.8 GFLOP/s across this box's moods, so the floor
/// sits a little under the 0.95 the rates would allow on a quiet box.
const RATE_FLOOR: f64 = 0.9;

/// Share of its own recorded rate the int8 GEMM must reach. That kernel
/// is the code that set the record, so the allowance is the box's whole
/// run-to-run spread — and no more: the floors (27–30 Gop/s) must stay
/// above the 22 Gop/s the tile reaches when `pmaddwd` is lowered with
/// half its lanes zeroed, and far above the 9–16 of a `pmulld` lowering.
/// Both have happened with every test green; this gate is what sees it.
const INT8_RATE_FLOOR: f64 = 0.75;

/// Share of its own recorded MB/s the `*.vitcod` codec must reach, in
/// each direction. As for int8, the allowance is the box's spread: the
/// `format!` / `from_str_radix` codec this one replaced ran at 130 (save)
/// and 350 (load) MB/s on the fp32 artifact and 65 / 105 on the int8
/// one, under half of every floor.
const ARTIFACT_RATE_FLOOR: f64 = 0.75;

/// One artifact the codec section saves and loads, with the recorded
/// MB/s of artifact text in each direction: the lowest of the
/// recording runs' best-of-repeats (fp32 save read 728 and 860; the
/// int8 load, re-recorded when projection payloads stopped being
/// dequantized at load, read 422, 418 and 414 — it was 343).
struct ArtifactCase {
    name: &'static str,
    precision: Precision,
    recorded_save_mbps: f64,
    recorded_load_mbps: f64,
}

/// DeiT-Tiny with the benchmark of record's 48 input features and 10
/// classes, so the fp32 case is its 48,496,814-byte artifact.
const ARTIFACTS: &[ArtifactCase] = &[
    ArtifactCase {
        name: "deit_tiny_fp32",
        precision: Precision::Fp32,
        recorded_save_mbps: 728.0,
        recorded_load_mbps: 1128.0,
    },
    ArtifactCase {
        name: "deit_tiny_int8",
        precision: Precision::Int8,
        recorded_save_mbps: 918.0,
        recorded_load_mbps: 414.0,
    },
];

/// Which transpose flavour a shape exercises.
#[derive(Clone, Copy)]
enum Flavour {
    Nn,
    Nt,
    Tn,
}

impl Flavour {
    fn name(self) -> &'static str {
        match self {
            Flavour::Nn => "nn",
            Flavour::Nt => "nt",
            Flavour::Tn => "tn",
        }
    }

    /// Seeded operands whose product under this flavour is `m × n` over
    /// a `k`-long reduction.
    fn operands(self, m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
        let sample = |rows, cols, seed| Initializer::Normal { std: 1.0 }.sample(rows, cols, seed);
        match self {
            Flavour::Nn => (sample(m, k, 1), sample(k, n, 2)),
            Flavour::Nt => (sample(m, k, 1), sample(n, k, 2)),
            Flavour::Tn => (sample(k, m, 1), sample(k, n, 2)),
        }
    }

    fn run(self, backend: Backend, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Flavour::Nn => matmul_with(backend, a, b),
            Flavour::Nt => matmul_nt_with(backend, a, b),
            Flavour::Tn => matmul_tn_with(backend, a, b),
        }
    }
}

/// One benchmarked product, `m × n` outputs over a `k`-long reduction.
struct Shape {
    name: &'static str,
    flavour: Flavour,
    m: usize,
    k: usize,
    n: usize,
    /// max(Blocked, Simd) GFLOP/s in the last `BENCH_kernels.json`
    /// recorded with those backends; `None` for shapes added since.
    recorded_gflops: Option<f64>,
    /// Recorded packed-int8 Gop/s at this shape; `Some` also means the
    /// int8 column is timed.
    recorded_int8_gops: Option<f64>,
}

impl Shape {
    /// Floating-point (or integer) operations in one product.
    fn ops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }
}

const fn shape(name: &'static str, flavour: Flavour, m: usize, k: usize, n: usize) -> Shape {
    Shape {
        name,
        flavour,
        m,
        k,
        n,
        recorded_gflops: None,
        recorded_int8_gops: None,
    }
}

const fn projection(name: &'static str, dim: usize, gflops: f64, int8_gops: f64) -> Shape {
    Shape {
        recorded_gflops: Some(gflops),
        ..int8_shape(name, 197, dim, dim, int8_gops)
    }
}

/// An `a·b` shape the int8 engine runs too, with its recorded Gop/s.
const fn int8_shape(name: &'static str, m: usize, k: usize, n: usize, int8_gops: f64) -> Shape {
    Shape {
        recorded_int8_gops: Some(int8_gops),
        ..shape(name, Flavour::Nn, m, k, n)
    }
}

const SHAPES: &[Shape] = &[
    projection("deit_tiny_proj", 192, 28.91, 36.03),
    projection("deit_small_proj", 384, 21.65, 39.73),
    projection("deit_base_proj", 768, 18.02, 39.43),
    int8_shape("deit_tiny_fc1", 197, 192, 768, 36.58),
    int8_shape("deit_tiny_fc2", 197, 768, 192, 38.10),
    shape("attn_scores_nt", Flavour::Nt, 197, 64, 197),
    shape("attn_sv", Flavour::Nn, 197, 197, 64),
    shape("attn_sv_narrow", Flavour::Nn, 197, 197, 8),
    // dW = Xᵀ·dY of fc1 over a two-sample batch: X is 394×192, dY 394×768.
    shape("train_dw_tn", Flavour::Tn, 192, 394, 768),
    Shape {
        recorded_gflops: Some(15.77),
        ..shape("gemm_1024", Flavour::Nn, 1024, 1024, 1024)
    },
];

struct Record {
    shape: &'static Shape,
    scalar: Timing,
    fast: Timing,
    int8: Option<Timing>,
}

impl Record {
    /// Best-run rate of a column, in G(FL)OP/s.
    fn rate(&self, timing: &Timing) -> f64 {
        self.shape.ops() / timing.best_s / 1e9
    }

    fn speedup(&self) -> f64 {
        self.scalar.best_s / self.fast.best_s
    }
}

fn bench_gemm(shape: &'static Shape) -> Record {
    let Shape {
        name,
        flavour,
        m,
        k,
        n,
        ..
    } = *shape;
    let (a, b) = flavour.operands(m, k, n);
    assert_eq!(
        flavour.run(Backend::Fast, &a, &b),
        flavour.run(Backend::Scalar, &a, &b),
        "{name}: Fast disagrees with Scalar at ({m},{k},{n})"
    );
    let floor_s = |gops: f64, share: f64| shape.ops() / (share * gops * 1e9);
    let fast_floor = shape.recorded_gflops.map(|g| floor_s(g, RATE_FLOOR));
    let fast = time_repeats(fast_floor, || {
        std::hint::black_box(flavour.run(Backend::Fast, &a, &b));
    });
    let scalar = time_repeats(None, || {
        std::hint::black_box(flavour.run(Backend::Scalar, &a, &b));
    });
    let int8 = shape.recorded_int8_gops.map(|recorded| {
        let a8 = QuantizedRows::quantize(&a);
        let b8 = PackedGemmWeights::pack(&b);
        let bias = vec![0.0f32; n];
        assert_eq!(
            int8_gemm_with(Backend::Scalar, &a8, &b8, &bias),
            int8_gemm(&a8, &b8, &bias),
            "{name}: int8 reference and panel paths disagree"
        );
        time_repeats(Some(floor_s(recorded, INT8_RATE_FLOOR)), || {
            std::hint::black_box(int8_gemm(&a8, &b8, &bias));
        })
    });
    let rec = Record {
        shape,
        scalar,
        fast,
        int8,
    };
    let int8_col = match &rec.int8 {
        Some(t) => format!("  int8 {:>6.2} Gop/s", rec.rate(t)),
        None => String::new(),
    };
    println!(
        "{name:<16} {} ({m:>4}x{k:>4}x{n:>4})  scalar {:>9.3} ms  fast {:>8.3} ms \
         (median {:>8.3} ± {:.3})  {:>6.2} GF/s  {:>5.1}x{int8_col}",
        flavour.name(),
        rec.scalar.best_s * 1e3,
        rec.fast.best_s * 1e3,
        rec.fast.median_s * 1e3,
        rec.fast.mad_s * 1e3,
        rec.rate(&rec.fast),
        rec.speedup(),
    );
    rec
}

/// The JSON object of one record: best/median/MAD per column, rates,
/// and the ratios earlier PRs gated on (recorded, no longer gated).
fn record_json(r: &Record) -> String {
    let s = r.shape;
    let mut cols = format!(
        "\"name\": \"{}\", \"flavour\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
         \"scalar_s\": {:.6}, \"scalar_repeats\": {}, \
         \"fast_s\": {:.6}, \"fast_median_s\": {:.6}, \"fast_mad_s\": {:.6}, \"fast_repeats\": {}, \
         \"fast_gflops\": {:.2}, \"speedup\": {:.2}",
        s.name,
        s.flavour.name(),
        s.m,
        s.k,
        s.n,
        r.scalar.best_s,
        r.scalar.repeats,
        r.fast.best_s,
        r.fast.median_s,
        r.fast.mad_s,
        r.fast.repeats,
        r.rate(&r.fast),
        r.speedup(),
    );
    if let Some(recorded) = s.recorded_gflops {
        cols.push_str(&format!(
            ", \"fast_over_recorded_fp32\": {:.2}",
            r.rate(&r.fast) / recorded
        ));
    }
    if let Some(t) = &r.int8 {
        cols.push_str(&format!(
            ", \"int8_s\": {:.6}, \"int8_median_s\": {:.6}, \"int8_mad_s\": {:.6}, \
             \"int8_gops\": {:.2}, \"int8_over_fast\": {:.2}",
            t.best_s,
            t.median_s,
            t.mad_s,
            r.rate(t),
            r.fast.best_s / t.best_s,
        ));
    }
    format!("    {{{cols}}}")
}

struct ArtifactRecord {
    case: &'static ArtifactCase,
    bytes: usize,
    save: Timing,
    load: Timing,
}

impl ArtifactRecord {
    /// Best-run rate of a direction, in MB of artifact text per second.
    fn mbps(&self, timing: &Timing) -> f64 {
        self.bytes as f64 / timing.best_s / 1e6
    }
}

fn bench_artifact(case: &'static ArtifactCase, model: &CompiledVit) -> ArtifactRecord {
    let text = save_compiled_vit(model, case.precision);
    let (loaded, precision) = load_compiled_vit(&text).expect("a just-saved artifact loads");
    assert_eq!(
        save_compiled_vit(&loaded, precision),
        text,
        "{}: save -> load -> save is not byte-identical",
        case.name
    );
    let floor_s = |mbps: f64| text.len() as f64 / (ARTIFACT_RATE_FLOOR * mbps * 1e6);
    let save = time_repeats(Some(floor_s(case.recorded_save_mbps)), || {
        std::hint::black_box(save_compiled_vit(model, case.precision));
    });
    let load = time_repeats(Some(floor_s(case.recorded_load_mbps)), || {
        std::hint::black_box(load_compiled_vit(&text).expect("loads"));
    });
    let rec = ArtifactRecord {
        case,
        bytes: text.len(),
        save,
        load,
    };
    println!(
        "{:<16}    {:>10} B  save {:>7.2} ms (median {:>7.2} ± {:.2}) {:>6.0} MB/s  \
         load {:>7.2} ms (median {:>7.2} ± {:.2}) {:>6.0} MB/s",
        case.name,
        rec.bytes,
        rec.save.best_s * 1e3,
        rec.save.median_s * 1e3,
        rec.save.mad_s * 1e3,
        rec.mbps(&rec.save),
        rec.load.best_s * 1e3,
        rec.load.median_s * 1e3,
        rec.load.mad_s * 1e3,
        rec.mbps(&rec.load),
    );
    rec
}

fn artifact_json(r: &ArtifactRecord) -> String {
    let direction = |name: &str, t: &Timing| {
        format!(
            "\"{name}_s\": {:.6}, \"{name}_median_s\": {:.6}, \"{name}_mad_s\": {:.6}, \
             \"{name}_repeats\": {}, \"{name}_mbps\": {:.0}",
            t.best_s,
            t.median_s,
            t.mad_s,
            t.repeats,
            r.mbps(t)
        )
    };
    format!(
        "    {{\"name\": \"{}\", \"bytes\": {}, {}, {}}}",
        r.case.name,
        r.bytes,
        direction("save", &r.save),
        direction("load", &r.load)
    )
}

fn main() {
    // One compute thread, like the benchmark of record and like every
    // recorded rate the gates below are anchored on.
    with_thread_budget(1, run);
}

fn run() {
    println!(
        "kernel benchmarks: {} worker thread(s), backends checked for bit-identical results\n",
        num_threads()
    );
    let records: Vec<Record> = SHAPES.iter().map(bench_gemm).collect();

    // Softmax at attention-map scale (197 tokens), for the trajectory.
    let s = Initializer::Normal { std: 1.0 }.sample(197, 197, 3);
    let softmax = time_repeats(None, || {
        std::hint::black_box(softmax_rows(&s));
    });
    println!(
        "{:<16}    ( 197x 197)       fast {:>8.3} ms",
        "softmax_rows",
        softmax.best_s * 1e3
    );

    // The `*.vitcod` codec on the DeiT-Tiny artifact, both precisions.
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let vit = VisionTransformer::new(&ViTConfig::deit_tiny(), 48, 10, &mut store, &mut rng);
    let model = CompiledVit::from_parts(&vit, &store);
    println!();
    let artifacts: Vec<ArtifactRecord> = ARTIFACTS
        .iter()
        .map(|case| bench_artifact(case, &model))
        .collect();

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let rows: Vec<String> = records.iter().map(record_json).collect();
    let artifact_rows: Vec<String> = artifacts.iter().map(artifact_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"threads\": {},\n  \"caveats\": \"1 compute thread on a \
         shared 2-vCPU box that slows every process by 40-50 % for seconds at a time; *_s is the \
         best of the repeats (what the gates compare), median and MAD sit beside it; a scalar run \
         over 1 s is timed once\",\n  \"gemm\": [\n{}\n  ],\n  \"softmax_rows_197_s\": {:.6},\n  \
         \"artifact\": [\n{}\n  ]\n}}\n",
        num_threads(),
        rows.join(",\n"),
        softmax.best_s,
        artifact_rows.join(",\n")
    );
    std::fs::write(json_path, json).expect("write BENCH_kernels.json");
    println!("\nrecorded baseline to BENCH_kernels.json");

    for r in &records {
        let name = r.shape.name;
        if let Some(recorded) = r.shape.recorded_gflops {
            let got = r.rate(&r.fast);
            assert!(
                got >= RATE_FLOOR * recorded,
                "{name}: fast fp32 GEMM at {got:.2} GFLOP/s is below {RATE_FLOOR} x the \
                 {recorded} recorded for the backends it replaced"
            );
        }
        if let (Some(recorded), Some(timing)) = (r.shape.recorded_int8_gops, &r.int8) {
            let got = r.rate(timing);
            assert!(
                got >= INT8_RATE_FLOOR * recorded,
                "{name}: int8 GEMM at {got:.2} Gop/s is below {INT8_RATE_FLOOR} x its recorded {recorded}"
            );
        }
    }
    for r in &artifacts {
        let name = r.case.name;
        for (direction, timing, recorded) in [
            ("save", &r.save, r.case.recorded_save_mbps),
            ("load", &r.load, r.case.recorded_load_mbps),
        ] {
            let got = r.mbps(timing);
            assert!(
                got >= ARTIFACT_RATE_FLOOR * recorded,
                "{name}: artifact {direction} at {got:.0} MB/s is below {ARTIFACT_RATE_FLOOR} x \
                 its recorded {recorded}"
            );
        }
    }
    let big = records
        .iter()
        .find(|r| r.shape.name == "gemm_1024")
        .expect("the acceptance shape is in SHAPES");
    assert!(
        big.speedup() >= 4.0,
        "the fast backend must beat the scalar reference by >= 4x on the 1024^3 GEMM (got {:.1}x)",
        big.speedup()
    );
}
