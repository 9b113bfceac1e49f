//! Kernel-layer benchmark: the GEMMs against their textbook oracles
//! (`kernels::reference`, `int8_gemm_reference`) on the GEMM shapes a
//! DeiT layer actually runs — projections, both MLP halves, the
//! attention core's `Q·Kᵀ` and `S·V`, a narrow-head `S·V` and a
//! training weight-gradient `Xᵀ·dY` — in fp32 and, for the
//! projections and MLP halves, through the packed int8 GEMM, plus the
//! 1024³ acceptance shape, the per-row activation quantization that
//! feeds every int8 projection, and one layer's attention training step
//! (forward + backward, every head) through the CSC dataflow against the
//! `-inf`-masked dense path. A last section times the `*.vitcod` codec
//! (`save_compiled_vit` / `load_compiled_vit`) on a DeiT-Tiny artifact in
//! fp32 and int8.
//!
//! Run with `cargo bench -p vitcod-bench --bench kernels`; results are
//! printed and recorded to `BENCH_kernels.json` at the workspace root so
//! later PRs have a perf trajectory to compare against. Every shape is
//! first checked bit-identical to its oracle (fp32 and int8), enforcing
//! the agreement contract at benchmark scale.
//!
//! Gates are absolute, anchored on rates recorded on this box, not on
//! fp32-vs-int8 ratios (which a faster kernel on either side flips for a
//! good reason; the ratios are still recorded):
//!
//! * Fast reaches ≥ [`RATE_FLOOR`] × the recorded max(Blocked, Simd)
//!   GFLOP/s at every shape that has one;
//! * the int8 GEMM reaches ≥ [`INT8_RATE_FLOOR`] × its own recorded
//!   Gop/s, a floor no half-rate lowering of its tile can reach;
//! * `QuantizedRows::quantize` runs at ≥ [`QUANTIZE_RATE_FLOOR`] × its
//!   recorded elements per ns, which a lane-by-lane float-to-int
//!   conversion misses by 4×;
//! * the GEMM beats its scalar oracle ≥ 4× on the 1024³ GEMM;
//! * the sparse attention training step beats the dense `-inf`-masked one
//!   by ≥ [`ATTENTION_TRAINING_GATE`]× at DeiT-Tiny and 90 % sparsity —
//!   the paper's claim that sparse attention cost follows the mask, held
//!   for the backward pass too;
//! * the artifact codec writes and reads ≥ [`ARTIFACT_RATE_FLOOR`] × its
//!   own recorded MB/s, which a per-scalar `String` misses by 2.3–11×.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_baselines::protocol::WORKLOAD_SEED;
use vitcod_bench::timing::{time_repeats, Timing};
use vitcod_core::prune_to_sparsity;
use vitcod_engine::{load_compiled_vit, save_compiled_vit, CompiledVit, Precision};
use vitcod_model::{AttentionStats, ViTConfig, VisionTransformer};
use vitcod_tensor::kernels::{
    attention_head, attention_head_backward, matmul, matmul_nt, matmul_tn, num_threads, reference,
    softmax_rows, with_thread_budget,
};
use vitcod_tensor::sparse::{self, CscMatrix};
use vitcod_tensor::{
    int8_gemm, int8_gemm_reference, Initializer, Matrix, PackedGemmWeights, QuantizedRows,
};

/// Share of the recorded max(Blocked, Simd) rate Fast must reach. At the
/// least favourable shape (Simd's 28.9 at 197×192×192, its B resident in
/// L2) Fast read 27.5–35.8 GFLOP/s across this box's moods with the
/// 128-bit 4 × 8 tile, so the floor sits a little under the 0.95 the
/// rates would allow on a quiet box; the 256-bit 4 × 16 tile reads 46.
const RATE_FLOOR: f64 = 0.9;

/// Share of its own recorded rate the int8 GEMM must reach. That kernel
/// is the code that set the record, so the allowance is the box's whole
/// run-to-run spread — and no more. The rates are recorded from an
/// `x86-64-v3` build (`"target_cpu"` in `BENCH_kernels.json`), where the
/// floors (42–55 Gop/s) sit 2.8–3.9× above the 14–15 Gop/s of the
/// `pmulld` loop a v3 build of the old hard-coded 128-bit tile compiles
/// to, and above the 22 Gop/s a 128-bit `pmaddwd` with half its lanes
/// zeroed once reached. Both have happened with every test green; this
/// gate is what sees them. A tile only 128 bits wide (35–39 Gop/s before
/// the block sums lost their per-lane `as i32`, not re-measured since)
/// and that per-lane conversion coming back (48–51 Gop/s) sit at or
/// inside the floors: the verify skill's `objdump` check is their guard.
const INT8_RATE_FLOOR: f64 = 0.75;

/// Share of its own recorded rate `QuantizedRows::quantize` must reach at
/// [`QUANTIZE_SHAPE`]. The allowance is the box's spread, as for int8: the
/// saturating `as i16` it replaced compiled to per-lane `vcvttss2si` at
/// 1.6–2.0 ns per element, and every test passes either way.
const QUANTIZE_RATE_FLOOR: f64 = 0.75;

/// The quantized activation timed: `fc2`'s 197 × 768 input, the largest
/// one a DeiT-Tiny layer quantizes.
const QUANTIZE_SHAPE: (usize, usize) = (197, 768);

/// Recorded ns per element of `QuantizedRows::quantize` at
/// [`QUANTIZE_SHAPE`] (the highest best-of-repeats of three `x86-64-v3`
/// recording runs).
const RECORDED_QUANTIZE_NS_PER_ELEM: f64 = 0.513;

/// Attention sparsity of the training-step row (the paper's 90 %).
const ATTENTION_SPARSITY: f64 = 0.9;

/// Least speedup of the sparse attention training step over the
/// `-inf`-masked dense one. It read 3.3× in the training bench it came
/// from and 1.3–3.2× here on a shared 2-vCPU box (x86-64-v3, one compute
/// thread, each side's best of its repeats; the two columns are timed one
/// after the other, so a slow spell under one of them moves the ratio).
/// What the gate catches is a sparse step that has stopped following the
/// mask and costs what the dense one does.
const ATTENTION_TRAINING_GATE: f64 = 1.2;

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

    fn run(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Flavour::Nn => matmul(a, b),
            Flavour::Nt => matmul_nt(a, b),
            Flavour::Tn => matmul_tn(a, b),
        }
    }

    /// This flavour's scalar oracle.
    fn reference(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Flavour::Nn => reference::matmul(a, b),
            Flavour::Nt => reference::matmul_nt(a, b),
            Flavour::Tn => reference::matmul_tn(a, b),
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
    /// Recorded packed-int8 Gop/s at this shape (the lowest best-of-repeats
    /// of three `x86-64-v3` recording runs, which read 56.1–74.4 once `k`
    /// was walked in L1-sized blocks and the block sums converted without
    /// a per-lane `as`); `Some` also means the int8 column is timed.
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
    projection("deit_tiny_proj", 192, 28.91, 56.06),
    projection("deit_small_proj", 384, 21.65, 70.47),
    projection("deit_base_proj", 768, 18.02, 73.94),
    int8_shape("deit_tiny_fc1", 197, 192, 768, 71.95),
    int8_shape("deit_tiny_fc2", 197, 768, 192, 59.06),
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
        flavour.run(&a, &b),
        flavour.reference(&a, &b),
        "{name}: the GEMM disagrees with its oracle at ({m},{k},{n})"
    );
    let floor_s = |gops: f64, share: f64| shape.ops() / (share * gops * 1e9);
    let fast_floor = shape.recorded_gflops.map(|g| floor_s(g, RATE_FLOOR));
    let fast = time_repeats(fast_floor, || {
        std::hint::black_box(flavour.run(&a, &b));
    });
    let scalar = time_repeats(None, || {
        std::hint::black_box(flavour.reference(&a, &b));
    });
    let int8 = shape.recorded_int8_gops.map(|recorded| {
        let a8 = QuantizedRows::quantize(&a);
        let b8 = PackedGemmWeights::pack(&b);
        let bias = vec![0.0f32; n];
        assert_eq!(
            int8_gemm_reference(&a8, &b8, &bias),
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

/// One layer's attention training step, both ways, at DeiT-Tiny.
struct AttentionTraining {
    n: usize,
    heads: usize,
    dk: usize,
    /// Share of the n² score entries per head the masks drop, measured.
    sparsity: f64,
    masked: Timing,
    sparse: Timing,
}

impl AttentionTraining {
    fn speedup(&self) -> f64 {
        self.masked.best_s / self.sparse.best_s
    }
}

/// Times one layer's attention forward + backward over every head of
/// DeiT-Tiny (197 tokens, 3 heads of 64) with masks pruned to
/// [`ATTENTION_SPARSITY`] from the statistical attention maps: the
/// `-inf`-biased dense `attention_head` + `attention_head_backward`
/// against CSC SDDMM → sparse softmax → SpMM →
/// `sparse::attention_head_backward`, as the tape's two attention paths
/// run them. Both sides walk the heads in order over the same column
/// stripes; only the per-head kernels differ.
fn bench_attention_training() -> AttentionTraining {
    let cfg = ViTConfig::deit_tiny();
    let (n, dk, heads) = (cfg.tokens, cfg.head_dim(), cfg.heads);
    let stats = AttentionStats::for_model(&cfg, WORKLOAD_SEED);
    let masks: Vec<Matrix> = (0..heads)
        .map(|h| prune_to_sparsity(&stats.maps[0][h], ATTENTION_SPARSITY).to_matrix())
        .collect();
    let biases: Vec<Matrix> = masks
        .iter()
        .map(|m| m.map(|kept| if kept == 0.0 { f32::NEG_INFINITY } else { 0.0 }))
        .collect();
    let cscs: Vec<Arc<CscMatrix>> = masks
        .iter()
        .map(|m| Arc::new(CscMatrix::from_indicator(n, |q, k| m.get(q, k) != 0.0)))
        .collect();
    let nnz: usize = cscs.iter().map(|c| c.nnz()).sum();
    let sample = |seed| Initializer::Normal { std: 1.0 }.sample(n, heads * dk, seed);
    let (q, k, v, gout) = (sample(91), sample(92), sample(93), sample(94));
    let scale = 1.0 / (dk as f32).sqrt();
    let stripes = |h: usize| {
        let stripe = |m: &Matrix| m.submatrix(0, n, h * dk, (h + 1) * dk);
        (stripe(&q), stripe(&k), stripe(&v), stripe(&gout))
    };

    let masked = time_repeats(None, || {
        for (h, bias) in biases.iter().enumerate() {
            let (qh, kh, vh, gh) = stripes(h);
            let (out, probs) = attention_head(&qh, &kh, &vh, scale, Some(bias));
            std::hint::black_box(out);
            std::hint::black_box(attention_head_backward(&qh, &kh, &vh, scale, &probs, &gh));
        }
    });
    // Gated against the masked side just timed: the sparse column gets
    // extra windows while it is slower than the gate allows.
    let sparse = time_repeats(Some(masked.best_s / ATTENTION_TRAINING_GATE), || {
        for (h, csc) in cscs.iter().enumerate() {
            let (qh, kh, vh, gh) = stripes(h);
            let probs = sparse::sddmm_k_stationary_shared(&qh, &kh, csc, scale).softmax_rows();
            std::hint::black_box(sparse::spmm_output_stationary(&probs, &vh));
            std::hint::black_box(sparse::attention_head_backward(
                &qh, &kh, &vh, scale, &probs, &gh,
            ));
        }
    });
    let rec = AttentionTraining {
        n,
        heads,
        dk,
        sparsity: 1.0 - nnz as f64 / (heads * n * n) as f64,
        masked,
        sparse,
    };
    println!(
        "{:<16}    ({n} x {heads} x {dk}, {:.1}% sparse)  masked {:>7.3} ms  sparse {:>7.3} ms \
         (median {:>7.3} ± {:.3})  {:>5.2}x",
        "attention_train",
        rec.sparsity * 100.0,
        rec.masked.best_s * 1e3,
        rec.sparse.best_s * 1e3,
        rec.sparse.median_s * 1e3,
        rec.sparse.mad_s * 1e3,
        rec.speedup(),
    );
    rec
}

fn attention_training_json(r: &AttentionTraining) -> String {
    let column = |name: &str, t: &Timing| {
        format!(
            "\"{name}_s\": {:.6}, \"{name}_median_s\": {:.6}, \"{name}_mad_s\": {:.6}, \
             \"{name}_repeats\": {}",
            t.best_s, t.median_s, t.mad_s, t.repeats
        )
    };
    format!(
        "{{\"n\": {}, \"heads\": {}, \"dk\": {}, \"sparsity\": {:.4}, {}, {}, \
         \"speedup\": {:.3}, \"gate\": {ATTENTION_TRAINING_GATE}}}",
        r.n,
        r.heads,
        r.dk,
        r.sparsity,
        column("masked", &r.masked),
        column("sparse", &r.sparse),
        r.speedup()
    )
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

/// The x86-64 level this bench was compiled for, as far as the register
/// tiles can tell (`VECTOR_BYTES` in `vitcod_tensor::kernels` keys on the
/// same feature): the recorded rates hold for this level only.
fn target_cpu() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "x86-64-v3"
    } else if cfg!(target_feature = "sse4.2") {
        "x86-64-v2"
    } else {
        std::env::consts::ARCH
    }
}

fn main() {
    // One compute thread, like the benchmark of record and like every
    // recorded rate the gates below are anchored on.
    with_thread_budget(1, run);
}

fn run() {
    println!(
        "kernel benchmarks: {} worker thread(s), {}, GEMMs checked bit-identical to their oracles\n",
        num_threads(),
        target_cpu()
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

    let (q_rows, q_cols) = QUANTIZE_SHAPE;
    let x = Initializer::Normal { std: 1.0 }.sample(q_rows, q_cols, 4);
    let elems = x.len() as f64;
    let quantize_floor_ns = RECORDED_QUANTIZE_NS_PER_ELEM / QUANTIZE_RATE_FLOOR;
    let quantize = time_repeats(Some(quantize_floor_ns * 1e-9 * elems), || {
        std::hint::black_box(QuantizedRows::quantize(&x));
    });
    let quantize_ns = quantize.best_s / elems * 1e9;
    println!(
        "{:<16}    ({q_rows:>4}x{q_cols:>4})       fast {:>8.3} ms  {quantize_ns:.3} ns/elem",
        "quantize_rows",
        quantize.best_s * 1e3
    );

    let attention = bench_attention_training();

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
        "{{\n  \"bench\": \"kernels\",\n  \"threads\": {},\n  \"target_cpu\": \"{}\",\n  \
         \"caveats\": \"1 compute thread on a \
         shared 2-vCPU box that slows every process by 40-50 % for seconds at a time; *_s is the \
         best of the repeats (what the gates compare), median and MAD sit beside it; a scalar run \
         over 1 s is timed once\",\n  \"gemm\": [\n{}\n  ],\n  \"softmax_rows_197_s\": {:.6},\n  \
         \"quantize_rows\": {{\"rows\": {}, \"cols\": {}, \"s\": {:.6}, \"median_s\": {:.6}, \
         \"mad_s\": {:.6}, \"repeats\": {}, \"ns_per_elem\": {:.3}}},\n  \
         \"attention_training\": {},\n  \"artifact\": [\n{}\n  ]\n}}\n",
        num_threads(),
        target_cpu(),
        rows.join(",\n"),
        softmax.best_s,
        q_rows,
        q_cols,
        quantize.best_s,
        quantize.median_s,
        quantize.mad_s,
        quantize.repeats,
        quantize_ns,
        attention_training_json(&attention),
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
    assert!(
        quantize_ns <= quantize_floor_ns,
        "quantize_rows: {quantize_ns:.3} ns/elem is slower than {QUANTIZE_RATE_FLOOR} x its \
         recorded rate ({RECORDED_QUANTIZE_NS_PER_ELEM} ns/elem)"
    );
    assert!(
        attention.speedup() >= ATTENTION_TRAINING_GATE,
        "attention_train: the sparse attention training step must beat the dense -inf-masked \
         one by >= {ATTENTION_TRAINING_GATE}x at DeiT-Tiny/90% (got {:.2}x)",
        attention.speedup()
    );
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
        "the GEMM must beat its scalar oracle by >= 4x on the 1024^3 GEMM (got {:.1}x)",
        big.speedup()
    );
}
