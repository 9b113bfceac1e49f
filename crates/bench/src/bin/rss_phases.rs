#![forbid(unsafe_code)]
//! Where the resident set of a DeiT-Tiny serving set-up goes.
//!
//! Walks the set-up the benchmark of record times (`offline_dense_fp32`
//! / `offline_sparse_int8`: seeded init → artifact text → loaded engine
//! → the output checks' second engine) and prints `VmRSS` / `VmHWM` from
//! `/proc/self/status` after each phase, so `peak_rss_mb` can be walked
//! down to the allocation that set it:
//!
//! ```text
//! cargo run --release -p vitcod-bench --bin rss_phases -- int8 --rounds 2
//! ```
//!
//! `fp32|int8` picks the precision (int8 also installs the 90 % masks,
//! as the benchmark's sparse artifact does); `--rounds N` repeats the
//! walk in one process, everything of a round dropped before the next.
//! Round 0 starts from a fresh heap. Later rounds start above it: the
//! first freed multi-MB `mmap` chunk raises glibc's dynamic
//! `mmap`/trim thresholds, so later large buffers come from the main
//! heap, which keeps what it cannot trim from the top. The reading is
//! explained, not tuned: no `mallopt`, no allocator swap.

use std::hint::black_box;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::{ParamStore, Tape};
use vitcod_core::{prune_to_sparsity, save_compiled};
use vitcod_engine::{load_compiled_vit, CompiledVit, Engine, Precision};
use vitcod_model::{AttentionStats, Sample, SparsityPlan, ViTConfig, VisionTransformer};
use vitcod_tensor::{kernels, Initializer};

/// Token feature width, class count, mask sparsity and seed of the
/// benchmark of record's DeiT-Tiny.
const IN_DIM: usize = 48;
const CLASSES: usize = 10;
const SPARSITY: f64 = 0.9;
const SEED: u64 = 7;

/// `(VmRSS, VmHWM)` of this process in MB; zeros where `/proc` has none.
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Prints one table row per phase: the resident set after it, what the
/// phase added, and the high-water mark so far.
struct Phases {
    round: usize,
    last_rss: f64,
}

impl Phases {
    fn mark(&mut self, phase: &str) {
        let (rss, hwm) = rss_mb();
        println!(
            "| {} | {phase} | {rss:.1} | {:+.1} | {hwm:.1} |",
            self.round,
            rss - self.last_rss
        );
        self.last_rss = rss;
    }
}

fn round(round: usize, precision: Precision) {
    let int8 = precision == Precision::Int8;
    let cfg = ViTConfig::deit_tiny();
    let mut phases = Phases {
        round,
        last_rss: rss_mb().0,
    };
    phases.mark("start");

    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut model = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    phases.mark("seeded init");
    if int8 {
        let plan: SparsityPlan = AttentionStats::for_model(&cfg, SEED)
            .maps
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|m| Some(prune_to_sparsity(m, SPARSITY).to_matrix()))
                    .collect()
            })
            .collect();
        model.set_sparsity_plan(plan);
        phases.mark("stats + prune");
    }

    let compiled = CompiledVit::from_parts(&model, &store);
    phases.mark("from_parts");
    let record = compiled.to_artifact(precision);
    phases.mark("to_artifact");
    let text = save_compiled(&record);
    drop(record);
    phases.mark("save");
    let (loaded, loaded_precision) = load_compiled_vit(&text).expect("a fresh save loads");
    phases.mark("load");
    let engine = Engine::builder(loaded).precision(loaded_precision).build();
    phases.mark("build");
    drop(text);
    phases.mark("text dropped");

    let samples = [Sample {
        tokens: Initializer::Normal { std: 1.0 }.sample(cfg.tokens, IN_DIM, SEED),
        label: 0,
    }];
    black_box(engine.infer_batch(&samples));
    phases.mark("first request");

    // What the benchmark's output checks hold beside the served engine.
    let reference = Engine::builder(compiled.clone())
        .precision(precision)
        .build();
    phases.mark("second engine (compiled.clone())");
    black_box(reference.infer_batch(&samples));
    phases.mark("its first request");
    if !int8 {
        let mut tape = Tape::new();
        black_box(model.forward(&mut tape, &store, &samples[0].tokens));
        phases.mark("tape forward");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: rss_phases fp32|int8 [--rounds N]";
    let precision = match args.first().map(String::as_str) {
        Some("fp32") => Precision::Fp32,
        Some("int8") => Precision::Int8,
        _ => panic!("{usage}"),
    };
    let rounds = match args.get(1).map(String::as_str) {
        None => 1,
        Some("--rounds") => args
            .get(2)
            .and_then(|n| n.parse::<usize>().ok())
            .expect(usage),
        Some(_) => panic!("{usage}"),
    };
    println!("DeiT-Tiny {precision} set-up, seed {SEED}: resident set after each phase (MB)\n");
    println!("| round | phase | VmRSS | added | VmHWM |");
    println!("|---|---|---|---|---|");
    // One compute thread, as the benchmark of record runs.
    kernels::with_thread_budget(1, || {
        for r in 0..rounds {
            round(r, precision);
        }
    });
}
