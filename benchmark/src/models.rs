//! The benchmark's models: seeded random weights → `CompiledVit` →
//! artifact text → loaded `Engine`, so the artifact path sits inside
//! `setup_s`. Copied from the repository's bench helpers on purpose:
//! later edits to those must not change the benchmark.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_core::prune_to_sparsity;
use vitcod_engine::{load_compiled_vit, save_compiled_vit, CompiledVit, Engine, Precision};
use vitcod_model::{
    AttentionStats, Sample, SparsityPlan, StageConfig, ViTConfig, VisionTransformer,
};
use vitcod_tensor::{Initializer, Matrix};

use crate::run::Layers;

/// Token feature width and class count of every benchmark model.
pub const IN_DIM: usize = 48;
pub const CLASSES: usize = 10;
/// Attention sparsity of the sparse artifacts (the paper's DeiT figure).
pub const SPARSITY: f64 = 0.9;

/// DeiT-Tiny's shapes at another depth: identical per-op behaviour,
/// proportionally more operations per benchmark second.
pub fn deit_tiny_depth(depth: usize) -> ViTConfig {
    let base = ViTConfig::deit_tiny();
    let stage = StageConfig {
        depth,
        ..base.stages[0]
    };
    ViTConfig {
        depth,
        stages: vec![stage],
        ..base
    }
}

/// 197 tokens × in_dim 48 → dim 16, 2 heads, depth 1: about a
/// millisecond of compute behind the real 186 KB DeiT-Tiny request body.
pub fn wire_probe_vit() -> ViTConfig {
    let stage = StageConfig {
        tokens: 197,
        dim: 16,
        heads: 2,
        depth: 1,
    };
    ViTConfig {
        name: "wire_probe_vit",
        dim: stage.dim,
        heads: stage.heads,
        depth: stage.depth,
        stages: vec![stage],
        ..ViTConfig::deit_tiny()
    }
}

/// A model with seeded weights and, if asked, the 90 % masks installed.
pub struct Built {
    pub model: VisionTransformer,
    pub store: ParamStore,
}

/// Seeded weights for `cfg`; with `sparse`, per-head masks pruned to
/// `SPARSITY` from the seeded attention-statistics ensemble.
pub fn build(cfg: &ViTConfig, seed: u64, sparse: bool, layers: &mut Layers) -> Built {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = VisionTransformer::new(cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    if sparse {
        let stats = AttentionStats::for_model(cfg, seed);
        let t = Instant::now();
        let plan: SparsityPlan = stats
            .maps
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|m| Some(prune_to_sparsity(m, SPARSITY).to_matrix()))
                    .collect()
            })
            .collect();
        layers.set("core.prune_s", t.elapsed().as_secs_f64());
        model.set_sparsity_plan(plan);
    }
    Built { model, store }
}

/// Freezes `built`, sends it through the artifact text and builds the
/// engine that serves the loaded copy.
pub fn engine_through_artifact(
    built: &Built,
    precision: Precision,
    layers: &mut Layers,
) -> (CompiledVit, Engine) {
    let compiled = CompiledVit::from_parts(&built.model, &built.store);
    let t = Instant::now();
    let text = save_compiled_vit(&compiled, precision);
    layers.set("engine.artifact_save_s", t.elapsed().as_secs_f64());
    layers.set("engine.artifact_bytes", text.len() as f64);
    let t = Instant::now();
    let (loaded, loaded_precision) =
        load_compiled_vit(&text).expect("an artifact this process just saved loads");
    layers.set("engine.artifact_load_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let engine = Engine::builder(loaded).precision(loaded_precision).build();
    layers.set("engine.build_s", t.elapsed().as_secs_f64());
    layers.set(
        "engine.int8_weight_bytes",
        engine.int8_weight_bytes().unwrap_or(0) as f64,
    );
    (compiled, engine)
}

/// Seeded request inputs: `n` token matrices of `cfg`'s shape.
pub fn token_pool(cfg: &ViTConfig, seed: u64, n: usize) -> Vec<Matrix> {
    (0..n)
        .map(|i| {
            Initializer::Normal { std: 1.0 }.sample(
                cfg.tokens,
                IN_DIM,
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64),
            )
        })
        .collect()
}

pub fn samples(pool: &[Matrix]) -> Vec<Sample> {
    pool.iter()
        .map(|tokens| Sample {
            tokens: tokens.clone(),
            label: 0,
        })
        .collect()
}
