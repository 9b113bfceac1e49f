//! Criterion benchmarks of the ViTCoD algorithm components: pruning,
//! reordering, CSC construction and a training step of the substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_core::{
    compile_model, prune_info, prune_to_sparsity, reorder_global_tokens, CscMatrix, SplitConquer,
    SplitConquerConfig,
};
use vitcod_model::{
    AttentionStats, SyntheticTask, SyntheticTaskConfig, TrainConfig, Trainer, ViTConfig,
    VisionTransformer,
};

fn bench_split_conquer(c: &mut Criterion) {
    let cfg = ViTConfig::deit_base();
    let stats = AttentionStats::for_model(&cfg, 1);
    let map = stats.maps[6][6].clone();
    let mut group = c.benchmark_group("split_conquer_197");
    for &s in &[0.6f64, 0.9] {
        group.bench_with_input(
            BenchmarkId::new("prune_to_sparsity", format!("{:.0}%", s * 100.0)),
            &s,
            |b, &s| b.iter(|| prune_to_sparsity(&map, s)),
        );
    }
    group.bench_function("prune_info_theta_0.9", |b| b.iter(|| prune_info(&map, 0.9)));
    let mask = prune_to_sparsity(&map, 0.9);
    group.bench_function("reorder_global_tokens", |b| {
        b.iter(|| reorder_global_tokens(&mask, None))
    });
    group.bench_function("csc_from_mask", |b| b.iter(|| CscMatrix::from_mask(&mask)));
    // The unit the benchmark of record's `sim_sweep` times per model:
    // all 144 heads through Alg. 1, then the compiler over the result.
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
    group.bench_function("apply_deit_base_144_heads", |b| {
        b.iter(|| sc.apply(&stats.maps))
    });
    let heads = sc.apply(&stats.maps);
    group.bench_function("compile_model_deit_base", |b| {
        b.iter(|| compile_model(&cfg, &heads, None))
    });
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    let task = SyntheticTask::generate(SyntheticTaskConfig {
        train_samples: 8,
        test_samples: 4,
        ..Default::default()
    });
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let vit = VisionTransformer::new(
        &cfg,
        task.config.in_dim,
        task.config.num_classes,
        &mut store,
        &mut rng,
    );
    let trainer = Trainer::new(vit, store);
    c.bench_function("train_epoch_tiny_vit_8_samples", |b| {
        b.iter_batched(
            || trainer.clone(),
            |mut t| {
                t.train(
                    &task,
                    &TrainConfig {
                        epochs: 1,
                        ..Default::default()
                    },
                )
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_attention_stats(c: &mut Criterion) {
    c.bench_function("generate_deit_base_ensemble", |b| {
        b.iter(|| AttentionStats::for_model(&ViTConfig::deit_base(), 3))
    });
}

criterion_group!(
    benches,
    bench_split_conquer,
    bench_training_step,
    bench_attention_stats
);
criterion_main!(benches);
