//! Acceptance parity tests for the serving engine.
//!
//! * fp32 dense: engine logits are **bit-identical** to the training
//!   tape's forward, on both kernel backends;
//! * sparse CSC path: engine logits match the `-inf`-masked dense
//!   reference within 1e-4 per logit;
//! * int8: bounded divergence from fp32;
//! * profiling: profiled logits are **bit-identical** to the served ones
//!   at every plan × precision, with or without head fan-out;
//! * batching: worker fan-out preserves order and determinism.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::{ParamStore, Tape};
use vitcod_core::{PipelineConfig, SplitConquerConfig, ViTCoDPipeline};
use vitcod_engine::{
    accuracy, load_compiled_vit, save_compiled_vit, CompiledVit, Engine, OpProfile, Precision,
    Prediction, OP_NAMES,
};
use vitcod_model::{
    AutoEncoderSpec, Sample, SparsityPlan, StageConfig, SyntheticTask, SyntheticTaskConfig,
    TrainConfig, ViTConfig, VisionTransformer,
};
use vitcod_tensor::{kernels, Backend, Initializer, Matrix};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

fn tiny_model(seed: u64) -> (VisionTransformer, ParamStore) {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    (vit, store)
}

fn random_tokens(vit: &VisionTransformer, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(vit.config().tokens, IN_DIM, seed)
}

fn tape_logits(vit: &VisionTransformer, store: &ParamStore, tokens: &Matrix) -> Vec<f32> {
    let mut tape = Tape::new();
    let out = vit.forward(&mut tape, store, tokens);
    tape.value(out.logits).row(0).to_vec()
}

/// Diagonal + class-token-column + neighbour plan at the model's shape.
fn local_global_plan(vit: &VisionTransformer) -> SparsityPlan {
    let n = vit.config().tokens;
    let mut mask = Matrix::zeros(n, n);
    for q in 0..n {
        mask.set(q, q, 1.0);
        mask.set(q, 0, 1.0);
        mask.set(q, (q + 1) % n, 1.0);
        mask.set(q, (q + 5) % n, 1.0);
    }
    (0..vit.config().depth)
        .map(|_| {
            (0..vit.config().heads)
                .map(|_| Some(mask.clone()))
                .collect()
        })
        .collect()
}

#[test]
fn fp32_dense_logits_bit_identical_to_tape_on_all_backends() {
    let (vit, store) = tiny_model(1);
    let engine = Engine::builder(CompiledVit::from_parts(&vit, &store)).build();
    for backend in [Backend::Fast, Backend::Scalar] {
        for seed in 0..4 {
            let tokens = random_tokens(&vit, 100 + seed);
            let (expected, got) = kernels::with_backend_override(backend, || {
                (
                    tape_logits(&vit, &store, &tokens),
                    engine.infer_one(&tokens),
                )
            });
            assert_eq!(
                got.logits, expected,
                "{backend:?} logits differ from tape at seed {seed}"
            );
        }
    }
}

#[test]
fn fp32_dense_with_auto_encoder_bit_identical_to_tape() {
    let (mut vit, mut store) = tiny_model(2);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    vit.insert_auto_encoder(
        AutoEncoderSpec::half(vit.config().heads),
        &mut store,
        &mut rng,
    );
    let engine = Engine::builder(CompiledVit::from_parts(&vit, &store)).build();
    let tokens = random_tokens(&vit, 200);
    assert_eq!(
        engine.infer_one(&tokens).logits,
        tape_logits(&vit, &store, &tokens)
    );
}

#[test]
fn sparse_csc_path_matches_masked_dense_reference() {
    let (mut vit, store) = tiny_model(3);
    vit.set_sparsity_plan(local_global_plan(&vit));
    let compiled = CompiledVit::from_parts(&vit, &store);
    assert_eq!(
        compiled.num_sparse_heads(),
        vit.config().depth * vit.config().heads
    );
    assert!(compiled.mean_attention_sparsity() > 0.5);
    let engine = Engine::builder(compiled).build();
    for seed in 0..4 {
        let tokens = random_tokens(&vit, 300 + seed);
        // The tape runs the same masks through dense -inf masking — the
        // reference the CSC dataflow must reproduce.
        let reference = tape_logits(&vit, &store, &tokens);
        let got = engine.infer_one(&tokens);
        for (g, r) in got.logits.iter().zip(&reference) {
            assert!(
                (g - r).abs() < 1e-4,
                "sparse logit diverges: {g} vs {r} (seed {seed})"
            );
        }
    }
}

#[test]
fn sparse_csc_path_agrees_across_backends_bitwise() {
    let (mut vit, store) = tiny_model(4);
    vit.set_sparsity_plan(local_global_plan(&vit));
    let engine = Engine::builder(CompiledVit::from_parts(&vit, &store)).build();
    let tokens = random_tokens(&vit, 400);
    let fast = kernels::with_backend_override(Backend::Fast, || engine.infer_one(&tokens));
    let scalar = kernels::with_backend_override(Backend::Scalar, || engine.infer_one(&tokens));
    assert_eq!(fast, scalar);
}

#[test]
fn int8_stays_close_to_fp32_and_shrinks_weights() {
    let (mut vit, store) = tiny_model(5);
    vit.set_sparsity_plan(local_global_plan(&vit));
    let compiled = CompiledVit::from_parts(&vit, &store);
    let fp32 = Engine::builder(compiled.clone()).build();
    let int8 = Engine::builder(compiled.clone())
        .precision(Precision::Int8)
        .build();
    assert_eq!(
        int8.int8_weight_bytes(),
        Some(compiled.num_weight_scalars() - weight_vector_scalars(&compiled))
    );
    let tokens = random_tokens(&vit, 500);
    let a = fp32.infer_one(&tokens).logits;
    let b = int8.infer_one(&tokens).logits;
    let norm = a.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
    let diff = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    assert!(
        diff / norm < 0.35,
        "int8 relative logit error {}",
        diff / norm
    );
}

/// Scalars held in bias / LayerNorm vectors (which stay fp32 under int8:
/// only weight *matrices* — including the positional embedding — are
/// quantized).
fn weight_vector_scalars(c: &CompiledVit) -> usize {
    let cfg = c.config();
    let dim = cfg.dim;
    let per_layer = 3 * dim + dim + cfg.mlp_ratio * dim + dim + 4 * dim;
    dim + cfg.depth * per_layer + 2 * dim + c.num_classes()
}

#[test]
fn infer_batch_preserves_order_and_worker_count_does_not_matter() {
    let (vit, store) = tiny_model(6);
    let engine = Engine::builder(CompiledVit::from_parts(&vit, &store)).build();
    let samples: Vec<Sample> = (0..9)
        .map(|i| Sample {
            tokens: random_tokens(&vit, 600 + i),
            label: (i as usize) % CLASSES,
        })
        .collect();
    let serial: Vec<_> = samples
        .iter()
        .map(|s| engine.infer_one(&s.tokens))
        .collect();
    for workers in [1usize, 2, 4] {
        let batch = kernels::with_thread_budget(workers, || engine.infer_batch(&samples));
        assert_eq!(batch, serial, "workers={workers}");
    }
}

/// The engine carries no kernel settings: a backend pin and a worker
/// budget scoped around `infer_batch` reach every sample's forward (the
/// fan-out hands both to its workers) without changing a logit bit, and a
/// worker's panic comes back as itself.
#[test]
fn scoped_backend_and_budget_reach_every_batch_worker() {
    let (mut vit, store) = tiny_model(13);
    // One sparse and one dense head per layer.
    let mut plan = local_global_plan(&vit);
    for layer in &mut plan {
        layer[1] = None;
    }
    vit.set_sparsity_plan(plan);
    let compiled = CompiledVit::from_parts(&vit, &store);
    let mut samples: Vec<Sample> = (0..8)
        .map(|i| Sample {
            tokens: random_tokens(&vit, 1300 + i),
            label: 0,
        })
        .collect();
    for precision in [Precision::Fp32, Precision::Int8] {
        let engine = Engine::builder(compiled.clone())
            .precision(precision)
            .build();
        let reference = kernels::with_backend_override(Backend::Fast, || {
            kernels::with_thread_budget(1, || engine.infer_batch(&samples))
        });
        let pinned = kernels::with_backend_override(Backend::Scalar, || {
            kernels::with_thread_budget(4, || engine.infer_batch(&samples))
        });
        assert_eq!(pinned.len(), 8);
        for (i, (p, r)) in pinned.iter().zip(&reference).enumerate() {
            assert_eq!(logit_bits(p), logit_bits(r), "{precision} sample {i}");
        }
    }
    // Sample 5 lands on the third of four workers.
    samples[5].tokens = Matrix::zeros(3, IN_DIM);
    let engine = Engine::builder(compiled).build();
    let payload = std::panic::catch_unwind(|| {
        kernels::with_thread_budget(4, || engine.infer_batch(&samples))
    })
    .expect_err("a mis-shaped sample must panic");
    let message = payload.downcast_ref::<String>().expect("assert message");
    assert!(message.contains("input token shape mismatch"), "{message}");
}

#[test]
fn pipeline_report_compiles_and_serves_above_chance() {
    let task = SyntheticTask::generate(SyntheticTaskConfig {
        train_samples: 64,
        test_samples: 32,
        ..Default::default()
    });
    let model = ViTConfig::deit_tiny().reduced_for_training();
    let cfg = PipelineConfig {
        auto_encoder: None,
        split_conquer: Some(SplitConquerConfig::with_sparsity(0.7)),
        pretrain: TrainConfig {
            epochs: 6,
            ..Default::default()
        },
        finetune: TrainConfig {
            epochs: 3,
            lr: 1e-3,
            ..Default::default()
        },
        model: model.clone(),
        seed: 11,
    };
    let report = ViTCoDPipeline::new(cfg).run(&task);
    let tape_accuracy = report.final_accuracy;
    let trainer = &report.trainer;
    // Step 2 finetuned on the CSC indexes the engine will serve.
    assert!(trainer.model().has_frozen_sparse());
    let compiled = CompiledVit::from_parts(trainer.model(), trainer.store());
    assert_eq!(compiled.num_sparse_heads(), model.depth * model.heads);
    let engine = Engine::builder(compiled.clone()).build();
    let predictions = engine.infer_batch(&task.test);

    // The on-disk round trip keeps the plans and serves the same bits.
    let text = save_compiled_vit(&compiled, Precision::Fp32);
    let (loaded, _) = load_compiled_vit(&text).expect("artifact parses");
    assert_eq!(loaded.num_sparse_heads(), compiled.num_sparse_heads());
    let reloaded = Engine::builder(loaded).build().infer_batch(&task.test);
    assert_eq!(predictions, reloaded, "reloaded engine is not bit-exact");

    // The finetuned weights flow unchanged into serving: the engine
    // agrees with the trainer's frozen-sparse tape forward per logit.
    for (i, sample) in task.test.iter().take(4).enumerate() {
        let expected = tape_logits(trainer.model(), trainer.store(), &sample.tokens);
        for (c, (&tape, &served)) in expected.iter().zip(&predictions[i].logits).enumerate() {
            assert!(
                (tape - served).abs() < 1e-4,
                "sample {i} logit {c}: tape {tape} vs engine {served}"
            );
        }
    }

    let engine_accuracy = accuracy(&predictions, &task.test);
    // The engine's and the tape's sparse forwards agree to 1e-4 per
    // logit, so accuracies are essentially equal.
    assert!(
        (engine_accuracy - tape_accuracy).abs() <= 1.5 / task.test.len() as f32,
        "engine {engine_accuracy} vs tape {tape_accuracy}"
    );
    assert!(
        engine_accuracy > 0.25,
        "accuracy {engine_accuracy} at chance"
    );
}

fn logit_bits(p: &Prediction) -> Vec<u32> {
    p.logits.iter().map(|l| l.to_bits()).collect()
}

/// One `LayerOps` per layer, every named op observed, and the attributed
/// seconds never exceed the forward total.
fn assert_profile_partitions_time(profile: &OpProfile, depth: usize, case: &str) {
    assert_eq!(profile.layers.len(), depth);
    for layer in &profile.layers {
        for (i, s) in layer.seconds.iter().enumerate() {
            assert!(*s > 0.0, "{case}: op {} has no time", OP_NAMES[i]);
        }
    }
    assert!(profile.total_s > 0.0);
    assert!(
        profile.attributed_s() <= profile.total_s,
        "{case}: attributed {} > total {}",
        profile.attributed_s(),
        profile.total_s
    );
    let names: Vec<_> = profile.op_totals().iter().map(|(n, _)| *n).collect();
    assert_eq!(names, OP_NAMES.to_vec());
}

#[test]
fn profiled_forward_matches_fast_path_and_partitions_time() {
    let (dense, dense_store) = tiny_model(9);
    let mut sparse = dense.clone();
    sparse.set_sparsity_plan(local_global_plan(&sparse));
    let (mut sparse_ae, mut ae_store) = (sparse.clone(), dense_store.clone());
    sparse_ae.insert_auto_encoder(
        AutoEncoderSpec::half(sparse_ae.config().heads),
        &mut ae_store,
        &mut ChaCha8Rng::seed_from_u64(7),
    );
    let depth = dense.config().depth;
    let samples: Vec<Sample> = (0..3)
        .map(|i| Sample {
            tokens: random_tokens(&dense, 900 + i),
            label: 0,
        })
        .collect();
    for (plan, vit, store) in [
        ("dense", &dense, &dense_store),
        ("sparse", &sparse, &dense_store),
        ("sparse+ae", &sparse_ae, &ae_store),
    ] {
        let compiled = CompiledVit::from_parts(vit, store);
        for precision in [Precision::Fp32, Precision::Int8] {
            let case = format!("{plan} {precision}");
            let engine = Engine::builder(compiled.clone())
                .precision(precision)
                .build();
            let fast = engine.infer_batch(&samples);
            let profiled = engine.infer_batch_profiled(&samples);
            assert_eq!(profiled.len(), fast.len());
            for ((p, profile), f) in profiled.iter().zip(&fast) {
                // One forward body: the thing observed is the thing served.
                assert_eq!(p.class, f.class, "{case}");
                assert_eq!(logit_bits(p), logit_bits(f), "{case}");
                assert_profile_partitions_time(profile, depth, &case);
            }
        }
    }
}

/// A shape where attention heads really fan out across kernel workers
/// (`2·n²·dk` = 256 Ki > the 128 Ki per-thread grain): the served logits
/// must not depend on the thread budget, and the profiled pass — heads in
/// index order whatever the budget — must still partition its time.
#[test]
fn head_fan_out_changes_neither_logits_nor_profile_invariants() {
    let (tokens, dim, heads, depth) = (64, 64, 2, 2);
    let cfg = ViTConfig {
        tokens,
        dim,
        heads,
        depth,
        stages: vec![StageConfig {
            tokens,
            dim,
            heads,
            depth,
        }],
        ..ViTConfig::deit_tiny().reduced_for_training()
    };
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    // One sparse and one dense head per layer.
    let mut plan = local_global_plan(&vit);
    for layer in &mut plan {
        layer[1] = None;
    }
    vit.set_sparsity_plan(plan);
    let compiled = CompiledVit::from_parts(&vit, &store);
    let samples = [Sample {
        tokens: random_tokens(&vit, 1200),
        label: 0,
    }];
    for precision in [Precision::Fp32, Precision::Int8] {
        let engine = Engine::builder(compiled.clone())
            .precision(precision)
            .build();
        let serial = kernels::with_thread_budget(1, || engine.infer_batch(&samples));
        let (fanned, profiled) = kernels::with_thread_budget(4, || {
            (
                engine.infer_batch(&samples),
                engine.infer_batch_profiled(&samples),
            )
        });
        assert_eq!(
            logit_bits(&fanned[0]),
            logit_bits(&serial[0]),
            "{precision}"
        );
        assert_eq!(
            logit_bits(&profiled[0].0),
            logit_bits(&serial[0]),
            "{precision}"
        );
        assert_profile_partitions_time(&profiled[0].1, depth, &format!("fan-out {precision}"));
    }
}

#[test]
fn approx_ops_per_sample_tracks_sparsity() {
    let (vit, store) = tiny_model(10);
    let dense = CompiledVit::from_parts(&vit, &store);
    let dense_ops = Engine::builder(dense).build().approx_ops_per_sample();
    let (mut vit2, store2) = tiny_model(10);
    vit2.set_sparsity_plan(local_global_plan(&vit2));
    let sparse = CompiledVit::from_parts(&vit2, &store2);
    let sparse_ops = Engine::builder(sparse).build().approx_ops_per_sample();
    assert!(dense_ops > 0.0);
    // Sparsifying the attention core only removes work.
    assert!(sparse_ops < dense_ops);
    // But never more than the whole core plus softmax.
    let f = vit.config().flops();
    let floor = dense_ops - 2.0 * f.attention_core() as f64 - f.softmax_ops as f64;
    assert!(sparse_ops >= floor);
}
