//! Determinism contract of the batched sparse training step: one full
//! step's loss and **every** gradient are bit-identical across runs and
//! across worker counts {1, 4}, because every kernel (dense and sparse,
//! forward and backward) accumulates each output element along one fixed
//! reduction chain.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::{ParamStore, Tape};
use vitcod_core::prune_to_sparsity;
use vitcod_model::{
    AutoEncoderSpec, SparsityPlan, SyntheticTask, SyntheticTaskConfig, ViTConfig, VisionTransformer,
};
use vitcod_tensor::kernels;
use vitcod_tensor::Matrix;

/// Builds a frozen-sparse model (AE installed, 90 % masks compiled to
/// CSC) plus a small minibatch.
fn sparse_setup() -> (VisionTransformer, ParamStore, SyntheticTask) {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let task = SyntheticTask::generate(SyntheticTaskConfig {
        train_samples: 8,
        test_samples: 4,
        ..Default::default()
    });
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut vit = VisionTransformer::new(
        &cfg,
        task.config.in_dim,
        task.config.num_classes,
        &mut store,
        &mut rng,
    );
    vit.insert_auto_encoder(AutoEncoderSpec::half(cfg.heads), &mut store, &mut rng);
    // Deterministic diagonal-heavy maps -> 90 % masks -> frozen CSC.
    let maps = vit.averaged_attention_maps(&store, &task.train);
    let plan: SparsityPlan = maps
        .iter()
        .map(|layer| {
            layer
                .iter()
                .map(|m| Some(prune_to_sparsity(m, 0.9).to_matrix()))
                .collect()
        })
        .collect();
    vit.set_sparsity_plan(plan);
    vit.freeze_sparse_attention();
    (vit, store, task)
}

/// Runs one full batched training step (forward, losses, backward, grad
/// flush) and returns `(loss, every gradient in id order)`.
fn one_step(
    vit: &VisionTransformer,
    store: &ParamStore,
    task: &SyntheticTask,
) -> (f32, Vec<Matrix>) {
    let mut store = store.clone();
    store.zero_grads();
    let batch = &task.train[..8];
    let tokens: Vec<&Matrix> = batch.iter().map(|s| &s.tokens).collect();
    let targets: Vec<usize> = batch.iter().map(|s| s.label).collect();
    let mut tape = Tape::new();
    let out = vit.forward_batch(&mut tape, &store, &tokens);
    let ce = tape.cross_entropy(out.logits, &targets);
    let loss = match out.recon_loss {
        Some(r) => tape.weighted_sum(ce, r, 1.0, 1.0),
        None => ce,
    };
    let loss_value = tape.scalar(loss);
    tape.backward(loss);
    tape.write_grads(&mut store);
    let grads = store.ids().map(|id| store.grad(id).clone()).collect();
    (loss_value, grads)
}

fn assert_bit_identical(a: &(f32, Vec<Matrix>), b: &(f32, Vec<Matrix>), label: &str) {
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "{label}: loss bits differ");
    assert_eq!(a.1.len(), b.1.len());
    for (i, (ga, gb)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(ga, gb, "{label}: gradient {i} differs");
    }
}

#[test]
fn training_step_bit_identical_across_workers() {
    let (vit, store, task) = sparse_setup();
    let reference = kernels::with_thread_budget(1, || one_step(&vit, &store, &task));
    for workers in [1usize, 4] {
        let got = kernels::with_thread_budget(workers, || one_step(&vit, &store, &task));
        assert_bit_identical(&reference, &got, &format!("{workers} workers"));
    }
}

#[test]
fn batched_step_matches_accumulated_per_sample_steps() {
    // The batched tape must compute the same mean loss and mean
    // gradients as per-sample tapes accumulated and rescaled (up to
    // floating-point reassociation).
    let (vit, store, task) = sparse_setup();
    let batch = &task.train[..8];
    let (batched_loss, batched_grads) = one_step(&vit, &store, &task);

    let mut per_sample = store.clone();
    per_sample.zero_grads();
    let mut loss_sum = 0.0f32;
    for s in batch {
        let mut tape = Tape::new();
        let out = vit.forward(&mut tape, &per_sample, &s.tokens);
        let ce = tape.cross_entropy(out.logits, &[s.label]);
        let loss = match out.recon_loss {
            Some(r) => tape.weighted_sum(ce, r, 1.0, 1.0),
            None => ce,
        };
        loss_sum += tape.scalar(loss);
        tape.backward(loss);
        tape.write_grads(&mut per_sample);
    }
    let mean_loss = loss_sum / batch.len() as f32;
    assert!(
        (batched_loss - mean_loss).abs() < 1e-4,
        "batched loss {batched_loss} vs per-sample mean {mean_loss}"
    );
    for (id, bg) in per_sample.ids().zip(&batched_grads) {
        let diff = per_sample
            .grad(id)
            .scale(1.0 / batch.len() as f32)
            .max_abs_diff(bg);
        assert!(
            diff < 1e-4,
            "grad {} differs by {diff}",
            per_sample.name(id)
        );
    }
}
