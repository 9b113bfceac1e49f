//! Training-path benchmark: what the pipeline's Step 2 finetune step
//! (batched tape, masks frozen to CSC) buys over the per-sample,
//! dense-`-inf`-masked loop it replaced.
//!
//! Run with `cargo bench -p vitcod-bench --bench training`; results are
//! printed and recorded to `BENCH_training.json` at the workspace root.
//! Every time is the best of [`vitcod_bench::timing::time_repeats`]'
//! runs, with the median, MAD and repeat count recorded beside it.
//! Three measurements, each with a gate on the best-of ratio:
//!
//! * **batched vs per-sample step throughput** at the trainable
//!   substrate (DeiT-Tiny's reduced training shape) and 90 % sparsity,
//!   batch 8: `Trainer::train`'s step (one stacked tape, masks frozen to
//!   CSC) must beat the loop it replaced (one `-inf`-masked
//!   batch-of-one tape per sample) by ≥ 1.3× — the batched
//!   tape amortises weight imports, per-op bookkeeping and backward
//!   caches across the batch, and the frozen masks drop the dense
//!   mask-bias arithmetic;
//! * **sparse vs dense-masked attention step** at the full DeiT-Tiny
//!   shape (197 tokens × 64-dim heads) and 90 % sparsity: one layer's
//!   fused attention forward + backward through the CSC dataflow must
//!   beat the `-inf`-masked dense path by ≥ 1.2× — the nnz-scaled
//!   backward is what makes sparse *training* cost follow the mask;
//! * **full finetune step** at the full DeiT-Tiny shape: the sparse
//!   step must not be slower than the dense-masked step (≥ 1.0×; the
//!   QKV/MLP projections dominate this shape on one core, so the
//!   end-to-end margin is structural but small).

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::{Adam, Optimizer, ParamStore, Tape};
use vitcod_baselines::protocol::WORKLOAD_SEED;
use vitcod_bench::timing::{time_repeats, Timing};
use vitcod_core::prune_to_sparsity;
use vitcod_model::{
    AttentionStats, Sample, SparsityPlan, TrainConfig, ViTConfig, VisionTransformer,
};
use vitcod_tensor::sparse::{self, CscMatrix};
use vitcod_tensor::{kernels, Initializer, Matrix};

const BATCH: usize = 8;
const SPARSITY: f64 = 0.9;
const BATCHED_GATE: f64 = 1.3;
const ATTENTION_GATE: f64 = 1.2;
const FULL_STEP_GATE: f64 = 1.0;

/// `"{column}_s"` (best), median, MAD and repeats of one timed column,
/// as JSON fields.
fn columns(column: &str, t: &Timing) -> String {
    format!(
        "\"{column}_s\": {:.6}, \"{column}_median_s\": {:.6}, \"{column}_mad_s\": {:.6}, \
         \"{column}_repeats\": {}",
        t.best_s, t.median_s, t.mad_s, t.repeats
    )
}

/// Builds a model at `cfg` with a 90 % sparsity plan installed (from the
/// statistical attention ensemble), optionally with the paper's AE
/// modules, optionally frozen to CSC.
fn sparse_model(
    cfg: &ViTConfig,
    in_dim: usize,
    classes: usize,
    auto_encoder: bool,
    frozen: bool,
) -> (VisionTransformer, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x7121);
    let mut model = VisionTransformer::new(cfg, in_dim, classes, &mut store, &mut rng);
    if auto_encoder {
        model.insert_auto_encoder(
            vitcod_model::AutoEncoderSpec::half(cfg.heads),
            &mut store,
            &mut rng,
        );
    }
    let stats = AttentionStats::for_model(cfg, WORKLOAD_SEED);
    let plan: SparsityPlan = (0..cfg.depth)
        .map(|l| {
            (0..cfg.heads)
                .map(|h| {
                    let map = &stats.maps[l % stats.maps.len()][h % stats.maps[0].len()];
                    Some(prune_to_sparsity(map, SPARSITY).to_matrix())
                })
                .collect()
        })
        .collect();
    model.set_sparsity_plan(plan);
    if frozen {
        model.freeze_sparse_attention();
    }
    (model, store)
}

fn make_batch(cfg: &ViTConfig, in_dim: usize) -> Vec<Sample> {
    (0..BATCH)
        .map(|i| Sample {
            tokens: Initializer::Normal { std: 1.0 }.sample(cfg.tokens, in_dim, 7_000 + i as u64),
            label: i % 4,
        })
        .collect()
}

/// One full optimizer step driven through a single batched tape.
fn batched_step(
    model: &VisionTransformer,
    store: &mut ParamStore,
    opt: &mut Adam,
    batch: &[Sample],
    clip: Option<f32>,
) -> f32 {
    store.zero_grads();
    let tokens: Vec<&Matrix> = batch.iter().map(|s| &s.tokens).collect();
    let targets: Vec<usize> = batch.iter().map(|s| s.label).collect();
    let mut tape = Tape::new();
    let out = model.forward_batch(&mut tape, store, &tokens);
    let ce = tape.cross_entropy(out.logits, &targets);
    let loss_node = match out.recon_loss {
        Some(r) => tape.weighted_sum(ce, r, 1.0, 1.0),
        None => ce,
    };
    let loss = tape.scalar(loss_node);
    tape.backward(loss_node);
    tape.write_grads(store);
    if let Some(c) = clip {
        store.clip_grad_norm(c);
    }
    opt.step(store);
    loss
}

/// The replaced loop: one batch-of-one tape per sample
/// (`VisionTransformer::forward` is `forward_batch(&[tokens])`, the one
/// forward there is), gradients accumulated and rescaled, then the same
/// clip + optimizer step. What it measures against [`batched_step`] is
/// therefore batch 1 × 8 vs batch 8 × 1 through identical ops, plus the
/// `-inf` biases vs the frozen CSC plans.
fn per_sample_step(
    model: &VisionTransformer,
    store: &mut ParamStore,
    opt: &mut Adam,
    batch: &[Sample],
    clip: Option<f32>,
) -> f32 {
    store.zero_grads();
    let mut loss_sum = 0.0;
    for s in batch {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, store, &s.tokens);
        let ce = tape.cross_entropy(out.logits, &[s.label]);
        let loss_node = match out.recon_loss {
            Some(r) => tape.weighted_sum(ce, r, 1.0, 1.0),
            None => ce,
        };
        loss_sum += tape.scalar(loss_node);
        tape.backward(loss_node);
        tape.write_grads(store);
    }
    // The replaced trainer averaged summed gradients with a
    // scale-and-accumulate pass per parameter; reproduced verbatim so
    // the baseline costs what the old loop cost.
    let scale = 1.0 / batch.len() as f32;
    for id in store.ids().collect::<Vec<_>>() {
        let g = store.grad(id).scale(scale - 1.0);
        store.accumulate_grad(id, &g);
    }
    if let Some(c) = clip {
        store.clip_grad_norm(c);
    }
    opt.step(store);
    loss_sum / batch.len() as f32
}

fn main() {
    let train_cfg = TrainConfig::default();
    println!(
        "training benchmark: batch {BATCH}, {} worker thread(s)\n",
        kernels::num_threads()
    );

    // ------------------------------------------------------------------
    // 1. The subsystem's finetune step (batched tape, frozen CSC masks)
    //    vs the loop it replaced (per-sample tapes, dense -inf biases)
    //    at the trainable substrate shape, with the paper's AE modules
    //    installed (the Fig. 10 finetune recipe) — identical weights and
    //    identical masks, only the execution strategy differs.
    // ------------------------------------------------------------------
    let substrate = ViTConfig::deit_tiny().reduced_for_training();
    let in_dim = 8;
    let batch = make_batch(&substrate, in_dim);
    // Same seed -> identical weights and masks; one keeps the -inf
    // biases, the other freezes them to CSC.
    let (masked_substrate, store) = sparse_model(&substrate, in_dim, 4, true, false);
    let (frozen_substrate, _) = sparse_model(&substrate, in_dim, 4, true, true);

    let mut ps_store = store.clone();
    let mut ps_opt = Adam::new(train_cfg.lr);
    let per_sample = time_repeats(None, || {
        std::hint::black_box(per_sample_step(
            &masked_substrate,
            &mut ps_store,
            &mut ps_opt,
            &batch,
            train_cfg.clip_norm,
        ));
    });
    let mut b_store = store.clone();
    let mut b_opt = Adam::new(train_cfg.lr);
    let batched = time_repeats(None, || {
        std::hint::black_box(batched_step(
            &frozen_substrate,
            &mut b_store,
            &mut b_opt,
            &batch,
            train_cfg.clip_norm,
        ));
    });
    let batched_speedup = per_sample.best_s / batched.best_s;
    println!(
        "substrate ({} tokens, {} dim, {} heads x {} layers) @ {:.0}% sparse, batch {BATCH}:",
        substrate.tokens,
        substrate.dim,
        substrate.heads,
        substrate.depth,
        SPARSITY * 100.0
    );
    println!(
        "  per-sample -inf-masked step (replaced loop) {:>8.3} ms  ({:.1} samples/s)",
        per_sample.best_s * 1e3,
        BATCH as f64 / per_sample.best_s
    );
    println!(
        "  batched frozen-sparse step (Trainer::train) {:>8.3} ms  ({:.1} samples/s)  -> {batched_speedup:.2}x\n",
        batched.best_s * 1e3,
        BATCH as f64 / batched.best_s
    );

    // ------------------------------------------------------------------
    // 2. Sparse vs dense-masked attention training step (forward +
    //    backward of one fused attention layer) at the full DeiT-Tiny
    //    shape and 90 % sparsity.
    // ------------------------------------------------------------------
    let full = ViTConfig::deit_tiny();
    let (n, dk, heads) = (full.tokens, full.head_dim(), full.heads);
    let stats = AttentionStats::for_model(&full, WORKLOAD_SEED);
    let masks: Vec<Matrix> = (0..heads)
        .map(|h| prune_to_sparsity(&stats.maps[0][h], SPARSITY).to_matrix())
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
    let q = Initializer::Normal { std: 1.0 }.sample(n, heads * dk, 91);
    let k = Initializer::Normal { std: 1.0 }.sample(n, heads * dk, 92);
    let v = Initializer::Normal { std: 1.0 }.sample(n, heads * dk, 93);
    let gout = Initializer::Normal { std: 1.0 }.sample(n, heads * dk, 94);
    let scale = 1.0 / (dk as f32).sqrt();

    // Both sides walk the heads in index order over the same column
    // stripes; only the per-head kernels differ.
    let stripe = |m: &Matrix, h: usize| m.submatrix(0, n, h * dk, (h + 1) * dk);
    let masked_attn = time_repeats(None, || {
        for (h, bias) in biases.iter().enumerate() {
            let (qh, kh, vh, gh) = (
                stripe(&q, h),
                stripe(&k, h),
                stripe(&v, h),
                stripe(&gout, h),
            );
            let (out, probs) = kernels::attention_head(&qh, &kh, &vh, scale, Some(bias));
            std::hint::black_box(out);
            std::hint::black_box(kernels::attention_head_backward(
                &qh, &kh, &vh, scale, &probs, &gh,
            ));
        }
    });
    let sparse_attn = time_repeats(None, || {
        for (h, csc) in cscs.iter().enumerate() {
            let (qh, kh, vh, gh) = (
                stripe(&q, h),
                stripe(&k, h),
                stripe(&v, h),
                stripe(&gout, h),
            );
            let probs = sparse::sddmm_k_stationary(&qh, &kh, csc, scale).softmax_rows();
            std::hint::black_box(sparse::spmm_output_stationary(&probs, &vh));
            std::hint::black_box(sparse::attention_head_backward(
                &qh, &kh, &vh, scale, &probs, &gh,
            ));
        }
    });
    let attention_speedup = masked_attn.best_s / sparse_attn.best_s;
    println!(
        "attention step ({n} tokens x {heads} heads, dk {dk}, {:.1}% actual sparsity):",
        (1.0 - nnz as f64 / (heads * n * n) as f64) * 100.0
    );
    println!("  dense -inf masked {:>8.3} ms", masked_attn.best_s * 1e3);
    println!(
        "  sparse CSC        {:>8.3} ms  -> {attention_speedup:.2}x\n",
        sparse_attn.best_s * 1e3
    );

    // ------------------------------------------------------------------
    // 3. Full finetune step, sparse vs dense-masked, at the full
    //    DeiT-Tiny shape (batch 1 keeps the run short; the ratio is
    //    batch-independent).
    // ------------------------------------------------------------------
    let full_in_dim = 48;
    let full_batch = &make_batch(&full, full_in_dim)[..1];
    let (masked_model, masked_store) = sparse_model(&full, full_in_dim, 10, false, false);
    let mut m_store = masked_store.clone();
    let mut m_opt = Adam::new(train_cfg.lr);
    let masked_step = time_repeats(None, || {
        std::hint::black_box(batched_step(
            &masked_model,
            &mut m_store,
            &mut m_opt,
            full_batch,
            train_cfg.clip_norm,
        ));
    });
    let (frozen_model, frozen_store) = sparse_model(&full, full_in_dim, 10, false, true);
    let mut f_store = frozen_store.clone();
    let mut f_opt = Adam::new(train_cfg.lr);
    let sparse_step = time_repeats(None, || {
        std::hint::black_box(batched_step(
            &frozen_model,
            &mut f_store,
            &mut f_opt,
            full_batch,
            train_cfg.clip_norm,
        ));
    });
    let full_step_speedup = masked_step.best_s / sparse_step.best_s;
    println!(
        "full finetune step (DeiT-Tiny, {n} tokens, {} dim):",
        full.dim
    );
    println!("  dense -inf masked {:>8.1} ms", masked_step.best_s * 1e3);
    println!(
        "  sparse CSC        {:>8.1} ms  -> {full_step_speedup:.2}x\n",
        sparse_step.best_s * 1e3
    );

    // ------------------------------------------------------------------
    // Record + gates.
    // ------------------------------------------------------------------
    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_training.json");
    let json = format!(
        "{{\n  \"bench\": \"training\",\n  \"threads\": {},\n  \"caveats\": \"1 compute thread on \
         a shared 2-vCPU box that slows every process by 40-50 % for seconds at a time; *_s is the \
         best of the repeats (what the speedups and gates compare), median and MAD sit beside \
         it\",\n  \"batch\": {BATCH},\n  \"sparsity\": {SPARSITY},\n  \
         \"batched\": {{\"shape\": \"substrate {st} tokens x {sd} dim\", {}, {}, \
         \"speedup\": {batched_speedup:.3}, \"gate\": {BATCHED_GATE}}},\n  \
         \"attention_step\": {{\"shape\": \"{n} tokens x {heads} heads x dk {dk}\", {}, {}, \
         \"speedup\": {attention_speedup:.3}, \"gate\": {ATTENTION_GATE}}},\n  \
         \"full_step\": {{\"shape\": \"DeiT-Tiny {n} tokens x {fd} dim\", {}, {}, \
         \"speedup\": {full_step_speedup:.3}, \"gate\": {FULL_STEP_GATE}}}\n}}\n",
        kernels::num_threads(),
        columns("per_sample_step", &per_sample),
        columns("batched_step", &batched),
        columns("masked", &masked_attn),
        columns("sparse", &sparse_attn),
        columns("masked", &masked_step),
        columns("sparse", &sparse_step),
        st = substrate.tokens,
        sd = substrate.dim,
        fd = full.dim,
    );
    std::fs::write(json_path, json).expect("write BENCH_training.json");
    println!("recorded to BENCH_training.json");

    assert!(
        batched_speedup >= BATCHED_GATE,
        "batched training at batch {BATCH} must beat per-sample by >= {BATCHED_GATE}x \
         (got {batched_speedup:.2}x)"
    );
    assert!(
        attention_speedup >= ATTENTION_GATE,
        "the sparse attention training step must beat the dense -inf-masked step by \
         >= {ATTENTION_GATE}x at DeiT-Tiny/90% (got {attention_speedup:.2}x)"
    );
    assert!(
        full_step_speedup >= FULL_STEP_GATE,
        "a sparse finetune step must not be slower than the dense -inf-masked step \
         (got {full_step_speedup:.2}x)"
    );
}
