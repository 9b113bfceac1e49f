//! Quickstart: the full ViTCoD lifecycle — **train** a ViT with the
//! two-step sparsification pipeline, **compile** the result into a
//! frozen inference artifact, **serve** it through the batched engine
//! (fp32 and int8), and **simulate** the same workload on the paper's
//! accelerator.
//!
//! Run with: `cargo run --example quickstart --release`

use std::time::Instant;

use vitcod::core::{
    compile_model, AutoEncoderConfig, PipelineConfig, SplitConquer, SplitConquerConfig,
    ViTCoDPipeline,
};
use vitcod::engine::{accuracy, CompiledVit, Engine, Precision};
use vitcod::model::{SyntheticTask, SyntheticTaskConfig, TrainConfig, ViTConfig};
use vitcod::sim::{AcceleratorConfig, ViTCoDAccelerator};

fn main() {
    // 1. Train: run the paper's pipeline (pretrain → insert AE, finetune
    //    → split-and-conquer, freeze the masks to CSC, finetune) on a
    //    synthetic task with a reduced DeiT-Tiny twin, so the example
    //    finishes in seconds.
    let task = SyntheticTask::generate(SyntheticTaskConfig::default());
    let model = ViTConfig::deit_tiny().reduced_for_training();
    let mut cfg = PipelineConfig::paper_default(model.clone());
    cfg.pretrain = TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    };
    cfg.finetune = TrainConfig {
        epochs: 4,
        lr: 1e-3,
        ..TrainConfig::default()
    };
    println!("training {} on the synthetic task ...", model.name);
    let report = ViTCoDPipeline::new(cfg).run(&task);
    println!(
        "pipeline: dense accuracy {:.1}% -> sparse accuracy {:.1}% at {:.1}% attention sparsity",
        report.dense_accuracy * 100.0,
        report.final_accuracy * 100.0,
        report.achieved_sparsity * 100.0
    );

    // 2. Lower the same sparsified model onto the accelerator while the
    //    report still owns its split-and-conquer output, plus an
    //    all-dense comparison program from the trained model's averaged
    //    attention maps (sparsity 0.0 keeps every position).
    let program = compile_model(
        &model,
        &report.polarized,
        Some(AutoEncoderConfig::half(model.heads)),
    );
    let maps = report.trainer.averaged_attention_maps(&task);
    let dense_heads = SplitConquer::new(SplitConquerConfig::with_sparsity(0.0)).apply(&maps);
    let dense_prog = compile_model(&model, &dense_heads, None);

    // 3. Compile: freeze the finetuned weights and the per-head CSC
    //    indexes Step 2 trained on into the serve-many artifact.
    let compiled = CompiledVit::from_parts(report.trainer.model(), report.trainer.store());
    println!(
        "compiled artifact: {} weight scalars, {} sparse heads, {:.1}% mean attention sparsity",
        compiled.num_weight_scalars(),
        compiled.num_sparse_heads(),
        compiled.mean_attention_sparsity() * 100.0
    );

    // 4. Serve: batched tape-free inference. Sparse heads run the real
    //    SDDMM -> sparse-softmax -> SpMM dataflow over their CSC indexes.
    for precision in [Precision::Fp32, Precision::Int8] {
        let engine = Engine::builder(compiled.clone())
            .precision(precision)
            .build();
        let start = Instant::now();
        let predictions = engine.infer_batch(&task.test);
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "serve {:?}: {} samples in {:.1} ms ({:.0} samples/s), accuracy {:.1}%",
            precision,
            predictions.len(),
            elapsed * 1e3,
            predictions.len() as f64 / elapsed,
            accuracy(&predictions, &task.test) * 100.0
        );
    }

    // 5. Simulate: the same sparse workload on the paper's 3 mm^2
    //    accelerator versus a dense program on identical hardware.
    let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
    let sparse_sim = acc.simulate_attention(&program);
    let dense_sim = acc.simulate_attention(&dense_prog);
    println!(
        "simulated attention core: dense {:.2} us -> ViTCoD {:.2} us ({:.1}x speedup)",
        dense_sim.latency_s * 1e6,
        sparse_sim.latency_s * 1e6,
        sparse_sim.speedup_over(&dense_sim)
    );
}
