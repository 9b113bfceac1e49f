//! Reconfigurability (paper Fig. 14): deploying a *new* ViT variant with
//! no silicon change — and, since the serving API landed, no retraining
//! of the serving stack either. The same two artifacts cover both
//! targets: a `CompiledVit` for the host engine and an
//! `AcceleratorProgram` for the accelerator.
//!
//! Part 1 trains a small custom variant end to end and serves it through
//! `vitcod::engine`. Part 2 lowers a full-size 577-token custom variant
//! onto the stock accelerator, as the original network-parser +
//! hardware-compiler flow does.
//!
//! Run with: `cargo run --example deploy_custom_vit --release`

use vitcod::core::{
    compile_model, AutoEncoderConfig, PipelineConfig, SplitConquer, SplitConquerConfig,
    ViTCoDPipeline,
};
use vitcod::engine::{accuracy, CompiledVit, Engine, Precision};
use vitcod::model::{
    AttentionStats, ModelFamily, StageConfig, SyntheticTask, SyntheticTaskConfig, TrainConfig,
    ViTConfig,
};
use vitcod::sim::{AcceleratorConfig, ViTCoDAccelerator};

/// A custom variant: 384x384 input at patch size 16 -> 577 tokens,
/// 8 heads, 10 layers. Not one of the paper's seven models.
fn custom_full() -> ViTConfig {
    let stage = StageConfig {
        tokens: 577,
        dim: 512,
        heads: 8,
        depth: 10,
    };
    ViTConfig {
        name: "Custom-ViT-384",
        family: ModelFamily::DeiT,
        tokens: stage.tokens,
        dim: stage.dim,
        heads: stage.heads,
        depth: stage.depth,
        mlp_ratio: 4,
        stages: vec![stage],
        stem_macs: 0,
        paper_sparsity: 0.9,
    }
}

fn main() {
    let custom = custom_full();
    println!(
        "deploying {}: {} tokens, {} heads, {} layers",
        custom.name, custom.tokens, custom.heads, custom.depth
    );

    // ---- Part 1: train a reduced twin, compile once, serve many. ----
    let task = SyntheticTask::generate(SyntheticTaskConfig {
        grid: 5, // 26 tokens: a shape none of the stock models use
        ..SyntheticTaskConfig::default()
    });
    let reduced = ViTConfig {
        tokens: 26,
        dim: 32,
        heads: 4,
        depth: 3,
        mlp_ratio: 2,
        stages: vec![StageConfig {
            tokens: 26,
            dim: 32,
            heads: 4,
            depth: 3,
        }],
        ..custom.clone()
    };
    let cfg = PipelineConfig {
        model: reduced,
        pretrain: TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
        finetune: TrainConfig {
            epochs: 4,
            lr: 1e-3,
            ..TrainConfig::default()
        },
        auto_encoder: None,
        split_conquer: Some(SplitConquerConfig::with_sparsity(custom.paper_sparsity)),
        seed: 0xCAFE,
    };
    println!("\ntraining a reduced twin on the synthetic task ...");
    let report = ViTCoDPipeline::new(cfg).run(&task);
    println!(
        "accuracy: dense {:.1}% -> sparse {:.1}% at {:.1}% sparsity",
        report.dense_accuracy * 100.0,
        report.final_accuracy * 100.0,
        report.achieved_sparsity * 100.0
    );
    let compiled = CompiledVit::from_parts(report.trainer.model(), report.trainer.store());
    let engine = Engine::builder(compiled).precision(Precision::Int8).build();
    let predictions = engine.infer_batch(&task.test);
    println!(
        "served {} samples through the int8 engine, accuracy {:.1}%, {} int8 weight bytes",
        predictions.len(),
        accuracy(&predictions, &task.test) * 100.0,
        engine.int8_weight_bytes().unwrap_or(0)
    );

    // ---- Part 2: lower the full-size variant onto the accelerator. ----
    // Parser stage: averaged attention maps -> split-and-conquer.
    let stats = AttentionStats::for_model(&custom, 7);
    let polarized = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9)).apply(&stats.maps);

    // Compiler stage: per-layer programs with global-token counts and
    // PE-allocation hints.
    let program = compile_model(
        &custom,
        &polarized,
        Some(AutoEncoderConfig::half(custom.heads)),
    );
    println!(
        "\ncompiled {} layers for the accelerator; per-layer mean global tokens:",
        program.layers.len()
    );
    for layer in &program.layers {
        println!(
            "  layer {:>2}: {:>5.1} global tokens, {:>9} attention MACs",
            layer.layer,
            layer.mean_global_tokens(),
            layer.total_macs()
        );
    }
    println!(
        "\noverall sparsity {:.1}%, total attention MACs {:.1} M",
        program.overall_sparsity() * 100.0,
        program.total_macs() as f64 / 1e6
    );

    // Execute on the unchanged accelerator.
    let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
    let sim = acc.simulate_attention(&program);
    println!(
        "simulated on the stock 3 mm^2 accelerator: {:.1} us core-attention latency, {:.1}% MAC utilization",
        sim.latency_s * 1e6,
        sim.utilization * 100.0
    );
}
