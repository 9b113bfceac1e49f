#![forbid(unsafe_code)]
//! Fig. 1: accuracy-vs-sparsity for ViTs with *fixed* sparse attention
//! masks, contrasted against NLP Transformers needing *dynamic* masks.
//!
//! ViT curves are measured: reduced DeiT-Small/Base twins are trained
//! from scratch on the synthetic vision task (the documented ImageNet
//! substitution), pruned with fixed information-based masks at each
//! sparsity level, and finetuned. NLP curves are the reference series
//! the paper aggregates from the literature (BLEU on IWSLT EN→DE with
//! dynamic sparse attention, reproduced here as the published trend
//! since no NLP training stack is in scope).

use vitcod_core::{PipelineConfig, SplitConquerConfig, ViTCoDPipeline};
use vitcod_model::{SyntheticTask, SyntheticTaskConfig, TrainConfig, ViTConfig};

fn main() {
    let task = SyntheticTask::generate(SyntheticTaskConfig::default());
    let sparsities = [0.10, 0.30, 0.50, 0.70, 0.90, 0.95];

    println!("Fig. 1 — accuracy vs attention sparsity (fixed masks on ViTs, measured on the synthetic task)\n");
    for name in ["DeiT-Small", "DeiT-Base"] {
        let base_cfg = match name {
            "DeiT-Small" => ViTConfig::deit_small(),
            _ => ViTConfig::deit_base(),
        }
        .reduced_for_training();

        // "Pretrained" dense model (seed varied per model): the pipeline
        // with both steps skipped.
        let finetune = TrainConfig {
            epochs: 6,
            lr: 1e-3,
            ..Default::default()
        };
        let dense = ViTCoDPipeline::new(PipelineConfig {
            model: base_cfg,
            pretrain: TrainConfig {
                epochs: 14,
                ..Default::default()
            },
            finetune,
            auto_encoder: None,
            split_conquer: None,
            seed: 0xF161 ^ name.len() as u64,
        })
        .run(&task);
        let (base, dense_acc) = (dense.trainer, dense.dense_accuracy);
        println!(
            "{name} (reduced twin) — dense accuracy {:.1}%",
            dense_acc * 100.0
        );
        println!("  {:>9} {:>10} {:>9}", "sparsity", "accuracy", "drop");

        for &s in &sparsities {
            let mut finetuned = base.clone();
            ViTCoDPipeline::finetune_sparse(
                &mut finetuned,
                &task,
                SplitConquerConfig::with_sparsity(s),
                &finetune,
            );
            let acc = finetuned.evaluate(&task.test);
            println!(
                "  {:>8.0}% {:>9.1}% {:>8.1}%",
                s * 100.0,
                acc * 100.0,
                (dense_acc - acc) * 100.0
            );
        }
        println!();
    }

    println!(
        "NLP Transformer reference (paper Fig. 1; BLEU on IWSLT EN→DE, dynamic sparse attention):"
    );
    println!("  {:>9} {:>18}", "sparsity", "BLEU (best method)");
    // Trend the paper plots: near-lossless to ~50-70%, collapsing beyond.
    for (s, bleu) in [
        (0.10, 34.5),
        (0.30, 34.2),
        (0.50, 33.8),
        (0.70, 31.5),
        (0.90, 25.0),
        (0.95, 22.0),
    ] {
        println!("  {:>8.0}% {:>18.1}", s * 100.0, bleu);
    }
    println!("\npaper: ViTs tolerate 90–95% *fixed* sparsity with <=1.5% accuracy drop, while NLP");
    println!("       Transformers lose BLEU rapidly past ~50–70% even with dynamic masks.");
}
