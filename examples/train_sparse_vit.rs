//! The full ViTCoD algorithm pipeline (paper Fig. 10) on a trainable
//! model: pretrain a small ViT on a synthetic vision task, insert the
//! learnable Q/K auto-encoder and finetune, then apply split-and-conquer,
//! freeze the masks to CSC indexes and finetune again on the sparse
//! dataflow — verifying the accuracy survives 90 % attention sparsity.
//!
//! Run with: `cargo run --example train_sparse_vit --release`

use vitcod::core::{PipelineConfig, ViTCoDPipeline};
use vitcod::model::{SyntheticTask, SyntheticTaskConfig, TrainConfig, ViTConfig};

fn main() {
    // A synthetic classification task standing in for ImageNet: smooth
    // background fields (local correlations) plus class anchors at fixed
    // salient positions (global tokens).
    let task = SyntheticTask::generate(SyntheticTaskConfig::default());
    println!(
        "task: {} train / {} test samples, {} tokens, {} classes",
        task.train.len(),
        task.test.len(),
        task.num_tokens(),
        task.config.num_classes
    );

    let model = ViTConfig::deit_small().reduced_for_training();
    let mut cfg = PipelineConfig::paper_default(model);
    cfg.pretrain = TrainConfig {
        epochs: 16,
        ..Default::default()
    };
    cfg.finetune = TrainConfig {
        epochs: 8,
        lr: 1e-3,
        ..Default::default()
    };

    println!(
        "\nrunning: pretrain -> insert AE + finetune -> split&conquer + freeze + finetune ..."
    );
    let report = ViTCoDPipeline::new(cfg).run(&task);

    println!("\nresults:");
    println!(
        "  dense (pretrained) accuracy : {:.1}%",
        report.dense_accuracy * 100.0
    );
    if let Some(ae) = &report.ae_trajectory {
        println!(
            "  after AE finetune           : {:.1}% (recon loss {:.4} -> {:.4})",
            ae.final_accuracy() * 100.0,
            ae.epochs.first().map(|e| e.recon_loss).unwrap_or(0.0),
            ae.final_recon_loss()
        );
    }
    println!(
        "  after split&conquer         : {:.1}% at {:.1}% attention sparsity",
        report.final_accuracy * 100.0,
        report.achieved_sparsity * 100.0
    );
    println!(
        "  accuracy drop               : {:+.1}%",
        report.accuracy_drop() * 100.0
    );

    // Inspect one polarized head.
    let head = &report.polarized[0][0];
    println!(
        "\nlayer 0 / head 0 after split&conquer: {} global tokens, denser density {:.2}, sparser density {:.3}",
        head.num_global(),
        head.reorder.denser_density(),
        head.reorder.sparser_density()
    );
    println!("\nmask (█ kept / · pruned):\n{}", head.polarized_mask());
}
