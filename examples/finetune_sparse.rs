//! Sparse-finetune smoke example: the Step 2 half of `ViTCoDPipeline`
//! end to end — train a dense ViT, polarize/prune its attention with
//! split-and-conquer, finetune under the frozen CSC masks on the
//! nnz-scaled sparse path, save the compiled artifact to disk, and
//! serve it through the request-queue server.
//!
//! ```bash
//! cargo run --example finetune_sparse --release
//! ```

use vitcod::core::{PipelineConfig, SplitConquerConfig, ViTCoDPipeline};
use vitcod::engine::{load_compiled_vit, save_compiled_vit, CompiledVit, Engine, Precision};
use vitcod::model::{SyntheticTask, SyntheticTaskConfig, TrainConfig, ViTConfig};
use vitcod::serve::{BatchConfig, ModelRegistry, Server};

fn main() {
    // 1. Pretrain -> split-and-conquer -> freeze -> sparse finetune
    //    (no auto-encoder: Step 1 is skipped).
    let task = SyntheticTask::generate(SyntheticTaskConfig {
        train_samples: 64,
        test_samples: 32,
        ..Default::default()
    });
    let cfg = PipelineConfig {
        model: ViTConfig::deit_tiny().reduced_for_training(),
        pretrain: TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
        finetune: TrainConfig {
            epochs: 3,
            lr: 1e-3,
            ..TrainConfig::default()
        },
        auto_encoder: None,
        split_conquer: Some(SplitConquerConfig::with_sparsity(0.9)),
        seed: 0x5EED,
    };
    println!(
        "sparse finetune: {} substrate, target sparsity 90%, pretrain {} + finetune {} epochs",
        cfg.model.name, cfg.pretrain.epochs, cfg.finetune.epochs
    );
    let report = ViTCoDPipeline::new(cfg).run(&task);
    let compiled = CompiledVit::from_parts(report.trainer.model(), report.trainer.store());
    println!(
        "dense accuracy {:.2} -> sparse accuracy {:.2} \
         ({} heads frozen sparse at {:.1}% mean sparsity, drop {:+.2})",
        report.dense_accuracy,
        report.final_accuracy,
        compiled.num_sparse_heads(),
        report.achieved_sparsity * 100.0,
        report.accuracy_drop()
    );
    assert!(report.trainer.model().has_frozen_sparse());
    assert!(compiled.num_sparse_heads() > 0, "no heads froze sparse");

    // 2. Persist the finetuned artifact — the training -> serving
    //    boundary is one text file.
    let dir = std::env::temp_dir().join(format!("vitcod-finetune-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join("deit-finetuned.vitcod");
    std::fs::write(&path, save_compiled_vit(&compiled, Precision::Fp32)).expect("write artifact");
    println!("saved artifact: {}", path.display());

    // 3. Reload and serve it behind the request queue; predictions must
    //    match the pre-save engine bit for bit.
    let text = std::fs::read_to_string(&path).expect("read artifact");
    let (loaded, _) = load_compiled_vit(&text).expect("artifact parses");
    let direct = Engine::builder(compiled).build().infer_batch(&task.test);

    let mut registry = ModelRegistry::new();
    registry
        .register("deit-finetuned", Engine::builder(loaded).build())
        .expect("register model");
    let server = Server::start(
        registry,
        BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        },
    );
    let client = server.client();
    for (i, sample) in task.test.iter().enumerate() {
        let served = client
            .classify("deit-finetuned", sample.tokens.clone())
            .expect("serve");
        assert_eq!(served.logits, direct[i].logits, "sample {i} not bit-exact");
    }
    let stats = server.shutdown();
    let model_stats = stats.model("deit-finetuned").expect("served");
    println!(
        "served {} requests through the queue, p99 {:.1} ms — logits bit-exact with the \
         pre-save engine",
        task.test.len(),
        model_stats.latency_histogram.quantile(0.99) * 1e3
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("ok");
}
