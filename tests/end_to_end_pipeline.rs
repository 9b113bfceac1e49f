//! Integration test: the complete ViTCoD flow across every crate —
//! train a ViT on the synthetic task, extract averaged attention maps,
//! split-and-conquer, compile, and simulate on the accelerator against
//! the baselines.

use rand::SeedableRng;
use vitcod::autograd::{ParamStore, Tape};
use vitcod::baselines::{SangerSim, SpAttenSim};
use vitcod::core::{
    compile_model, AutoEncoderConfig, PipelineConfig, SplitConquer, SplitConquerConfig,
    ViTCoDPipeline,
};
use vitcod::model::{
    SparsityPlan, SyntheticTask, SyntheticTaskConfig, TrainConfig, ViTConfig, VisionTransformer,
};
use vitcod::sim::{AcceleratorConfig, ViTCoDAccelerator};

fn quick_task() -> SyntheticTask {
    SyntheticTask::generate(SyntheticTaskConfig {
        train_samples: 64,
        test_samples: 32,
        ..Default::default()
    })
}

#[test]
fn trained_model_masks_flow_to_hardware() {
    let task = quick_task();
    let model = ViTConfig::deit_tiny().reduced_for_training();
    let mut cfg = PipelineConfig::paper_default(model.clone());
    cfg.pretrain = TrainConfig {
        epochs: 5,
        ..Default::default()
    };
    cfg.finetune = TrainConfig {
        epochs: 3,
        lr: 1e-3,
        ..Default::default()
    };
    let report = ViTCoDPipeline::new(cfg).run(&task);

    // Algorithm-side invariants.
    assert!(
        report.achieved_sparsity > 0.8,
        "sparsity {}",
        report.achieved_sparsity
    );
    assert!(!report.polarized.is_empty());

    // Compile the *trained* model's masks for the accelerator and run.
    let program = compile_model(
        &model,
        &report.polarized,
        Some(AutoEncoderConfig::half(model.heads)),
    );
    assert!((program.overall_sparsity() - report.achieved_sparsity).abs() < 0.05);
    let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
    let sim = acc.simulate_attention(&program);
    assert!(sim.total_cycles > 0);
    assert!(sim.utilization > 0.0);
}

#[test]
fn vitcod_beats_baselines_at_paper_sparsity() {
    let model = ViTConfig::deit_small();
    let stats = vitcod::model::AttentionStats::for_model(&model, 99);
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
    let program = compile_model(
        &model,
        &sc.apply(&stats.maps),
        Some(AutoEncoderConfig::half(model.heads)),
    );
    let hw = AcceleratorConfig::vitcod_paper();
    let vitcod = ViTCoDAccelerator::new(hw).simulate_attention_scaled(&program, &model);
    let spatten = SpAttenSim::new(hw).simulate_attention(&model, 0.9);
    let sanger = SangerSim::new(hw).simulate_attention(&model, 0.9);

    assert!(
        vitcod.latency_s < sanger.latency_s,
        "ViTCoD {} should beat Sanger {}",
        vitcod.latency_s,
        sanger.latency_s
    );
    assert!(vitcod.latency_s < spatten.latency_s);
    // Fig. 15 shape: SpAtten slower than Sanger on ViTs at 90%.
    assert!(spatten.latency_s > sanger.latency_s);
    // Fig. 19 shape: ViTCoD is also the most energy-efficient.
    assert!(vitcod.energy_j < sanger.energy_j);
    assert!(vitcod.energy_j < spatten.energy_j);
}

#[test]
fn end_to_end_includes_mlp_work_on_all_platforms() {
    let model = ViTConfig::levit_128();
    let hw = AcceleratorConfig::vitcod_paper();
    let stats = vitcod::model::AttentionStats::for_model(&model, 5);
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.8));
    let program = compile_model(&model, &sc.apply(&stats.maps), None);

    let v = ViTCoDAccelerator::new(hw);
    assert!(
        v.simulate_end_to_end(&program, &model).total_cycles
            > v.simulate_attention_scaled(&program, &model).total_cycles
    );
    let sp = SpAttenSim::new(hw);
    assert!(
        sp.simulate_end_to_end(&model, 0.8).total_cycles
            > sp.simulate_attention(&model, 0.8).total_cycles
    );
    let sa = SangerSim::new(hw);
    assert!(
        sa.simulate_end_to_end(&model, 0.8).total_cycles
            > sa.simulate_attention(&model, 0.8).total_cycles
    );
}

#[test]
fn finetuning_recovers_accuracy_under_masks() {
    // The paper's core algorithm claim: fixed 80-90% sparse masks plus
    // finetuning keep accuracy close to dense.
    let task = quick_task();
    let model = ViTConfig::deit_small().reduced_for_training();
    let mut cfg = PipelineConfig::paper_default(model);
    cfg.auto_encoder = None; // isolate split-and-conquer
    cfg.split_conquer = Some(SplitConquerConfig::with_sparsity(0.8));
    cfg.pretrain = TrainConfig {
        epochs: 10,
        ..Default::default()
    };
    cfg.finetune = TrainConfig {
        epochs: 8,
        lr: 1e-3,
        ..Default::default()
    };
    let report = ViTCoDPipeline::new(cfg).run(&task);
    assert!(
        report.accuracy_drop() < 0.15,
        "drop {:.3} too large (dense {:.3} -> sparse {:.3})",
        report.accuracy_drop(),
        report.dense_accuracy,
        report.final_accuracy
    );
}

#[test]
// Pruned positions must hold exactly zero probability; exact comparison
// is the point.
#[allow(clippy::float_cmp)]
fn split_conquer_masks_install_into_a_model() {
    let task = SyntheticTask::generate(SyntheticTaskConfig {
        train_samples: 8,
        test_samples: 4,
        ..Default::default()
    });
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
    let mut vit = VisionTransformer::new(
        &cfg,
        task.config.in_dim,
        task.config.num_classes,
        &mut store,
        &mut rng,
    );

    // Derive masks from the model's own attention and install them.
    let maps = vit.averaged_attention_maps(&store, &task.train);
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.8));
    let heads = sc.apply(&maps);
    let plan: SparsityPlan = heads
        .iter()
        .map(|l| l.iter().map(|h| Some(h.pruned.to_matrix())).collect())
        .collect();
    vit.set_sparsity_plan(plan);
    assert!(vit.sparsity_plan().is_some());

    // The model still runs and respects the pruned positions.
    let mut tape = Tape::new();
    let out = vit.forward(&mut tape, &store, &task.train[0].tokens);
    let probs = tape
        .try_head_probs(out.attention_nodes[0], 0, 0)
        .expect("masked heads cache dense probabilities");
    let mask = &heads[0][0].pruned;
    for q in 0..mask.size() {
        for k in 0..mask.size() {
            if !mask.is_kept(q, k) {
                assert_eq!(probs.get(q, k), 0.0, "pruned ({q},{k}) must stay zero");
            }
        }
    }
}
