//! Integration test: the deployment artifacts (compiled program + mask
//! set) round-trip through their serialized forms and drive identical
//! simulation and finetuning behaviour.

// These tests assert bit-identical replay of simulated/serialized
// floats; exact comparison is the point.
#![allow(clippy::float_cmp)]

use vitcod::core::{
    compile_model, load_masks, load_program, save_masks, save_program, AutoEncoderConfig,
    SplitConquer, SplitConquerConfig,
};
use vitcod::model::{AttentionStats, ViTConfig};
use vitcod::sim::{check_buffers, schedule_head, AcceleratorConfig, Phase, ViTCoDAccelerator};

#[test]
fn program_artifact_drives_identical_simulation() {
    let model = ViTConfig::deit_small();
    let stats = AttentionStats::for_model(&model, 0xA51);
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
    let program = compile_model(
        &model,
        &sc.apply(&stats.maps),
        Some(AutoEncoderConfig::half(model.heads)),
    );
    let restored = load_program(&save_program(&program)).expect("round trip");

    let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
    let a = acc.simulate_attention(&program);
    let b = acc.simulate_attention(&restored);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.macs, b.macs);

    // Buffer feasibility and schedules agree too.
    let hw = AcceleratorConfig::vitcod_paper();
    let ra = check_buffers(&hw, &program);
    let rb = check_buffers(&hw, &restored);
    assert_eq!(ra.len(), rb.len());
    for (x, y) in ra.iter().zip(rb.iter()) {
        assert_eq!(x.demand, y.demand);
    }
    for (la, lb) in program.layers.iter().zip(restored.layers.iter()) {
        for (ha, hb) in la.heads.iter().zip(lb.heads.iter()) {
            let sa = schedule_head(ha, 8);
            let sb = schedule_head(hb, 8);
            assert_eq!(
                sa.scores_in_phase(Phase::Sddmm),
                sb.scores_in_phase(Phase::Sddmm)
            );
        }
    }
}

#[test]
fn mask_artifact_reinstalls_into_a_model() {
    use rand::SeedableRng;
    use vitcod::autograd::ParamStore;
    use vitcod::model::{SyntheticTask, SyntheticTaskConfig, VisionTransformer};

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

    // Derive masks, serialize, reload, install.
    let maps = vit.averaged_attention_maps(&store, &task.train);
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.8));
    let heads = sc.apply(&maps);
    let masks: Vec<Vec<vitcod::core::AttentionMask>> = heads
        .iter()
        .map(|l| l.iter().map(|h| h.pruned.clone()).collect())
        .collect();
    let restored = load_masks(&save_masks(&masks)).expect("mask round trip");
    let plan: vitcod::model::SparsityPlan = restored
        .iter()
        .map(|l| l.iter().map(|m| Some(m.to_matrix())).collect())
        .collect();
    vit.set_sparsity_plan(plan);
    assert!(vit.has_masks());

    // The model still runs and respects the pruned positions.
    let mut tape = vitcod::autograd::Tape::new();
    let out = vit.forward(&mut tape, &store, &task.train[0].tokens);
    let probs = tape
        .try_head_probs(out.attention_nodes[0], 0, 0)
        .expect("masked heads cache dense probabilities");
    for q in 0..restored[0][0].size() {
        for k in 0..restored[0][0].size() {
            if !restored[0][0].is_kept(q, k) {
                assert_eq!(probs.get(q, k), 0.0, "pruned ({q},{k}) must stay zero");
            }
        }
    }
}
