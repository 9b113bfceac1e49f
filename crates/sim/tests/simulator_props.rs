//! Property-based tests of the simulator: monotonicity, conservation
//! and dataflow-vs-reference equivalence on random workloads.

use proptest::prelude::*;
use vitcod_core::{compile_model, AttentionMask, SplitConquer, SplitConquerConfig};
use vitcod_model::{AttentionStatsConfig, ModelFamily, StageConfig, ViTConfig};
use vitcod_sim::{AcceleratorConfig, ViTCoDAccelerator};
use vitcod_tensor::sparse::{attention_head, sddmm_k_stationary, spmm_output_stationary};
use vitcod_tensor::{kernels, Initializer};

fn tiny_model(tokens: usize, heads: usize, dk: usize) -> ViTConfig {
    let stage = StageConfig {
        tokens,
        dim: heads * dk,
        heads,
        depth: 2,
    };
    ViTConfig {
        name: "prop-model",
        family: ModelFamily::DeiT,
        tokens,
        dim: heads * dk,
        heads,
        depth: 2,
        mlp_ratio: 4,
        stages: vec![stage],
        stem_macs: 0,
        paper_sparsity: 0.9,
    }
}

fn program_for(
    tokens: usize,
    heads: usize,
    dk: usize,
    sparsity: f64,
    seed: u64,
) -> (ViTConfig, vitcod_core::AcceleratorProgram) {
    let cfg = tiny_model(tokens, heads, dk);
    let stats = vitcod_model::AttentionStats::generate(AttentionStatsConfig {
        tokens,
        layers: 2,
        heads,
        diagonal_width: 1.5,
        global_tokens: 2.0,
        global_mass: 0.3,
        background_mass: 0.05,
        seed,
    });
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(sparsity));
    let program = compile_model(&cfg, &sc.apply(&stats.maps), None);
    (cfg, program)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn latency_monotone_in_sparsity(seed in 0u64..100) {
        let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
        let (_, p_low) = program_for(48, 2, 16, 0.6, seed);
        let (_, p_high) = program_for(48, 2, 16, 0.9, seed);
        let low = acc.simulate_attention(&p_low);
        let high = acc.simulate_attention(&p_high);
        prop_assert!(high.total_cycles <= low.total_cycles);
        prop_assert!(high.macs <= low.macs);
    }

    #[test]
    fn more_lines_never_slower(seed in 0u64..50, lines_mult in 2usize..5) {
        let (_, p) = program_for(48, 2, 16, 0.85, seed);
        let base = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper())
            .simulate_attention(&p);
        let scaled = ViTCoDAccelerator::new(
            AcceleratorConfig::vitcod_paper().scaled(lines_mult))
            .simulate_attention(&p);
        prop_assert!(scaled.total_cycles <= base.total_cycles);
    }

    #[test]
    fn energy_and_latency_positive(seed in 0u64..50, s in 0.5f64..0.95) {
        let (_, p) = program_for(32, 2, 8, s, seed);
        let r = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper())
            .simulate_attention(&p);
        prop_assert!(r.total_cycles > 0);
        prop_assert!(r.energy_j > 0.0);
        prop_assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        prop_assert!(r.breakdown.total() >= r.total_cycles);
    }

    #[test]
    fn functional_dataflow_equals_reference(seed in 0u64..200, keep_prob in 0.1f64..0.9) {
        let n = 16;
        let dk = 8;
        let q = Initializer::Normal { std: 1.0 }.sample(n, dk, seed);
        let k = Initializer::Normal { std: 1.0 }.sample(n, dk, seed + 1);
        let v = Initializer::Normal { std: 1.0 }.sample(n, dk, seed + 2);
        // Random mask from the map itself (deterministic given seed).
        let map = kernels::softmax_rows(&kernels::matmul_nt(&q, &k));
        let mask = vitcod_core::prune_to_sparsity(&map, 1.0 - keep_prob);
        let index = mask.to_csc();

        let dataflow = attention_head(&q, &k, &v, &index, 0.3);

        // Dense reference.
        let mut scores = &kernels::matmul_nt(&q, &k) * 0.3;
        for r in 0..n {
            for c in 0..n {
                if !mask.is_kept(r, c) {
                    scores.set(r, c, f32::NEG_INFINITY);
                }
            }
        }
        let reference = kernels::matmul(&kernels::softmax_rows(&scores), &v);
        prop_assert!(
            dataflow.max_abs_diff(&reference) < 1e-4,
            "dataflow diverges by {}",
            dataflow.max_abs_diff(&reference)
        );
    }

    #[test]
    fn sddmm_spmm_compose_linearly(seed in 0u64..100, alpha in 0.5f32..2.0) {
        // SpMM is linear in V: spmm(S, aV) == a * spmm(S, V).
        let n = 12;
        let q = Initializer::Normal { std: 1.0 }.sample(n, 8, seed);
        let k = Initializer::Normal { std: 1.0 }.sample(n, 8, seed + 1);
        let v = Initializer::Normal { std: 1.0 }.sample(n, 8, seed + 2);
        let mut mask = AttentionMask::empty(n);
        for i in 0..n {
            mask.keep(i, i);
            mask.keep(i, (i + 3) % n);
        }
        let index = mask.to_csc();
        let scores = sddmm_k_stationary(&q, &k, &index, 0.25).softmax_rows();
        let a = spmm_output_stationary(&scores, &(&v * alpha));
        let b = &spmm_output_stationary(&scores, &v) * alpha;
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
    }

    #[test]
    fn end_to_end_dominates_attention(seed in 0u64..30) {
        let (cfg, p) = program_for(32, 2, 16, 0.85, seed);
        let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
        let attn = acc.simulate_attention_scaled(&p, &cfg);
        let e2e = acc.simulate_end_to_end(&p, &cfg);
        prop_assert!(e2e.total_cycles > attn.total_cycles);
        prop_assert!(e2e.macs > attn.macs);
        prop_assert!(e2e.traffic.dram_total() >= attn.traffic.dram_total());
    }
}
