//! Property-based tests of the split-and-conquer algorithm invariants.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vitcod_core::{
    compile_model, prune_info, prune_to_sparsity, reorder_global_tokens, split_columns,
    AttentionMask, PruneCriterion, SplitConquer, SplitConquerConfig,
};
use vitcod_model::{AttentionStats, ViTConfig};
use vitcod_tensor::kernels::{self, with_thread_budget};
use vitcod_tensor::Matrix;

fn attention_map(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.0f32..1.0, n * n)
        .prop_map(move |v| kernels::softmax_rows(&Matrix::from_vec(n, n, v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prune_info_retains_requested_mass(map in attention_map(20), theta in 0.2f64..0.95) {
        let mask = prune_info(&map, theta);
        prop_assert!(
            mask.retained_information(&map) >= theta - 1e-4,
            "retained {} < theta {theta}",
            mask.retained_information(&map)
        );
    }

    #[test]
    fn prune_info_is_monotone(map in attention_map(16)) {
        let low = prune_info(&map, 0.3);
        let high = prune_info(&map, 0.8);
        // Everything kept at theta=0.3 is kept at theta=0.8 (per-row
        // prefix property of the descending sort).
        for (q, k) in low.iter_kept() {
            prop_assert!(high.is_kept(q, k), "({q},{k}) lost when raising theta");
        }
    }

    #[test]
    fn prune_masks_never_leave_empty_rows(map in attention_map(14), s in 0.1f64..0.95) {
        let by_sparsity = prune_to_sparsity(&map, s);
        prop_assert!(by_sparsity.row_nnz().iter().all(|&c| c >= 1));
        let by_info = prune_info(&map, 1.0 - s);
        prop_assert!(by_info.row_nnz().iter().all(|&c| c >= 1));
    }

    #[test]
    fn reorder_polarization_is_non_negative(map in attention_map(24), s in 0.6f64..0.95) {
        let mask = prune_to_sparsity(&map, s);
        let r = reorder_global_tokens(&mask, None);
        if r.num_global > 0 && r.num_global < 24 {
            prop_assert!(
                r.polarization() >= 0.0,
                "denser block must be at least as dense as the residue"
            );
        }
    }

    #[test]
    fn reorder_then_inverse_restores_mask(map in attention_map(16), s in 0.5f64..0.9) {
        let mask = prune_to_sparsity(&map, s);
        let r = reorder_global_tokens(&mask, None);
        let mut inv = vec![0usize; 16];
        for (i, &p) in r.perm.iter().enumerate() {
            inv[p] = i;
        }
        prop_assert_eq!(mask.permute_symmetric(&r.perm).permute_symmetric(&inv), mask);
    }

    #[test]
    fn sparser_csc_plus_denser_block_cover_polarized_mask(
        map in attention_map(20), s in 0.6f64..0.95
    ) {
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(s));
        let ph = sc.apply_one(0, 0, &map);
        let csc = ph.sparser_csc();
        let r = &ph.reorder;
        let polarized = ph.pruned.permute_symmetric(&r.perm);
        // CSC covers exactly the residue.
        prop_assert_eq!(csc.nnz(), r.sparser_nnz());
        // It is the polarized mask cut at N_gt, column by column.
        for k in 0..20 {
            let rows: Vec<u32> = if k < r.num_global {
                vec![]
            } else {
                (0..20).filter(|&q| polarized.is_kept(q as usize, k)).collect()
            };
            prop_assert_eq!(csc.col_rows(k), &rows[..], "column {}", k);
        }
        // Denser block + residue = everything.
        prop_assert_eq!(r.denser_nnz() + r.sparser_nnz(), polarized.nnz());
        // And the original pruned mask has the same kept count.
        prop_assert_eq!(ph.pruned.nnz(), polarized.nnz());
    }

    #[test]
    fn csc_col_walk_is_row_sorted(mask_bits in proptest::collection::vec(any::<bool>(), 144)) {
        let mut mask = AttentionMask::empty(12);
        for (i, b) in mask_bits.iter().enumerate() {
            if *b {
                mask.keep(i / 12, i % 12);
            }
        }
        let csc = mask.to_csc();
        for k in 0..12 {
            let rows = csc.col_rows(k);
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
        prop_assert_eq!(AttentionMask::from_csc(&csc), mask);
    }

    #[test]
    fn both_criteria_agree_on_structure(map in attention_map(18)) {
        // Info-threshold and sparsity-target pruning at matched budgets
        // keep strongly overlapping sets (the same heavy entries).
        let by_info = prune_info(&map, 0.7);
        let s = by_info.sparsity();
        if s > 0.05 && s < 0.95 {
            let by_sparsity = prune_to_sparsity(&map, s);
            let overlap = by_info
                .iter_kept()
                .filter(|&(q, k)| by_sparsity.is_kept(q, k))
                .count();
            let frac = overlap as f64 / by_info.nnz() as f64;
            prop_assert!(frac > 0.5, "criteria overlap only {frac:.2}");
        }
    }

    #[test]
    fn compile_conserves_macs(map in attention_map(22), s in 0.6f64..0.9) {
        use vitcod_model::{StageConfig, ViTConfig, ModelFamily};
        let stage = StageConfig { tokens: 22, dim: 44, heads: 2, depth: 1 };
        let cfg = ViTConfig {
            name: "prop", family: ModelFamily::DeiT, tokens: 22, dim: 44,
            heads: 2, depth: 1, mlp_ratio: 4, stages: vec![stage],
            stem_macs: 0, paper_sparsity: s,
        };
        let crit = SplitConquerConfig {
            criterion: PruneCriterion::TargetSparsity(s),
            theta_d: None,
        };
        let sc = SplitConquer::new(crit);
        let heads = sc.apply(&[vec![map.clone(), map.clone()]]);
        let program = compile_model(&cfg, &heads, None);
        // SpMM MACs = nnz * dk for every head.
        for layer in &program.layers {
            for h in &layer.heads {
                prop_assert_eq!(
                    h.spmm_denser_macs() + h.spmm_sparser_macs(),
                    ((h.denser_nnz + h.sparser_nnz) * h.head_dim) as u64
                );
            }
        }
    }
}

/// `prune_to_sparsity` as it stood before the threshold selection — a
/// stable descending argsort of all n² entries — kept verbatim as the
/// oracle for the mask the selection must reproduce bit for bit.
fn prune_to_sparsity_argsort(a: &Matrix, sparsity: f64) -> AttentionMask {
    let n = a.rows();
    let keep_budget = (((n * n) as f64) * (1.0 - sparsity)).round().max(n as f64) as usize;

    // Global descending argsort of all entries.
    let mut order: Vec<(usize, usize)> = (0..n).flat_map(|q| (0..n).map(move |k| (q, k))).collect();
    order.sort_by(|&(q1, k1), &(q2, k2)| {
        a.get(q2, k2)
            .partial_cmp(&a.get(q1, k1))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut mask = AttentionMask::empty(n);
    // Guarantee each row its maximum first.
    for q in 0..n {
        let row = a.row(q);
        let best = vitcod_tensor::argmax(row).unwrap_or(q);
        mask.keep(q, best);
    }
    let mut kept = mask.nnz();
    for &(q, k) in &order {
        if kept >= keep_budget {
            break;
        }
        if !mask.is_kept(q, k) {
            mask.keep(q, k);
            kept += 1;
        }
    }
    mask
}

const ORACLE_SPARSITIES: [f64; 6] = [0.0, 0.3, 0.5, 0.9, 0.95, 0.999];

fn assert_matches_argsort(a: &Matrix, what: &str) {
    for s in ORACLE_SPARSITIES {
        assert_eq!(
            prune_to_sparsity(a, s),
            prune_to_sparsity_argsort(a, s),
            "{what}, sparsity {s}"
        );
    }
}

/// Few distinct value levels make ties the common case, so the tie rule
/// (row-major order among equals) decides most of each mask.
#[test]
fn threshold_selection_matches_the_argsort_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    for n in [1usize, 2, 3, 7, 16, 33, 64] {
        for levels in [1u32, 2, 3, 5, 17, 1 << 20] {
            for signed in [false, true] {
                let a = Matrix::from_fn(n, n, |_, _| {
                    let level = rng.gen_range(0..levels) as f32;
                    let sign = if signed && rng.gen_bool(0.5) {
                        -1.0
                    } else {
                        1.0
                    };
                    // Level 0 of a signed map is either zero.
                    sign * level / levels as f32
                });
                assert_matches_argsort(&a, &format!("n {n}, {levels} levels, signed {signed}"));
            }
        }
        let zeros = Matrix::from_fn(n, n, |r, c| if (r + c) % 2 == 0 { 0.0 } else { -0.0 });
        assert_matches_argsort(&zeros, &format!("n {n}, all ±0.0"));
    }
}

#[test]
fn threshold_selection_matches_the_argsort_oracle_on_deit_tiny_heads() {
    let stats = AttentionStats::for_model(&ViTConfig::deit_tiny(), 15);
    for (l, heads) in stats.maps.iter().enumerate() {
        let map = &heads[l % heads.len()];
        for s in [0.8, 0.9] {
            assert_eq!(
                prune_to_sparsity(map, s),
                prune_to_sparsity_argsort(map, s),
                "layer {l}, sparsity {s}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "attention map contains NaN")]
fn prune_to_sparsity_rejects_nan() {
    let mut a = Matrix::filled(4, 4, 0.25);
    a.set(2, 1, f32::NAN);
    prune_to_sparsity(&a, 0.5);
}

#[test]
#[should_panic(expected = "attention map contains NaN")]
fn prune_info_rejects_nan() {
    let mut a = Matrix::filled(4, 4, 0.25);
    a.set(2, 1, f32::NAN);
    prune_info(&a, 0.5);
}

#[test]
fn permute_symmetric_matches_the_definition() {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    for n in [0usize, 1, 2, 5, 16, 33] {
        let mut mask = AttentionMask::empty(n);
        for q in 0..n {
            for k in 0..n {
                if rng.gen_bool(0.3) {
                    mask.keep(q, k);
                }
            }
        }
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let mut expected = AttentionMask::empty(n);
        for i in 0..n {
            for j in 0..n {
                if mask.is_kept(perm[i], perm[j]) {
                    expected.keep(i, j);
                }
            }
        }
        assert_eq!(mask.permute_symmetric(&perm), expected, "n {n}");
    }
}

#[test]
#[should_panic(expected = "permutation index out of bounds")]
fn permute_symmetric_rejects_an_out_of_range_index() {
    AttentionMask::dense(3).permute_symmetric(&[0, 3, 1]);
}

#[test]
fn compile_model_agrees_with_workload_and_col_nnz() {
    let cfg = ViTConfig::deit_tiny();
    let stats = AttentionStats::for_model(&cfg, 17);
    let heads = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9)).apply(&stats.maps);
    let program = compile_model(&cfg, &heads, None);
    for (ph, pw) in heads
        .iter()
        .flatten()
        .zip(program.layers.iter().flat_map(|l| &l.heads))
    {
        let r = &ph.reorder;
        let polarized = ph.pruned.permute_symmetric(&r.perm);
        let ngt = ph.num_global();
        let cols = polarized.col_nnz();
        let (denser, sparser) = cols.split_at(ngt);
        assert_eq!(
            (pw.tokens, pw.num_global, pw.denser_nnz, pw.sparser_nnz),
            (polarized.size(), ngt, r.denser_nnz(), r.sparser_nnz())
        );
        assert_eq!(r.denser_nnz(), denser.iter().sum::<usize>());
        assert_eq!(r.sparser_nnz(), sparser.iter().sum::<usize>());
        assert_eq!(pw.sparser_col_nnz, sparser);
    }
}

/// The split reads per-column counts alone, and a symmetric permutation
/// keeps every column's count: the θd rule over the CSC the engine
/// serves, in original token order, gives the program `compile_model`
/// builds from the split-and-conquer output.
#[test]
fn the_served_csc_alone_gives_the_compiled_split() {
    let cfg = ViTConfig::deit_tiny();
    let stats = AttentionStats::for_model(&cfg, 19);
    let heads = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9)).apply(&stats.maps);
    let program = compile_model(&cfg, &heads, None);
    for (ph, pw) in heads
        .iter()
        .flatten()
        .zip(program.layers.iter().flat_map(|l| &l.heads))
    {
        let csc = ph.pruned.to_csc();
        let counts: Vec<usize> = (0..csc.size()).map(|k| csc.col_nnz(k)).collect();
        let r = split_columns(&counts, None);
        assert_eq!(r, ph.reorder, "layer {} head {}", ph.layer, ph.head);
        assert_eq!(
            (pw.tokens, pw.head_dim, pw.num_global),
            (counts.len(), cfg.head_dim(), r.num_global)
        );
        assert_eq!(
            (pw.denser_nnz, pw.sparser_nnz),
            (r.denser_nnz(), r.sparser_nnz())
        );
        assert_eq!(pw.sparser_col_nnz, r.sparser_col_nnz());
    }
}

#[test]
fn split_conquer_apply_is_independent_of_the_thread_budget() {
    let stats = AttentionStats::for_model(&ViTConfig::deit_tiny(), 18);
    let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
    let one = with_thread_budget(1, || sc.apply(&stats.maps));
    let four = with_thread_budget(4, || sc.apply(&stats.maps));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.layer, x.head), (y.layer, y.head));
            assert_eq!(x.pruned, y.pruned);
            assert_eq!(x.reorder, y.reorder);
        }
    }
}
