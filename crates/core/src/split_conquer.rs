//! The combined split-and-conquer transform (Alg. 1) across a full model.

use vitcod_tensor::kernels::par_map_collect;
use vitcod_tensor::Matrix;

use crate::formats::CscMatrix;
use crate::mask::AttentionMask;
use crate::prune::{prune_info, prune_to_sparsity};
use crate::reorder::{reorder_global_tokens, ReorderResult};

/// Which pruning criterion drives the split (Alg. 1 uses `θp`; the
/// paper's sparsity sweeps fix the ratio directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneCriterion {
    /// Keep scores until their cumulative normalised sum reaches `θp`.
    InfoThreshold(f64),
    /// Keep exactly the largest scores for a target sparsity ratio.
    TargetSparsity(f64),
}

/// Configuration of the split-and-conquer transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitConquerConfig {
    /// Pruning criterion.
    pub criterion: PruneCriterion,
    /// Global-token column threshold `θd`; `None` auto-derives it from
    /// the mean column occupancy.
    pub theta_d: Option<usize>,
}

impl SplitConquerConfig {
    /// Sweeps-style config pruning to `sparsity` with automatic `θd`.
    pub fn with_sparsity(sparsity: f64) -> Self {
        Self {
            criterion: PruneCriterion::TargetSparsity(sparsity),
            theta_d: None,
        }
    }
}

/// One attention head after split-and-conquer: its pruned mask in the
/// original token order, and the permutation, `N_gt` and per-column
/// counts of the denser/sparser partition the accelerator consumes.
#[derive(Debug, Clone)]
pub struct PolarizedHead {
    /// Layer index.
    pub layer: usize,
    /// Head index within the layer.
    pub head: usize,
    /// Pruned mask in the *original* token order (what finetuning uses).
    pub pruned: AttentionMask,
    /// Reordering outcome: permutation, `N_gt` and column counts.
    pub reorder: ReorderResult,
}

impl PolarizedHead {
    /// Number of global tokens `N_gt`.
    pub fn num_global(&self) -> usize {
        self.reorder.num_global
    }

    /// CSC index of the sparser residue: the polarized mask restricted to
    /// columns `N_gt..n` (the denser block needs no index — it is
    /// processed densely), read through the permutation in one pass
    /// without drawing the polarized mask.
    pub fn sparser_csc(&self) -> CscMatrix {
        let (perm, num_global) = (&self.reorder.perm, self.reorder.num_global);
        CscMatrix::from_indicator(self.pruned.size(), |q, k| {
            k >= num_global && self.pruned.is_kept(perm[q], perm[k])
        })
    }
}

/// Applies the split-and-conquer algorithm to each head of a model's
/// averaged attention-map ensemble.
///
/// # Example
///
/// ```
/// use vitcod_core::{SplitConquer, SplitConquerConfig};
/// use vitcod_model::{AttentionStats, ViTConfig};
///
/// let stats = AttentionStats::for_model(&ViTConfig::deit_tiny(), 3);
/// let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
/// let heads = sc.apply(&stats.maps);
/// assert_eq!(heads.len(), 12);
/// assert_eq!(heads[0].len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SplitConquer {
    config: SplitConquerConfig,
}

impl SplitConquer {
    /// Creates the transform with `config`.
    pub fn new(config: SplitConquerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> SplitConquerConfig {
        self.config
    }

    /// Transforms one averaged attention map.
    pub fn apply_one(&self, layer: usize, head: usize, map: &Matrix) -> PolarizedHead {
        let pruned = match self.config.criterion {
            PruneCriterion::InfoThreshold(theta_p) => prune_info(map, theta_p),
            PruneCriterion::TargetSparsity(s) => prune_to_sparsity(map, s),
        };
        let reorder = reorder_global_tokens(&pruned, self.config.theta_d);
        PolarizedHead {
            layer,
            head,
            pruned,
            reorder,
        }
    }

    /// Transforms a `[layer][head]` ensemble of averaged maps. Heads are
    /// independent, so they fan out across the kernel layer's thread
    /// budget as one flat list; the result does not depend on it.
    pub fn apply(&self, maps: &[Vec<Matrix>]) -> Vec<Vec<PolarizedHead>> {
        let flat: Vec<(usize, usize, &Matrix)> = maps
            .iter()
            .enumerate()
            .flat_map(|(l, heads)| heads.iter().enumerate().map(move |(h, m)| (l, h, m)))
            .collect();
        let work_per_head = flat.first().map_or(0, |(_, _, m)| m.rows() * m.cols());
        let mut done = par_map_collect(flat.len(), work_per_head, |i| {
            let (l, h, m) = flat[i];
            self.apply_one(l, h, m)
        })
        .into_iter();
        maps.iter()
            .map(|heads| done.by_ref().take(heads.len()).collect())
            .collect()
    }

    /// Builds the finetuning `SparsityPlan` (masks in original token
    /// order) from transformed heads.
    pub fn to_sparsity_plan(heads: &[Vec<PolarizedHead>]) -> vitcod_model::SparsityPlan {
        heads
            .iter()
            .map(|layer| layer.iter().map(|h| Some(h.pruned.to_matrix())).collect())
            .collect()
    }

    /// Mean achieved sparsity across all heads.
    pub fn mean_sparsity(heads: &[Vec<PolarizedHead>]) -> f64 {
        let all: Vec<f64> = heads
            .iter()
            .flatten()
            .map(|h| h.pruned.sparsity())
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.iter().sum::<f64>() / all.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_model::{AttentionStats, AttentionStatsConfig};

    fn small_stats() -> AttentionStats {
        AttentionStats::generate(AttentionStatsConfig {
            tokens: 64,
            layers: 2,
            heads: 3,
            diagonal_width: 1.5,
            global_tokens: 3.0,
            global_mass: 0.4,
            background_mass: 0.05,
            seed: 21,
        })
    }

    #[test]
    fn apply_covers_all_heads() {
        let stats = small_stats();
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        let heads = sc.apply(&stats.maps);
        assert_eq!(heads.len(), 2);
        assert!(heads.iter().all(|l| l.len() == 3));
        for (l, layer) in heads.iter().enumerate() {
            for (h, ph) in layer.iter().enumerate() {
                assert_eq!((ph.layer, ph.head), (l, h));
            }
        }
    }

    #[test]
    fn polarization_separates_densities() {
        let stats = small_stats();
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        for ph in sc.apply(&stats.maps).into_iter().flatten() {
            if ph.num_global() > 0 {
                assert!(
                    ph.reorder.denser_density() > ph.reorder.sparser_density(),
                    "layer {} head {}: denser {} <= sparser {}",
                    ph.layer,
                    ph.head,
                    ph.reorder.denser_density(),
                    ph.reorder.sparser_density()
                );
            }
        }
    }

    #[test]
    fn workload_split_accounts_for_all_nnz() {
        let stats = small_stats();
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.85));
        for ph in sc.apply(&stats.maps).into_iter().flatten() {
            let r = &ph.reorder;
            assert_eq!(r.denser_nnz() + r.sparser_nnz(), ph.pruned.nnz());
            assert_eq!(r.col_nnz.len(), 64);
        }
    }

    #[test]
    fn sparser_csc_excludes_denser_block() {
        let stats = small_stats();
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        let ph = &sc.apply(&stats.maps)[0][0];
        let csc = ph.sparser_csc();
        for k in 0..ph.num_global() {
            assert_eq!(csc.col_nnz(k), 0, "denser column {k} leaked into CSC");
        }
        assert_eq!(csc.nnz(), ph.reorder.sparser_nnz());
    }

    #[test]
    fn sparsity_plan_matches_model_shape() {
        let stats = small_stats();
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.8));
        let heads = sc.apply(&stats.maps);
        let plan = SplitConquer::to_sparsity_plan(&heads);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].len(), 3);
        let m = plan[0][0].as_ref().unwrap();
        assert_eq!(m.shape(), (64, 64));
    }

    #[test]
    fn mean_sparsity_close_to_target() {
        let stats = small_stats();
        for target in [0.6, 0.8, 0.9] {
            let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(target));
            let heads = sc.apply(&stats.maps);
            let mean = SplitConquer::mean_sparsity(&heads);
            assert!(
                (mean - target).abs() < 0.05,
                "target {target} achieved {mean}"
            );
        }
    }

    #[test]
    fn info_threshold_criterion_works_end_to_end() {
        let stats = small_stats();
        let sc = SplitConquer::new(SplitConquerConfig {
            criterion: PruneCriterion::InfoThreshold(0.6),
            theta_d: None,
        });
        let heads = sc.apply(&stats.maps);
        let mean = SplitConquer::mean_sparsity(&heads);
        assert!(mean > 0.3, "info pruning too weak: {mean}");
    }
}
