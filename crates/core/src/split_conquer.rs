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

    /// Information-threshold config (`θp`) with automatic `θd`.
    pub fn with_info_threshold(theta_p: f64) -> Self {
        Self {
            criterion: PruneCriterion::InfoThreshold(theta_p),
            theta_d: None,
        }
    }
}

/// One attention head after split-and-conquer: its pruned mask in both
/// original and reordered token orders, the permutation, and the
/// denser/sparser partition the accelerator consumes.
#[derive(Debug, Clone)]
pub struct PolarizedHead {
    /// Layer index.
    pub layer: usize,
    /// Head index within the layer.
    pub head: usize,
    /// Pruned mask in the *original* token order (what finetuning uses).
    pub pruned: AttentionMask,
    /// Reordering outcome: permutation, `N_gt` and the polarized mask.
    pub reorder: ReorderResult,
}

impl PolarizedHead {
    /// Number of global tokens `N_gt`.
    pub fn num_global(&self) -> usize {
        self.reorder.num_global
    }

    /// The polarized (reordered) mask.
    pub fn polarized_mask(&self) -> &AttentionMask {
        &self.reorder.mask
    }

    /// CSC index of the sparser residue: the polarized mask restricted to
    /// columns `N_gt..n` (the denser block needs no index — it is
    /// processed densely).
    pub fn sparser_csc(&self) -> CscMatrix {
        let n = self.reorder.mask.size();
        let mut residue = AttentionMask::empty(n);
        for (q, k) in self.reorder.mask.iter_kept() {
            if k >= self.reorder.num_global {
                residue.keep(q, k);
            }
        }
        CscMatrix::from_mask(&residue)
    }

    /// Workload split between the two engines.
    pub fn workload(&self) -> WorkloadSplit {
        let col_nnz = self.reorder.mask.col_nnz();
        let (denser, sparser) = col_nnz.split_at(self.reorder.num_global);
        WorkloadSplit {
            tokens: self.reorder.mask.size(),
            denser_cols: self.reorder.num_global,
            denser_nnz: denser.iter().sum(),
            sparser_nnz: sparser.iter().sum(),
        }
    }
}

/// The two-level workload split the accelerator's dynamic PE allocation
/// balances (paper Sec. V-B: "we allocate hardware resource to each
/// engine proportional to its assigned workload size").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSplit {
    /// Token count `n`.
    pub tokens: usize,
    /// Denser-block column count (`N_gt`).
    pub denser_cols: usize,
    /// Kept positions inside the denser block.
    pub denser_nnz: usize,
    /// Kept positions in the sparser residue.
    pub sparser_nnz: usize,
}

impl WorkloadSplit {
    /// Denser block treated as fully dense by the denser engine:
    /// `n × N_gt` positions.
    pub fn denser_dense_positions(&self) -> usize {
        self.tokens * self.denser_cols
    }

    /// Fraction of total kept work that lands on the denser engine.
    pub fn denser_fraction(&self) -> f64 {
        let total = self.denser_nnz + self.sparser_nnz;
        if total == 0 {
            return 0.0;
        }
        self.denser_nnz as f64 / total as f64
    }

    /// Suggested PE split: PEs given to the denser engine out of
    /// `total_pes`, proportional to its dense-computed workload versus
    /// the sparser engine's nnz workload, with both engines always
    /// receiving at least one PE when they have work.
    pub fn allocate_pes(&self, total_pes: usize) -> (usize, usize) {
        let dense_work = self.denser_dense_positions() as f64;
        let sparse_work = self.sparser_nnz as f64;
        let total = dense_work + sparse_work;
        if total == 0.0 || total_pes == 0 {
            return (total_pes, 0);
        }
        let mut denser = ((dense_work / total) * total_pes as f64).round() as usize;
        if dense_work > 0.0 {
            denser = denser.max(1);
        }
        if sparse_work > 0.0 {
            denser = denser.min(total_pes.saturating_sub(1));
        }
        (denser.min(total_pes), total_pes - denser.min(total_pes))
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
            let w = ph.workload();
            assert_eq!(w.denser_nnz + w.sparser_nnz, ph.polarized_mask().nnz());
            assert_eq!(w.tokens, 64);
        }
    }

    #[test]
    fn pe_allocation_sums_to_total() {
        let w = WorkloadSplit {
            tokens: 100,
            denser_cols: 10,
            denser_nnz: 900,
            sparser_nnz: 100,
        };
        for total in [1usize, 2, 64, 512] {
            let (d, s) = w.allocate_pes(total);
            assert_eq!(d + s, total, "total {total}");
            if total >= 2 {
                assert!(d >= 1 && s >= 1);
            }
        }
    }

    #[test]
    fn pe_allocation_tracks_workload_ratio() {
        let heavy_dense = WorkloadSplit {
            tokens: 100,
            denser_cols: 50,
            denser_nnz: 4000,
            sparser_nnz: 100,
        };
        let (d, s) = heavy_dense.allocate_pes(64);
        assert!(d > s, "dense-heavy split should favour the denser engine");
        let heavy_sparse = WorkloadSplit {
            tokens: 100,
            denser_cols: 1,
            denser_nnz: 100,
            sparser_nnz: 4000,
        };
        let (d2, s2) = heavy_sparse.allocate_pes(64);
        assert!(s2 > d2);
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
        assert_eq!(csc.nnz(), ph.workload().sparser_nnz);
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
        let sc = SplitConquer::new(SplitConquerConfig::with_info_threshold(0.6));
        let heads = sc.apply(&stats.maps);
        let mean = SplitConquer::mean_sparsity(&heads);
        assert!(mean > 0.3, "info pruning too weak: {mean}");
    }
}
