//! The algorithm→hardware interface pipeline (paper Fig. 14): a network
//! parser plus hardware compiler that lowers a sparsified ViT into the
//! per-layer programs the accelerator executes.

use vitcod_model::ViTConfig;

use crate::autoencoder::AutoEncoderConfig;
use crate::split_conquer::PolarizedHead;

/// Work description of one attention head for one phase pair
/// (SDDMM `Q·Kᵀ` then SpMM `S·V`).
#[derive(Debug, Clone)]
pub struct PhaseWorkload {
    /// Tokens `n`.
    pub tokens: usize,
    /// Per-head feature dimension `dk`.
    pub head_dim: usize,
    /// Global-token (denser) columns `N_gt`.
    pub num_global: usize,
    /// Kept positions inside the denser block.
    pub denser_nnz: usize,
    /// Kept positions in the sparser residue.
    pub sparser_nnz: usize,
    /// Per-column kept counts of the sparser residue (columns
    /// `N_gt..n`), used for load-balance modelling.
    pub sparser_col_nnz: Vec<usize>,
}

impl PhaseWorkload {
    /// SDDMM MACs on the denser engine: the block is computed densely,
    /// `n · N_gt · dk`.
    pub fn sddmm_denser_macs(&self) -> u64 {
        (self.tokens * self.num_global * self.head_dim) as u64
    }

    /// SDDMM MACs on the sparser engine: one `dk`-length dot product per
    /// kept position.
    pub fn sddmm_sparser_macs(&self) -> u64 {
        (self.sparser_nnz * self.head_dim) as u64
    }

    /// SpMM MACs on the denser engine: each kept score inside the denser
    /// block multiplies a `dk`-length V row.
    pub fn spmm_denser_macs(&self) -> u64 {
        (self.denser_nnz * self.head_dim) as u64
    }

    /// SpMM MACs on the sparser engine.
    pub fn spmm_sparser_macs(&self) -> u64 {
        (self.sparser_nnz * self.head_dim) as u64
    }

    /// All attention-core MACs of this head.
    pub fn total_macs(&self) -> u64 {
        self.sddmm_denser_macs()
            + self.sddmm_sparser_macs()
            + self.spmm_denser_macs()
            + self.spmm_sparser_macs()
    }

    /// Load imbalance of the sparser residue: max column occupancy over
    /// mean (1.0 = perfectly balanced). Diagonal patterns without
    /// reordering score high; polarized residues score low.
    pub fn sparser_imbalance(&self) -> f64 {
        if self.sparser_col_nnz.is_empty() {
            return 1.0;
        }
        let max = *self.sparser_col_nnz.iter().max().unwrap() as f64;
        let mean =
            self.sparser_col_nnz.iter().sum::<usize>() as f64 / self.sparser_col_nnz.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// One layer's compiled attention program: a [`PhaseWorkload`] per head.
#[derive(Debug, Clone)]
pub struct LayerProgram {
    /// Layer index.
    pub layer: usize,
    /// Per-head workloads.
    pub heads: Vec<PhaseWorkload>,
}

impl LayerProgram {
    /// Sum of all heads' attention-core MACs.
    pub fn total_macs(&self) -> u64 {
        self.heads.iter().map(PhaseWorkload::total_macs).sum()
    }

    /// Mean global-token count across heads (the statistic the paper's
    /// dynamic PE allocation keys on, which "varies in terms of the
    /// number of global tokens among different layers/heads").
    pub fn mean_global_tokens(&self) -> f64 {
        if self.heads.is_empty() {
            return 0.0;
        }
        self.heads.iter().map(|h| h.num_global as f64).sum::<f64>() / self.heads.len() as f64
    }
}

/// A complete compiled model: the artifact the hardware compiler hands to
/// the accelerator (Fig. 14's "instructions").
#[derive(Debug, Clone)]
pub struct AcceleratorProgram {
    /// Model name, e.g. `"DeiT-Base"`.
    pub model: String,
    /// Tokens `n` of the compiled (primary) stage.
    pub tokens: usize,
    /// Per-head feature dimension.
    pub head_dim: usize,
    /// Heads per layer.
    pub heads: usize,
    /// Per-layer programs.
    pub layers: Vec<LayerProgram>,
    /// Auto-encoder configuration, if AE modules are compiled in.
    pub auto_encoder: Option<AutoEncoderConfig>,
}

impl AcceleratorProgram {
    /// Total attention-core MACs across the model.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerProgram::total_macs).sum()
    }

    /// Overall achieved sparsity of the compiled attention maps.
    pub fn overall_sparsity(&self) -> f64 {
        let mut kept = 0u64;
        let mut total = 0u64;
        for layer in &self.layers {
            for h in &layer.heads {
                kept += (h.denser_nnz + h.sparser_nnz) as u64;
                total += (h.tokens * h.tokens) as u64;
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - kept as f64 / total as f64
    }
}

/// The network parser + hardware compiler: lowers a model configuration
/// and its split-and-conquer output into an [`AcceleratorProgram`].
///
/// # Panics
///
/// Panics if `polarized` has no layers or mask sizes disagree with
/// `cfg.tokens`.
///
/// # Example
///
/// ```
/// use vitcod_core::{compile_model, SplitConquer, SplitConquerConfig};
/// use vitcod_model::{AttentionStats, ViTConfig};
///
/// let cfg = ViTConfig::deit_tiny();
/// let stats = AttentionStats::for_model(&cfg, 9);
/// let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
/// let prog = compile_model(&cfg, &sc.apply(&stats.maps), None);
/// assert_eq!(prog.layers.len(), 12);
/// assert!(prog.overall_sparsity() > 0.85);
/// ```
pub fn compile_model(
    cfg: &ViTConfig,
    polarized: &[Vec<PolarizedHead>],
    auto_encoder: Option<AutoEncoderConfig>,
) -> AcceleratorProgram {
    assert!(!polarized.is_empty(), "no layers to compile");
    let dk = cfg.head_dim();
    let layers = polarized
        .iter()
        .enumerate()
        .map(|(l, heads)| LayerProgram {
            layer: l,
            heads: heads
                .iter()
                .map(|ph| {
                    let mask = ph.polarized_mask();
                    assert_eq!(
                        mask.size(),
                        cfg.tokens,
                        "mask size disagrees with model config"
                    );
                    // One pass over the mask: the per-column counts
                    // split at `N_gt` give both engines' totals.
                    let mut denser_col_nnz = mask.col_nnz();
                    let sparser_col_nnz = denser_col_nnz.split_off(ph.num_global());
                    PhaseWorkload {
                        tokens: cfg.tokens,
                        head_dim: dk,
                        num_global: ph.num_global(),
                        denser_nnz: denser_col_nnz.iter().sum(),
                        sparser_nnz: sparser_col_nnz.iter().sum(),
                        sparser_col_nnz,
                    }
                })
                .collect(),
        })
        .collect();
    AcceleratorProgram {
        model: cfg.name.to_string(),
        tokens: cfg.tokens,
        head_dim: dk,
        heads: cfg.heads,
        layers,
        auto_encoder,
    }
}

#[cfg(test)]
// Exact float equality below asserts bit-identical artifact replay.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::split_conquer::{SplitConquer, SplitConquerConfig};
    use vitcod_model::{AttentionStats, ViTConfig};

    fn compiled(sparsity: f64) -> AcceleratorProgram {
        let cfg = ViTConfig::deit_tiny();
        let stats = AttentionStats::for_model(&cfg, 33);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(sparsity));
        compile_model(&cfg, &sc.apply(&stats.maps), None)
    }

    #[test]
    fn program_shape_matches_model() {
        let p = compiled(0.9);
        assert_eq!(p.layers.len(), 12);
        assert!(p.layers.iter().all(|l| l.heads.len() == 3));
        assert_eq!(p.tokens, 197);
        assert_eq!(p.head_dim, 64);
    }

    #[test]
    fn sparsity_survives_compilation() {
        let p = compiled(0.9);
        assert!((p.overall_sparsity() - 0.9).abs() < 0.03);
    }

    #[test]
    fn macs_scale_with_density() {
        let dense = compiled(0.6);
        let sparse = compiled(0.9);
        assert!(dense.total_macs() > sparse.total_macs());
    }

    #[test]
    fn phase_workload_macs_consistent() {
        let w = PhaseWorkload {
            tokens: 10,
            head_dim: 4,
            num_global: 2,
            denser_nnz: 15,
            sparser_nnz: 5,
            sparser_col_nnz: vec![1, 1, 1, 1, 1, 0, 0, 0],
        };
        assert_eq!(w.sddmm_denser_macs(), 10 * 2 * 4);
        assert_eq!(w.sddmm_sparser_macs(), 5 * 4);
        assert_eq!(w.spmm_denser_macs(), 15 * 4);
        assert_eq!(w.spmm_sparser_macs(), 5 * 4);
        assert_eq!(
            w.total_macs(),
            w.sddmm_denser_macs()
                + w.sddmm_sparser_macs()
                + w.spmm_denser_macs()
                + w.spmm_sparser_macs()
        );
    }

    #[test]
    fn imbalance_detects_skew() {
        let balanced = PhaseWorkload {
            tokens: 4,
            head_dim: 2,
            num_global: 0,
            denser_nnz: 0,
            sparser_nnz: 8,
            sparser_col_nnz: vec![2, 2, 2, 2],
        };
        assert!((balanced.sparser_imbalance() - 1.0).abs() < 1e-9);
        let skewed = PhaseWorkload {
            sparser_col_nnz: vec![8, 0, 0, 0],
            ..balanced
        };
        assert_eq!(skewed.sparser_imbalance(), 4.0);
    }

    #[test]
    fn mean_global_tokens_positive_for_global_heavy_maps() {
        let p = compiled(0.9);
        let any_globals = p.layers.iter().any(|l| l.mean_global_tokens() > 0.0);
        assert!(any_globals, "no layer found any global tokens");
    }

    #[test]
    fn ae_config_carried_through() {
        let cfg = ViTConfig::deit_small();
        let stats = AttentionStats::for_model(&cfg, 34);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        let p = compile_model(
            &cfg,
            &sc.apply(&stats.maps),
            Some(AutoEncoderConfig::half(cfg.heads)),
        );
        assert_eq!(p.auto_encoder.unwrap().compressed_heads(), 3);
    }
}
