//! Behavioural simulator of SpAtten (Wang et al., HPCA 2021).
//!
//! SpAtten accelerates attention with **cascade token and head pruning**:
//! an on-chip top-k engine ranks cumulative attention importance and
//! progressively drops whole tokens (and heads) as layers deepen. The
//! pruning is *dynamic and input-dependent* (it must be recomputed for
//! every input) and *coarse-grained* (whole tokens/heads), which caps the
//! achievable sparsity — the paper's Table I files it under "Low"
//! sparsity. On ViT workloads with a nominal attention-map sparsity `s`,
//! SpAtten can only realise the token-level share of it; the remaining
//! fine-grained sparsity is invisible to its dataflow.

use vitcod_model::{StageConfig, ViTConfig};
use vitcod_sim::{gemm_cycles, softmax_cycles, AcceleratorConfig, Costs, DramModel, SimReport};

/// Utilization on dense GEMM layers: SpAtten's datapath is specialised
/// for attention (top-k ranking, score pipelines), so projections/MLPs
/// run at reduced efficiency compared with ViTCoD's explicitly
/// reconfigurable MAC lines.
const LINEAR_UTILIZATION: f64 = 0.45;

/// Energy per MAC in units of [`vitcod_sim::EnergyModel::mac_pj`]: the
/// same MACs as ViTCoD's.
const MAC_ENERGY_SCALE: f64 = 1.0;

/// SpAtten behavioural simulator, configured with the same MAC count and
/// DRAM bandwidth as the ViTCoD accelerator for the paper's iso-resource
/// comparison.
///
/// # Example
///
/// ```
/// use vitcod_baselines::SpAttenSim;
/// use vitcod_model::ViTConfig;
/// use vitcod_sim::AcceleratorConfig;
///
/// let sim = SpAttenSim::new(AcceleratorConfig::vitcod_paper());
/// let r = sim.simulate_attention(&ViTConfig::deit_base(), 0.9);
/// assert!(r.total_cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SpAttenSim {
    cfg: AcceleratorConfig,
    dram: DramModel,
    /// Dense-array utilization on the kept-token workload.
    utilization: f64,
    /// Minimum kept-token fraction that preserves ViT accuracy (coarse
    /// token pruning cannot go further without unacceptable drops —
    /// SpAtten's granularity limit on ViTs).
    min_token_keep: f64,
}

impl SpAttenSim {
    /// Creates the simulator on the given hardware budget.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self {
            dram: DramModel::new(&cfg),
            cfg,
            utilization: 0.65,
            min_token_keep: 0.65,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Final kept-token fraction for a nominal attention sparsity `s`:
    /// `max(sqrt(1 − s), min_token_keep)` — token pruning removes rows
    /// *and* columns, so keeping a fraction `f` of tokens leaves `f²` of
    /// the attention map.
    pub fn token_keep_fraction(&self, sparsity: f64) -> f64 {
        (1.0 - sparsity).sqrt().max(self.min_token_keep)
    }

    /// Simulates the attention core at nominal sparsity `s`, cascading
    /// the kept-token fraction linearly from 1.0 at the first layer to
    /// [`Self::token_keep_fraction`] at the last.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1)`.
    pub fn simulate_attention(&self, model: &ViTConfig, sparsity: f64) -> SimReport {
        let costs = self.attention_costs(model, sparsity);
        self.report(costs, model, "core-attention")
    }

    /// End-to-end: the cascade-pruned attention plus the dense layers on
    /// the same budget as ViTCoD's — the same weight streaming, DRAM
    /// model and stem, over the kept tokens (token pruning also shrinks
    /// the GEMMs of deeper layers). Not shared: SpAtten's datapath runs
    /// the GEMMs at 45 % utilization where ViTCoD's reconfigured MAC
    /// lines run them at full rate, and it pays no per-layer
    /// reconfiguration.
    pub fn simulate_end_to_end(&self, model: &ViTConfig, sparsity: f64) -> SimReport {
        let f_final = self.token_keep_fraction(sparsity);
        let mut costs = self.attention_costs(model, sparsity);
        let kept = |st: &StageConfig, l| kept_tokens(st, l, f_final);
        costs.add_dense_layers(&self.cfg, model, kept, LINEAR_UTILIZATION, 0);
        self.report(costs, model, "end-to-end")
    }

    fn attention_costs(&self, model: &ViTConfig, sparsity: f64) -> Costs {
        assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0,1)");
        let lines = self.cfg.mac_lines;
        let mpl = self.cfg.macs_per_line;
        let bytes = self.cfg.bytes_per_elem as u64;
        let f_final = self.token_keep_fraction(sparsity);

        let mut costs = Costs::default();
        for st in &model.stages {
            for l in 0..st.depth {
                let n_kept = kept_tokens(st, l, f_final);
                let d = st.dim;

                // Dense QK^T and SV on the kept tokens.
                let qk = gemm_cycles(n_kept, n_kept, d, lines, mpl);
                let sv = gemm_cycles(n_kept, d, n_kept, lines, mpl);
                let compute = ((qk + sv) as f64 / self.utilization).ceil() as u64;
                let softmax = softmax_cycles(n_kept * n_kept * st.heads, lines);

                // Top-k ranking engine: cumulative importance scores are
                // accumulated (n_kept^2 adds) and a quick-select runs per
                // head; SpAtten's engine processes ~lines comparisons per
                // cycle.
                let topk =
                    ((n_kept * n_kept + n_kept * st.heads) as u64).div_ceil((lines * mpl) as u64);

                // Traffic: Q/K/V for kept tokens in, output out. Dynamic
                // pruning means indices/importance travel too.
                let qkv_bytes = 3 * (n_kept * d) as u64 * bytes;
                let out_bytes = (n_kept * d) as u64 * bytes;
                let imp_bytes = (n_kept as u64) * 4;
                costs.traffic.load(qkv_bytes + imp_bytes);
                costs.traffic.store(out_bytes);
                let mem = self.dram.transfer_cycles(qkv_bytes + imp_bytes + out_bytes);

                costs.add_layer(compute + softmax, mem, topk);
                let layer_macs = (2 * n_kept * n_kept * d) as u64;
                costs.macs += layer_macs;
                costs.phases.sddmm += ((qk as f64) / self.utilization) as u64;
                costs.phases.spmm += ((sv as f64) / self.utilization) as u64;
                costs.phases.softmax += softmax;
                costs.traffic.on_chip(2 * layer_macs * bytes);
            }
        }
        costs
    }

    fn report(&self, costs: Costs, model: &ViTConfig, kind: &str) -> SimReport {
        let platform = "SpAtten".to_string();
        costs.report(&self.cfg, platform, model.name, kind, MAC_ENERGY_SCALE)
    }
}

/// Tokens kept at layer `l` of `st`: the kept fraction cascades linearly
/// from 1.0 at the stage's first layer to `f_final` at its last.
fn kept_tokens(st: &StageConfig, l: usize, f_final: f64) -> usize {
    let progress = if st.depth > 1 {
        l as f64 / (st.depth - 1) as f64
    } else {
        1.0
    };
    let f = 1.0 - (1.0 - f_final) * progress;
    ((st.tokens as f64) * f).ceil() as usize
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sim() -> SpAttenSim {
        SpAttenSim::new(AcceleratorConfig::vitcod_paper())
    }

    #[test]
    fn token_keep_fraction_floors_at_granularity_limit() {
        let s = sim();
        assert!((s.token_keep_fraction(0.0) - 1.0).abs() < 1e-12);
        // sqrt(0.1) = 0.316 < the coarse-granularity floor.
        assert_eq!(s.token_keep_fraction(0.9), 0.65);
        assert!((s.token_keep_fraction(0.5) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn higher_sparsity_helps_but_saturates() {
        let s = sim();
        let m = ViTConfig::deit_base();
        let r0 = s.simulate_attention(&m, 0.0);
        let r60 = s.simulate_attention(&m, 0.6);
        let r90 = s.simulate_attention(&m, 0.9);
        let r95 = s.simulate_attention(&m, 0.95);
        assert!(r60.total_cycles < r0.total_cycles);
        assert!(r90.total_cycles <= r60.total_cycles);
        // Past the granularity floor, no further gains.
        assert_eq!(r90.total_cycles, r95.total_cycles);
    }

    #[test]
    fn preprocess_overhead_is_nonzero() {
        let r = sim().simulate_attention(&ViTConfig::deit_small(), 0.9);
        assert!(
            r.breakdown.preprocess_cycles > 0,
            "top-k engine must cost cycles"
        );
    }

    #[test]
    fn end_to_end_adds_linear_work() {
        let s = sim();
        let m = ViTConfig::deit_small();
        let attn = s.simulate_attention(&m, 0.9);
        let e2e = s.simulate_end_to_end(&m, 0.9);
        assert!(e2e.total_cycles > attn.total_cycles);
        assert!(e2e.phases.linear > 0);
    }

    #[test]
    fn energy_positive() {
        let r = sim().simulate_attention(&ViTConfig::deit_tiny(), 0.8);
        assert!(r.energy_j > 0.0);
    }
}
