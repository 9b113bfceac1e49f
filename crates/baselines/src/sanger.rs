//! Behavioural simulator of Sanger (Lu et al., MICRO 2021).
//!
//! Sanger predicts a *dynamic, input-dependent* sparse attention mask by
//! computing a low-precision (4-bit) dense `Q·Kᵀ` pass, then *packs and
//! splits* the resulting sparse rows into a load-balanced layout executed
//! on a reconfigurable **S-stationary** PE array. S-stationary maps
//! attention scores spatially onto PEs: loaded Q/K vectors are fully
//! reused (low traffic) at the price of large computation workloads and
//! PE under-utilization when the mask is highly sparse — exactly the
//! trade the ViTCoD paper's Fig. 19 decomposition highlights.

use vitcod_model::ViTConfig;
use vitcod_sim::{gemm_cycles, softmax_cycles, AcceleratorConfig, Costs, DramModel, SimReport};

/// Throughput multiplier of the 4-bit prediction pass relative to 8-bit
/// MACs (each MAC slices into two 4-bit ops).
const PREDICTION_SPEEDUP: f64 = 1.2;

/// Utilization on dense GEMM layers: the reconfigurable S-stationary
/// array is specialised for attention scores, so projections/MLPs run
/// below ViTCoD's reconfigured-MAC-line efficiency.
const LINEAR_UTILIZATION: f64 = 0.5;

/// Sanger's PEs sit behind a reconfigurable pack-and-split interconnect;
/// per-op energy carries that routing overhead relative to ViTCoD's
/// fixed MAC lines.
const MAC_ENERGY_SCALE: f64 = 2.0;

/// Sanger behavioural simulator on the ViTCoD-equivalent hardware
/// budget.
///
/// # Example
///
/// ```
/// use vitcod_baselines::SangerSim;
/// use vitcod_model::ViTConfig;
/// use vitcod_sim::AcceleratorConfig;
///
/// let sanger = SangerSim::new(AcceleratorConfig::vitcod_paper());
/// let r = sanger.simulate_attention(&ViTConfig::deit_base(), 0.9);
/// assert!(r.breakdown.preprocess_cycles > 0); // mask prediction
/// ```
#[derive(Debug, Clone)]
pub struct SangerSim {
    cfg: AcceleratorConfig,
    dram: DramModel,
    /// PE-array utilization of the pack-and-split layout as a function
    /// floor; effective utilization degrades as sparsity rises beyond
    /// the 50–70 % regime Sanger was designed for.
    base_utilization: f64,
}

impl SangerSim {
    /// Creates the simulator on the given hardware budget.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self {
            dram: DramModel::new(&cfg),
            cfg,
            base_utilization: 0.65,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Effective S-stationary utilization at attention sparsity `s`.
    ///
    /// Sanger's pack-and-split balances rows well around 50–70 %
    /// sparsity (its design point, utilization ≈ `base_utilization`);
    /// beyond that the packed rows thin out and PEs idle — at 90 %+ the
    /// spatially-mapped score array has mostly empty slots.
    pub fn effective_utilization(&self, sparsity: f64) -> f64 {
        let over = (sparsity - 0.7).max(0.0);
        (self.base_utilization * (1.0 - 2.8 * over)).max(0.15)
    }

    /// Cycles of one layer's mask prediction: the dense 4-bit `Q·Kᵀ` over
    /// `tokens` tokens of width `dim`, at 1.2 times the 8-bit MAC rate.
    /// Every input pays it, at any sparsity.
    pub fn prediction_cycles(&self, tokens: usize, dim: usize) -> u64 {
        let (lines, mpl) = (self.cfg.mac_lines, self.cfg.macs_per_line);
        (gemm_cycles(tokens, tokens, dim, lines, mpl) as f64 / PREDICTION_SPEEDUP).ceil() as u64
    }

    /// Simulates the attention core at sparsity `s`, including the
    /// dynamic mask-prediction and pack-and-split preprocessing that
    /// every input pays.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1)`.
    pub fn simulate_attention(&self, model: &ViTConfig, sparsity: f64) -> SimReport {
        let costs = self.attention_costs(model, sparsity);
        self.report(costs, model, "core-attention")
    }

    /// End-to-end: Sanger's sparse attention plus the dense layers on
    /// the same budget as ViTCoD's — the same shapes (token counts are
    /// not reduced: Sanger prunes attention entries, not tokens), weight
    /// streaming, DRAM model and stem. Not shared: the S-stationary
    /// array runs the GEMMs at 50 % utilization where ViTCoD's
    /// reconfigured MAC lines run them at full rate, and it pays no
    /// per-layer reconfiguration.
    pub fn simulate_end_to_end(&self, model: &ViTConfig, sparsity: f64) -> SimReport {
        let mut costs = self.attention_costs(model, sparsity);
        costs.add_dense_layers(&self.cfg, model, |st, _| st.tokens, LINEAR_UTILIZATION, 0);
        self.report(costs, model, "end-to-end")
    }

    fn attention_costs(&self, model: &ViTConfig, sparsity: f64) -> Costs {
        assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0,1)");
        let lines = self.cfg.mac_lines;
        let mpl = self.cfg.macs_per_line;
        let bytes = self.cfg.bytes_per_elem as u64;
        let util = self.effective_utilization(sparsity);

        let mut costs = Costs::default();
        for st in &model.stages {
            let n = st.tokens;
            let d = st.dim;
            let nnz = (((n * n) as f64) * (1.0 - sparsity)).ceil() as usize;

            for _ in 0..st.depth {
                // Phase 1 — mask prediction: dense 4-bit Q·K^T.
                let predict = self.prediction_cycles(n, d);
                // Phase 2 — pack & split: stream the n^2 mask bits,
                // binning non-zeros into balanced sub-rows.
                let pack = ((n * n) as u64).div_ceil((lines * mpl) as u64);

                // Phase 3 — sparse SDDMM + SpMM on the S-stationary
                // array at degraded utilization.
                let sparse_macs = (2 * nnz * d) as u64;
                let ideal = sparse_macs.div_ceil((lines * mpl) as u64);
                let exec = (ideal as f64 / util).ceil() as u64;
                let softmax = softmax_cycles(nnz * st.heads, lines);

                // Traffic: Q/K twice (low-precision prediction pass +
                // full-precision execution), V once, output once.
                // S-stationary keeps S and partial sums on chip.
                let qk_bytes = 2 * (n * d) as u64 * bytes;
                let pred_bytes = qk_bytes / 2; // 4-bit copies
                let v_bytes = (n * d) as u64 * bytes;
                let out_bytes = (n * d) as u64 * bytes;
                costs.traffic.load(qk_bytes + pred_bytes + v_bytes);
                costs.traffic.store(out_bytes);
                let mem = self
                    .dram
                    .transfer_cycles(qk_bytes + pred_bytes + v_bytes + out_bytes);

                costs.add_layer(exec + softmax, mem, predict + pack);
                let layer_macs = sparse_macs + ((n * n * d) as f64 / 2.0) as u64;
                costs.macs += layer_macs;
                costs.phases.sddmm += exec / 2;
                costs.phases.spmm += exec / 2;
                costs.phases.softmax += softmax;
                costs.traffic.on_chip(2 * layer_macs * bytes);
            }
        }
        costs
    }

    fn report(&self, costs: Costs, model: &ViTConfig, kind: &str) -> SimReport {
        let platform = "Sanger".to_string();
        costs.report(&self.cfg, platform, model.name, kind, MAC_ENERGY_SCALE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SangerSim {
        SangerSim::new(AcceleratorConfig::vitcod_paper())
    }

    #[test]
    fn utilization_degrades_past_design_point() {
        let s = sim();
        assert!((s.effective_utilization(0.5) - 0.65).abs() < 1e-9);
        assert!(s.effective_utilization(0.9) < s.effective_utilization(0.7));
        assert!(s.effective_utilization(0.99) >= 0.15);
    }

    #[test]
    fn prediction_overhead_always_paid() {
        // Even a very sparse run pays the dense low-precision pass.
        let r = sim().simulate_attention(&ViTConfig::deit_base(), 0.95);
        assert!(r.breakdown.preprocess_cycles > 0);
        let frac = r.breakdown.preprocess_cycles as f64 / r.total_cycles as f64;
        assert!(frac > 0.1, "prediction share {frac:.3} suspiciously small");
    }

    #[test]
    fn sparser_is_faster_but_sublinearly() {
        let s = sim();
        let m = ViTConfig::deit_base();
        let r50 = s.simulate_attention(&m, 0.5);
        let r90 = s.simulate_attention(&m, 0.9);
        assert!(r90.total_cycles < r50.total_cycles);
        // The fixed prediction pass prevents a proportional 5x gain.
        let gain = r50.total_cycles as f64 / r90.total_cycles as f64;
        assert!(gain < 5.0, "gain {gain:.2} should be sublinear in sparsity");
    }

    #[test]
    fn qk_loaded_twice_for_prediction() {
        let r = sim().simulate_attention(&ViTConfig::deit_tiny(), 0.9);
        let n = 197u64;
        let d = 192u64;
        // At least 2.5x n*d per layer of Q/K traffic (full + 4-bit).
        assert!(r.traffic.dram_read_bytes > 12 * 2 * n * d);
    }

    #[test]
    fn end_to_end_extends_attention() {
        let s = sim();
        let m = ViTConfig::deit_small();
        assert!(
            s.simulate_end_to_end(&m, 0.9).total_cycles
                > s.simulate_attention(&m, 0.9).total_cycles
        );
    }

    #[test]
    fn report_is_labelled() {
        let r = sim().simulate_attention(&ViTConfig::deit_tiny(), 0.8);
        assert_eq!(r.platform, "Sanger");
        assert!(r.workload.contains("DeiT-Tiny"));
    }
}
