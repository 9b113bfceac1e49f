//! Simulation result types and the cost roll-up every simulated
//! accelerator shares.

use vitcod_model::{StageConfig, ViTConfig};

use crate::config::AcceleratorConfig;
use crate::engines::gemm_cycles;
use crate::memory::{DramModel, TrafficStats};

/// Cycle totals per execution phase (compute-side view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// SDDMM (`S = Q·Kᵀ`) cycles across both engines.
    pub sddmm: u64,
    /// SpMM (`V′ = S·V`) cycles across both engines.
    pub spmm: u64,
    /// Softmax-unit cycles.
    pub softmax: u64,
    /// Encoder/decoder engine cycles (AE codec).
    pub codec: u64,
    /// Dense linear layers (Q/K/V generation, projections, MLPs) when
    /// simulating end to end.
    pub linear: u64,
}

impl PhaseCycles {
    /// Sum of all compute phases.
    pub fn total(&self) -> u64 {
        self.sddmm + self.spmm + self.softmax + self.codec + self.linear
    }

    /// Accumulates another record.
    pub fn add(&mut self, other: &PhaseCycles) {
        self.sddmm += other.sddmm;
        self.spmm += other.spmm;
        self.softmax += other.softmax;
        self.codec += other.codec;
        self.linear += other.linear;
    }
}

/// The latency decomposition of Fig. 19: computation, preprocessing
/// (index/config loading) and data movements, where data movement cycles
/// count the *exposed* (non-overlapped) portion plus the overlapped
/// transfer time the paper reports as "overlapped computations and data
/// movements".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Pure compute cycles on the critical path.
    pub compute_cycles: u64,
    /// Preprocess cycles (sparse-index loading, reconfiguration).
    pub preprocess_cycles: u64,
    /// Data-movement cycles on the critical path.
    pub data_movement_cycles: u64,
}

impl LatencyBreakdown {
    /// Critical-path total.
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.preprocess_cycles + self.data_movement_cycles
    }

    /// Fraction of total latency spent in data movement.
    pub fn data_movement_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.data_movement_cycles as f64 / t as f64
    }

    /// Accumulates another record.
    pub fn add(&mut self, other: &LatencyBreakdown) {
        self.compute_cycles += other.compute_cycles;
        self.preprocess_cycles += other.preprocess_cycles;
        self.data_movement_cycles += other.data_movement_cycles;
    }
}

/// Complete result of one simulation.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Simulated platform/configuration label.
    pub platform: String,
    /// Workload label (model name).
    pub workload: String,
    /// End-to-end cycles on the critical path.
    pub total_cycles: u64,
    /// Wall-clock latency in seconds at the configured frequency.
    pub latency_s: f64,
    /// Compute-phase cycle totals (not critical-path; for utilization).
    pub phases: PhaseCycles,
    /// Fig. 19-style latency decomposition.
    pub breakdown: LatencyBreakdown,
    /// Memory-traffic accounting.
    pub traffic: TrafficStats,
    /// Total MAC operations executed.
    pub macs: u64,
    /// Dynamic + static energy in joules.
    pub energy_j: f64,
    /// Average MAC-array utilization in [0, 1].
    pub utilization: f64,
}

/// Running cost totals of one simulated run on the ViTCoD hardware
/// budget (MAC lines, clock, DRAM, energy constants).
///
/// ViTCoD, SpAtten and Sanger each model their own attention core and
/// hand every layer of it to [`Self::add_layer`]; the dense layers
/// ([`Self::add_dense_layers`]) and the roll-up into a [`SimReport`]
/// ([`Self::report`]) are the same for all three, which is what makes
/// their comparison iso-resource. What the accelerators pass differs:
/// linear-layer utilization, reconfiguration cycles and MAC energy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// Critical-path cycles.
    pub cycles: u64,
    /// MAC operations executed.
    pub macs: u64,
    /// Compute-phase cycle totals.
    pub phases: PhaseCycles,
    /// Fig. 19-style latency decomposition.
    pub breakdown: LatencyBreakdown,
    /// Memory-traffic accounting.
    pub traffic: TrafficStats,
}

impl Costs {
    /// Accumulates another record.
    pub fn add(&mut self, other: &Costs) {
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.phases.add(&other.phases);
        self.breakdown.add(&other.breakdown);
        self.traffic.add(&other.traffic);
    }

    /// Adds one double-buffered layer and returns its cycles:
    /// `compute.max(memory) + preprocess`, the DRAM transfer hidden
    /// behind compute and the preprocessing (index loading, mask
    /// prediction, top-k ranking) exposed. The breakdown charges
    /// `compute` to computation and the exposed transfer plus half the
    /// overlapped one to data movement: the paper's Fig. 19 bar counts
    /// overlapped transfer time too.
    pub fn add_layer(&mut self, compute: u64, memory: u64, preprocess: u64) -> u64 {
        let cycles = compute.max(memory) + preprocess;
        self.cycles += cycles;
        self.breakdown.compute_cycles += compute;
        self.breakdown.preprocess_cycles += preprocess;
        self.breakdown.data_movement_cycles +=
            memory.saturating_sub(compute) + memory.min(compute) / 2;
        cycles
    }

    /// Adds the dense layers of `model` — Q/K/V generation, output
    /// projection and the two MLP matmuls of every block, over
    /// `tokens(stage, layer)` tokens — and the LeViT convolutional stem
    /// as a dense GEMM-equivalent workload.
    ///
    /// Weights stream from DRAM once per `weight_reuse_batch` images
    /// (costs are per image) while activations stay on chip; the GEMMs
    /// run at `linear_utilization` of the MAC array and each block pays
    /// `reconfig_cycles` after the overlap, charged to computation when
    /// compute-bound and to data movement otherwise.
    pub fn add_dense_layers(
        &mut self,
        cfg: &AcceleratorConfig,
        model: &ViTConfig,
        tokens: impl Fn(&StageConfig, usize) -> usize,
        linear_utilization: f64,
        reconfig_cycles: u64,
    ) {
        let (lines, mpl) = (cfg.mac_lines, cfg.macs_per_line);
        let dram = DramModel::new(cfg);
        for st in &model.stages {
            let d = st.dim;
            let hidden = d * model.mlp_ratio;
            for l in 0..st.depth {
                let n = tokens(st, l);
                let ideal = gemm_cycles(n, d, 4 * d, lines, mpl)
                    + gemm_cycles(n, hidden, d, lines, mpl)
                    + gemm_cycles(n, d, hidden, lines, mpl);
                let compute = (ideal as f64 / linear_utilization).ceil() as u64;
                let weight_bytes = ((4 * d * d + 2 * d * hidden) * cfg.bytes_per_elem) as u64
                    / cfg.weight_reuse_batch.max(1);
                let memory = dram.transfer_cycles(weight_bytes);
                let cycles = compute.max(memory) + reconfig_cycles;
                self.cycles += cycles;
                self.macs += (4 * n * d * d + 2 * n * d * hidden) as u64;
                self.phases.linear += compute;
                self.traffic.load(weight_bytes);
                self.breakdown.compute_cycles += compute;
                if compute >= memory {
                    self.breakdown.compute_cycles += reconfig_cycles;
                } else {
                    self.breakdown.data_movement_cycles += cycles - compute;
                }
            }
        }
        if model.stem_macs > 0 {
            let compute = model.stem_macs / (lines * mpl) as u64;
            self.cycles += compute;
            self.macs += model.stem_macs;
            self.phases.linear += compute;
            self.breakdown.compute_cycles += compute;
        }
    }

    /// Rolls the totals up into a report labelled `platform` and
    /// `"{model} [{kind}]"`: latency at `cfg`'s clock, energy from its
    /// [`crate::EnergyModel`] with each MAC costing `mac_energy_scale`
    /// times `mac_pj`, and utilization against its peak MAC rate.
    pub fn report(
        self,
        cfg: &AcceleratorConfig,
        platform: String,
        model: &str,
        kind: &str,
        mac_energy_scale: f64,
    ) -> SimReport {
        let latency_s = cfg.cycles_to_seconds(self.cycles);
        let e = &cfg.energy;
        let energy_j = self.macs as f64 * e.mac_pj * mac_energy_scale * 1e-12
            + self.traffic.sram_total() as f64 * e.sram_pj_per_byte * 1e-12
            + self.traffic.dram_total() as f64 * e.dram_pj_per_byte * 1e-12
            + e.static_watts * latency_s;
        let peak = cfg.peak_macs_per_sec() * latency_s;
        let utilization = if peak > 0.0 {
            (self.macs as f64 / peak).min(1.0)
        } else {
            0.0
        };
        SimReport {
            platform,
            workload: format!("{model} [{kind}]"),
            total_cycles: self.cycles,
            latency_s,
            phases: self.phases,
            breakdown: self.breakdown,
            traffic: self.traffic,
            macs: self.macs,
            energy_j,
            utilization,
        }
    }
}

impl SimReport {
    /// Speedup of `self` relative to `baseline` (>1 means `self` is
    /// faster).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.latency_s / self.latency_s
    }

    /// Energy efficiency (inferences per joule) relative to `baseline`.
    pub fn energy_efficiency_over(&self, baseline: &SimReport) -> f64 {
        baseline.energy_j / self.energy_j
    }

    /// Effective throughput in GOPS (MACs/s ÷ 1e9).
    pub fn effective_gops(&self) -> f64 {
        if self.latency_s == 0.0 {
            return 0.0;
        }
        self.macs as f64 / self.latency_s / 1e9
    }

    /// Arithmetic intensity seen at DRAM (MACs per DRAM byte).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.traffic.dram_total();
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.macs as f64 / bytes as f64
    }
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals_add_up() {
        let mut p = PhaseCycles {
            sddmm: 10,
            spmm: 20,
            softmax: 5,
            codec: 2,
            linear: 0,
        };
        assert_eq!(p.total(), 37);
        p.add(&PhaseCycles {
            linear: 3,
            ..Default::default()
        });
        assert_eq!(p.total(), 40);
    }

    #[test]
    fn breakdown_fractions() {
        let b = LatencyBreakdown {
            compute_cycles: 50,
            preprocess_cycles: 10,
            data_movement_cycles: 40,
        };
        assert_eq!(b.total(), 100);
        assert!((b.data_movement_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(LatencyBreakdown::default().data_movement_fraction(), 0.0);
    }

    #[test]
    fn layer_overlaps_memory_with_compute_and_exposes_preprocess() {
        // (compute, memory, preprocess) → (cycles, data movement): the
        // exposed transfer plus half the overlapped one.
        let cases = [
            ((100, 60, 0), (100, 30)), // compute-bound
            ((100, 60, 7), (107, 30)),
            ((40, 100, 0), (100, 60 + 20)), // memory-bound
            ((40, 100, 5), (105, 60 + 20)),
        ];
        let mut total = Costs::default();
        for ((compute, memory, preprocess), (cycles, moved)) in cases {
            let mut layer = Costs::default();
            assert_eq!(layer.add_layer(compute, memory, preprocess), cycles);
            let expected = LatencyBreakdown {
                compute_cycles: compute,
                preprocess_cycles: preprocess,
                data_movement_cycles: moved,
            };
            assert_eq!(layer.breakdown, expected);
            assert_eq!(layer.cycles, cycles);
            assert_eq!((layer.macs, layer.phases), (0, PhaseCycles::default()));
            total.add_layer(compute, memory, preprocess);
        }
        assert_eq!(total.cycles, 100 + 107 + 100 + 105);
        assert_eq!(total.breakdown.compute_cycles, 280);
        assert_eq!(total.breakdown.preprocess_cycles, 12);
        assert_eq!(total.breakdown.data_movement_cycles, 220);
    }

    #[test]
    fn speedup_and_efficiency() {
        let fast = SimReport {
            latency_s: 1e-3,
            energy_j: 0.5,
            ..Default::default()
        };
        let slow = SimReport {
            latency_s: 1e-2,
            energy_j: 5.0,
            ..Default::default()
        };
        assert!((fast.speedup_over(&slow) - 10.0).abs() < 1e-9);
        assert!((fast.energy_efficiency_over(&slow) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn gops_and_intensity() {
        let r = SimReport {
            latency_s: 1.0,
            macs: 2_000_000_000,
            traffic: TrafficStats {
                dram_read_bytes: 1_000_000_000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((r.effective_gops() - 2.0).abs() < 1e-9);
        assert!((r.arithmetic_intensity() - 2.0).abs() < 1e-9);
    }
}
