//! The top-level ViTCoD accelerator simulation loop.

use vitcod_core::{AcceleratorProgram, LayerProgram};
use vitcod_model::ViTConfig;

use crate::config::AcceleratorConfig;
use crate::engines::{
    denser_sddmm_cycles, denser_spmm_cycles, softmax_cycles, sparser_sddmm_cycles,
    sparser_spmm_cycles,
};
use crate::memory::{DramModel, TrafficStats};
use crate::report::{Costs, PhaseCycles, SimReport};

/// Fixed reconfiguration cost when an engine switches between inter-PE
/// (SDDMM) and intra-PE (SpMM) accumulation modes, per layer.
const RECONFIG_CYCLES: u64 = 16;

/// Dense-layer utilization of the reconfigured MAC lines: the reference
/// the baselines' attention-specialised datapaths are measured against.
const LINEAR_UTILIZATION: f64 = 1.0;

/// Energy per MAC in units of [`crate::EnergyModel::mac_pj`].
const MAC_ENERGY_SCALE: f64 = 1.0;

/// Bytes per CSC index entry (u16 row indices / column pointers — 197
/// tokens need 8 bits, but the hardware provisions 16).
const INDEX_BYTES: u64 = 2;

/// Simulator of the ViTCoD accelerator.
///
/// See the [crate-level documentation](crate) for the modelled
/// micro-architecture and an end-to-end example.
#[derive(Debug, Clone)]
pub struct ViTCoDAccelerator {
    cfg: AcceleratorConfig,
    dram: DramModel,
}

impl ViTCoDAccelerator {
    /// Creates a simulator for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has fewer than two MAC lines or no MACs per line:
    /// each of the two engines needs a line, or its work is dropped.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        assert!(
            cfg.mac_lines >= 2 && cfg.macs_per_line > 0,
            "each of the two engines needs a MAC line: got {} lines of {} MACs",
            cfg.mac_lines,
            cfg.macs_per_line
        );
        let dram = DramModel::new(&cfg);
        Self { cfg, dram }
    }

    /// The hardware configuration being simulated.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Simulates the attention core (SDDMM + softmax + SpMM, paper's
    /// "core attention" workload) of `program`.
    pub fn simulate_attention(&self, program: &AcceleratorProgram) -> SimReport {
        self.simulate_attention_traced(program).0
    }

    /// Like [`Self::simulate_attention`] but also returns the per-layer
    /// [`crate::ExecutionTrace`] for timeline inspection.
    pub fn simulate_attention_traced(
        &self,
        program: &AcceleratorProgram,
    ) -> (SimReport, crate::ExecutionTrace) {
        let (costs, exec) = self.attention_costs(program);
        (self.report(costs, program, "core-attention"), exec)
    }

    /// Simulates the attention core of the *whole model*: the compiled
    /// primary stage exactly, plus any further pyramid stages (LeViT)
    /// scaled by their dense attention-MAC share at the same sparsity.
    pub fn simulate_attention_scaled(
        &self,
        program: &AcceleratorProgram,
        model: &ViTConfig,
    ) -> SimReport {
        let costs = self.scaled_attention_costs(program, model);
        self.report(costs, program, "core-attention")
    }

    /// Simulates the full model: linear layers (Q/K/V generation, output
    /// projection, MLPs, LeViT stem) on the reconfigured MAC lines plus
    /// the attention core of every stage.
    pub fn simulate_end_to_end(
        &self,
        program: &AcceleratorProgram,
        model: &ViTConfig,
    ) -> SimReport {
        let mut costs = self.scaled_attention_costs(program, model);
        costs.add_dense_layers(
            &self.cfg,
            model,
            |st, _| st.tokens,
            LINEAR_UTILIZATION,
            RECONFIG_CYCLES,
        );
        self.report(costs, program, "end-to-end")
    }

    /// The compiled program's attention layers, simulated one after the
    /// other in layer order (each layer internally aggregates its
    /// (layer, head) pair workloads for the engines' PE allocation).
    fn attention_costs(&self, program: &AcceleratorProgram) -> (Costs, crate::ExecutionTrace) {
        let mut costs = Costs::default();
        let mut exec = crate::ExecutionTrace::default();
        for layer in &program.layers {
            let (layer_costs, trace) = self.simulate_attention_layer(program, layer);
            costs.add(&layer_costs);
            exec.layers.push(trace);
        }
        (costs, exec)
    }

    /// [`Self::attention_costs`] plus the further pyramid stages, each
    /// scaled by its attention-MAC share of the primary stage.
    fn scaled_attention_costs(&self, program: &AcceleratorProgram, model: &ViTConfig) -> Costs {
        let (primary_costs, _) = self.attention_costs(program);
        let mut costs = primary_costs;
        let primary = &model.stages[0];
        let primary_attn_macs =
            (primary.depth * 2 * primary.tokens * primary.tokens * primary.dim) as u64;
        for st in model.stages.iter().skip(1) {
            let st_macs = (st.depth * 2 * st.tokens * st.tokens * st.dim) as u64;
            let scale = st_macs as f64 / primary_attn_macs.max(1) as f64;
            let scaled = |x: u64| x as f64 * scale;
            costs.cycles += scaled(primary_costs.cycles).round() as u64;
            costs.breakdown.compute_cycles += scaled(primary_costs.breakdown.compute_cycles) as u64;
            costs.breakdown.data_movement_cycles +=
                scaled(primary_costs.breakdown.data_movement_cycles) as u64;
            costs.phases.sddmm += scaled(primary_costs.phases.sddmm) as u64;
            costs.phases.spmm += scaled(primary_costs.phases.spmm) as u64;
            costs.macs += scaled(primary_costs.macs) as u64;
        }
        costs
    }

    /// One attention layer: dynamic PE allocation, the two engines in
    /// parallel, softmax, AE codec, and the double-buffered composition
    /// with DRAM traffic.
    fn simulate_attention_layer(
        &self,
        program: &AcceleratorProgram,
        layer: &LayerProgram,
    ) -> (Costs, crate::LayerTrace) {
        let lines = self.cfg.mac_lines;
        let mpl = self.cfg.macs_per_line;
        let n = program.tokens;
        let dk = program.head_dim;
        let bytes = self.cfg.bytes_per_elem as u64;

        // Dynamic PE allocation proportional to workload size (Sec. V-B),
        // aggregated over the layer's heads.
        let denser_work: u64 = layer
            .heads
            .iter()
            .map(|h| h.sddmm_denser_macs() + h.spmm_denser_macs())
            .sum();
        let sparser_work: u64 = layer
            .heads
            .iter()
            .map(|h| h.sddmm_sparser_macs() + h.spmm_sparser_macs())
            .sum();
        let (denser_lines, sparser_lines) = match self.cfg.pe_allocation {
            crate::config::PeAllocation::DynamicProportional => {
                allocate_lines(lines, denser_work, sparser_work)
            }
            crate::config::PeAllocation::StaticEven => {
                if denser_work == 0 {
                    (0, lines)
                } else if sparser_work == 0 {
                    (lines, 0)
                } else {
                    (lines / 2, lines - lines / 2)
                }
            }
        };

        // Engine scheduling: heads run in parallel across each engine's
        // MAC lines, each head receiving lines proportional to its
        // workload ("all attention heads are processed in parallel",
        // with "each PE line ... dedicated to the computation of one
        // chunk", Sec. V-B); with fewer lines than active heads, heads
        // serialise over the whole engine.
        let mut sddmm = 0u64;
        let mut spmm = 0u64;
        let mut nnz_total = 0usize;
        for h in &layer.heads {
            nnz_total += h.denser_nnz + h.sparser_nnz;
        }

        let denser_works: Vec<u64> = layer
            .heads
            .iter()
            .map(|h| (n * h.num_global + h.denser_nnz) as u64)
            .collect();
        let denser_alloc = proportional_lines(&denser_works, denser_lines);
        let sparser_works: Vec<u64> = layer.heads.iter().map(|h| h.sparser_nnz as u64).collect();
        let sparser_alloc = proportional_lines(&sparser_works, sparser_lines);

        let mut denser_cycles = 0u64;
        let mut sparser_cycles = 0u64;
        for (h_idx, h) in layer.heads.iter().enumerate() {
            // An engine with no lines allocates none to any head.
            let l = if denser_alloc.parallel {
                denser_alloc.per_head[h_idx]
            } else {
                denser_lines
            };
            if l > 0 {
                let ds = denser_sddmm_cycles(n, h.num_global, dk, l, mpl);
                let dp = denser_spmm_cycles(h.denser_nnz, dk, l, mpl);
                if denser_alloc.parallel {
                    denser_cycles = denser_cycles.max(ds + dp);
                } else {
                    denser_cycles += ds + dp;
                }
                sddmm += ds;
                spmm += dp;
            }
            let l = if sparser_alloc.parallel {
                sparser_alloc.per_head[h_idx]
            } else {
                sparser_lines
            };
            if l > 0 {
                let ss = sparser_sddmm_cycles(&h.sparser_col_nnz, dk, l, mpl);
                let sp = sparser_spmm_cycles(&h.sparser_col_nnz, dk, l, mpl);
                if sparser_alloc.parallel {
                    sparser_cycles = sparser_cycles.max(ss + sp);
                } else {
                    sparser_cycles += ss + sp;
                }
                sddmm += ss;
                spmm += sp;
            }
        }
        let softmax = softmax_cycles(nnz_total, lines);
        // The engines run concurrently; softmax is pipelined behind the
        // slower engine but exposed at the tail.
        let compute = denser_cycles.max(sparser_cycles) + softmax;

        // DRAM traffic. This is where the paper's roofline story lives
        // (Fig. 3): the diagonal-heavy sparser residue offers almost no
        // reuse of loaded Q vectors — computing one attention score
        // needs a full Q and K vector, and with the non-zeros scattered
        // along the diagonal each loaded Q serves only a handful of
        // scores. The model:
        //  * K is the stationary operand: streamed once per column that
        //    owns work (both engines);
        //  * the denser engine streams Q once per K tile, where tiling
        //    is forced by the per-head share of the activation buffer
        //    (all heads execute in parallel and share it);
        //  * the sparser engine fetches Q per kept score, except when
        //    query-based forwarding hits the denser engine's Q buffer
        //    (paper Sec. V-B (2); modelled as a 50 % on-demand hit rate
        //    whenever the head has a denser block resident);
        //  * the AE compresses every Q/K byte crossing the DRAM
        //    boundary by its head-compression ratio, decoded on chip.
        const FORWARD_HIT_RATE: f64 = 0.5;
        /// Scattered 64-byte vector fetches achieve a fraction of the
        /// DDR4 burst bandwidth (row-activation and short-burst
        /// penalties); sequential streams run at full rate.
        const SCATTER_BUS_PENALTY: f64 = 4.0;
        let d_model = (program.heads * dk) as u64;
        let head_vec_bytes = (n * dk) as u64 * bytes; // one head's Q (or K) matrix
        let buffer_share = (self.cfg.sram.act_buffer_bytes / program.heads.max(1)) as u64;
        let mut seq_bytes = 0u64; // streamed at full bandwidth
        let mut scattered_bytes = 0u64; // per-score vector gathers
        match program.auto_encoder {
            Some(ae) => {
                // With the AE, compressed Q and K fit the per-head
                // buffer share and stay resident for the whole layer:
                // one sequential (compressed) load each, no refetches.
                let compressed = (head_vec_bytes as f64 * ae.ratio()).round() as u64;
                seq_bytes += 2 * compressed * layer.heads.len() as u64;
            }
            None => {
                // The activation buffer is shared by all parallel heads
                // and the four operand classes (Q, K, V, S); the slice
                // available for caching one head's Q vectors is
                // therefore small, and only the non-resident fraction
                // of Q touches DRAM per score.
                let q_budget = (self.cfg.sram.act_buffer_bytes / (4 * program.heads.max(1))) as u64;
                let q_resident = (q_budget as f64 / head_vec_bytes.max(1) as f64).min(1.0);
                let miss = 1.0 - q_resident;
                for h in &layer.heads {
                    // K is the stationary operand: streamed once.
                    seq_bytes += head_vec_bytes;
                    if h.num_global > 0 {
                        // Denser engine: Q re-streamed once per K tile
                        // (tiling forced by the shared buffer).
                        let k_block_bytes = (h.num_global * dk) as u64 * bytes;
                        let k_tile = (buffer_share / 2).max(1);
                        let tiles = k_block_bytes.div_ceil(k_tile).max(1);
                        seq_bytes += head_vec_bytes * tiles;
                        // Sparser engine: per-score Q gathers for the
                        // non-resident fraction, minus query-based
                        // forwarding hits.
                        scattered_bytes += ((h.sparser_nnz * dk) as f64
                            * bytes as f64
                            * (1.0 - FORWARD_HIT_RATE)
                            * miss) as u64;
                    } else {
                        // No denser block: no forwarding source; every
                        // kept score of a non-resident Q gathers its
                        // own vector.
                        scattered_bytes += (((h.sparser_nnz + h.denser_nnz) * dk) as f64
                            * bytes as f64
                            * miss) as u64;
                    }
                }
            }
        }
        let v_bytes = n as u64 * d_model * bytes;
        let out_bytes = n as u64 * d_model * bytes;
        let qk_bytes = seq_bytes + scattered_bytes;
        let mut traffic = TrafficStats::new();
        traffic.load(qk_bytes + v_bytes);
        traffic.store(out_bytes);
        // On-chip operand reuse: each MAC reads two operands per cycle
        // equivalent; charge one SRAM read per MAC input pair byte.
        let layer_macs = denser_work + sparser_work;
        traffic.on_chip(2 * layer_macs * bytes);

        let index_entries: u64 = layer
            .heads
            .iter()
            .map(|h| (h.sparser_nnz + n + 1) as u64)
            .sum();
        let index_bytes = index_entries * INDEX_BYTES;
        traffic.load(index_bytes);

        // AE decoder: recovers Q/K while they stream in; pipelined with
        // the transfer, so it extends the memory phase only if slower.
        let codec_cycles = match program.auto_encoder {
            Some(ae) => {
                let codec_macs = 2
                    * (n as u64)
                    * (dk as u64)
                    * (ae.heads() as u64)
                    * (ae.compressed_heads() as u64);
                codec_macs.div_ceil((lines * mpl) as u64)
            }
            None => 0,
        };

        // Bus occupancy: sequential streams at full rate, scattered
        // gathers at the derated burst efficiency.
        let effective_bus_bytes =
            seq_bytes + v_bytes + out_bytes + (scattered_bytes as f64 * SCATTER_BUS_PENALTY) as u64;
        let data_cycles = self.dram.transfer_cycles(effective_bus_bytes);
        let mem_phase = data_cycles.max(codec_cycles);
        let preprocess = self.dram.transfer_cycles(index_bytes) + RECONFIG_CYCLES;

        let mut costs = Costs {
            macs: layer_macs + codec_cycles * (lines * mpl) as u64,
            phases: PhaseCycles {
                sddmm,
                spmm,
                softmax,
                codec: codec_cycles,
                linear: 0,
            },
            traffic,
            ..Costs::default()
        };
        let cycles = costs.add_layer(compute, mem_phase, preprocess);
        let trace = crate::LayerTrace {
            layer: layer.layer,
            denser_cycles,
            sparser_cycles,
            softmax_cycles: softmax,
            codec_cycles,
            memory_cycles: data_cycles,
            preprocess_cycles: preprocess,
            total_cycles: cycles,
            denser_lines,
            sparser_lines,
        };
        (costs, trace)
    }

    fn report(&self, costs: Costs, program: &AcceleratorProgram, kind: &str) -> SimReport {
        let platform = format!("ViTCoD({} lines)", self.cfg.mac_lines);
        costs.report(&self.cfg, platform, &program.model, kind, MAC_ENERGY_SCALE)
    }
}

/// Per-head line assignment inside one engine.
struct HeadAllocation {
    /// `true`: heads run concurrently with `per_head` lines each;
    /// `false`: heads serialise, each using the whole engine.
    parallel: bool,
    per_head: Vec<usize>,
}

/// Distributes `total` lines across heads proportionally to their work,
/// granting every active head at least one line. Falls back to serial
/// execution when there are fewer lines than active heads.
fn proportional_lines(works: &[u64], total: usize) -> HeadAllocation {
    let active = works.iter().filter(|&&w| w > 0).count();
    if total == 0 || active == 0 {
        return HeadAllocation {
            parallel: false,
            per_head: vec![0; works.len()],
        };
    }
    if total < active {
        return HeadAllocation {
            parallel: false,
            per_head: vec![total; works.len()],
        };
    }
    let sum: u64 = works.iter().sum();
    let mut per_head: Vec<usize> = works
        .iter()
        .map(|&w| {
            if w == 0 {
                0
            } else {
                (((w as f64 / sum as f64) * total as f64).floor() as usize).max(1)
            }
        })
        .collect();
    // Hand out any remaining lines to the heaviest heads.
    let mut used: usize = per_head.iter().sum();
    while used < total {
        let (idx, _) = works
            .iter()
            .enumerate()
            .filter(|(i, &w)| w > 0 && per_head[*i] > 0)
            .max_by_key(|(i, &w)| w / per_head[*i].max(1) as u64)
            .map(|(i, w)| (i, *w))
            .unwrap_or((0, 0));
        per_head[idx] += 1;
        used += 1;
    }
    // Trim if the floor+min(1) overshot (many tiny heads).
    while used > total {
        if let Some((idx, _)) = per_head
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 1)
            .min_by_key(|(i, _)| works[*i])
        {
            per_head[idx] -= 1;
            used -= 1;
        } else {
            break;
        }
    }
    HeadAllocation {
        parallel: true,
        per_head,
    }
}

/// Splits `total` MAC lines proportionally to the two engines' workloads,
/// guaranteeing each engine with non-zero work at least one line (the
/// Sec. V-B PE split; [`ViTCoDAccelerator::new`] ensures `total >= 2`).
fn allocate_lines(total: usize, denser_work: u64, sparser_work: u64) -> (usize, usize) {
    let sum = denser_work + sparser_work;
    if sum == 0 {
        return (total, 0);
    }
    if denser_work == 0 {
        return (0, total);
    }
    if sparser_work == 0 {
        return (total, 0);
    }
    let mut denser = ((denser_work as f64 / sum as f64) * total as f64).round() as usize;
    denser = denser.clamp(1, total - 1);
    (denser, total - denser)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_core::{compile_model, AutoEncoderConfig, SplitConquer, SplitConquerConfig};
    use vitcod_model::AttentionStats;

    fn program(sparsity: f64, ae: bool) -> AcceleratorProgram {
        let cfg = ViTConfig::deit_tiny();
        let stats = AttentionStats::for_model(&cfg, 5);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(sparsity));
        let ae_cfg = ae.then(|| AutoEncoderConfig::half(cfg.heads));
        compile_model(&cfg, &sc.apply(&stats.maps), ae_cfg)
    }

    fn sim() -> ViTCoDAccelerator {
        ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper())
    }

    #[test]
    fn higher_sparsity_is_faster() {
        let s = sim();
        let r60 = s.simulate_attention(&program(0.6, false));
        let r90 = s.simulate_attention(&program(0.9, false));
        assert!(
            r90.total_cycles < r60.total_cycles,
            "90% ({}) should beat 60% ({})",
            r90.total_cycles,
            r60.total_cycles
        );
    }

    #[test]
    fn ae_reduces_dram_traffic() {
        let s = sim();
        let without = s.simulate_attention(&program(0.9, false));
        let with = s.simulate_attention(&program(0.9, true));
        assert!(
            with.traffic.dram_read_bytes < without.traffic.dram_read_bytes,
            "AE must shrink Q/K loads"
        );
        assert!(with.phases.codec > 0);
        assert_eq!(without.phases.codec, 0);
    }

    #[test]
    fn ae_improves_latency_on_bandwidth_bound_sparse_workloads() {
        let s = sim();
        let without = s.simulate_attention(&program(0.9, false));
        let with = s.simulate_attention(&program(0.9, true));
        assert!(
            with.total_cycles <= without.total_cycles,
            "AE {} vs no-AE {}",
            with.total_cycles,
            without.total_cycles
        );
    }

    #[test]
    fn end_to_end_includes_linear_layers() {
        let s = sim();
        let p = program(0.9, false);
        let attn = s.simulate_attention(&p);
        let e2e = s.simulate_end_to_end(&p, &ViTConfig::deit_tiny());
        assert!(e2e.total_cycles > attn.total_cycles);
        assert!(e2e.phases.linear > 0);
        assert!(e2e.macs > attn.macs);
    }

    #[test]
    fn levit_end_to_end_covers_stages_and_stem() {
        let s = sim();
        let cfg = ViTConfig::levit_128();
        let stats = AttentionStats::for_model(&cfg, 6);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.8));
        let p = compile_model(&cfg, &sc.apply(&stats.maps), None);
        let e2e = s.simulate_end_to_end(&p, &cfg);
        assert!(e2e.total_cycles > 0);
        assert!(e2e.phases.linear > 0);
    }

    #[test]
    fn energy_positive_and_dominated_by_memory_for_sparse() {
        let s = sim();
        let r = s.simulate_attention(&program(0.9, false));
        assert!(r.energy_j > 0.0);
        let mac_energy = r.macs as f64 * 0.3e-12;
        assert!(r.energy_j > mac_energy, "memory energy must contribute");
    }

    #[test]
    fn utilization_within_bounds() {
        let s = sim();
        for sp in [0.6, 0.9] {
            let r = s.simulate_attention(&program(sp, false));
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        }
    }

    #[test]
    fn allocate_lines_edge_cases() {
        assert_eq!(allocate_lines(64, 0, 0), (64, 0));
        assert_eq!(allocate_lines(64, 10, 0), (64, 0));
        assert_eq!(allocate_lines(64, 0, 10), (0, 64));
        let (d, s) = allocate_lines(64, 100, 100);
        assert_eq!(d + s, 64);
        assert!(d >= 1 && s >= 1);
        let (d2, _) = allocate_lines(2, 1_000_000, 1);
        assert_eq!(d2, 1, "clamped to leave one line for the sparser engine");
        // Proportional to the work: the heavier engine gets more lines.
        let (d3, s3) = allocate_lines(64, 4000, 100);
        assert!(d3 > s3, "dense-heavy split favours the denser engine");
        let (d4, s4) = allocate_lines(64, 100, 4000);
        assert!(s4 > d4, "sparse-heavy split favours the sparser engine");
    }

    #[test]
    #[should_panic(expected = "each of the two engines needs a MAC line: got 1 lines")]
    fn one_line_is_rejected() {
        ViTCoDAccelerator::new(AcceleratorConfig {
            mac_lines: 1,
            ..AcceleratorConfig::vitcod_paper()
        });
    }

    #[test]
    #[should_panic(expected = "each of the two engines needs a MAC line: got 64 lines of 0 MACs")]
    fn lines_without_macs_are_rejected() {
        ViTCoDAccelerator::new(AcceleratorConfig {
            macs_per_line: 0,
            ..AcceleratorConfig::vitcod_paper()
        });
    }

    #[test]
    fn scaled_hardware_is_faster() {
        let base = sim().simulate_attention(&program(0.9, false));
        let big = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper().scaled(4))
            .simulate_attention(&program(0.9, false));
        assert!(big.total_cycles < base.total_cycles);
    }

    #[test]
    fn larger_weight_reuse_batch_speeds_up_end_to_end() {
        let p = program(0.9, false);
        let model = ViTConfig::deit_tiny();
        let slow = ViTCoDAccelerator::new(AcceleratorConfig {
            weight_reuse_batch: 1,
            ..AcceleratorConfig::vitcod_paper()
        })
        .simulate_end_to_end(&p, &model);
        let fast = ViTCoDAccelerator::new(AcceleratorConfig {
            weight_reuse_batch: 16,
            ..AcceleratorConfig::vitcod_paper()
        })
        .simulate_end_to_end(&p, &model);
        // DeiT-Tiny's GEMMs are compute-bound on this array, so latency
        // may not move, but weight traffic must shrink with reuse.
        assert!(fast.total_cycles <= slow.total_cycles);
        assert!(fast.traffic.dram_total() < slow.traffic.dram_total());
    }

    #[test]
    fn static_even_allocation_never_beats_dynamic() {
        let p = program(0.9, true);
        let model = ViTConfig::deit_tiny();
        let dynamic = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper())
            .simulate_attention_scaled(&p, &model);
        let even = ViTCoDAccelerator::new(AcceleratorConfig {
            pe_allocation: crate::PeAllocation::StaticEven,
            ..AcceleratorConfig::vitcod_paper()
        })
        .simulate_attention_scaled(&p, &model);
        assert!(dynamic.total_cycles <= even.total_cycles);
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        let p = program(0.9, true);
        let s = sim();
        let (traced, trace) = s.simulate_attention_traced(&p);
        let plain = s.simulate_attention(&p);
        assert_eq!(traced.total_cycles, plain.total_cycles);
        assert_eq!(trace.layers.len(), p.layers.len());
        assert_eq!(trace.total_cycles(), plain.total_cycles);
        // Line allocations recorded per layer sum to the array width.
        for l in &trace.layers {
            assert_eq!(l.denser_lines + l.sparser_lines, 64);
        }
    }

    #[test]
    fn report_labels_are_informative() {
        let r = sim().simulate_attention(&program(0.9, false));
        assert!(r.platform.contains("ViTCoD"));
        assert!(r.workload.contains("DeiT-Tiny"));
    }
}
