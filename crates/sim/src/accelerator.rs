//! The top-level ViTCoD accelerator simulation loop.

use vitcod_core::{AcceleratorProgram, LayerProgram};
use vitcod_model::ViTConfig;

use crate::config::AcceleratorConfig;
use crate::engines::{
    denser_sddmm_cycles, denser_spmm_cycles, gemm_cycles, softmax_cycles, sparser_sddmm_cycles,
    sparser_spmm_cycles,
};
use crate::memory::{DramModel, TrafficStats};
use crate::report::{LatencyBreakdown, PhaseCycles, SimReport};

/// Fixed reconfiguration cost when an engine switches between inter-PE
/// (SDDMM) and intra-PE (SpMM) accumulation modes, per layer.
const RECONFIG_CYCLES: u64 = 16;

/// Bytes per CSC index entry (u16 row indices / column pointers — 197
/// tokens need 8 bits, but the hardware provisions 16).
const INDEX_BYTES: u64 = 2;

/// Minimum number of heads in a layer before the per-head engine cycle
/// models fan out across worker threads. Each head's model is a cheap
/// pass over its CSC column counts, so the fan-out only pays off for
/// wide layers (DeiT-Base-class, 12 heads); DeiT-Tiny's 3 heads stay on
/// the sequential walk.
const HEAD_FANOUT_MIN: usize = 4;

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
    pub fn new(cfg: AcceleratorConfig) -> Self {
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
    ///
    /// Layers are embarrassingly parallel — each one's cycle model only
    /// reads the shared program — so the per-layer simulations fan out
    /// across worker threads via the kernel layer's `par_map_collect`
    /// (each layer internally aggregates its (layer, head) pair
    /// workloads for the engines' PE allocation). The reduction over the
    /// returned per-layer results stays sequential and in layer order,
    /// so cycle counts are identical to the sequential walk regardless
    /// of the thread count — a test pins this.
    pub fn simulate_attention_traced(
        &self,
        program: &AcceleratorProgram,
    ) -> (SimReport, crate::ExecutionTrace) {
        let mut phases = PhaseCycles::default();
        let mut breakdown = LatencyBreakdown::default();
        let mut traffic = TrafficStats::new();
        let mut total_cycles = 0u64;
        let mut macs = 0u64;
        let mut exec = crate::ExecutionTrace::default();

        // Work estimate per layer: one pass over every head's CSC
        // column counts plus the fixed per-head engine bookkeeping.
        let work_per_layer = program
            .layers
            .first()
            .map(|l| l.heads.iter().map(|h| h.sparser_col_nnz.len() + 64).sum())
            .unwrap_or(1);
        let results =
            vitcod_tensor::kernels::par_map_collect(program.layers.len(), work_per_layer, |i| {
                self.simulate_attention_layer(program, &program.layers[i])
            });
        for r in results {
            phases.add(&r.phases);
            breakdown.add(&r.breakdown);
            traffic.add(&r.traffic);
            total_cycles += r.cycles;
            macs += r.macs;
            exec.layers.push(r.trace);
        }

        let report = self.finish_report(
            program,
            "core-attention",
            total_cycles,
            phases,
            breakdown,
            traffic,
            macs,
        );
        (report, exec)
    }

    /// Simulates the attention core of the *whole model*: the compiled
    /// primary stage exactly, plus any further pyramid stages (LeViT)
    /// scaled by their dense attention-MAC share at the same sparsity.
    pub fn simulate_attention_scaled(
        &self,
        program: &AcceleratorProgram,
        model: &ViTConfig,
    ) -> SimReport {
        let attention = self.simulate_attention(program);
        let mut phases = attention.phases;
        let mut breakdown = attention.breakdown;
        let traffic = attention.traffic;
        let mut macs = attention.macs;
        let mut total_cycles = attention.total_cycles;

        let primary = &model.stages[0];
        let primary_attn_macs =
            (primary.depth * 2 * primary.tokens * primary.tokens * primary.dim) as u64;
        for st in model.stages.iter().skip(1) {
            let st_macs = (st.depth * 2 * st.tokens * st.tokens * st.dim) as u64;
            let scale = st_macs as f64 / primary_attn_macs.max(1) as f64;
            total_cycles += (attention.total_cycles as f64 * scale).round() as u64;
            breakdown.compute_cycles += (attention.breakdown.compute_cycles as f64 * scale) as u64;
            breakdown.data_movement_cycles +=
                (attention.breakdown.data_movement_cycles as f64 * scale) as u64;
            phases.sddmm += (attention.phases.sddmm as f64 * scale) as u64;
            phases.spmm += (attention.phases.spmm as f64 * scale) as u64;
            macs += (attention.macs as f64 * scale) as u64;
        }
        self.finish_report(
            program,
            "core-attention",
            total_cycles,
            phases,
            breakdown,
            traffic,
            macs,
        )
    }

    /// Simulates the full model: linear layers (Q/K/V generation, output
    /// projection, MLPs, LeViT stem) on the reconfigured MAC lines plus
    /// the attention core of every stage.
    pub fn simulate_end_to_end(
        &self,
        program: &AcceleratorProgram,
        model: &ViTConfig,
    ) -> SimReport {
        let attention = self.simulate_attention_scaled(program, model);

        let mut phases = attention.phases;
        let mut breakdown = attention.breakdown;
        let mut traffic = attention.traffic;
        let mut macs = attention.macs;
        let mut total_cycles = attention.total_cycles;

        // Dense linear layers of every stage.
        let lines = self.cfg.mac_lines;
        let mpl = self.cfg.macs_per_line;
        let bytes = self.cfg.bytes_per_elem as u64;
        for st in &model.stages {
            let (n, d) = (st.tokens, st.dim);
            let hidden = d * model.mlp_ratio;
            for _ in 0..st.depth {
                // Q/K/V generation + output projection + two MLP matmuls.
                let layer_macs = (4 * n * d * d + 2 * n * d * hidden) as u64;
                let compute = gemm_cycles(n, d, 4 * d, lines, mpl)
                    + gemm_cycles(n, hidden, d, lines, mpl)
                    + gemm_cycles(n, d, hidden, lines, mpl);
                // Weights stream from DRAM once per batch; activations
                // stay on chip. Costs are per image.
                let weight_bytes = ((4 * d * d + 2 * d * hidden) as u64) * bytes
                    / self.cfg.weight_reuse_batch.max(1);
                let mem = self.dram.transfer_cycles(weight_bytes);
                let cycles = compute.max(mem) + RECONFIG_CYCLES;
                total_cycles += cycles;
                phases.linear += compute;
                macs += layer_macs;
                traffic.load(weight_bytes);
                if compute >= mem {
                    breakdown.compute_cycles += cycles;
                } else {
                    breakdown.compute_cycles += compute;
                    breakdown.data_movement_cycles += cycles - compute;
                }
            }
        }
        // LeViT convolutional stem as a dense GEMM-equivalent workload.
        if model.stem_macs > 0 {
            let compute = model.stem_macs / (lines * mpl) as u64;
            total_cycles += compute;
            phases.linear += compute;
            macs += model.stem_macs;
            breakdown.compute_cycles += compute;
        }

        self.finish_report(
            program,
            "end-to-end",
            total_cycles,
            phases,
            breakdown,
            traffic,
            macs,
        )
    }

    /// One attention layer: dynamic PE allocation, the two engines in
    /// parallel, softmax, AE codec, and the double-buffered composition
    /// with DRAM traffic.
    fn simulate_attention_layer(
        &self,
        program: &AcceleratorProgram,
        layer: &LayerProgram,
    ) -> LayerResult {
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

        // Per-head cycle models are pure functions of the program, so
        // wide layers fan them out across worker threads; the reductions
        // below stay sequential and in head order, keeping the counts
        // identical to the sequential walk (the pinning test covers
        // this). `None` marks a head the engine does not run.
        let head_model = |h_idx: usize| -> (EngineHeadCycles, EngineHeadCycles) {
            let h = &layer.heads[h_idx];
            let denser = (denser_lines > 0)
                .then(|| {
                    let l = if denser_alloc.parallel {
                        denser_alloc.per_head[h_idx]
                    } else {
                        denser_lines
                    };
                    (l > 0).then(|| {
                        (
                            denser_sddmm_cycles(n, h.num_global, dk, l, mpl),
                            denser_spmm_cycles(h.denser_nnz, dk, l, mpl),
                        )
                    })
                })
                .flatten();
            let sparser = (sparser_lines > 0)
                .then(|| {
                    let l = if sparser_alloc.parallel {
                        sparser_alloc.per_head[h_idx]
                    } else {
                        sparser_lines
                    };
                    (l > 0).then(|| {
                        (
                            sparser_sddmm_cycles(&h.sparser_col_nnz, dk, l, mpl),
                            sparser_spmm_cycles(&h.sparser_col_nnz, dk, l, mpl),
                        )
                    })
                })
                .flatten();
            (denser, sparser)
        };
        let head_count = layer.heads.len();
        let per_head_models: Vec<_> = if head_count >= HEAD_FANOUT_MIN {
            let work = layer
                .heads
                .iter()
                .map(|h| h.sparser_col_nnz.len() + 64)
                .max()
                .unwrap_or(64);
            vitcod_tensor::kernels::par_map_collect(head_count, work, head_model)
        } else {
            (0..head_count).map(head_model).collect()
        };

        let mut denser_cycles = 0u64;
        let mut sparser_cycles = 0u64;
        for (denser, sparser) in per_head_models {
            if let Some((ds, dp)) = denser {
                if denser_alloc.parallel {
                    denser_cycles = denser_cycles.max(ds + dp);
                } else {
                    denser_cycles += ds + dp;
                }
                sddmm += ds;
                spmm += dp;
            }
            if let Some((ss, sp)) = sparser {
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

        // Double-buffered compute/memory overlap.
        let cycles = compute.max(mem_phase) + preprocess;

        let mut breakdown = LatencyBreakdown {
            preprocess_cycles: preprocess,
            ..Default::default()
        };
        if compute >= mem_phase {
            breakdown.compute_cycles = compute;
        } else {
            breakdown.compute_cycles = compute;
            breakdown.data_movement_cycles = mem_phase - compute;
        }
        // Report the overlapped movement too, Fig. 19 style: the paper's
        // "data movements" bar counts overlapped transfer time.
        breakdown.data_movement_cycles += mem_phase.min(compute) / 2;

        LayerResult {
            cycles,
            macs: layer_macs + codec_cycles * (lines * mpl) as u64,
            phases: PhaseCycles {
                sddmm,
                spmm,
                softmax,
                codec: codec_cycles,
                linear: 0,
            },
            breakdown,
            traffic,
            trace: crate::LayerTrace {
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
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_report(
        &self,
        program: &AcceleratorProgram,
        kind: &str,
        total_cycles: u64,
        phases: PhaseCycles,
        breakdown: LatencyBreakdown,
        traffic: TrafficStats,
        macs: u64,
    ) -> SimReport {
        let latency_s = self.cfg.cycles_to_seconds(total_cycles);
        let e = &self.cfg.energy;
        let energy_j = macs as f64 * e.mac_pj * 1e-12
            + traffic.sram_total() as f64 * e.sram_pj_per_byte * 1e-12
            + traffic.dram_total() as f64 * e.dram_pj_per_byte * 1e-12
            + e.static_watts * latency_s;
        let peak = self.cfg.peak_macs_per_sec() * latency_s;
        let utilization = if peak > 0.0 {
            (macs as f64 / peak).min(1.0)
        } else {
            0.0
        };
        SimReport {
            platform: format!("ViTCoD({} lines)", self.cfg.mac_lines),
            workload: format!("{} [{}]", program.model, kind),
            total_cycles,
            latency_s,
            phases,
            breakdown,
            traffic,
            macs,
            energy_j,
            utilization,
        }
    }
}

/// One engine's (SDDMM, SpMM) cycle pair for a single head; `None` when
/// the engine does not run that head.
type EngineHeadCycles = Option<(u64, u64)>;

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
/// guaranteeing each engine with non-zero work at least one line.
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

struct LayerResult {
    cycles: u64,
    macs: u64,
    phases: PhaseCycles,
    breakdown: LatencyBreakdown,
    traffic: TrafficStats,
    trace: crate::LayerTrace,
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
    fn parallel_layer_fanout_pins_sequential_cycle_counts() {
        use vitcod_tensor::kernels;
        let p = program(0.9, true);
        let s = sim();
        // One worker = the sequential walk; the reduction order is the
        // same either way, so every count must be identical.
        let (seq, seq_trace) = kernels::with_thread_budget(1, || s.simulate_attention_traced(&p));
        let (par, par_trace) = kernels::with_thread_budget(4, || s.simulate_attention_traced(&p));
        assert_eq!(par.total_cycles, seq.total_cycles);
        assert_eq!(par.phases, seq.phases);
        assert_eq!(par.breakdown, seq.breakdown);
        assert_eq!(par.traffic, seq.traffic);
        assert_eq!(par.macs, seq.macs);
        assert_eq!(par_trace.layers.len(), seq_trace.layers.len());
        for (a, b) in par_trace.layers.iter().zip(seq_trace.layers.iter()) {
            assert_eq!(a.layer, b.layer, "trace order must stay layer order");
            assert_eq!(a.total_cycles, b.total_cycles);
            assert_eq!(a.denser_cycles, b.denser_cycles);
            assert_eq!(a.sparser_cycles, b.sparser_cycles);
        }
    }

    #[test]
    fn per_head_fanout_pins_sequential_cycle_counts() {
        use vitcod_tensor::kernels;
        // DeiT-Small has 6 heads per layer — above HEAD_FANOUT_MIN, so
        // the per-head cycle models take the parallel path; the fold is
        // sequential in head order, so every count must be identical to
        // the single-worker walk.
        let cfg = ViTConfig::deit_small();
        let stats = AttentionStats::for_model(&cfg, 9);
        let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
        let p = compile_model(
            &cfg,
            &sc.apply(&stats.maps),
            Some(AutoEncoderConfig::half(cfg.heads)),
        );
        assert!(p.layers[0].heads.len() >= HEAD_FANOUT_MIN);
        let s = sim();
        let seq = kernels::with_thread_budget(1, || s.simulate_attention(&p));
        let par = kernels::with_thread_budget(4, || s.simulate_attention(&p));
        assert_eq!(par.total_cycles, seq.total_cycles);
        assert_eq!(par.phases, seq.phases);
        assert_eq!(par.breakdown, seq.breakdown);
        assert_eq!(par.traffic, seq.traffic);
        assert_eq!(par.macs, seq.macs);
    }

    #[test]
    fn report_labels_are_informative() {
        let r = sim().simulate_attention(&program(0.9, false));
        assert!(r.platform.contains("ViTCoD"));
        assert!(r.workload.contains("DeiT-Tiny"));
    }
}
