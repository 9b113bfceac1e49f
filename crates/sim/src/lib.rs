//! Cycle-accurate simulator of the ViTCoD accelerator (paper Sec. V–VI).
//!
//! The simulator models the accelerator the paper builds in 28 nm: 64 MAC
//! lines × 8 MACs at 500 MHz, 320 KB of SRAM split into activation /
//! weight / index / output buffers, and a DDR4-2400 interface at
//! 76.8 GB/s. Its two *pronged* engines — a **denser engine** running the
//! polarized global-token block with a K-stationary SDDMM dataflow and an
//! output-stationary SpMM dataflow, and a **sparser engine** walking the
//! pre-loaded CSC indexes of the sparse residue — execute the
//! [`vitcod_core::AcceleratorProgram`] produced by the hardware compiler,
//! while **encoder/decoder engines** shrink Q/K off-chip traffic per the
//! auto-encoder configuration.
//!
//! Fidelity: the simulator is *phase-accurate at tile granularity*. Every
//! engine's compute cycles and every buffer's fill/drain traffic are
//! accounted per (layer, head, phase); compute and memory are composed
//! with the double-buffered `max(compute, memory)` rule the paper's
//! pipelining implies. MAC/memory costs are constants in
//! [`EnergyModel`], standing in for the paper's post-layout numbers.
//!
//! # Example
//!
//! ```
//! use vitcod_core::{compile_model, SplitConquer, SplitConquerConfig};
//! use vitcod_model::{AttentionStats, ViTConfig};
//! use vitcod_sim::{AcceleratorConfig, ViTCoDAccelerator};
//!
//! let cfg = ViTConfig::deit_tiny();
//! let stats = AttentionStats::for_model(&cfg, 1);
//! let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
//! let program = compile_model(&cfg, &sc.apply(&stats.maps), None);
//! let acc = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper());
//! let report = acc.simulate_attention(&program);
//! assert!(report.total_cycles > 0);
//! ```

#![warn(missing_docs)]

mod accelerator;
mod area;
mod buffers;
mod config;
mod engines;
mod memory;
mod report;
mod roofline;
mod trace;

pub use accelerator::ViTCoDAccelerator;
pub use area::{floorplan, total_area_mm2, FloorplanComponent};
pub use buffers::{check_buffers, BufferDemand, BufferReport};
pub use config::{AcceleratorConfig, EnergyModel, PeAllocation, SramConfig};
pub use engines::{
    denser_sddmm_cycles, denser_spmm_cycles, gemm_cycles, s_stationary_sddmm_cycles,
    softmax_cycles, sparser_sddmm_cycles, sparser_spmm_cycles,
};
pub use memory::{DramModel, TrafficStats};
pub use report::{Costs, LatencyBreakdown, PhaseCycles, SimReport};
pub use roofline::{Roofline, RooflinePoint};
pub use trace::{ExecutionTrace, LayerTrace};
