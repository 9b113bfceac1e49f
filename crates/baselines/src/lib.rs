//! Baseline platforms for the ViTCoD evaluation (paper Sec. VI-A).
//!
//! The paper benchmarks ViTCoD against five baselines:
//!
//! * three general computing platforms — a CPU (Intel Xeon Gold 6230R),
//!   an EdgeGPU (Nvidia Jetson Xavier NX; a TX2-class device is used for
//!   the Fig. 4 latency profiling) and a GPU (Nvidia RTX 2080 Ti) —
//!   modelled here as [`GeneralPlatform`] roofline models with published
//!   peak throughput/bandwidth and documented effective-utilization
//!   factors for small-batch attention kernels;
//! * two prior-art attention accelerators — **SpAtten** (cascade
//!   token/head pruning with on-the-fly top-k ranking) and **Sanger**
//!   (low-precision mask prediction feeding a reconfigurable S-stationary
//!   array) — modelled as behavioural cycle simulators
//!   ([`SpAttenSim`], [`SangerSim`]) given the *same* MAC count and DRAM
//!   bandwidth as the ViTCoD accelerator, matching the paper's "similar
//!   hardware configurations and areas for fair comparisons". They
//!   model only their attention cores; layer overlap, dense layers and
//!   the report are ViTCoD's own [`vitcod_sim::Costs`].
//!
//! All baselines emit [`vitcod_sim::SimReport`]s so speedups and energy
//! ratios compose directly with the ViTCoD simulator's output. How they
//! are composed — model set, sparsity, GPU pairing, aggregate — is
//! [`protocol`]'s, and nobody else's, to say.
//!
//! # Example
//!
//! ```
//! use vitcod_baselines::GeneralPlatform;
//! use vitcod_model::ViTConfig;
//!
//! let gpu = GeneralPlatform::gpu_2080ti();
//! let r = gpu.simulate_attention(&ViTConfig::deit_base());
//! assert!(r.latency_s > 0.0);
//! ```

#![warn(missing_docs)]

mod platforms;
pub mod protocol;
mod sanger;
mod spatten;

pub use platforms::GeneralPlatform;
pub use sanger::SangerSim;
pub use spatten::SpAttenSim;
