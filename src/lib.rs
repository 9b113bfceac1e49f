//! Facade crate for the ViTCoD reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so examples and downstream
//! users write `vitcod::core::...` / `vitcod::sim::...` without tracking
//! the individual packages:
//!
//! * [`tensor`] — dense matrix kernels and int8 quantization;
//! * [`autograd`] — tape-based reverse-mode AD and optimizers;
//! * [`model`] — ViT configurations, FLOPs accounting, the trainable
//!   substrate and synthetic tasks;
//! * [`core`] — the ViTCoD algorithm (split-and-conquer, auto-encoder
//!   accounting, formats, compiler interface) and its one driver,
//!   [`core::ViTCoDPipeline`]: pretrain → insert AE, finetune →
//!   split-and-conquer, freeze the masks to CSC, finetune on the
//!   nnz-scaled sparse forward and backward kernels;
//! * [`sim`] — the cycle-level accelerator simulator, functional
//!   dataflow executors, schedules, buffers, energy/area/roofline;
//! * [`engine`] — compile-once / serve-many inference: frozen
//!   [`engine::CompiledVit`] artifacts (with bit-exact on-disk
//!   save/load) and the batched, tape-free [`engine::Engine`] with
//!   truly-sparse attention;
//! * [`serve`] — the serving layer: [`serve::Server`]'s bounded batch
//!   assembler, offered into by the submitting threads and taken from
//!   by a worker pool (dynamic batching, request deadlines, round-robin
//!   per-model fairness, hot engine reload), the multi-model
//!   [`serve::ModelRegistry`] (loadable from disk), and per-model
//!   latency/throughput statistics;
//! * [`transport`] — the network front end: a dependency-free
//!   HTTP/1.1 server ([`transport::HttpServer`]) over the serving
//!   layer, with classify/stats/health/reload endpoints and a minimal
//!   [`transport::HttpClient`];
//! * [`baselines`] — CPU/EdgeGPU/GPU platform models plus the SpAtten
//!   and Sanger simulators.
//!
//! # Example
//!
//! ```
//! use vitcod::core::{compile_model, SplitConquer, SplitConquerConfig};
//! use vitcod::model::{AttentionStats, ViTConfig};
//! use vitcod::sim::{AcceleratorConfig, ViTCoDAccelerator};
//!
//! let model = ViTConfig::deit_tiny();
//! let stats = AttentionStats::for_model(&model, 0);
//! let sc = SplitConquer::new(SplitConquerConfig::with_sparsity(0.9));
//! let program = compile_model(&model, &sc.apply(&stats.maps), None);
//! let report = ViTCoDAccelerator::new(AcceleratorConfig::vitcod_paper())
//!     .simulate_attention(&program);
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vitcod_autograd as autograd;
pub use vitcod_baselines as baselines;
pub use vitcod_core as core;
pub use vitcod_engine as engine;
pub use vitcod_model as model;
pub use vitcod_serve as serve;
pub use vitcod_sim as sim;
pub use vitcod_tensor as tensor;
pub use vitcod_transport as transport;
