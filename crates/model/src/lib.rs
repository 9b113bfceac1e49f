//! ViT model zoo, FLOPs accounting and the training substrate for the
//! ViTCoD reproduction.
//!
//! The ViTCoD paper evaluates seven models (DeiT-Tiny/Small/Base,
//! LeViT-128/192/256 and Strided Transformer). This crate provides:
//!
//! * [`ViTConfig`] — architectural descriptions of all seven models at
//!   paper scale, used by the FLOPs counters, the attention-map generator
//!   and the hardware simulators;
//! * [`FlopsBreakdown`] — the per-component FLOPs accounting behind the
//!   paper's Fig. 4;
//! * [`VisionTransformer`] — a *trainable* ViT built on
//!   [`vitcod_autograd`], supporting fixed per-head sparse attention masks
//!   and the ViTCoD auto-encoder modules, used to reproduce the paper's
//!   algorithm experiments (Figs. 1, 9, 17, 18) on synthetic tasks;
//! * [`SyntheticTask`] — procedurally generated vision tasks whose
//!   attention maps exhibit the diagonal-plus-global-token structure the
//!   paper exploits (the documented substitution for ImageNet);
//! * [`AttentionStats`] — a statistical generator reproducing paper-scale
//!   (197-token, 12-layer × 12-head) averaged attention-map ensembles for
//!   hardware experiments without full-scale training.
//!
//! # Example
//!
//! ```
//! use vitcod_model::ViTConfig;
//!
//! let deit = ViTConfig::deit_base();
//! assert_eq!(deit.tokens, 197);
//! assert_eq!(deit.heads, 12);
//! let flops = deit.flops();
//! assert!(flops.self_attention() as f64 > 0.2 * flops.total() as f64);
//! ```

#![warn(missing_docs)]

mod attention_stats;
mod config;
mod flops;
mod synthetic;
mod trainer;
mod vit;

pub use attention_stats::{AttentionStats, AttentionStatsConfig};
pub use config::{ModelFamily, StageConfig, ViTConfig};
pub use flops::FlopsBreakdown;
pub use synthetic::{Sample, SyntheticTask, SyntheticTaskConfig};
pub use trainer::{EpochRecord, TrainConfig, Trainer, Trajectory};
pub use vit::{
    AeParamIds, AutoEncoderSpec, BlockModules, SparsityPlan, VisionTransformer, VitOutput,
};
