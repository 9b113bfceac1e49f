//! The ViTCoD algorithm — the paper's primary contribution.
//!
//! ViTCoD (HPCA 2023) co-designs a sparse-ViT *algorithm* with a dedicated
//! *accelerator*. This crate implements the algorithm side and the
//! algorithm→hardware interface:
//!
//! * [`AttentionMask`] — fixed binary attention masks and their workload
//!   statistics;
//! * [`prune_info`] / [`prune_to_sparsity`] — pruning with fixed masks
//!   (Alg. 1, lines 1–6): keep the highest attention scores until a
//!   cumulative information-quantity threshold `θp` is reached;
//! * [`reorder_global_tokens`] — attention-map reordering (Alg. 1, lines
//!   7–14): move *global tokens* (columns with more than `θd` non-zeros)
//!   to the front, polarising each map into a **denser** block plus a
//!   **sparser** residue; the rule itself is [`split_columns`], over the
//!   per-column kept counts alone;
//! * [`SplitConquer`] — the combined split-and-conquer transform applied
//!   across a model's full attention-map ensemble;
//! * [`CscMatrix`] / [`CooMatrix`] — the sparse index formats the
//!   accelerator's sparser engine pre-loads;
//! * [`AutoEncoderConfig`] — the data-movement accounting of the
//!   learnable Q/K auto-encoder (Sec. IV-C);
//! * [`ViTCoDPipeline`] — the unified two-step pipeline (Fig. 10) and
//!   its only driver: insert AE modules → finetune → split-and-conquer →
//!   freeze the masks to CSC → finetune on the sparse dataflow, driving
//!   the trainable substrate from [`vitcod_model`];
//! * [`compile_model`] — the network-parser + hardware-compiler interface
//!   (Fig. 14) that lowers a sparsified model into the per-layer
//!   [`AcceleratorProgram`] consumed by the simulator;
//! * [`taxonomy`] — the Table I comparison data.
//!
//! # Example: split-and-conquer on one head
//!
//! ```
//! use vitcod_core::{prune_to_sparsity, reorder_global_tokens};
//! use vitcod_model::{AttentionStats, ViTConfig};
//!
//! let stats = AttentionStats::for_model(&ViTConfig::deit_small(), 0);
//! let mask = prune_to_sparsity(&stats.maps[0][0], 0.9);
//! assert!((mask.sparsity() - 0.9).abs() < 0.01);
//! let reordered = reorder_global_tokens(&mask, None);
//! assert!(reordered.num_global <= mask.size());
//! ```

#![warn(missing_docs)]

mod autoencoder;
mod formats;
mod interface;
mod mask;
mod pipeline;
mod prune;
mod reorder;
mod split_conquer;
pub mod taxonomy;

pub use autoencoder::AutoEncoderConfig;
pub use formats::{CooMatrix, CscMatrix};
pub use interface::{compile_model, AcceleratorProgram, LayerProgram, PhaseWorkload};
pub use mask::AttentionMask;
pub use pipeline::{PipelineConfig, PipelineReport, ViTCoDPipeline};
pub use prune::{prune_info, prune_to_sparsity};
pub use reorder::{reorder_global_tokens, split_columns, ReorderResult};
pub use split_conquer::{PolarizedHead, PruneCriterion, SplitConquer, SplitConquerConfig};
