//! Compile-once / serve-many inference for the ViTCoD reproduction.
//!
//! The training side of this workspace runs every forward through the
//! autograd tape; that is the right tool for finetuning and exactly the
//! wrong one for serving. This crate draws the boundary the paper's
//! co-design implies (and related stacks like ViTA and CHOSEN make
//! explicit): a **frozen, compile-once artifact** and a **batched
//! engine** that serves it.
//!
//! * [`CompiledVit`] — weights frozen out of a trained
//!   [`vitcod_model::Trainer`] into inference layout (per layer one fused
//!   `[Wq | Wk | Wv]` projection, read as a Q window and a KV window so
//!   the last layer can project Q for the class token alone) plus one
//!   [`HeadPlan`] per attention
//!   head: dense, or a pre-compiled CSC index for the accelerator's
//!   sparse dataflow.
//!   [`CompiledVit::from_parts`] is the one compile seam: after a
//!   `vitcod_core::ViTCoDPipeline` run it indexes the very masks
//!   Step 2 froze to CSC and finetuned on.
//! * [`save_compiled_vit`] / [`load_compiled_vit`] — the compiled model on
//!   disk. This crate owns that format, `vitcod-compiled v1`, grammar and
//!   schema alike: the text is written straight from a [`CompiledVit`]'s
//!   fields and parsed straight into one, and [`ArtifactError`] is its
//!   one error.
//! * [`Engine`] — built via `Engine::builder(compiled).precision(..)`;
//!   the thread budget is the caller's
//!   ([`vitcod_tensor::kernels`]). [`Engine::infer_batch`] runs a tape-free forward that fans samples
//!   across worker threads and routes sparse heads through the real
//!   SDDMM → sparse-softmax → SpMM dataflow from
//!   [`vitcod_tensor::sparse`] instead of dense `-inf` masking.
//!
//! The fp32 dense path does the per-row arithmetic the tape records, with
//! the last block on the class token's row alone (the only row the
//! classifier reads), so its logits are bit-identical to the training
//! forward's — the parity tests in this crate enforce that. The profiled pass
//! ([`Engine::infer_batch_profiled`]) is that same forward body with a
//! timing hook around each op, so profiled and served logits are bitwise
//! equal at either precision. [`Precision::Int8`] holds each projection
//! site only as packed int8 panels (a [`SiteWeight`] is one weight, fp32
//! *or* packed: 4 B per weight resident under fp32, 2 B under int8),
//! round-trips the few matrices the forward reads as fp32 through
//! [`vitcod_tensor::QuantizedMatrix`], and computes attention scores
//! with i8 operands and i32 accumulation, the accelerator MAC lines'
//! arithmetic.

// The serving path must not panic: no unwrap, expect or panicking
// macro in library code. Unit tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
    )
)]
#![warn(missing_docs)]

mod artifact;
mod compiled;
mod engine;
pub mod profile;

pub use artifact::{load_compiled_vit, save_compiled_vit, ArtifactError};
pub use compiled::{accuracy, CompiledAe, CompiledLayer, CompiledVit, HeadPlan, SiteWeight};
pub use engine::{Engine, EngineBuilder, Precision, Prediction};
pub use profile::{LayerOps, OpProfile, OP_COUNT, OP_NAMES};
