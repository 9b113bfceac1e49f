//! The serving layer of the ViTCoD reproduction: an async request queue
//! with dynamic batching, a multi-model registry, and on-disk artifacts.
//!
//! [`vitcod_engine`] gave the workspace a compile-once / serve-many
//! [`Engine`](vitcod_engine::Engine), but callers still had to assemble
//! batches by hand, in process. This crate is the production shell
//! around it — the layer the ROADMAP's "heavy concurrent traffic" story
//! needs:
//!
//! * [`Server`] — owns a **bounded late-binding batch assembler**
//!   that submitting threads offer into themselves (at most
//!   [`BatchConfig::queue_capacity`] requests accepted and not yet
//!   taken; full ⇒ producers block: backpressure, not drops; a batch —
//!   a model's oldest requests, at most [`BatchConfig::max_batch_size`]
//!   — is closed only when a free worker takes it, so an idle server
//!   never holds a request back and a busy one fills its batches while
//!   they wait for a worker anyway) and a worker pool — the only
//!   threads it spawns — running those batches through shared engines;
//! * [`Client`] — clonable handles with a blocking
//!   [`Client::classify`], a ticket-returning [`Client::submit`] (the
//!   [`Ticket`] blocks in [`Ticket::wait`], or for a bounded time in
//!   [`Ticket::wait_timeout`]), and a deadline-aware
//!   [`Client::submit_with_timeout`]: a request whose deadline passes
//!   before it reaches a batch slot resolves as
//!   [`RequestError::TimedOut`] instead of occupying queue capacity;
//! * [`ModelRegistry`] — routes requests by model id across several
//!   compiled models with independent precision settings, and
//!   loads whole registries from `*.vitcod` artifacts on disk
//!   ([`ModelRegistry::load_dir`], written by
//!   [`vitcod_engine::save_compiled_vit`]); engines hot-swap behind a
//!   live server via [`Server::reload`] without dropping in-flight
//!   requests;
//! * [`ServerStats`] — per-model counters, the end-to-end latency
//!   histogram, the batch-fill histogram and per-stage (queue-wait /
//!   batch-assembly / compute / serialize) latency histograms,
//!   queryable at any time; percentiles come from
//!   [`HistogramSnapshot::quantile`];
//! * [`spans`] — request-scoped span trees: head-sampled requests run
//!   the engine's profiled forward (`compute → layer{i} → {qkv, scores,
//!   softmax, spmm, out_proj, fc1, fc2}`), every served ticket carries a
//!   [`spans::StageReport`] the transport assembles into the `request`
//!   span, and [`Client::record_finished`] keeps each failed, slow or
//!   head-sampled request's tree once in the bounded ring behind
//!   `GET /v1/traces`.
//!
//! Batching never changes values: every per-sample forward is
//! independent, so a prediction served through the queue is
//! bit-identical to [`vitcod_engine::Engine::infer_batch`] on the same
//! tokens — the acceptance tests in `crates/serve/tests` enforce this
//! end to end, through an artifact save/load round trip.
//!
//! # Example
//!
//! ```no_run
//! use vitcod_serve::{BatchConfig, ModelRegistry, Server};
//!
//! // `dir` holds artifacts saved with `vitcod_engine::save_compiled_vit`.
//! let registry = ModelRegistry::load_dir("artifacts/").unwrap();
//! let server = Server::start(registry, BatchConfig::default());
//! let client = server.client();
//! # let tokens = vitcod_tensor::Matrix::zeros(17, 8);
//! let prediction = client.classify("deit-tiny", tokens).unwrap();
//! println!("class {}", prediction.class);
//! println!("{:#?}", server.stats());
//! ```

// The serving path must not panic: no unwrap, expect, panicking macro
// or unchecked index or slice in library code. Unit tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
    )
)]
#![warn(missing_docs)]

mod batcher;
mod registry;
mod ring;
mod server;
pub mod spans;
pub mod stats;
mod ticket;

pub use batcher::BatchConfig;
pub use registry::{ModelRegistry, RegistryError, ARTIFACT_EXTENSION};
pub use server::{Client, Server, SubmitError};
pub use spans::{
    compute_span, FinishedTrace, KeepReason, RequestOutcome, Span, StageReport, TracingConfig,
    SPAN_RING_CAPACITY,
};
pub use stats::{
    HistogramSnapshot, ModelStats, RequestTiming, ServerStats, StageStats, StatsRecorder,
};
pub use ticket::{RequestError, Ticket};
