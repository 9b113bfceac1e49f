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
//!   taken; full ⇒ producers block: backpressure, not drops; a model's
//!   queued requests are eligible once there are
//!   [`BatchConfig::max_batch_size`] of them or the oldest has waited
//!   [`BatchConfig::max_wait`] — zero by default — but a batch is
//!   closed only when a free worker takes it, so an idle server never
//!   holds a request back and a busy one fills its batches while they
//!   wait for a worker anyway) and a worker pool — the only threads it
//!   spawns — running those batches through shared engines;
//! * [`Client`] — clonable handles with a blocking
//!   [`Client::classify`], a ticket/poll
//!   [`Client::submit`]/[`Ticket::try_take`] pair, and deadline-aware
//!   [`Client::submit_with_timeout`]/[`Client::wait_timeout`]: a
//!   request whose deadline passes before it reaches a batch slot
//!   resolves as [`RequestError::TimedOut`] instead of occupying queue
//!   capacity;
//! * [`ModelRegistry`] — routes requests by model id across several
//!   compiled models with independent precision settings, and
//!   loads whole registries from `*.vitcod` artifacts on disk
//!   ([`ModelRegistry::load_dir`], written by
//!   [`vitcod_engine::save_compiled_vit`]); engines hot-swap behind a
//!   live server via [`Server::reload`] without dropping in-flight
//!   requests;
//! * [`ServerStats`] — per-model p50/p99/p999 latency, throughput, the
//!   batch-fill histogram and per-stage (queue-wait / batch-assembly /
//!   compute / serialize) latency histograms, queryable at any time;
//! * [`trace`] — a bounded ring of typed serving events (enqueue,
//!   expire, dispatch, reload, shutdown) drained via
//!   [`Server::take_trace`] for debugging deadline storms and reload
//!   races without a debugger;
//! * [`spans`] — request-scoped span trees: head-sampled requests run
//!   the engine's profiled forward (`compute → layer{i} → {qkv, scores,
//!   softmax, spmm, out_proj, fc1, fc2}`), finished trees land in
//!   bounded rings behind `GET /v1/traces` (sampled) and
//!   `GET /v1/slowlog` (requests past their slow threshold), and every
//!   served ticket carries a [`spans::StageReport`] the transport
//!   assembles into the `request` span.
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

#![forbid(unsafe_code)]
// The serving path must not panic (vitcod-lint V001); clippy enforces
// the unwrap half at compile time. Tests may unwrap freely.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

mod batcher;
mod registry;
mod ring;
mod server;
pub mod spans;
pub mod stats;
mod ticket;
pub mod trace;

pub use batcher::BatchConfig;
pub use registry::{ModelRegistry, RegistryError, ARTIFACT_EXTENSION};
pub use server::{Client, Server, SubmitError};
pub use spans::{
    compute_span, FinishedTrace, KeepReason, PendingSpan, RequestOutcome, Span, StageReport,
    TailConfig, TracingConfig, SPAN_RING_CAPACITY,
};
pub use stats::{
    HistogramSnapshot, ModelStats, RequestTiming, ServerStats, StageStats, StatsRecorder,
    MAX_LATENCY_SAMPLES,
};
pub use ticket::{RequestError, Ticket};
pub use trace::{TraceEvent, TraceKind, TRACE_CAPACITY};
