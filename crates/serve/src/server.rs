//! The serving loop: ingress queue → batcher thread → worker pool.
//!
//! ```text
//!  Client::submit ──▶ BoundedQueue (backpressure) ──▶ batcher thread
//!                                                     │ size / deadline / expiry
//!                                                     ▼
//!                                       round-robin ready rotation ──▶ batch queue ──▶ N workers
//!                                                                                      │ Engine::infer_batch
//!                                                                                      ▼
//!                                                                             tickets resolve, stats record
//! ```
//!
//! One batcher thread owns the [`crate::batcher::BatchAssembler`]; it
//! sleeps toward the earliest pending deadline — a model's
//! [`BatchConfig::max_wait`] flush or a request's expiry, whichever is
//! sooner — so partial batches leave exactly when their oldest request
//! has waited `max_wait`, and deadlined requests resolve as timed out
//! the moment they expire. Ready batches drain **round-robin across
//! models**, so a hot model's backlog cannot starve a light one.
//! Workers share the registry's `Arc`'d engines — serving never copies
//! weights — and the engine behind a model id can be hot-swapped at any
//! time ([`Server::reload`]): in-flight requests keep the engine they
//! were submitted against, later ones get the new weights.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vitcod_engine::{Engine, OpProfile, Prediction, OP_COUNT};
use vitcod_model::Sample;
use vitcod_tensor::Matrix;

use crate::batcher::{Batch, BatchAssembler, BatchConfig, Request};
use crate::queue::{BoundedQueue, Pop};
use crate::registry::ModelRegistry;
use crate::ring::ShardedRing;
use crate::spans::{
    compute_span, FinishedTrace, KeepReason, PendingSpan, RequestOutcome, Sampler, Span,
    StageReport, TailSampler, TracingConfig, SPAN_RING_CAPACITY,
};
use crate::stats::{RequestTiming, ServerStats, StatsRecorder};
use crate::ticket::{RequestError, Ticket, TicketInner};
use crate::trace::{TraceEvent, TraceKind, TRACE_CAPACITY};

/// Error submitting a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No model with this id is registered.
    UnknownModel(String),
    /// The token matrix does not match the model's compiled shape.
    ShapeMismatch {
        /// Shape the caller submitted.
        got: (usize, usize),
        /// Shape the compiled model expects.
        expected: (usize, usize),
    },
    /// The bounded queue is full (only from [`Client::try_submit`];
    /// [`Client::submit`] blocks instead).
    QueueFull,
    /// The server has shut down.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownModel(id) => write!(f, "unknown model id '{id}'"),
            SubmitError::ShapeMismatch { got, expected } => {
                write!(
                    f,
                    "token shape {got:?} does not match compiled {expected:?}"
                )
            }
            SubmitError::QueueFull => write!(f, "request queue is full"),
            SubmitError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Shared {
    /// Model id → engine. Behind an `RwLock` so [`Server::reload`] can
    /// hot-swap an engine while serving: lookups take a brief read
    /// lock, a swap takes the write lock only for the map update.
    /// Requests hold the `Arc` they resolved at submit time, so a swap
    /// never affects work already accepted.
    engines: RwLock<BTreeMap<String, Arc<Engine>>>,
    requests: BoundedQueue<Request>,
    batches: BoundedQueue<Batch>,
    stats: StatsRecorder,
    trace: ShardedRing<TraceEvent>,
    /// Request-tracing knobs, fixed at startup.
    tracing: TracingConfig,
    /// Deterministic head sampler driven by the ingress
    /// ([`Client::sample_trace`]).
    sampler: Sampler,
    /// Finished span trees of sampled requests (`GET /v1/traces`).
    traces: ShardedRing<FinishedTrace>,
    /// Span trees of requests that blew their slow threshold
    /// (`GET /v1/slowlog`).
    slowlog: ShardedRing<FinishedTrace>,
    /// Completion-time retention ([`TracingConfig::tail`]); `None`
    /// keeps the traces ring head-sampled only.
    tail: Option<TailSampler>,
}

impl Shared {
    fn model_ids(&self) -> Vec<String> {
        self.engines
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    fn reload(&self, id: String, engine: Arc<Engine>) -> bool {
        let replaced = self
            .engines
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.clone(), engine)
            .is_some();
        self.trace
            .record_event(TraceKind::Reload, &id, usize::from(replaced));
        replaced
    }

    /// Recorder snapshot enriched with registry labels and the
    /// achieved-Gop/s gauge: the stats mutex is released before the
    /// engines read lock is taken (no nesting, no lock-order edge).
    fn stats_snapshot(&self) -> ServerStats {
        let mut stats = self.stats.snapshot(self.trace.uptime_s());
        let engines = self.engines.read().unwrap_or_else(PoisonError::into_inner);
        for m in &mut stats.models {
            if let Some(engine) = engines.get(&m.model) {
                m.backend = Some(engine.backend().to_string());
                m.precision = Some(engine.precision().to_string());
                if m.compute_batch_s > 0.0 && m.requests > 0 {
                    m.achieved_gops = Some(
                        engine.approx_ops_per_sample() * m.requests as f64
                            / m.compute_batch_s
                            / 1e9,
                    );
                }
            }
        }
        stats
    }
}

/// The serving front end; see the [module](self) and
/// [crate docs](crate).
///
/// Dropping the server (or calling [`Server::shutdown`]) closes the
/// queue, drains every already-accepted request, and joins the threads
/// — accepted work is never dropped.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `registry` with `config`'s batching and
    /// queueing parameters, spawning the batcher thread and
    /// [`BatchConfig::workers`] worker threads.
    ///
    /// # Panics
    ///
    /// Panics if a config bound is zero.
    pub fn start(registry: ModelRegistry, config: BatchConfig) -> Server {
        Server::start_with_tracing(registry, config, TracingConfig::default())
    }

    /// Like [`Server::start`], but with request tracing configured: a
    /// head-sampling rate (sampled requests run the engine's profiled
    /// forward and retain a per-layer span tree) and a fallback slowlog
    /// threshold for deadline-less requests. [`Server::start`] installs
    /// [`TracingConfig::default`] — rate 0, the fast path stamp-free.
    ///
    /// # Panics
    ///
    /// Panics if a config bound is zero.
    pub fn start_with_tracing(
        registry: ModelRegistry,
        config: BatchConfig,
        tracing: TracingConfig,
    ) -> Server {
        let config = config.validated();
        let shared = Arc::new(Shared {
            engines: RwLock::new(registry.into_engines()),
            requests: BoundedQueue::new(config.queue_capacity),
            // Minimal buffer between assembly and execution: one staged
            // batch per worker keeps the pool fed while bounding the
            // head-of-line latency a light model pays behind a hot
            // model's already-dispatched batches (round-robin fairness
            // only governs batches still in the assembler's rotation).
            batches: BoundedQueue::new(config.workers),
            stats: StatsRecorder::new(),
            trace: ShardedRing::new(TRACE_CAPACITY),
            tracing,
            sampler: Sampler::new(tracing.sample_rate),
            traces: ShardedRing::new(SPAN_RING_CAPACITY),
            slowlog: ShardedRing::new(SPAN_RING_CAPACITY),
            tail: tracing.tail.map(TailSampler::new),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            let cfg = config.clone();
            std::thread::Builder::new()
                .name("vitcod-serve-batcher".into())
                .spawn(move || run_batcher(&shared, &cfg))
                // vitcod-lint: allow(V001, spawn fails only on OS thread exhaustion at startup; start() documents that it panics)
                .expect("spawn batcher")
        };
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vitcod-serve-worker-{i}"))
                    .spawn(move || run_worker(&shared))
                    // vitcod-lint: allow(V001, spawn fails only on OS thread exhaustion at startup; start() documents that it panics)
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            batcher: Some(batcher),
            workers,
        }
    }

    /// A cheap, clonable submission handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Registered model ids, sorted.
    pub fn model_ids(&self) -> Vec<String> {
        self.shared.model_ids()
    }

    /// Hot-swaps the engine behind `id` (or registers a new id) without
    /// interrupting serving: requests already accepted keep the engine
    /// they were submitted against — old and new weights never share a
    /// batch — while later submissions resolve to the new one. Returns
    /// whether an engine was replaced.
    pub fn reload(&self, id: impl Into<String>, engine: Engine) -> bool {
        self.shared.reload(id.into(), Arc::new(engine))
    }

    /// A consistent snapshot of the serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.shared.trace.uptime_s()
    }

    /// Drains and returns the event-trace ring; see [`crate::trace`].
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.shared.trace.take()
    }

    /// Trace events evicted before being drained (ring saturation).
    pub fn trace_dropped(&self) -> u64 {
        self.shared.trace.dropped()
    }

    /// The tracing configuration the server was started with.
    pub fn tracing(&self) -> TracingConfig {
        self.shared.tracing
    }

    /// Drains and returns the sampled span-tree ring; see
    /// [`crate::spans`].
    pub fn take_traces(&self) -> Vec<FinishedTrace> {
        self.shared.traces.take()
    }

    /// Drains and returns the slow-request ring; see [`crate::spans`].
    pub fn take_slowlog(&self) -> Vec<FinishedTrace> {
        self.shared.slowlog.take()
    }

    /// Requests currently waiting in the ingress queue.
    pub fn queued_requests(&self) -> usize {
        self.shared.requests.len()
    }

    /// Stops accepting requests, drains everything already accepted,
    /// joins the threads, and returns the final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.join_threads();
        self.shared.stats_snapshot()
    }

    fn join_threads(&mut self) {
        if self.batcher.is_some() {
            self.shared
                .trace
                .record_event(TraceKind::Shutdown, "", self.shared.requests.len());
        }
        self.shared.requests.close();
        if let Some(h) = self.batcher.take() {
            if h.join().is_err() {
                // Never panic out of Drop (it would abort mid-unwind);
                // a dead batcher cannot assemble, so fail the queues.
                self.shared.batches.close();
                eprintln!("vitcod-serve: batcher thread panicked");
            }
        }
        for h in self.workers.drain(..) {
            if h.join().is_err() {
                eprintln!("vitcod-serve: worker thread panicked");
            }
        }
        // Normally both queues are empty here (the batcher drains the
        // ingress queue, workers drain the batch queue). If a thread
        // died instead, resolve whatever it stranded so no client ever
        // hangs in `Ticket::wait`.
        for request in self.shared.requests.drain_now() {
            request.ticket.cancel();
        }
        for batch in self.shared.batches.drain_now() {
            for request in batch.requests {
                request.ticket.cancel();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// A clonable submission handle to a [`Server`].
///
/// Besides submitting work, a client can read statistics, list models
/// and hot-swap engines — everything a remote transport needs to expose
/// the server over a socket lives on this handle.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Enqueues one classification request for `model` and returns its
    /// [`Ticket`] immediately. Blocks (backpressure) while the bounded
    /// request queue is full.
    ///
    /// # Errors
    ///
    /// Unknown model id, token-shape mismatch, or a shut-down server.
    pub fn submit(&self, model: &str, tokens: Matrix) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, None, false)
    }

    /// Like [`Client::submit`], but the request carries a deadline: if
    /// `timeout` elapses before the request reaches a batch slot, the
    /// batcher expires it — it stops occupying queue capacity and its
    /// ticket resolves as [`RequestError::TimedOut`]. A request that
    /// made it into a batch before the deadline is served normally.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_with_timeout(
        &self,
        model: &str,
        tokens: Matrix,
        timeout: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, Some(timeout), false)
    }

    /// Like [`Client::submit_with_timeout`] (with `timeout: None`
    /// meaning no deadline), but the request carries its head-sampling
    /// decision: a sampled request's batch runs the engine's profiled
    /// forward, and its ticket's [`crate::spans::StageReport`] carries a
    /// compute span with per-layer op children. The prediction is
    /// bitwise the one an unsampled submit returns: profiling is a
    /// timing hook on the same forward body. The transport decides
    /// `sampled` from [`Client::sample_trace`] or an explicit
    /// `x-vitcod-trace-id` header.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_traced(
        &self,
        model: &str,
        tokens: Matrix,
        timeout: Option<Duration>,
        sampled: bool,
    ) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, timeout, sampled)
    }

    /// Like [`Client::submit`] but never blocks: a full queue returns
    /// [`SubmitError::QueueFull`] instead of applying backpressure, so
    /// callers that prefer load-shedding can make that choice
    /// explicitly.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], plus [`SubmitError::QueueFull`].
    pub fn try_submit(&self, model: &str, tokens: Matrix) -> Result<Ticket, SubmitError> {
        use crate::queue::TryPushError;
        let (request, ticket) = self.make_request(model, tokens, None, false)?;
        match self.shared.requests.try_push(request) {
            Ok(()) => {
                self.shared.trace.record_event(
                    TraceKind::Enqueue,
                    model,
                    self.shared.requests.len(),
                );
                Ok(Ticket::new(ticket))
            }
            Err(TryPushError::Full(_)) => Err(SubmitError::QueueFull),
            Err(TryPushError::Closed(_)) => Err(SubmitError::Closed),
        }
    }

    fn enqueue(
        &self,
        model: &str,
        tokens: Matrix,
        timeout: Option<Duration>,
        sampled: bool,
    ) -> Result<Ticket, SubmitError> {
        let (request, ticket) = self.make_request(model, tokens, timeout, sampled)?;
        self.shared
            .requests
            .push(request)
            .map_err(|_| SubmitError::Closed)?;
        self.shared
            .trace
            .record_event(TraceKind::Enqueue, model, self.shared.requests.len());
        Ok(Ticket::new(ticket))
    }

    fn make_request(
        &self,
        model: &str,
        tokens: Matrix,
        timeout: Option<Duration>,
        sampled: bool,
    ) -> Result<(Request, Arc<TicketInner>), SubmitError> {
        let engine = self
            .shared
            .engines
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model)
            .map(Arc::clone)
            .ok_or_else(|| SubmitError::UnknownModel(model.to_string()))?;
        let compiled = engine.compiled();
        let expected = (compiled.config().tokens, compiled.in_dim());
        if tokens.shape() != expected {
            return Err(SubmitError::ShapeMismatch {
                got: tokens.shape(),
                expected,
            });
        }
        let ticket = TicketInner::new();
        let enqueued = Instant::now();
        let request = Request {
            model: model.to_string(),
            tokens,
            ticket: Arc::clone(&ticket),
            engine,
            enqueued,
            admitted: None,
            deadline: timeout.map(|t| enqueued + t),
            sampled,
        };
        Ok((request, ticket))
    }

    /// Submits and blocks until the prediction arrives (the synchronous
    /// convenience over [`Client::submit`] + [`Ticket::wait`]).
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], plus [`SubmitError::Closed`] when the
    /// server shut down before serving the request.
    pub fn classify(&self, model: &str, tokens: Matrix) -> Result<Prediction, SubmitError> {
        self.submit(model, tokens)?
            .wait()
            .ok_or(SubmitError::Closed)
    }

    /// Blocks on `ticket` for at most `dur` and takes its prediction —
    /// the in-process mirror of the wire path's `timeout_ms` (a thin
    /// convenience over [`Ticket::wait_timeout`]).
    ///
    /// # Errors
    ///
    /// [`RequestError::TimedOut`] when the budget elapses (the ticket
    /// stays valid for a later wait) or the batcher expired the request
    /// server-side; [`RequestError::Cancelled`] when it will never
    /// resolve.
    pub fn wait_timeout(&self, ticket: &Ticket, dur: Duration) -> Result<Prediction, RequestError> {
        ticket.wait_timeout(dur)
    }

    /// Registered model ids, sorted.
    pub fn model_ids(&self) -> Vec<String> {
        self.shared.model_ids()
    }

    /// Hot-swaps the engine behind `id`; see [`Server::reload`].
    pub fn reload(&self, id: impl Into<String>, engine: Engine) -> bool {
        self.shared.reload(id.into(), Arc::new(engine))
    }

    /// A consistent snapshot of the serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.shared.trace.uptime_s()
    }

    /// Records one serialize-stage observation for `model`.
    ///
    /// Serialization happens outside the worker pool — in whatever layer
    /// encodes the prediction for its consumer (the HTTP transport times
    /// its JSON encode and reports it here). In-process callers that
    /// never serialize simply leave the stage histogram empty.
    pub fn observe_serialize(&self, model: &str, took: Duration) {
        self.shared.stats.record_serialize(model, took);
    }

    /// Drains and returns the event-trace ring; see [`crate::trace`].
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.shared.trace.take()
    }

    /// Trace events evicted before being drained (ring saturation).
    pub fn trace_dropped(&self) -> u64 {
        self.shared.trace.dropped()
    }

    /// The tracing configuration the server was started with.
    pub fn tracing(&self) -> TracingConfig {
        self.shared.tracing
    }

    /// Whether the next ingress request is head-sampled. Advances the
    /// deterministic sampler — call exactly once per wire request, at
    /// ingress (an explicit `x-vitcod-trace-id` header forces sampling
    /// *without* consulting this).
    pub fn sample_trace(&self) -> bool {
        self.shared.sampler.sample()
    }

    /// Retains one finished sampled request's span tree in the traces
    /// ring (`GET /v1/traces`). Called by the transport after the
    /// response is written, when the end-to-end total is known.
    pub fn record_trace(&self, trace_id: String, model: String, total_s: f64, root: Span) {
        self.shared
            .traces
            .record_trace(trace_id, model, true, "head", total_s, root);
    }

    /// Retains one slow request's span tree in the slowlog ring
    /// (`GET /v1/slowlog`): the transport calls this when the
    /// end-to-end latency exceeded
    /// [`TracingConfig::slow_threshold_for`] the request's deadline.
    /// Also bumps the model's `slow` counter (the
    /// `vitcod_slow_requests_total` scrape family), so slow rates are
    /// computable without draining the ring.
    pub fn record_slow(
        &self,
        trace_id: String,
        model: String,
        sampled: bool,
        total_s: f64,
        root: Span,
    ) {
        self.shared.stats.record_slow_request(&model);
        self.shared
            .slowlog
            .record_trace(trace_id, model, sampled, "slow", total_s, root);
    }

    /// Retains one tail-kept request's span tree in the traces ring
    /// (`GET /v1/traces`), labelled with its [`KeepReason`]. Tail-kept
    /// traces are `sampled: false` — their compute span is a stage
    /// leaf, not a profiled per-layer tree.
    pub fn record_tail(
        &self,
        trace_id: String,
        model: String,
        total_s: f64,
        root: Span,
        reason: KeepReason,
    ) {
        self.shared
            .traces
            .record_trace(trace_id, model, false, reason.as_str(), total_s, root);
    }

    /// Whether tail-based retention is configured
    /// ([`TracingConfig::tail`]).
    pub fn tail_enabled(&self) -> bool {
        self.shared.tail.is_some()
    }

    /// Registers an in-flight request with the tail sampler's pending
    /// buffer. `None` when the tail is off or the buffer is full
    /// (counted via [`Client::tail_pending_dropped`]); the request
    /// stays eligible for the slow/error keeps either way.
    pub fn tail_register(&self, trace_id: &str, model: &str) -> Option<u64> {
        self.shared
            .tail
            .as_ref()
            .and_then(|t| t.register(trace_id, model))
    }

    /// Completes a request against the tail sampler: unregisters its
    /// pending entry and returns the keep decision (`None` when the
    /// trace is dropped, or already retained by head sampling).
    pub fn tail_complete(
        &self,
        key: Option<u64>,
        sampled: bool,
        slow: bool,
        outcome: RequestOutcome,
    ) -> Option<KeepReason> {
        self.shared
            .tail
            .as_ref()
            .and_then(|t| t.complete(key, sampled, slow, outcome))
    }

    /// Snapshot of the tail sampler's in-flight pending buffer (empty
    /// when the tail is off).
    pub fn tail_pending(&self) -> Vec<PendingSpan> {
        self.shared
            .tail
            .as_ref()
            .map(TailSampler::pending)
            .unwrap_or_default()
    }

    /// Requests that skipped tail registration on a full pending
    /// buffer.
    pub fn tail_pending_dropped(&self) -> u64 {
        self.shared
            .tail
            .as_ref()
            .map(TailSampler::pending_dropped)
            .unwrap_or(0)
    }

    /// The compiled token-matrix shape `(tokens, in_dim)` the model
    /// expects, or `None` for an unknown id — what a health prober
    /// needs to build a valid one-sample input.
    pub fn model_shape(&self, model: &str) -> Option<(usize, usize)> {
        self.shared
            .engines
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model)
            .map(|engine| {
                let compiled = engine.compiled();
                (compiled.config().tokens, compiled.in_dim())
            })
    }

    /// Drains and returns the sampled span-tree ring in record order.
    pub fn take_traces(&self) -> Vec<FinishedTrace> {
        self.shared.traces.take()
    }

    /// Copies the sampled span-tree ring without draining (`?peek=1`).
    pub fn peek_traces(&self) -> Vec<FinishedTrace> {
        self.shared.traces.peek()
    }

    /// Sampled traces evicted before being drained (ring saturation).
    pub fn traces_dropped(&self) -> u64 {
        self.shared.traces.dropped()
    }

    /// Drains and returns the slow-request ring in record order.
    pub fn take_slowlog(&self) -> Vec<FinishedTrace> {
        self.shared.slowlog.take()
    }

    /// Copies the slow-request ring without draining (`?peek=1`).
    pub fn peek_slowlog(&self) -> Vec<FinishedTrace> {
        self.shared.slowlog.peek()
    }

    /// Slow-request traces evicted before being drained.
    pub fn slowlog_dropped(&self) -> u64 {
        self.shared.slowlog.dropped()
    }

    /// Copies the event-trace ring without draining (`?peek=1`); see
    /// [`crate::trace`].
    pub fn peek_trace(&self) -> Vec<TraceEvent> {
        self.shared.trace.peek()
    }

    /// Requests currently waiting in the ingress queue.
    pub fn queued_requests(&self) -> usize {
        self.shared.requests.len()
    }
}

fn run_batcher(shared: &Shared, cfg: &BatchConfig) {
    let mut assembler = BatchAssembler::new(cfg.max_batch_size, cfg.max_wait);
    // The batch queue only closes after this thread exits; a failed
    // push can only mean shutdown mid-drain, where requests are
    // cancelled on the spot.
    let dispatch = |batch: Batch| {
        shared
            .trace
            .record_event(TraceKind::Dispatch, &batch.model, batch.requests.len());
        if let Err(batch) = shared.batches.push(batch) {
            for r in batch.requests {
                r.ticket.cancel();
            }
        }
    };
    let mut closed = false;
    loop {
        // Absorb phase: move ingress requests into the assembler.
        // Block toward the earliest deadline only when nothing is
        // ready to dispatch; otherwise just sweep up whatever is
        // immediately available. Absorption is bounded (ingress
        // capacity again) so a flooding producer still meets
        // backpressure instead of an unbounded assembler.
        if !closed && !assembler.has_ready() {
            if assembler.buffered() < cfg.queue_capacity {
                match shared.requests.pop_until(assembler.next_deadline()) {
                    Pop::Item(request) => assembler.offer(request, Instant::now()),
                    Pop::TimedOut => {}
                    Pop::Closed => closed = true,
                }
            } else {
                // At capacity with nothing ready (many models, none at
                // its trigger yet): wait toward the earliest deadline
                // WITHOUT absorbing more, so the ingress queue fills
                // and producers feel backpressure. Short naps keep
                // expiry/shutdown latency bounded; the state itself
                // ends at the oldest set's flush deadline (≤ max_wait).
                let nap = assembler
                    .next_deadline()
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_millis(10))
                    .min(Duration::from_millis(10));
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
        while !closed && assembler.buffered() < cfg.queue_capacity {
            match shared.requests.pop_until(Some(Instant::now())) {
                Pop::Item(request) => assembler.offer(request, Instant::now()),
                Pop::TimedOut => break,
                Pop::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        let now = Instant::now();
        if closed {
            // Shutdown: accepted work is never dropped — promote every
            // pending set, expired requests excepted.
            assembler.flush_all(now);
        } else {
            assembler.poll(now);
        }
        for (model, n) in assembler.take_promoted() {
            shared.trace.record_event(TraceKind::Promote, &model, n);
        }
        let expired = assembler.take_expired();
        if !expired.is_empty() {
            let mut per_model: BTreeMap<&str, usize> = BTreeMap::new();
            for request in &expired {
                *per_model.entry(&request.model).or_insert(0) += 1;
            }
            for (model, n) in per_model {
                shared.trace.record_event(TraceKind::Expire, model, n);
            }
        }
        for request in expired {
            shared.stats.record_timeout(&request.model);
            request.ticket.expire();
        }
        if closed {
            while let Some(batch) = assembler.next_ready() {
                dispatch(batch);
            }
            shared.batches.close();
            return;
        }
        // Dispatch phase: hand over at most ONE batch per cycle. The
        // push blocks while the batch queue is full — that is where
        // the round-robin rotation becomes service order: a hot model
        // hands over one batch per turn, then the loop re-absorbs the
        // ingress queue (so a light model's request reaches the
        // rotation) before the hot model gets another slot.
        if let Some(batch) = assembler.next_ready() {
            dispatch(batch);
        }
    }
}

fn run_worker(shared: &Shared) {
    loop {
        match shared.batches.pop_until(None) {
            Pop::Item(batch) => {
                // A panicking batch (an engine assert slipping past
                // submit-time validation) must not kill the worker: its
                // tickets cancel via the guard in `serve_batch`, the
                // pool keeps draining, and the batcher never wedges on
                // a consumer-less batch queue.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_batch(shared, batch)
                }));
                if result.is_err() {
                    eprintln!("vitcod-serve: batch panicked; its tickets were cancelled");
                }
            }
            Pop::Closed => return,
            // `pop_until(None)` never times out; tolerate it anyway
            // rather than giving the pool a panic path.
            Pop::TimedOut => continue,
        }
    }
}

/// Cancels every still-pending ticket on drop. Armed for the whole of
/// [`serve_batch`]: if inference panics mid-batch, the unwind resolves
/// the batch's tickets to "cancelled" instead of leaving clients
/// blocked in [`Ticket::wait`] forever ([`TicketInner::cancel`] is a
/// no-op on tickets that completed normally).
struct CancelOnDrop<'a>(&'a [(std::sync::Arc<TicketInner>, Instant, Option<Instant>, bool)]);

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        for (ticket, _, _, _) in self.0 {
            ticket.cancel();
        }
    }
}

fn serve_batch(shared: &Shared, batch: Batch) {
    let mut samples = Vec::with_capacity(batch.requests.len());
    let mut tickets = Vec::with_capacity(batch.requests.len());
    for r in batch.requests {
        // Tokens move into the sample — no activation copy, and the
        // engine holds its weights behind an `Arc`, so serving a batch
        // allocates nothing model-sized.
        samples.push(Sample {
            tokens: r.tokens,
            label: 0,
        });
        tickets.push((r.ticket, r.enqueued, r.admitted, r.sampled));
    }
    let _cancel_guard = CancelOnDrop(&tickets);
    // A batch with any head-sampled request runs the profiled forward
    // (per-layer op timing, samples served sequentially); otherwise the
    // fast path stays completely stamp-free. Both are the engine's one
    // forward body — the same kernel sequence, with or without a timing
    // hook — so a traced answer is bitwise the answer served untraced.
    let any_sampled = tickets.iter().any(|(_, _, _, sampled)| *sampled);
    let compute_start = Instant::now();
    let (predictions, profiles): (Vec<Prediction>, Option<Vec<OpProfile>>) = if any_sampled {
        let (p, prof) = batch
            .engine
            .infer_batch_profiled(&samples)
            .into_iter()
            .unzip();
        (p, Some(prof))
    } else {
        (batch.engine.infer_batch(&samples), None)
    };
    let compute_end = Instant::now();
    // Every request in the batch shares the compute window; the earlier
    // stages come from its own stamps. A request without an admission
    // stamp (never routed through the assembler) charges its whole wait
    // to the queue.
    let compute = compute_end.saturating_duration_since(compute_start);
    let timings: Vec<RequestTiming> = tickets
        .iter()
        .map(|(_, enqueued, admitted, _)| {
            let admitted = admitted.unwrap_or(compute_start);
            RequestTiming {
                total: compute_end.saturating_duration_since(*enqueued),
                queue_wait: admitted.saturating_duration_since(*enqueued),
                batch_assembly: compute_start.saturating_duration_since(admitted),
                compute,
            }
        })
        .collect();
    // Stats first, tickets second: a client unblocked by its ticket must
    // already see this batch in any stats snapshot it takes.
    shared.stats.record_batch(&batch.model, compute, &timings);
    if let Some(profiles) = &profiles {
        // Per-op histograms observe only the requests that were
        // themselves sampled — co-batched bystanders ran profiled as a
        // side effect but were not selected by the sampler.
        let per_sample: Vec<[f64; OP_COUNT]> = tickets
            .iter()
            .zip(profiles)
            .filter(|((_, _, _, sampled), _)| *sampled)
            .map(|(_, profile)| {
                let mut ops = [0.0f64; OP_COUNT];
                for (slot, (_, s)) in ops.iter_mut().zip(profile.op_totals()) {
                    *slot = s;
                }
                ops
            })
            .collect();
        shared.stats.record_ops(&batch.model, &per_sample);
    }
    for (i, ((ticket, _, _, sampled), prediction)) in tickets.iter().zip(predictions).enumerate() {
        let (compute_s, compute_tree) = match profiles.as_ref().and_then(|p| p.get(i)) {
            // Sampled request: its own forward's wall and the full
            // per-layer span tree.
            Some(profile) if *sampled => (profile.total_s, Some(compute_span(profile))),
            // Unsampled (possibly in a profiled batch): the shared
            // batch compute wall, no per-layer detail.
            _ => (compute.as_secs_f64(), None),
        };
        let timing = timings.get(i).copied().unwrap_or_default();
        ticket.set_report(StageReport {
            queue_wait_s: timing.queue_wait.as_secs_f64(),
            batch_assembly_s: timing.batch_assembly.as_secs_f64(),
            compute_s,
            compute: compute_tree,
        });
        ticket.complete(prediction);
    }
}
