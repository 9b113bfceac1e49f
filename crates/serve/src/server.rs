//! The serving loop: submitters → assembler ⇄ worker pool.
//!
//! ```text
//!  Client::submit ── offer (parks while queue_capacity are buffered) ──┐
//!                                                                      ▼
//!                                       per-model FIFOs (one mutex) ◀── take ── N workers
//!                                       eligible: max_batch_size          │ expire · Engine::infer_batch
//!                                       queued or oldest waited max_wait  ▼
//!                                                                tickets resolve, stats record
//! ```
//!
//! Batches are **closed by the worker that runs them**, not by a timer:
//! a free worker takes the oldest requests of the next eligible model
//! ([`crate::batcher`] has the rules), up to
//! [`BatchConfig::max_batch_size`], and until that instant the set
//! keeps absorbing arrivals. With the default [`BatchConfig::max_wait`]
//! of zero every queued request is eligible, so an idle server starts a
//! lone request at once and a busy one fills its batches while they
//! wait for a worker anyway; no batch is ever staged behind a busy
//! worker, so there is no head-of-line queue for a light model to wait
//! in — lanes are taken **round-robin across models**, and a hot
//! model's backlog cannot starve a light one.
//!
//! A request crosses two thread hand-offs: the submitting thread puts
//! it into the assembler itself (parking while
//! [`BatchConfig::queue_capacity`] requests are accepted and not yet
//! taken, so a flooding producer meets backpressure), and the worker
//! that ran it resolves its ticket. What needs a clock is done by the
//! threads that have one: a free worker sleeps toward the earlier of
//! the moment a held-back partial set comes due and the earliest
//! request deadline, so on a server with a free worker a deadlined
//! request resolves as timed out the moment it expires; while every
//! worker is busy it is pruned by the next take.
//!
//! Workers share the registry's `Arc`'d engines — serving never copies
//! weights — and the engine behind a model id can be hot-swapped at any
//! time ([`Server::reload`]): in-flight requests keep the engine they
//! were submitted against, later ones get the new weights.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vitcod_engine::{Engine, OpProfile, Prediction, OP_COUNT};
use vitcod_model::Sample;
use vitcod_tensor::Matrix;

use crate::batcher::{Batch, BatchAssembler, BatchConfig, Request};
use crate::registry::ModelRegistry;
use crate::ring::Ring;
use crate::spans::{
    compute_span, FinishedTrace, KeepReason, RequestOutcome, Sampler, Span, StageReport,
    TracingConfig, SPAN_RING_CAPACITY,
};
use crate::stats::{RequestTiming, ServerStats, StatsRecorder};
use crate::ticket::{RequestError, Resolver, Ticket, TicketInner};

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
    /// Requests accepted and not yet taken by a worker. Submitters
    /// offer, the workers take and expire; nobody computes or takes
    /// another lock while holding it.
    assembler: Mutex<BatchAssembler>,
    /// [`BatchConfig::queue_capacity`]: submitters park on `space`
    /// while the assembler buffers this many.
    queue_capacity: usize,
    /// Where free workers park: notified on every offer, on every take
    /// that leaves requests behind, and at the shutdown flush.
    work: Condvar,
    /// Where submitters park while the assembler is at capacity:
    /// notified whenever a worker takes or expires requests, and at
    /// the shutdown flush.
    space: Condvar,
    stats: StatsRecorder,
    /// Request-tracing knobs, fixed at startup.
    tracing: TracingConfig,
    /// Deterministic head sampler driven by the ingress
    /// ([`Client::sample_trace`]).
    sampler: Sampler,
    /// Finished span trees the keep rule kept (`GET /v1/traces`).
    traces: Ring<FinishedTrace>,
    /// When the server started: uptime and trace stamps count from here.
    start: Instant,
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
        self.engines
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, engine)
            .is_some()
    }

    fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Recorder snapshot enriched with registry labels and the
    /// achieved-Gop/s gauge: the stats mutex is released before the
    /// engines read lock is taken (no nesting, no lock-order edge).
    fn stats_snapshot(&self) -> ServerStats {
        let mut stats = self.stats.snapshot(self.uptime_s());
        let engines = self.engines.read().unwrap_or_else(PoisonError::into_inner);
        for m in &mut stats.models {
            if let Some(engine) = engines.get(&m.model) {
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

    /// Resolves requests pruned past their deadline as timed out.
    fn expire(&self, expired: Vec<Request>) {
        for request in expired {
            self.stats.record_timeout(&request.model);
            request.ticket.expire();
        }
    }

    /// Parks the calling worker until a batch is its to run, and closes
    /// that batch: its membership is whatever the lane holds at this
    /// instant. Requests the assembler has pruned past their deadline
    /// are resolved on the way, with the lock released. `None` means
    /// the server has shut down and everything it accepted has been
    /// taken.
    fn next_batch(&self) -> Option<Batch> {
        let mut assembler = self
            .assembler
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            let batch = assembler.take(Instant::now());
            let expired = assembler.take_expired();
            let done = batch.is_some() || assembler.drained();
            if !done && expired.is_empty() {
                // Nothing eligible: sleep toward the moment a held-back
                // set comes due or a request expires, whichever is
                // first.
                let wake = assembler
                    .next_due()
                    .into_iter()
                    .chain(assembler.next_deadline())
                    .min();
                assembler = wait_until(&self.work, assembler, wake);
                continue;
            }
            let more = assembler.buffered() > 0;
            drop(assembler);
            if more {
                // More may be eligible, or come due before this
                // worker is back: pass the watch on.
                self.work.notify_one();
            }
            // Up to a batch of slots came free: every parked submitter
            // may fit.
            self.space.notify_all();
            self.expire(expired);
            if done {
                return batch;
            }
            assembler = self
                .assembler
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The condvar hand-off with an optional alarm: parks on `condvar`,
/// releasing `guard` meanwhile, until notified or — if `until` is set —
/// that instant passes.
fn wait_until<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    until: Option<Instant>,
) -> MutexGuard<'a, T> {
    match until {
        Some(at) => {
            condvar
                .wait_timeout(guard, at.saturating_duration_since(Instant::now()))
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
        None => condvar.wait(guard).unwrap_or_else(PoisonError::into_inner),
    }
}

/// The serving front end; see the module and [crate docs](crate).
///
/// Dropping the server (or calling [`Server::shutdown`]) refuses new
/// submissions, drains every already-accepted request, and joins the
/// workers — accepted work is never dropped.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `registry` with `config`'s batching and
    /// queueing parameters, spawning [`BatchConfig::workers`] worker
    /// threads and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if a config bound is zero.
    pub fn start(registry: ModelRegistry, config: BatchConfig) -> Server {
        Server::start_with_tracing(registry, config, TracingConfig::default())
    }

    /// Like [`Server::start`], but with request tracing configured: a
    /// head-sampling rate (sampled requests run the engine's profiled
    /// forward and retain a per-layer span tree) and a fallback slow
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
            assembler: Mutex::new(BatchAssembler::new(config.max_batch_size, config.max_wait)),
            queue_capacity: config.queue_capacity,
            work: Condvar::new(),
            space: Condvar::new(),
            stats: StatsRecorder::new(),
            tracing,
            sampler: Sampler::new(tracing.sample_rate),
            traces: Ring::new(SPAN_RING_CAPACITY),
            start: Instant::now(),
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS thread exhaustion at startup; start() documents that it panics"
        )]
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vitcod-serve-worker-{i}"))
                    .spawn(move || run_worker(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// A cheap, clonable submission handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
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

    /// Stops accepting requests, drains everything already accepted,
    /// joins the threads, and returns the final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.join_threads();
        self.shared.stats_snapshot()
    }

    fn join_threads(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Accepted work is never dropped: from here on submitters are
        // refused, every lane is eligible, and the workers take until
        // nothing is left, then leave.
        self.shared
            .assembler
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush_all();
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for h in self.workers.drain(..) {
            // Never panic out of Drop (it would abort mid-unwind).
            if h.join().is_err() {
                eprintln!("vitcod-serve: worker thread panicked");
            }
        }
        // Normally the assembler is empty here. If a worker died
        // instead, drop whatever it stranded: a dropped request cancels
        // its ticket, so no client ever hangs in `Ticket::wait`.
        let stranded = self
            .shared
            .assembler
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain();
        drop(stranded);
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
    /// [`Ticket`] immediately. Blocks (backpressure) while
    /// [`BatchConfig::queue_capacity`] requests are accepted and not
    /// yet taken by a worker.
    ///
    /// # Errors
    ///
    /// Unknown model id, token-shape mismatch, or a shut-down server.
    pub fn submit(&self, model: &str, tokens: Matrix) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, None, false, true)
    }

    /// Like [`Client::submit`], but the request carries a deadline: if
    /// `timeout` elapses before the request reaches a batch slot it is
    /// expired — it stops occupying queue capacity and its ticket
    /// resolves as [`RequestError::TimedOut`]. A request that made it
    /// into a batch before the deadline is served normally. Expiry
    /// runs on the workers' clocks: a free worker expires the request
    /// the moment its deadline passes; while every worker is busy, the
    /// next take does — the ticket then resolves at most one in-flight
    /// batch late (bound the wait itself with [`Client::wait_timeout`]).
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
        self.enqueue(model, tokens, Some(timeout), false, true)
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
        self.enqueue(model, tokens, timeout, sampled, true)
    }

    /// Like [`Client::submit`] but never blocks: a full queue returns
    /// [`SubmitError::QueueFull`] instead of applying backpressure, so
    /// callers that prefer load-shedding can make that choice
    /// explicitly.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], plus [`SubmitError::QueueFull`].
    // vitcod-lint: allow(V006, facade API: non-blocking admission, the one source of `SubmitError::QueueFull`)
    pub fn try_submit(&self, model: &str, tokens: Matrix) -> Result<Ticket, SubmitError> {
        self.enqueue(model, tokens, None, false, false)
    }

    /// The one way in: validates, then offers the request into the
    /// assembler under its mutex, parking on `space` (`block`) or
    /// giving up (`!block`) while the server is at capacity.
    fn enqueue(
        &self,
        model: &str,
        tokens: Matrix,
        timeout: Option<Duration>,
        sampled: bool,
        block: bool,
    ) -> Result<Ticket, SubmitError> {
        let (request, ticket) = self.make_request(model, tokens, timeout, sampled)?;
        let shared = &*self.shared;
        let mut assembler = shared
            .assembler
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if assembler.flushing() {
                return Err(SubmitError::Closed);
            }
            if assembler.buffered() < shared.queue_capacity {
                break;
            }
            if !block {
                return Err(SubmitError::QueueFull);
            }
            assembler = wait_until(&shared.space, assembler, None);
        }
        assembler.offer(request, Instant::now());
        drop(assembler);
        shared.work.notify_one();
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
            ticket: Resolver(Arc::clone(&ticket)),
            engine,
            enqueued,
            // Restamped by `BatchAssembler::offer`.
            admitted: enqueued,
            // A timeout too long to represent is no deadline at all.
            deadline: timeout.and_then(|t| enqueued.checked_add(t)),
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
    /// stays valid for a later wait) or the request expired
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
        self.shared.uptime_s()
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

    /// Whether the next ingress request is head-sampled. Advances the
    /// deterministic sampler — call exactly once per wire request, at
    /// ingress (an explicit `x-vitcod-trace-id` header forces sampling
    /// *without* consulting this).
    pub fn sample_trace(&self) -> bool {
        self.shared.sampler.sample()
    }

    /// Records one finished wire request, called by the transport once
    /// its response is written: `root` is the `request` span, whose
    /// duration is the end-to-end latency. A request past
    /// [`TracingConfig::slow_threshold_for`] its deadline bumps the
    /// model's `slow` counter (the `vitcod_slow_requests_total` scrape
    /// family). The tree is then kept in the traces ring
    /// (`GET /v1/traces`) at most once, for the first [`KeepReason`]
    /// that holds — `Error` (failed or expired), `Slow`, `Head`
    /// (`sampled`) — and the reason is returned; any other request is
    /// dropped here.
    pub fn record_finished(
        &self,
        trace_id: String,
        model: &str,
        sampled: bool,
        outcome: RequestOutcome,
        deadline: Option<Duration>,
        root: Span,
    ) -> Option<KeepReason> {
        let slow = self
            .shared
            .tracing
            .slow_threshold_for(deadline)
            .is_some_and(|t| root.duration_s > t.as_secs_f64());
        if slow {
            self.shared.stats.record_slow_request(model);
        }
        let kept = KeepReason::of(sampled, slow, outcome)?;
        self.shared.traces.record_trace(
            self.shared.uptime_s(),
            trace_id,
            model.to_string(),
            sampled,
            kept,
            root,
        );
        Some(kept)
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

    /// Drains and returns the kept span trees in record order.
    pub fn take_traces(&self) -> Vec<FinishedTrace> {
        self.shared.traces.take()
    }

    /// Copies the kept span trees without draining (`?peek=1`).
    pub fn peek_traces(&self) -> Vec<FinishedTrace> {
        self.shared.traces.peek()
    }

    /// Kept span trees evicted before being drained (ring saturation).
    pub fn traces_dropped(&self) -> u64 {
        self.shared.traces.dropped()
    }

    /// Requests accepted and not yet taken by a worker (at most
    /// [`BatchConfig::queue_capacity`]).
    pub fn queued_requests(&self) -> usize {
        self.shared
            .assembler
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buffered()
    }
}

fn run_worker(shared: &Shared) {
    loop {
        let Some(batch) = shared.next_batch() else {
            return;
        };
        // On an idle server this worker was woken by the submitting
        // thread, and a kernel that runs the wakee on the waker's CPU
        // has preempted that thread inside `submit`; offer it the CPU
        // before the forward takes it for a scheduler slice. (Ten
        // alternating pairs on a 2-vCPU box, 16 req/s open loop: mean
        // time in `submit` 28–36 µs in every run with the yield,
        // 29–103 µs, median 42, without; the request pays ≈ 9 µs.)
        std::thread::yield_now();
        // A panicking batch (an engine assert slipping past submit-time
        // validation) must not kill the worker: the unwind drops the
        // batch's requests, which cancels their tickets, and the pool
        // keeps taking.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serve_batch(shared, batch)));
        if result.is_err() {
            eprintln!("vitcod-serve: batch panicked; its tickets were cancelled");
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
    // stages come from its own stamps.
    let compute = compute_end.saturating_duration_since(compute_start);
    let timings: Vec<RequestTiming> = tickets
        .iter()
        .map(|(_, enqueued, admitted, _)| RequestTiming {
            total: compute_end.saturating_duration_since(*enqueued),
            queue_wait: admitted.saturating_duration_since(*enqueued),
            batch_assembly: compute_start.saturating_duration_since(*admitted),
            compute,
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
