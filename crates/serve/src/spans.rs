//! Request-scoped span trees: head sampling, per-request stage
//! reports, and the bounded rings behind `GET /v1/traces` and
//! `GET /v1/slowlog`.
//!
//! Every wire request gets a trace id at ingress (or brings one in an
//! `x-vitcod-trace-id` header) and, on completion, a [`Span`] tree —
//! `request → {parse, queue, batch_assembly, compute, serialize}`. The
//! compute span of a **sampled** request (head sampling at
//! [`TracingConfig::sample_rate`], forced by an explicit trace-id
//! header) additionally carries per-layer children, each partitioned
//! into the engine's named ops ([`vitcod_engine::OP_NAMES`]); the fast
//! path stays stamp-free — unsampled requests never run the profiled
//! forward. Sampling changes what is recorded, never what is answered:
//! the profiled forward is the served forward body with a timing hook
//! around each op (same kernel sequence), so its logits are bitwise
//! equal.
//!
//! Finished trees land in two rings (the crate's one sharded,
//! counted-eviction ring, `ring.rs`, which also holds the event trace
//! of [`crate::trace`]): every sampled request in the traces ring, and
//! any request whose end-to-end latency exceeded its slow threshold
//! (deadline × 0.5, or the configured fallback) in the slowlog ring.
//! The ring shard mutexes are leaf locks: nothing is acquired while one
//! is held.
//!
//! With [`TracingConfig::tail`] set, retention flips from an
//! ingress-time coin flip to a completion-time decision: every
//! in-flight request registers in a bounded pending buffer (the
//! crate-private `TailSampler`) and, at completion, is kept in the traces ring if
//! it turned out slow, errored or expired, or was selected by a
//! deterministic seeded reservoir over completed requests — so
//! `/v1/traces` holds the requests that matter. Head sampling and the
//! `x-vitcod-trace-id` header remain as overrides, and with the tail
//! off the fast path is untouched.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use vitcod_engine::{OpProfile, OP_NAMES};

use crate::ring::ShardedRing;

/// Total finished span trees each ring retains across all shards.
pub const SPAN_RING_CAPACITY: usize = 256;

/// Head-sampling denominator: rates are fixed-point millionths.
const SAMPLE_UNIT: u64 = 1_000_000;

/// Request-tracing knobs, fixed at [`crate::Server::start_with_tracing`].
///
/// The default — sampling rate `0.0`, no fallback slow threshold — is
/// what [`crate::Server::start`] installs: tracing machinery present
/// but the fast path stamp-free.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracingConfig {
    /// Head-sampling rate in `[0, 1]`: the deterministic fraction of
    /// requests whose compute runs the profiled (per-layer, per-op)
    /// forward. `0.0` (the default) keeps the fast path stamp-free; an
    /// explicit `x-vitcod-trace-id` header always forces sampling.
    pub sample_rate: f64,
    /// Slowlog threshold for requests **without** a deadline. Requests
    /// with a deadline use deadline × 0.5 (half the SLO budget);
    /// `None` (the default) means deadline-less requests never enter
    /// the slowlog.
    pub slow_threshold: Option<Duration>,
    /// Tail-based retention. `None` (the default) keeps the PR-8
    /// semantics: the traces ring holds head-sampled requests only.
    /// `Some` switches the traces ring to completion-time retention —
    /// slow, errored/expired, or reservoir-selected requests are kept
    /// even when unsampled.
    pub tail: Option<TailConfig>,
}

impl TracingConfig {
    /// The effective slowlog threshold for a request with the given
    /// deadline: half the deadline when one exists, otherwise the
    /// configured fallback.
    pub fn slow_threshold_for(&self, deadline: Option<Duration>) -> Option<Duration> {
        deadline.map(|d| d / 2).or(self.slow_threshold)
    }
}

/// Deterministic head sampler: a fixed-point accumulator adds
/// `rate × 10⁶` per request and samples exactly when the running sum
/// crosses a unit boundary — rate 0 never samples, rate 1 always does,
/// and any rate in between samples precisely its fraction of requests
/// with no RNG on the hot path.
pub(crate) struct Sampler {
    rate_millionths: u64,
    acc: AtomicU64,
}

impl Sampler {
    pub fn new(rate: f64) -> Self {
        Self {
            rate_millionths: (rate.clamp(0.0, 1.0) * SAMPLE_UNIT as f64).round() as u64,
            acc: AtomicU64::new(0),
        }
    }

    /// Whether the next request is head-sampled.
    pub fn sample(&self) -> bool {
        match self.rate_millionths {
            0 => false,
            r if r >= SAMPLE_UNIT => true,
            r => {
                let prev = self.acc.fetch_add(r, Ordering::Relaxed);
                (prev % SAMPLE_UNIT) + r >= SAMPLE_UNIT
            }
        }
    }
}

/// Tail-retention knobs ([`TracingConfig::tail`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Reservoir size: the expected number of ordinary (not slow, not
    /// errored, not head-sampled) completed requests retained; the
    /// `n`-th completion is kept with probability `reservoir / n`
    /// (Algorithm R acceptance), so early traffic is fully covered and
    /// steady-state keeps a uniform sample. `0` disables the reservoir
    /// — only slow and errored requests are tail-kept.
    pub reservoir: usize,
    /// Seed of the reservoir's deterministic PRNG: the same seed over
    /// the same completion sequence keeps the same requests.
    pub seed: u64,
    /// Bound on the in-flight pending buffer. Requests arriving while
    /// it is full skip tail registration (counted, not hidden) and stay
    /// eligible for the slow/error keeps, which need no pending entry.
    pub pending_capacity: usize,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            reservoir: 32,
            seed: 0x5eed_1e55,
            pending_capacity: 1024,
        }
    }
}

/// Terminal outcome of one wire request, as the transport observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served a prediction.
    Ok,
    /// Deadline passed before compute; the ticket expired.
    Expired,
    /// Failed for any other reason (cancelled ticket, internal error).
    Failed,
}

/// Why a finished request's span tree was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Past its slow threshold.
    Slow,
    /// Errored or expired.
    Error,
    /// Selected by the deterministic reservoir.
    Reservoir,
}

impl KeepReason {
    /// Stable wire name (the `kept` field of `/v1/traces` entries).
    pub fn as_str(self) -> &'static str {
        match self {
            KeepReason::Slow => "slow",
            KeepReason::Error => "error",
            KeepReason::Reservoir => "reservoir",
        }
    }
}

/// SplitMix64 step — the reservoir's PRNG. Hand-rolled because the
/// serving crate carries no dependencies; statistical quality is far
/// beyond what a keep/drop draw needs and the sequence is a pure
/// function of the seed, which the determinism tests rely on.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One in-flight request registered with the tail sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSpan {
    /// The request's trace id.
    pub trace_id: String,
    /// Model the request targets.
    pub model: String,
    /// Seconds since the sampler was created, stamped at ingress.
    pub since_s: f64,
}

/// Reservoir state: completion counter plus PRNG, under one mutex so a
/// completion's (index, draw) pair is atomic — two racing completions
/// cannot observe the same index.
struct Reservoir {
    completed: u64,
    rng: u64,
}

/// Completion-time retention: a bounded pending buffer of in-flight
/// requests plus the keep decision ([`TailSampler::complete`]). Both
/// internal mutexes are leaf locks — nothing is acquired while either
/// is held.
pub(crate) struct TailSampler {
    cfg: TailConfig,
    start: Instant,
    next_key: AtomicU64,
    pending: Mutex<HashMap<u64, PendingSpan>>,
    pending_dropped: AtomicU64,
    reservoir: Mutex<Reservoir>,
}

impl TailSampler {
    pub fn new(cfg: TailConfig) -> Self {
        Self {
            cfg,
            start: Instant::now(),
            next_key: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            pending_dropped: AtomicU64::new(0),
            reservoir: Mutex::new(Reservoir {
                completed: 0,
                rng: cfg.seed,
            }),
        }
    }

    /// Registers an in-flight request and returns its pending key, or
    /// `None` (counted) when the buffer is at capacity.
    pub fn register(&self, trace_id: &str, model: &str) -> Option<u64> {
        let entry = PendingSpan {
            trace_id: trace_id.to_string(),
            model: model.to_string(),
            since_s: self.start.elapsed().as_secs_f64(),
        };
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            if pending.len() >= self.cfg.pending_capacity {
                drop(pending);
                self.pending_dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            pending.insert(key, entry);
        }
        Some(key)
    }

    /// Unregisters a completed request and decides whether its span
    /// tree is tail-kept. The reservoir draw advances for **every**
    /// completion — sampled or not, registered or not — so the keep
    /// sequence is a pure function of the seed and the completion
    /// order. Head-sampled requests return `None` (the head path
    /// already retains them).
    pub fn complete(
        &self,
        key: Option<u64>,
        sampled: bool,
        slow: bool,
        outcome: RequestOutcome,
    ) -> Option<KeepReason> {
        if let Some(key) = key {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            pending.remove(&key);
        }
        let reservoir_hit = {
            let mut r = self
                .reservoir
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            r.completed += 1;
            let draw = splitmix64(&mut r.rng) % r.completed;
            (draw as usize) < self.cfg.reservoir
        };
        if sampled {
            return None;
        }
        if outcome != RequestOutcome::Ok {
            return Some(KeepReason::Error);
        }
        if slow {
            return Some(KeepReason::Slow);
        }
        if reservoir_hit {
            return Some(KeepReason::Reservoir);
        }
        None
    }

    /// Snapshot of the in-flight pending buffer, ingress order not
    /// guaranteed.
    pub fn pending(&self) -> Vec<PendingSpan> {
        let pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        pending.values().cloned().collect()
    }

    /// Requests that skipped tail registration because the pending
    /// buffer was full.
    pub fn pending_dropped(&self) -> u64 {
        self.pending_dropped.load(Ordering::Relaxed)
    }
}

/// One node of a request's span tree. Children are in chronological
/// order; a node's children durations sum to **at most** its own (gaps
/// are real waiting), and exactly partition it under `compute` (an
/// `other` leaf absorbs unattributed glue).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name: `request`, a stage (`parse`, `queue`,
    /// `batch_assembly`, `compute`, `serialize`), `layer{i}`, an engine
    /// op name, or `other`.
    pub name: String,
    /// Wall-clock seconds this span covers.
    pub duration_s: f64,
    /// Sub-spans, chronological.
    pub children: Vec<Span>,
}

impl Span {
    /// A childless span.
    pub fn leaf(name: impl Into<String>, duration_s: f64) -> Self {
        Self {
            name: name.into(),
            duration_s,
            children: Vec::new(),
        }
    }

    /// A span with children.
    pub fn with_children(name: impl Into<String>, duration_s: f64, children: Vec<Span>) -> Self {
        Self {
            name: name.into(),
            duration_s,
            children,
        }
    }

    /// Sum of the direct children's durations.
    pub fn children_s(&self) -> f64 {
        self.children.iter().map(|c| c.duration_s).sum()
    }
}

/// Builds the compute span of a profiled forward: one child per layer
/// (each exactly partitioned into the engine's named op leaves) plus an
/// `other` leaf absorbing the unattributed glue (LayerNorms, residuals,
/// stem, classifier) — so the children sum to the compute duration
/// exactly, the invariant the span-partition tests assert.
pub fn compute_span(profile: &OpProfile) -> Span {
    let mut children: Vec<Span> = profile
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let ops = OP_NAMES
                .iter()
                .zip(&layer.seconds)
                .map(|(name, s)| Span::leaf(*name, *s))
                .collect();
            Span::with_children(format!("layer{i}"), layer.total_s(), ops)
        })
        .collect();
    children.push(Span::leaf(
        "other",
        (profile.total_s - profile.attributed_s()).max(0.0),
    ));
    Span::with_children("compute", profile.total_s, children)
}

/// Stage timings one served request reports back through its ticket —
/// the serve-side half of the span tree the transport assembles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageReport {
    /// Seconds from enqueue to batch admission.
    pub queue_wait_s: f64,
    /// Seconds from admission to the batch starting compute.
    pub batch_assembly_s: f64,
    /// Seconds of engine compute: the batch wall for unsampled
    /// requests, the sample's own profiled forward when sampled.
    pub compute_s: f64,
    /// The full compute span with per-layer op children; `None` for
    /// unsampled requests (the transport builds a childless compute
    /// leaf from `compute_s` instead).
    pub compute: Option<Span>,
}

/// One finished request's retained span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// Global record order within the ring (drains sort by it).
    pub seq: u64,
    /// Seconds since the server started, stamped at retention.
    pub at_s: f64,
    /// The request's trace id (ingress-generated or client-supplied).
    pub trace_id: String,
    /// Model the request targeted.
    pub model: String,
    /// Whether the request was head-sampled (its compute span carries
    /// per-layer op children).
    pub sampled: bool,
    /// Why the trace was retained: `head` (head-sampled or trace-id
    /// forced), or a tail [`KeepReason`] wire name (`slow`, `error`,
    /// `reservoir`).
    pub kept: &'static str,
    /// End-to-end seconds, first request byte to response written.
    pub total_s: f64,
    /// The `request` span.
    pub root: Span,
}

impl ShardedRing<FinishedTrace> {
    /// Retains one finished trace, assigning its ring sequence number
    /// and retention timestamp.
    pub fn record_trace(
        &self,
        trace_id: String,
        model: String,
        sampled: bool,
        kept: &'static str,
        total_s: f64,
        root: Span,
    ) {
        self.record(|seq, at_s| FinishedTrace {
            seq,
            at_s,
            trace_id,
            model,
            sampled,
            kept,
            total_s,
            root,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitcod_engine::{LayerOps, OP_COUNT};

    fn trace_root() -> Span {
        Span::with_children(
            "request",
            1.0,
            vec![Span::leaf("parse", 0.1), Span::leaf("compute", 0.7)],
        )
    }

    #[test]
    fn sampler_rate_bounds_and_fraction() {
        assert!(!Sampler::new(0.0).sample());
        assert!(Sampler::new(1.0).sample());
        let s = Sampler::new(0.25);
        let hits = (0..1000).filter(|_| s.sample()).count();
        assert_eq!(hits, 250, "deterministic quarter sampling");
        // Out-of-range rates clamp instead of misbehaving.
        assert!(Sampler::new(7.5).sample());
        assert!(!Sampler::new(-1.0).sample());
    }

    #[test]
    fn slow_threshold_prefers_half_the_deadline() {
        let cfg = TracingConfig {
            slow_threshold: Some(Duration::from_secs(3)),
            ..Default::default()
        };
        assert_eq!(
            cfg.slow_threshold_for(Some(Duration::from_secs(4))),
            Some(Duration::from_secs(2))
        );
        assert_eq!(cfg.slow_threshold_for(None), Some(Duration::from_secs(3)));
        assert_eq!(TracingConfig::default().slow_threshold_for(None), None);
    }

    #[test]
    fn compute_span_partitions_exactly() {
        let mut layer = LayerOps::default();
        for i in 0..OP_COUNT {
            layer.seconds[i] = 0.001 * (i + 1) as f64;
        }
        let profile = OpProfile {
            layers: vec![layer, layer],
            total_s: 0.1,
        };
        let span = compute_span(&profile);
        assert_eq!(span.name, "compute");
        assert!((span.duration_s - 0.1).abs() < 1e-12);
        // Layers plus the `other` leaf partition compute exactly.
        assert_eq!(span.children.len(), 3);
        assert!((span.children_s() - span.duration_s).abs() < 1e-9);
        for (i, layer_span) in span.children[..2].iter().enumerate() {
            assert_eq!(layer_span.name, format!("layer{i}"));
            assert_eq!(layer_span.children.len(), OP_COUNT);
            assert!((layer_span.children_s() - layer_span.duration_s).abs() < 1e-9);
            let names: Vec<&str> = layer_span
                .children
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            assert_eq!(names, OP_NAMES.to_vec());
        }
        assert_eq!(span.children[2].name, "other");
    }

    /// Replays `n` ordinary completions (no pending key, unsampled,
    /// not slow, outcome Ok) and returns the kept completion indices.
    fn reservoir_keeps(cfg: TailConfig, n: usize) -> Vec<usize> {
        let tail = TailSampler::new(cfg);
        (0..n)
            .filter(|_| {
                tail.complete(None, false, false, RequestOutcome::Ok) == Some(KeepReason::Reservoir)
            })
            .collect()
    }

    #[test]
    fn tail_reservoir_is_deterministic_per_seed() {
        let cfg = TailConfig {
            reservoir: 8,
            seed: 42,
            pending_capacity: 64,
        };
        let a = reservoir_keeps(cfg, 500);
        let b = reservoir_keeps(cfg, 500);
        assert_eq!(a, b, "same seed, same completion order, same keeps");
        // The first `reservoir` completions are always kept (n ≤ k ⇒
        // draw % n < k), and acceptance decays like k/n afterwards.
        assert_eq!(&a[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(a.len() < 200, "k/n acceptance thins the tail");
        let c = reservoir_keeps(TailConfig { seed: 43, ..cfg }, 500);
        assert_ne!(a, c, "a different seed keeps a different sample");
    }

    #[test]
    fn tail_always_keeps_slow_and_errored_even_when_reservoir_is_off() {
        let tail = TailSampler::new(TailConfig {
            reservoir: 0,
            seed: 1,
            pending_capacity: 4,
        });
        for _ in 0..100 {
            assert_eq!(
                tail.complete(None, false, true, RequestOutcome::Ok),
                Some(KeepReason::Slow)
            );
            assert_eq!(
                tail.complete(None, false, false, RequestOutcome::Expired),
                Some(KeepReason::Error)
            );
            assert_eq!(
                tail.complete(None, false, false, RequestOutcome::Failed),
                Some(KeepReason::Error)
            );
            // Ordinary completions are dropped; head-sampled ones are
            // the head path's responsibility even when slow.
            assert_eq!(tail.complete(None, false, false, RequestOutcome::Ok), None);
            assert_eq!(tail.complete(None, true, true, RequestOutcome::Ok), None);
        }
    }

    #[test]
    fn tail_pending_buffer_is_bounded_under_storm() {
        let tail = TailSampler::new(TailConfig {
            reservoir: 4,
            seed: 7,
            pending_capacity: 8,
        });
        let keys: Vec<Option<u64>> = (0..100)
            .map(|i| tail.register(&format!("t{i}"), "m"))
            .collect();
        assert_eq!(tail.pending().len(), 8, "storm cannot grow the buffer");
        assert_eq!(tail.pending_dropped(), 92);
        assert_eq!(keys.iter().filter(|k| k.is_some()).count(), 8);
        // Completion drains the buffer; unregistered requests still
        // complete (their key is None) without touching it.
        for key in keys {
            tail.complete(key, false, false, RequestOutcome::Ok);
        }
        assert!(tail.pending().is_empty());
    }

    #[test]
    fn ring_stamps_finished_traces_in_record_order() {
        let ring = ShardedRing::new(SPAN_RING_CAPACITY);
        for i in 0..3 {
            ring.record_trace(
                format!("t{i}"),
                "m".into(),
                false,
                "head",
                0.5,
                trace_root(),
            );
        }
        let traces = ring.take();
        let ids: Vec<&str> = traces.iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(ids, ["t0", "t1", "t2"]);
        assert!(traces.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(traces.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert_eq!(traces[0].root, trace_root());
    }
}
