//! Request-scoped span trees: head sampling, per-request stage
//! reports, and the one keep rule that fills the bounded ring behind
//! `GET /v1/traces`.
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
//! A finished tree is kept at most once, in the traces ring (`ring.rs`,
//! one bounded FIFO, eviction counted), for the first [`KeepReason`]
//! that holds: the request failed or expired, it ran past its slow
//! threshold ([`TracingConfig::slow_threshold_for`]), or it was
//! head-sampled. Any other request is not kept. The ring's mutex is a
//! leaf lock: nothing is acquired while it is held.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use vitcod_engine::{OpProfile, OP_NAMES};

use crate::ring::Ring;

/// Finished span trees the traces ring retains; past it, each new tree
/// evicts the oldest (counted in `vitcod_traces_dropped_total`).
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
    /// Slow threshold for requests **without** a deadline. Requests
    /// with a deadline use deadline × 0.5 (half the SLO budget);
    /// `None` (the default) means deadline-less requests are never
    /// slow.
    pub slow_threshold: Option<Duration>,
}

impl TracingConfig {
    /// The effective slow threshold for a request with the given
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

/// Why a finished request's span tree was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Head-sampled, or forced by an `x-vitcod-trace-id` header.
    Head,
    /// Past its slow threshold.
    Slow,
    /// Failed or expired.
    Error,
}

impl KeepReason {
    /// The keep rule: `Error` if the request failed or expired, else
    /// `Slow` if it ran past its slow threshold, else `Head` if it was
    /// head-sampled, else not kept.
    pub(crate) fn of(sampled: bool, slow: bool, outcome: RequestOutcome) -> Option<KeepReason> {
        if outcome != RequestOutcome::Ok {
            Some(KeepReason::Error)
        } else if slow {
            Some(KeepReason::Slow)
        } else if sampled {
            Some(KeepReason::Head)
        } else {
            None
        }
    }

    /// Stable wire name (the `kept` field of `/v1/traces` entries).
    pub fn as_str(self) -> &'static str {
        match self {
            KeepReason::Head => "head",
            KeepReason::Slow => "slow",
            KeepReason::Error => "error",
        }
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
    /// Record order within the ring (drains return entries in it).
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
    /// Why the trace was kept.
    pub kept: KeepReason,
    /// End-to-end seconds, first request byte to response written (the
    /// `request` span's duration).
    pub total_s: f64,
    /// The `request` span.
    pub root: Span,
}

impl Ring<FinishedTrace> {
    /// Retains one finished trace under the next ring sequence number,
    /// stamped `at_s` seconds after the server started.
    pub fn record_trace(
        &self,
        at_s: f64,
        trace_id: String,
        model: String,
        sampled: bool,
        kept: KeepReason,
        root: Span,
    ) {
        self.record(|seq| FinishedTrace {
            seq,
            at_s,
            trace_id,
            model,
            sampled,
            kept,
            total_s: root.duration_s,
            root,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn children_s(span: &Span) -> f64 {
        span.children.iter().map(|c| c.duration_s).sum()
    }
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
        assert!((children_s(&span) - span.duration_s).abs() < 1e-9);
        for (i, layer_span) in span.children[..2].iter().enumerate() {
            assert_eq!(layer_span.name, format!("layer{i}"));
            assert_eq!(layer_span.children.len(), OP_COUNT);
            assert!((children_s(layer_span) - layer_span.duration_s).abs() < 1e-9);
            let names: Vec<&str> = layer_span
                .children
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            assert_eq!(names, OP_NAMES.to_vec());
        }
        assert_eq!(span.children[2].name, "other");
    }

    #[test]
    fn ring_stamps_finished_traces_in_record_order() {
        let ring = Ring::new(SPAN_RING_CAPACITY);
        for i in 0..3 {
            ring.record_trace(
                f64::from(i),
                format!("t{i}"),
                "m".into(),
                true,
                KeepReason::Head,
                trace_root(),
            );
        }
        let traces = ring.take();
        let ids: Vec<&str> = traces.iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(ids, ["t0", "t1", "t2"]);
        assert!(traces.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(traces.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert_eq!(traces[0].root, trace_root());
        assert!((traces[0].total_s - trace_root().duration_s).abs() < 1e-12);
    }
}
