//! Structured event tracing: a bounded, sharded ring of typed serving
//! events for debugging deadline storms and reload races without a
//! debugger.
//!
//! Every interesting transition in the serving loop records one
//! [`TraceEvent`] — enqueue, expiry, batch dispatch, hot reload,
//! shutdown — into the crate's one bounded
//! sharded ring (`ring.rs`, shared with the span rings of
//! [`crate::spans`]): writers pick a shard by thread id, and a full
//! shard evicts its oldest event. Eviction is **counted, not hidden**
//! ([`crate::Client::trace_dropped`], exported as a counter on
//! `/v1/metrics`), so a drained trace that missed events says so.
//!
//! Draining ([`crate::Server::take_trace`], `GET /v1/trace` on the
//! transport) removes the events and returns them merged in record
//! order — a global atomic sequence number orders events across shards.
//! Memory stays bounded at [`TRACE_CAPACITY`] events regardless of
//! traffic.

use crate::ring::ShardedRing;

/// Total events the buffer retains across all shards.
pub const TRACE_CAPACITY: usize = 2048;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A request was accepted (`n` = requests accepted and not yet
    /// taken by a worker, this one included).
    Enqueue,
    /// Requests expired past their deadline before reaching a batch
    /// slot (`n` = how many, at one look at the clock).
    Expire,
    /// A free worker closed a batch and took it (`n` = batch size).
    /// Batches are late-binding — a model's queue keeps absorbing
    /// arrivals until this instant — so there is no earlier
    /// "batch formed" event to record.
    Dispatch,
    /// An engine was hot-swapped (`n` = 1 when an engine was replaced,
    /// 0 when the id was newly registered).
    Reload,
    /// The server began shutting down (`n` = requests accepted and not
    /// yet taken by a worker, all of which are still served).
    Shutdown,
}

impl TraceKind {
    /// The wire name (`GET /v1/trace` events carry this string).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::Expire => "expire",
            TraceKind::Dispatch => "dispatch",
            TraceKind::Reload => "reload",
            TraceKind::Shutdown => "shutdown",
        }
    }
}

/// One recorded serving event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global record order (monotonic across shards; drains sort by it).
    pub seq: u64,
    /// Seconds since the server started.
    pub at_s: f64,
    /// What happened.
    pub kind: TraceKind,
    /// The model involved; empty for server-scoped events
    /// ([`TraceKind::Shutdown`]).
    pub model: String,
    /// Kind-specific magnitude; see each [`TraceKind`] variant.
    pub n: usize,
}

impl ShardedRing<TraceEvent> {
    /// Records one event, stamped with its global sequence number and
    /// the seconds since the server started.
    pub fn record_event(&self, kind: TraceKind, model: &str, n: usize) {
        self.record(|seq, at_s| TraceEvent {
            seq,
            at_s,
            kind,
            model: model.to_string(),
            n,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_drain_in_record_order() {
        let b = ShardedRing::new(TRACE_CAPACITY);
        b.record_event(TraceKind::Enqueue, "m", 1);
        b.record_event(TraceKind::Expire, "m", 1);
        b.record_event(TraceKind::Dispatch, "m", 4);
        let events = b.take();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [TraceKind::Enqueue, TraceKind::Expire, TraceKind::Dispatch]
        );
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert_eq!(b.dropped(), 0);
    }
}
