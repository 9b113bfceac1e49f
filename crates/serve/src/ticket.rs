//! Completion tickets: the submit/poll half of the client API.
//!
//! [`crate::Client::submit`] returns a [`Ticket`] immediately; the
//! prediction arrives later, when a worker drains the batch the request
//! was assembled into. A ticket resolves **exactly once**: the worker
//! completes it once (a second completion of a served ticket is a
//! serving-layer bug and panics), and the prediction can be taken out
//! once — by [`Ticket::wait`], [`Ticket::wait_timeout`] or the first
//! successful [`Ticket::try_take`].
//!
//! Two terminal states besides `Taken` exist: **cancelled** (the request
//! was lost before it was served — its serving-side `Resolver` was
//! dropped unresolved, by a panicking thread or an abnormal shutdown)
//! and **timed out** (the request's deadline passed while it was still
//! waiting for a batch slot — see
//! [`crate::Client::submit_with_timeout`]). Both surface as
//! [`RequestError`] from the deadline-aware waits.
//!
//! The state mutex recovers from poisoning (`PoisonError::into_inner`):
//! every transition is a single assignment of the `State` enum, so a
//! panicking thread cannot leave the state half-written, and a poisoned
//! ticket must still resolve its waiters.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use vitcod_engine::Prediction;

use crate::spans::StageReport;

/// Why a deadline-aware wait did not produce a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The deadline passed before a prediction arrived — either the
    /// caller's wait budget ran out, or a worker expired the request
    /// server-side (it never occupied a batch slot past its deadline).
    TimedOut,
    /// The request will never resolve: the server shut down abnormally
    /// before serving it, or its prediction was already taken.
    Cancelled,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::TimedOut => write!(f, "request timed out"),
            RequestError::Cancelled => write!(f, "request cancelled"),
        }
    }
}

impl std::error::Error for RequestError {}

enum State {
    /// Not yet served.
    Pending,
    /// Served; prediction waiting to be taken.
    Ready(Prediction),
    /// Prediction taken by the client.
    Taken,
    /// The server shut down before serving the request.
    Cancelled,
    /// The request's deadline expired before it was batched.
    TimedOut,
}

pub(crate) struct TicketInner {
    state: Mutex<State>,
    ready: Condvar,
    /// Per-stage timing filled in by the worker just before completion;
    /// a separate leaf mutex so span bookkeeping never contends with
    /// waiters parked on `state`.
    report: Mutex<Option<StageReport>>,
}

impl TicketInner {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(State::Pending),
            ready: Condvar::new(),
            report: Mutex::new(None),
        })
    }

    /// Attaches the per-stage timing report. Called by the worker before
    /// [`TicketInner::complete`] so a woken waiter always observes it.
    pub fn set_report(&self, report: StageReport) {
        *self.report.lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
    }

    /// Resolves the ticket. A pending ticket becomes ready; an expired
    /// or cancelled ticket swallows the prediction (its client already
    /// gave up — the race is benign). Completing a *served* ticket
    /// twice is a serving-layer bug and panics.
    pub fn complete(&self, prediction: Prediction) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match *state {
            State::Pending => *state = State::Ready(prediction),
            State::TimedOut | State::Cancelled => return,
            // vitcod-lint: allow(V001, double-completion is a serve-loop bug; the contract is to fail loudly in the offending worker)
            State::Ready(_) | State::Taken => panic!("ticket completed twice"),
        }
        self.ready.notify_all();
    }

    /// Marks the ticket as never-to-arrive (server shutdown).
    pub fn cancel(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, State::Pending) {
            *state = State::Cancelled;
            self.ready.notify_all();
        }
    }

    /// Marks the ticket as expired (its deadline passed while it was
    /// still waiting for a batch slot). No-op once resolved.
    pub fn expire(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, State::Pending) {
            *state = State::TimedOut;
            self.ready.notify_all();
        }
    }
}

/// The serving side's handle on a ticket: it rides in the queued request
/// from submit to completion. Dropping it cancels the ticket, so a
/// request that is lost on the way — a panicking worker, an assembler
/// swept at shutdown — resolves its waiter as
/// [`RequestError::Cancelled`] instead of stranding it
/// ([`TicketInner::cancel`] is a no-op once the ticket completed or
/// expired, which is every normal path).
pub(crate) struct Resolver(pub Arc<TicketInner>);

impl std::ops::Deref for Resolver {
    type Target = TicketInner;

    fn deref(&self) -> &TicketInner {
        &self.0
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// A handle to one in-flight classification request.
///
/// Obtained from [`crate::Client::submit`]; poll with
/// [`Ticket::try_take`], block with [`Ticket::wait`], or bound the wait
/// with [`Ticket::wait_timeout`].
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    pub(crate) fn new(inner: Arc<TicketInner>) -> Self {
        Self { inner }
    }

    /// Takes the prediction if it has arrived. Returns `Some` exactly
    /// once; before completion — and forever after the first `Some` —
    /// it returns `None`.
    pub fn try_take(&self) -> Option<Prediction> {
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *state, State::Taken) {
            State::Ready(p) => Some(p),
            other => {
                *state = other;
                None
            }
        }
    }

    /// Takes the per-stage timing report, if the worker attached one.
    /// Present after a successful wait/take on every served request
    /// (span-tree detail only on sampled ones); `None` before service
    /// and forever after the first `Some`.
    pub fn take_stage_report(&self) -> Option<StageReport> {
        self.inner
            .report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Whether the prediction has arrived and has not been taken yet.
    pub fn is_ready(&self) -> bool {
        matches!(
            *self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            State::Ready(_)
        )
    }

    /// Blocks until the prediction arrives and takes it. Returns `None`
    /// if the request will never resolve — server shutdown, a
    /// server-side deadline expiry, or a prediction already taken via
    /// [`Ticket::try_take`].
    pub fn wait(self) -> Option<Prediction> {
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if matches!(*state, State::Pending) {
                state = self
                    .inner
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            return match std::mem::replace(&mut *state, State::Taken) {
                State::Ready(p) => Some(p),
                other => {
                    *state = other;
                    None
                }
            };
        }
    }

    /// Blocks until the prediction arrives — but at most `dur` — and
    /// takes it. The in-process mirror of the wire path's `timeout_ms`.
    ///
    /// # Errors
    ///
    /// [`RequestError::TimedOut`] when `dur` elapses first or the
    /// request expired server-side;
    /// [`RequestError::Cancelled`] when the server shut down before
    /// serving it (or the prediction was already taken). A local
    /// timeout leaves the ticket intact: a later wait can still take a
    /// prediction that arrives afterwards.
    pub fn wait_timeout(&self, dur: Duration) -> Result<Prediction, RequestError> {
        let deadline = Instant::now() + dur;
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if matches!(*state, State::Pending) {
                let now = Instant::now();
                if now >= deadline {
                    return Err(RequestError::TimedOut);
                }
                let (guard, _) = self
                    .inner
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                state = guard;
                continue;
            }
            return match std::mem::replace(&mut *state, State::Taken) {
                State::Ready(p) => Ok(p),
                other => {
                    let err = match other {
                        State::TimedOut => RequestError::TimedOut,
                        _ => RequestError::Cancelled,
                    };
                    *state = other;
                    Err(err)
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prediction() -> Prediction {
        Prediction {
            class: 1,
            logits: vec![0.0, 1.0],
        }
    }

    #[test]
    fn wait_timeout_times_out_then_takes_late_prediction() {
        let inner = TicketInner::new();
        let ticket = Ticket::new(Arc::clone(&inner));
        let t = Instant::now();
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(10)),
            Err(RequestError::TimedOut)
        );
        assert!(t.elapsed() >= Duration::from_millis(10));
        // A local timeout abandons nothing: the ticket still resolves.
        inner.complete(prediction());
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(1)),
            Ok(prediction())
        );
        // Exactly once.
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)),
            Err(RequestError::Cancelled)
        );
    }

    #[test]
    fn expire_resolves_waiters_and_swallows_late_completion() {
        let inner = TicketInner::new();
        let ticket = Ticket::new(Arc::clone(&inner));
        inner.expire();
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(10)),
            Err(RequestError::TimedOut)
        );
        // A prediction racing in after expiry is dropped, not a panic.
        inner.complete(prediction());
        assert!(ticket.try_take().is_none());
        assert!(ticket.wait().is_none());
    }

    #[test]
    fn cancel_beats_expire_and_vice_versa_without_flapping() {
        let inner = TicketInner::new();
        inner.cancel();
        inner.expire(); // no-op on a resolved ticket
        let ticket = Ticket::new(Arc::clone(&inner));
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)),
            Err(RequestError::Cancelled)
        );
    }
}
