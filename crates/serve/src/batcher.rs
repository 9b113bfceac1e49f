//! Late-binding batch assembly: one FIFO per model, closed into a batch
//! only when a free worker takes it.
//!
//! Nothing is held back. A batch's membership is fixed at the instant a
//! free worker asks for one ([`BatchAssembler::take`]): the oldest
//! requests of the first non-empty model in the rotation, at most
//! [`BatchConfig::max_batch_size`]. So an idle server runs a lone
//! request at once, and a busy one fills its batches for free: until a
//! worker comes back, a model's queue keeps absorbing arrivals.
//!
//! Three serving properties live here rather than in the threads:
//!
//! * **Request deadlines** — a request carrying a deadline
//!   ([`crate::Client::submit_with_timeout`]) never occupies a batch
//!   slot past it: expired requests are pruned first thing in every
//!   `take` and surfaced via [`BatchAssembler::take_expired`] so the
//!   server can resolve their tickets as timed out.
//! * **Round-robin fairness** — `take` serves the first FIFO in the
//!   rotation and moves it to the back, so a hot model with a deep
//!   backlog cannot starve a light one: between two of the hot model's
//!   batches every other model with queued work gets a turn.
//! * **One engine per batch** — the FIFOs are keyed by model *and*
//!   engine identity, so across a hot reload requests submitted against
//!   the old and the new weights never share a batch.
//!
//! The assembler is pure bookkeeping — no threads, no clocks of its own
//! (callers pass `Instant`s) — which is what makes its semantics
//! unit-testable. The server puts it behind one mutex: submitting
//! threads offer, the workers take and expire.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use vitcod_engine::Engine;
use vitcod_tensor::Matrix;

use crate::ticket::Resolver;

/// Serving-layer tuning knobs; see [`crate::Server::start`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest batch handed to an engine. A free worker takes whatever
    /// a model has queued, up to this many; batches grow by themselves
    /// under load, because requests keep joining a queue until a worker
    /// takes it.
    pub max_batch_size: usize,
    /// The one bound on requests accepted and not yet taken by a
    /// worker; producers block (not drop) when it is reached.
    pub queue_capacity: usize,
    /// Worker threads taking batches and running them through the
    /// engines.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 8,
            queue_capacity: 64,
            workers: 2,
        }
    }
}

impl BatchConfig {
    pub(crate) fn validated(self) -> Self {
        assert!(self.max_batch_size >= 1, "max_batch_size must be >= 1");
        assert!(self.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(self.workers >= 1, "workers must be >= 1");
        self
    }
}

/// One queued classification request.
pub(crate) struct Request {
    pub model: String,
    pub tokens: Matrix,
    /// Resolves the client's ticket; dropping the request unresolved
    /// cancels it.
    pub ticket: Resolver,
    pub engine: Arc<Engine>,
    pub enqueued: Instant,
    /// When the assembler admitted the request (stamped by
    /// [`BatchAssembler::offer`]); `enqueued → admitted` — the time the
    /// submitter spent parked on a full server — is the queue-wait
    /// stage of the request's latency breakdown.
    pub admitted: Instant,
    /// Expiry deadline; past it the request resolves as timed out
    /// instead of occupying a batch slot. `None` waits indefinitely.
    pub deadline: Option<Instant>,
    /// Whether the request was head-sampled at ingress: its batch runs
    /// the engine's profiled forward and its ticket reports a compute
    /// span with per-layer op children.
    pub sampled: bool,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// A closed batch, on its way through a worker's engine.
pub(crate) struct Batch {
    pub model: String,
    pub engine: Arc<Engine>,
    pub requests: Vec<Request>,
}

/// The queued requests of one model × engine, oldest first: one slot in
/// the round-robin rotation. Keyed by the engine `Arc` identity, not
/// just the model id, because a batch runs through exactly one engine.
struct Lane {
    model: String,
    engine: Arc<Engine>,
    requests: VecDeque<Request>,
}

/// The late-binding batch assembler; see the [module docs](self).
pub(crate) struct BatchAssembler {
    max_batch: usize,
    /// Non-empty lanes in rotation order: [`BatchAssembler::take`]
    /// serves the first one and moves it to the back.
    lanes: VecDeque<Lane>,
    /// Requests pruned past their deadline, awaiting
    /// [`BatchAssembler::take_expired`].
    expired: Vec<Request>,
    /// Set by [`BatchAssembler::flush_all`]: the server refuses new
    /// work, and [`BatchAssembler::drained`] can report.
    flushing: bool,
}

impl BatchAssembler {
    pub fn new(max_batch: usize) -> Self {
        Self {
            max_batch,
            lanes: VecDeque::new(),
            expired: Vec::new(),
            flushing: false,
        }
    }

    /// Accepts one request into its lane, stamping its admission time
    /// (the end of the queue-wait stage). An already-expired request
    /// goes straight to the expired list.
    pub fn offer(&mut self, mut request: Request, now: Instant) {
        if request.expired(now) {
            self.expired.push(request);
            return;
        }
        request.admitted = now;
        match self
            .lanes
            .iter_mut()
            .find(|l| l.model == request.model && Arc::ptr_eq(&l.engine, &request.engine))
        {
            Some(lane) => lane.requests.push_back(request),
            None => self.lanes.push_back(Lane {
                model: request.model.clone(),
                engine: Arc::clone(&request.engine),
                requests: VecDeque::from([request]),
            }),
        }
    }

    /// Closes and returns the next batch: the oldest requests of the
    /// first lane in the rotation, at most `max_batch` of them, none
    /// past its deadline at `now`. What the lane holds beyond that
    /// keeps its place in line for the next take, behind every other
    /// lane. `None` means nothing is queued.
    pub fn take(&mut self, now: Instant) -> Option<Batch> {
        self.poll(now);
        let mut lane = self.lanes.pop_front()?;
        let n = lane.requests.len().min(self.max_batch);
        let batch = Batch {
            model: lane.model.clone(),
            engine: Arc::clone(&lane.engine),
            requests: lane.requests.drain(..n).collect(),
        };
        if !lane.requests.is_empty() {
            self.lanes.push_back(lane);
        }
        Some(batch)
    }

    /// Advances the clock: prunes every request whose deadline has
    /// passed out of its lane and into the expired list.
    fn poll(&mut self, now: Instant) {
        for lane in &mut self.lanes {
            let mut i = 0;
            while let Some(r) = lane.requests.get(i) {
                if r.expired(now) {
                    self.expired.extend(lane.requests.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.lanes.retain(|l| !l.requests.is_empty());
    }

    /// Refuses new work from now on (the shutdown path): what is
    /// buffered only drains — accepted work is never dropped, though
    /// requests already past their expiry still resolve as timed out.
    pub fn flush_all(&mut self) {
        self.flushing = true;
    }

    /// Whether the shutdown flush has been requested: the server
    /// refuses every later submission, so what is buffered only drains.
    pub fn flushing(&self) -> bool {
        self.flushing
    }

    /// Whether the shutdown flush has been requested and every request
    /// has been taken: nothing will ever be handed out again.
    pub fn drained(&self) -> bool {
        self.flushing && self.lanes.is_empty()
    }

    /// Requests accepted and not yet taken — what the server bounds by
    /// [`BatchConfig::queue_capacity`] and reports as its queue depth.
    pub fn buffered(&self) -> usize {
        self.lanes.iter().map(|l| l.requests.len()).sum()
    }

    /// Takes the requests pruned past their deadline since the last
    /// call; the server resolves their tickets as timed out.
    pub fn take_expired(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.expired)
    }

    /// Removes everything still held (the sweep after a worker pool
    /// that died: dropping the requests cancels their tickets).
    pub fn drain(&mut self) -> Vec<Request> {
        let mut all = std::mem::take(&mut self.expired);
        all.extend(self.lanes.drain(..).flat_map(|l| l.requests));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::{RequestError, Ticket, TicketInner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::time::Duration;
    use vitcod_autograd::ParamStore;
    use vitcod_model::{ViTConfig, VisionTransformer};

    fn test_engine() -> Arc<Engine> {
        let cfg = ViTConfig::deit_tiny().reduced_for_training();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let vit = VisionTransformer::new(&cfg, 4, 2, &mut store, &mut rng);
        Arc::new(Engine::builder(vitcod_engine::CompiledVit::from_parts(&vit, &store)).build())
    }

    fn request(model: &str, engine: &Arc<Engine>, now: Instant) -> Request {
        Request {
            model: model.to_string(),
            tokens: Matrix::zeros(1, 1),
            ticket: Resolver(TicketInner::new()),
            engine: Arc::clone(engine),
            enqueued: now,
            admitted: now,
            deadline: None,
            sampled: false,
        }
    }

    fn deadlined(model: &str, engine: &Arc<Engine>, now: Instant, timeout: Duration) -> Request {
        Request {
            deadline: Some(now + timeout),
            ..request(model, engine, now)
        }
    }

    /// Offers `n` requests for `model`, `enqueued` stamped `t0 + i` ns
    /// so a batch's arrival order can be read back.
    fn offer_numbered(
        a: &mut BatchAssembler,
        model: &str,
        engine: &Arc<Engine>,
        t0: Instant,
        n: u32,
    ) {
        for i in 0..n {
            a.offer(
                request(model, engine, t0 + Duration::from_nanos(i.into())),
                t0,
            );
        }
    }

    fn arrival_numbers(batch: &Batch, t0: Instant) -> Vec<u128> {
        batch
            .requests
            .iter()
            .map(|r| r.enqueued.duration_since(t0).as_nanos())
            .collect()
    }

    #[test]
    fn a_lone_request_goes_to_the_first_worker_that_asks() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(8);
        let now = Instant::now();
        assert!(a.take(now).is_none(), "nothing queued");
        a.offer(request("m", &engine, now), now);
        let batch = a.take(now).expect("taken on arrival, at the same now");
        assert_eq!(batch.requests.len(), 1);
        assert_eq!(batch.model, "m");
        assert_eq!(a.buffered(), 0);
        assert!(a.take(now).is_none());
    }

    #[test]
    fn a_take_closes_at_most_max_batch_requests() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(3);
        let now = Instant::now();
        a.offer(request("m", &engine, now), now);
        a.offer(request("m", &engine, now), now);
        assert_eq!(a.take(now).expect("partial").requests.len(), 2);
        for _ in 0..4 {
            a.offer(request("m", &engine, now), now);
        }
        assert_eq!(a.take(now).expect("full").requests.len(), 3);
        assert_eq!(a.take(now).expect("the rest").requests.len(), 1);
        assert!(a.take(now).is_none(), "lane consumed");
    }

    /// A queue that no worker has taken yet keeps absorbing arrivals;
    /// its membership is fixed by the take.
    #[test]
    fn a_queue_keeps_absorbing_until_a_worker_takes_it() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(8);
        let t0 = Instant::now();
        offer_numbered(&mut a, "m", &engine, t0, 3);
        // Every worker is busy, nobody asks.
        let t1 = t0 + Duration::from_millis(20);
        for i in 3..7u32 {
            a.offer(
                request("m", &engine, t0 + Duration::from_nanos(i.into())),
                t1,
            );
        }
        let batch = a.take(t1).expect("queued since t0");
        assert_eq!(
            arrival_numbers(&batch, t0),
            [0, 1, 2, 3, 4, 5, 6],
            "one batch of seven, not 3 + 4"
        );
        assert!(a.take(t1).is_none());
    }

    /// A backlog is cut oldest-first into full batches and a rest.
    #[test]
    fn backlog_is_taken_in_arrival_order_full_batches_first() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(8);
        let t0 = Instant::now();
        offer_numbered(&mut a, "m", &engine, t0, 2 * 8 + 3);
        assert_eq!(a.buffered(), 19);
        let taken: Vec<Vec<u128>> =
            std::iter::from_fn(|| a.take(t0).map(|b| arrival_numbers(&b, t0))).collect();
        let expected: Vec<Vec<u128>> =
            vec![(0..8).collect(), (8..16).collect(), (16..19).collect()];
        assert_eq!(taken, expected);
    }

    #[test]
    fn models_batch_independently() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(2);
        let now = Instant::now();
        a.offer(request("a", &engine, now), now);
        a.offer(request("b", &engine, now), now);
        // Model a fills without model b's request counting toward it.
        a.offer(request("a", &engine, now), now);
        let full = a.take(now).expect("a full");
        assert_eq!((full.model.as_str(), full.requests.len()), ("a", 2));
        let rest = a.take(now).expect("b");
        assert_eq!((rest.model.as_str(), rest.requests.len()), ("b", 1));
        assert!(a.take(now).is_none());
        assert!(!a.drained(), "empty, but not shutting down");
        a.flush_all();
        assert!(a.drained());
    }

    #[test]
    fn takes_rotate_round_robin_across_models() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(2);
        let now = Instant::now();
        // Hot model "a": three full batches. Light model "b": one.
        for _ in 0..6 {
            a.offer(request("a", &engine, now), now);
        }
        a.offer(request("b", &engine, now), now);
        a.offer(request("b", &engine, now), now);
        let order: Vec<String> = std::iter::from_fn(|| a.take(now).map(|b| b.model)).collect();
        // "b" gets its turn after one "a" batch, not after all three.
        assert_eq!(order, ["a", "b", "a", "a"]);
    }

    #[test]
    fn expired_requests_never_occupy_batch_slots() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(4);
        let t0 = Instant::now();
        // Two short-deadline requests around one without.
        a.offer(deadlined("m", &engine, t0, Duration::from_millis(10)), t0);
        a.offer(request("m", &engine, t0), t0);
        a.offer(deadlined("m", &engine, t0, Duration::from_millis(10)), t0);
        let batch = a.take(t0 + Duration::from_millis(20)).expect("survivor");
        assert_eq!(batch.requests.len(), 1);
        assert!(batch.requests[0].deadline.is_none());
        let expired = a.take_expired();
        assert_eq!(expired.len(), 2);
        assert!(expired.iter().all(|r| r.deadline.is_some()));
        assert_eq!(a.buffered(), 0);
    }

    /// A take prunes before it closes a batch: a worker that asks after
    /// a deadline has passed is not handed the expired request, and a
    /// lane that held nothing else yields no batch at all.
    #[test]
    fn take_prunes_before_it_closes_a_batch() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(2);
        let t0 = Instant::now();
        a.offer(deadlined("m", &engine, t0, Duration::from_millis(5)), t0);
        assert!(
            a.take(t0 + Duration::from_millis(5)).is_none(),
            "the only request expired"
        );
        assert_eq!(a.take_expired().len(), 1);
        assert_eq!(a.buffered(), 0);
    }

    #[test]
    fn already_expired_offer_and_flush_all_prune() {
        let engine = test_engine();
        let mut a = BatchAssembler::new(8);
        let t0 = Instant::now();
        a.offer(deadlined("m", &engine, t0, Duration::ZERO), t0);
        assert_eq!(a.take_expired().len(), 1, "expired on arrival");
        a.offer(deadlined("m", &engine, t0, Duration::from_millis(5)), t0);
        a.offer(request("m", &engine, t0), t0);
        a.flush_all();
        let survivor = a.take(t0 + Duration::from_millis(10)).expect("survivor");
        assert_eq!(survivor.requests.len(), 1);
        assert!(survivor.requests[0].deadline.is_none());
        assert_eq!(a.take_expired().len(), 1, "expired at the shutdown flush");
        assert!(a.drained());
    }

    #[test]
    fn reloaded_engines_never_share_a_batch() {
        let old = test_engine();
        let new = test_engine();
        let mut a = BatchAssembler::new(8);
        let now = Instant::now();
        a.offer(request("m", &old, now), now);
        a.offer(request("m", &new, now), now);
        a.offer(request("m", &old, now), now);
        let batches: Vec<Batch> = std::iter::from_fn(|| a.take(now)).collect();
        assert_eq!(batches.len(), 2, "one batch per engine identity");
        assert!(Arc::ptr_eq(&batches[0].engine, &old) && batches[0].requests.len() == 2);
        assert!(Arc::ptr_eq(&batches[1].engine, &new) && batches[1].requests.len() == 1);
        for b in &batches {
            assert!(b.requests.iter().all(|r| Arc::ptr_eq(&r.engine, &b.engine)));
        }
    }

    /// A request that is lost on the way — here simply dropped, as a
    /// panicking thread's unwind would — cancels its ticket.
    #[test]
    fn request_dropped_unresolved_cancels_its_ticket() {
        let engine = test_engine();
        let inner = TicketInner::new();
        let ticket = Ticket::new(Arc::clone(&inner));
        let now = Instant::now();
        let lost = Request {
            ticket: Resolver(inner),
            ..request("m", &engine, now)
        };
        let mut a = BatchAssembler::new(8);
        a.offer(lost, now);
        drop(a);
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Err(RequestError::Cancelled),
            "a dropped request must resolve its waiter, not strand it"
        );
    }
}
