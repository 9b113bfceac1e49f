//! `serve_steady` and `serve_saturated`: an in-process `Server` hosting
//! DeiT-Tiny's shapes at depth 1.
//!
//! Steady is an open loop: one generator thread submits on a seeded
//! Poisson schedule, the collecting thread waits for the tickets, and
//! latency runs from the *scheduled* arrival, so a stall is charged to
//! every request it delays. Saturated is a closed loop that keeps
//! `OUTSTANDING` requests in flight: the queue is never empty, batches
//! fill, and a request's latency is the backlog over the capacity.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vitcod_engine::{Engine, Precision, Prediction};
use vitcod_serve::{BatchConfig, Client, ModelRegistry, RequestError, Server, Ticket};
use vitcod_tensor::Matrix;

use crate::models;
use crate::run::{Layers, Measured, Requests, Workload, LATE_S, VERY_LATE_S};
use crate::stats::{bits, percentile, poisson_schedule, sorted, Hash};
use crate::trace::Trace;

const MODEL: &str = "deit_tiny_d1";
/// Depth of the hosted model: about 20 ms a sample here, so a
/// ten-second window holds a few hundred requests; full depth would
/// hold forty.
const DEPTH: usize = 1;
const POOL: usize = 8;
/// The service objective: an answer later than this is counted in
/// `serve.late_completions`.
const OBJECTIVE: Duration = Duration::from_millis(500);
/// A request not answered within this has failed, late answers too. It
/// is well past the objective because a workload of record is one on
/// which nothing fails: the box stalls for over 100 ms now and then,
/// and `serve_saturated` answers in about 0.3 s by design.
const LIMIT: Duration = Duration::from_secs(2);

/// How requests arrive.
pub enum Arrivals {
    /// Open loop: Poisson at this many requests per second. Fixed,
    /// never derived from a measurement made in the same run.
    Poisson(f64),
    /// Closed loop: this many requests always in flight.
    Outstanding(usize),
}

pub trait Traffic {
    const ARRIVALS: Arrivals;
}

/// ρ ≈ 0.35 of the ≈ 48 req/s one request at a time sustains here.
/// (ρ ≈ 0.6 was tried first: identical runs disagreed by a factor of
/// three on p95.)
pub struct Steady;
impl Traffic for Steady {
    const ARRIVALS: Arrivals = Arrivals::Poisson(16.0);
}

/// Two full batches deep, so an answer takes two batch times.
pub struct Saturated;
impl Traffic for Saturated {
    const ARRIVALS: Arrivals = Arrivals::Outstanding(16);
}

pub struct Serve<T: Traffic> {
    seed: u64,
    server: Server,
    pool: Vec<Matrix>,
    refs: Vec<Vec<u32>>,
    direct_samples_per_s: f64,
    traffic: std::marker::PhantomData<T>,
}

/// One submitted request, on its way to being collected.
struct Sent {
    index: usize,
    /// When it was due (open loop) or submitted (closed loop): where
    /// its latency starts.
    due: Instant,
    ticket: Option<Ticket>,
    submit_start: Instant,
    submit_s: f64,
}

fn submit(client: &Client, pool: &[Matrix], index: usize, due: Instant) -> Sent {
    let submit_start = Instant::now();
    let ticket = client
        .submit_with_timeout(MODEL, pool[index % pool.len()].clone(), LIMIT)
        .ok();
    Sent {
        index,
        due,
        ticket,
        submit_start,
        submit_s: submit_start.elapsed().as_secs_f64(),
    }
}

/// Tallies of one window, and the stage samples a traced one keeps.
#[derive(Default)]
struct Collected {
    m: Measured,
    r: Requests,
    hash: Option<Hash>,
    last_done: Option<Instant>,
    late_completions: u64,
    queue_depth_max: usize,
    submit_s: Vec<f64>,
    queue_wait: Vec<f64>,
    assembly: Vec<f64>,
    compute: Vec<f64>,
    shell: Vec<f64>,
}

impl Collected {
    /// Waits for `sent`'s answer, checks it and records it.
    fn collect(&mut self, sent: Sent, refs: &[Vec<u32>], trace: &mut Option<&mut Trace>) {
        let answer: Option<Result<Prediction, RequestError>> = sent
            .ticket
            .as_ref()
            .map(|t| t.wait_timeout(LIMIT + Duration::from_secs(1)));
        let done = Instant::now();
        self.last_done = Some(done);
        let latency = done.saturating_duration_since(sent.due).as_secs_f64();
        self.r.sent += 1;
        self.m.attempted += 1;
        match answer {
            Some(Ok(p)) if bits(&p.logits) == refs[sent.index % refs.len()] => {
                self.late_completions += u64::from(latency > OBJECTIVE.as_secs_f64());
                if latency <= LIMIT.as_secs_f64() {
                    self.r.ok += 1;
                    self.m.items += 1.0;
                    self.m.lat_s.push(latency);
                } else {
                    self.r.late += 1;
                    self.m.failed += 1;
                }
                if sent.index < refs.len() {
                    self.hash.get_or_insert_with(Hash::new).f32s(&p.logits);
                }
            }
            Some(Ok(_)) => {
                self.r.errored += 1;
                self.m.failed += 1;
                self.m.wrong = Some(format!(
                    "request {}: logits differ from Engine::infer_batch on the same tokens",
                    sent.index
                ));
            }
            Some(Err(RequestError::TimedOut)) => {
                self.r.expired += 1;
                self.m.failed += 1;
            }
            Some(Err(_)) | None => {
                self.r.errored += 1;
                self.m.failed += 1;
            }
        }
        let (Some(trace), Some(ticket)) = (trace.as_deref_mut(), &sent.ticket) else {
            return;
        };
        let req = sent.index as u32;
        let sub_ns = trace.ns(sent.submit_start);
        let sub_end = sub_ns + (sent.submit_s * 1e9) as u64;
        let done_ns = trace.ns(done);
        let root = trace.push(None, req, "bench", "request", trace.ns(sent.due), done_ns);
        trace.push(Some(root), req, "serve", "submit", sub_ns, sub_end);
        let wait = trace.push(Some(root), req, "serve", "wait", sub_end, done_ns);
        self.submit_s.push(sent.submit_s);
        if let Some(report) = ticket.take_stage_report() {
            // The report gives durations; the stages follow one another
            // from the enqueue on.
            let stages = [
                ("queue_wait", report.queue_wait_s),
                ("batch_assembly", report.batch_assembly_s),
            ];
            let at = trace.push_sequence(wait, req, "serve", sub_end, &stages);
            trace.push_sequence(wait, req, "engine", at, &[("compute", report.compute_s)]);
            self.queue_wait.push(report.queue_wait_s);
            self.assembly.push(report.batch_assembly_s);
            self.compute.push(report.compute_s);
            self.shell.push((latency - report.compute_s).max(0.0));
        }
    }
}

impl<T: Traffic> Serve<T> {
    /// Open loop: the generator thread keeps the schedule whatever the
    /// server does; this thread collects.
    fn open_loop(&self, rate: f64, seconds: f64, trace: &mut Option<&mut Trace>) -> Collected {
        let n = ((rate * seconds).round() as usize).max(8);
        let schedule = poisson_schedule(self.seed, rate, n);
        let client = self.server.client();
        let pool = &self.pool;
        let sample_depth = trace.is_some();
        let epoch = Instant::now() + Duration::from_millis(20);
        let (tx, rx) = mpsc::channel::<Sent>();
        let mut c = Collected::default();
        let first_due = epoch + Duration::from_secs_f64(schedule[0]);

        let generated = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let mut g = Requests::default();
                let mut depth_max = 0usize;
                for (index, &offset) in schedule.iter().enumerate() {
                    let due = epoch + Duration::from_secs_f64(offset);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lateness = Instant::now().saturating_duration_since(due).as_secs_f64();
                    g.max_lateness_s = g.max_lateness_s.max(lateness);
                    g.late_sends += u64::from(lateness > LATE_S);
                    g.very_late_sends += u64::from(lateness > VERY_LATE_S);
                    let sent = submit(&client, pool, index, due);
                    if sample_depth {
                        depth_max = depth_max.max(client.queued_requests());
                    }
                    if tx.send(sent).is_err() {
                        break;
                    }
                }
                (g, depth_max)
            });
            for _ in 0..n {
                let Ok(sent) = rx.recv() else { break };
                c.collect(sent, &self.refs, trace);
            }
            generator
                .join()
                .expect("the generator thread does not panic")
        });
        c.r.late_sends = generated.0.late_sends;
        c.r.very_late_sends = generated.0.very_late_sends;
        c.r.max_lateness_s = generated.0.max_lateness_s;
        c.queue_depth_max = generated.1;
        c.m.window_s = c.last_done.map_or(0.0, |d| {
            d.saturating_duration_since(first_due).as_secs_f64()
        });
        c
    }

    /// Closed loop: tops the server up to `outstanding` requests, then
    /// replaces each answered request with a new one until time is up.
    fn closed_loop(
        &self,
        outstanding: usize,
        seconds: f64,
        trace: &mut Option<&mut Trace>,
    ) -> Collected {
        let client = self.server.client();
        let mut c = Collected::default();
        let mut in_flight: VecDeque<Sent> = VecDeque::with_capacity(outstanding);
        let start = Instant::now();
        let mut index = 0usize;
        loop {
            let sending = start.elapsed().as_secs_f64() < seconds;
            while sending && in_flight.len() < outstanding {
                in_flight.push_back(submit(&client, &self.pool, index, Instant::now()));
                index += 1;
                if trace.is_some() {
                    c.queue_depth_max = c.queue_depth_max.max(client.queued_requests());
                }
            }
            let Some(sent) = in_flight.pop_front() else {
                break;
            };
            c.collect(sent, &self.refs, trace);
        }
        c.m.window_s = start.elapsed().as_secs_f64();
        c
    }
}

impl<T: Traffic> Workload for Serve<T> {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        let cfg = models::deit_tiny_depth(DEPTH);
        let built = models::build(&cfg, seed, false, layers);
        let (_, engine) = models::engine_through_artifact(&built, Precision::Fp32, layers);
        let pool = models::token_pool(&cfg, seed, POOL);

        // The direct rate of the hosted model: the capacity the shell is
        // compared against, and the answers its replies must equal.
        let reference: Engine = engine.clone();
        let samples = models::samples(&pool);
        let t = Instant::now();
        let refs: Vec<Vec<u32>> = reference
            .infer_batch(&samples)
            .iter()
            .map(|p| bits(&p.logits))
            .collect();
        let direct_samples_per_s = POOL as f64 / t.elapsed().as_secs_f64();

        let mut registry = ModelRegistry::new();
        registry
            .register(MODEL, engine)
            .expect("a fresh registry accepts the model");
        // One worker: one compute thread.
        let server = Server::start(
            registry,
            BatchConfig {
                workers: 1,
                ..BatchConfig::default()
            },
        );
        let warm = server.client().classify(MODEL, pool[0].clone());
        assert!(warm.is_ok(), "warm-up request failed: {warm:?}");
        Serve {
            seed,
            server,
            pool,
            refs,
            direct_samples_per_s,
            traffic: std::marker::PhantomData,
        }
    }

    fn measure(
        &mut self,
        seconds: f64,
        mut trace: Option<&mut Trace>,
        layers: &mut Layers,
    ) -> Measured {
        let before = self.server.stats();
        let mut c = match T::ARRIVALS {
            Arrivals::Poisson(rate) => self.open_loop(rate, seconds, &mut trace),
            Arrivals::Outstanding(n) => self.closed_loop(n, seconds, &mut trace),
        };
        c.m.output_hash = c.hash.map_or(0, |h| h.0);
        c.m.requests = Some(c.r);

        if trace.is_some() {
            let t = Instant::now();
            let after = self.server.stats();
            layers.set("serve.stats_snapshot_s", t.elapsed().as_secs_f64());
            if let (Some(a), Some(b)) = (after.model(MODEL), before.model(MODEL)) {
                let requests = a.requests.saturating_sub(b.requests) as f64;
                let batches = a.batches.saturating_sub(b.batches) as f64;
                layers.set("serve.requests", requests);
                layers.set("serve.batches", batches);
                layers.set("serve.mean_batch_fill", requests / batches.max(1.0));
                layers.set(
                    "serve.timed_out",
                    a.timed_out.saturating_sub(b.timed_out) as f64,
                );
            }
            if !c.submit_s.is_empty() {
                layers.set(
                    "serve.submit_s",
                    c.submit_s.iter().sum::<f64>() / c.submit_s.len() as f64,
                );
            }
            for (p50, p95, xs) in [
                (
                    "serve.queue_wait_p50_s",
                    "serve.queue_wait_p95_s",
                    &c.queue_wait,
                ),
                (
                    "serve.batch_assembly_p50_s",
                    "serve.batch_assembly_p95_s",
                    &c.assembly,
                ),
                ("serve.compute_p50_s", "serve.compute_p95_s", &c.compute),
            ] {
                let xs = sorted(xs);
                layers.set(p50, percentile(&xs, 0.5));
                layers.set(p95, percentile(&xs, 0.95));
            }
            layers.set_quiet("serve.self_s", &c.shell);
            layers.set("serve.late_completions", c.late_completions as f64);
            layers.set("serve.queue_depth_max", c.queue_depth_max as f64);
            layers.set("serve.direct_samples_per_s", self.direct_samples_per_s);
        }
        c.m
    }
}
