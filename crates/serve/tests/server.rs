//! Serving-layer acceptance tests: dynamic batching semantics,
//! backpressure (one bound, one depth gauge), exactly-once tickets,
//! multi-model routing, and the
//! end-to-end disk → registry → server → bit-identical-predictions
//! guarantee.

use std::sync::Arc;
use std::time::Duration;

use hold::{register_slow, Hold};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{save_compiled_vit, CompiledVit, Engine, Precision, Prediction};
use vitcod_model::{Sample, SparsityPlan, ViTConfig, VisionTransformer};
use vitcod_serve::{
    BatchConfig, KeepReason, ModelRegistry, RequestOutcome, Server, Span, SubmitError,
    TracingConfig,
};
use vitcod_tensor::{Initializer, Matrix};

mod hold;

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

fn tiny_model(seed: u64, sparse: bool) -> CompiledVit {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    if sparse {
        let n = vit.config().tokens;
        let mut mask = Matrix::zeros(n, n);
        for q in 0..n {
            mask.set(q, q, 1.0);
            mask.set(q, 0, 1.0);
            mask.set(q, (q + 1) % n, 1.0);
        }
        let plan: SparsityPlan = (0..vit.config().depth)
            .map(|_| {
                (0..vit.config().heads)
                    .map(|_| Some(mask.clone()))
                    .collect()
            })
            .collect();
        vit.set_sparsity_plan(plan);
    }
    CompiledVit::from_parts(&vit, &store)
}

/// Sum of a span's direct children's durations.
fn children_s(span: &vitcod_serve::Span) -> f64 {
    span.children.iter().map(|c| c.duration_s).sum()
}

fn tokens_for(model: &CompiledVit, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(model.config().tokens, IN_DIM, seed)
}

/// A scratch directory unique to this test, cleaned up on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("vitcod-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The ISSUE's acceptance criterion: a `CompiledVit` saved to disk,
/// reloaded, and served through a `Server` with 4 concurrent clients
/// in partial batches returns predictions bit-identical to direct
/// `Engine::infer_batch` fp32.
#[test]
fn disk_roundtrip_served_with_four_clients_is_bit_identical_to_direct_inference() {
    let original = tiny_model(42, true);
    let dir = TempDir::new("acceptance");
    let path = dir.0.join("deit-tiny.vitcod");
    std::fs::write(&path, save_compiled_vit(&original, Precision::Fp32)).unwrap();

    let registry = ModelRegistry::load_dir(&dir.0).unwrap();
    assert_eq!(registry.ids(), vec!["deit-tiny"]);
    let server = Server::start(
        registry,
        BatchConfig {
            // Larger than what the clients ever have outstanding:
            // every batch is a partial one.
            max_batch_size: 64,
            queue_capacity: 64,
            workers: 2,
        },
    );

    const PER_CLIENT: u64 = 6;
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let client = server.client();
            let model = original.clone();
            std::thread::spawn(move || {
                (0..PER_CLIENT)
                    .map(|i| {
                        let seed = 1000 + c * PER_CLIENT + i;
                        let tokens = tokens_for(&model, seed);
                        (seed, client.classify("deit-tiny", tokens).unwrap())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut served: Vec<(u64, vitcod_engine::Prediction)> = Vec::new();
    for h in handles {
        served.extend(h.join().unwrap());
    }

    // Direct fp32 inference on the *original* (never-serialized) model.
    let engine = Engine::builder(original.clone()).build();
    let samples: Vec<Sample> = served
        .iter()
        .map(|(seed, _)| Sample {
            tokens: tokens_for(&original, *seed),
            label: 0,
        })
        .collect();
    let direct = engine.infer_batch(&samples);
    for ((seed, queued), direct) in served.iter().zip(direct.iter()) {
        assert_eq!(
            queued.logits, direct.logits,
            "seed {seed}: queued prediction must be bit-identical to direct fp32"
        );
        assert_eq!(queued.class, direct.class);
    }

    // The batches really were partials.
    let stats = server.shutdown();
    let m = stats.model("deit-tiny").expect("model served");
    assert_eq!(m.requests, 4 * PER_CLIENT);
    assert!(
        m.batch_fill.len() < 64,
        "no batch may reach the size trigger here"
    );
    assert!(
        m.batches > 0 && m.latency_histogram.quantile(0.99) >= m.latency_histogram.quantile(0.50)
    );
}

#[test]
fn bounded_queue_applies_backpressure_and_every_ticket_resolves_exactly_once() {
    let model = tiny_model(9, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    // Tiny queue, many producers: correctness must come from blocking,
    // not dropping.
    let server = Server::start(
        registry,
        BatchConfig {
            max_batch_size: 4,
            queue_capacity: 2,
            workers: 2,
        },
    );
    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 8;
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let client = server.client();
            let model = model.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                for i in 0..PER_PRODUCER {
                    let ticket = client
                        .submit("m", tokens_for(&model, p * 100 + i))
                        .expect("submit blocks, never drops");
                    // Poll (a zero-bound wait) rather than block, and
                    // count resolutions: exactly one Ok per ticket.
                    let mut takes = 0;
                    let deadline = std::time::Instant::now() + Duration::from_secs(30);
                    while std::time::Instant::now() < deadline {
                        if ticket.wait_timeout(Duration::ZERO).is_ok() {
                            takes += 1;
                            break;
                        }
                        std::thread::yield_now();
                    }
                    assert!(
                        ticket.wait_timeout(Duration::ZERO).is_err(),
                        "second take must fail"
                    );
                    assert_eq!(takes, 1, "ticket must resolve exactly once");
                    served += 1;
                }
                served
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, PRODUCERS * PER_PRODUCER);
    let stats = server.shutdown();
    assert_eq!(
        stats.total_requests(),
        PRODUCERS * PER_PRODUCER,
        "backpressure must not drop any request"
    );
}

/// A queue of eight, for a test to fill while the hold keeps the worker
/// busy.
const SMALL_QUEUE: BatchConfig = BatchConfig {
    max_batch_size: 8,
    queue_capacity: 8,
    workers: 1,
};

/// A one-worker server over model "m" and the hold's slow model.
fn one_worker_server(model: &CompiledVit, config: BatchConfig) -> Server {
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    register_slow(&mut registry);
    Server::start(
        registry,
        BatchConfig {
            workers: 1,
            ..config
        },
    )
}

/// The depth gauge means "accepted and not yet taken by a worker" at
/// every place it is read: `Client::queued_requests`, `/v1/health` and
/// `vitcod_queue_depth` on the wire. (With a relay thread between the submitters and the
/// assembler all of them read the relay's buffer: zero, once drained.)
#[test]
fn queue_depth_counts_requests_accepted_and_not_yet_taken() {
    use vitcod_transport::{HttpClient, HttpServer, TransportConfig};

    let model = tiny_model(37, false);
    let server = one_worker_server(&model, BatchConfig::default());
    let client = server.client();
    let _hold = Hold::start(&client);
    let tickets: Vec<_> = (0..5)
        .map(|i| client.submit("m", tokens_for(&model, i)).unwrap())
        .collect();
    assert_eq!(client.queued_requests(), 5);

    let http = HttpServer::bind("127.0.0.1:0", server, TransportConfig::default()).unwrap();
    let mut wire = HttpClient::connect(http.local_addr()).unwrap();
    let metrics = wire.get("/v1/metrics").unwrap();
    assert!(
        metrics.body_str().contains("\nvitcod_queue_depth 5\n"),
        "{}",
        metrics.body_str()
    );
    let health = wire.get("/v1/health").unwrap().json().unwrap();
    assert_eq!(health.get("queued").unwrap().as_u64(), Some(5));
    drop(wire);

    let stats = http.shutdown();
    assert_eq!(stats.model("m").unwrap().requests, 5);
    assert_eq!(client.queued_requests(), 0);
    for t in tickets {
        assert!(
            t.wait_timeout(Duration::ZERO).is_ok(),
            "accepted request must be served"
        );
    }
}

/// `queue_capacity` is the one bound on requests accepted and not yet
/// taken: the `submit` after it parks, and a submitter parked when
/// shutdown begins is turned away while everything accepted before it
/// is served.
#[test]
fn queue_capacity_is_the_one_bound_and_shutdown_refuses_a_parked_submitter() {
    let model = tiny_model(39, false);
    let server = one_worker_server(&model, SMALL_QUEUE);
    let client = server.client();
    let _hold = Hold::start(&client);
    let accepted: Vec<_> = (0..8)
        .map(|i| client.submit("m", tokens_for(&model, i)).unwrap())
        .collect();
    assert_eq!(client.queued_requests(), 8);

    let parked = {
        let client = client.clone();
        let tokens = tokens_for(&model, 8);
        std::thread::spawn(move || client.submit("m", tokens))
    };
    // The producer must be parked on the full server, not dropping.
    std::thread::sleep(Duration::from_millis(20));
    assert!(!parked.is_finished(), "submit must block while full");
    assert_eq!(client.queued_requests(), 8);

    let stats = server.shutdown();
    assert!(matches!(parked.join().unwrap(), Err(SubmitError::Closed)));
    assert_eq!(stats.model("m").unwrap().requests, 8);
    for t in accepted {
        assert!(
            t.wait_timeout(Duration::ZERO).is_ok(),
            "accepted request must be served"
        );
    }
}

/// A take frees capacity: a `submit` parked on the full server returns
/// with a ticket that is served, and the next `submit` goes straight in.
#[test]
fn a_take_admits_a_parked_submitter() {
    let model = tiny_model(41, false);
    let server = one_worker_server(&model, SMALL_QUEUE);
    let client = server.client();
    // Fill the server and park a producer while the worker is busy.
    let _hold = Hold::start(&client);
    let first: Vec<_> = (0..8)
        .map(|i| client.submit("m", tokens_for(&model, i)).unwrap())
        .collect();
    let parked = {
        let client = client.clone();
        let tokens = tokens_for(&model, 8);
        std::thread::spawn(move || client.submit("m", tokens))
    };
    std::thread::sleep(Duration::from_millis(20));
    assert!(!parked.is_finished(), "submit must block while full");
    assert_eq!(client.queued_requests(), 8);

    // The hold ends, the worker takes all eight, eight slots free.
    for t in first {
        assert!(t.wait_timeout(Duration::from_secs(60)).is_ok());
    }
    let late = parked.join().unwrap().expect("admitted after the take");
    assert!(late.wait_timeout(Duration::from_secs(60)).is_ok());
    let retry = client.submit("m", tokens_for(&model, 9)).unwrap();
    assert!(retry.wait_timeout(Duration::from_secs(60)).is_ok());
    assert_eq!(server.shutdown().model("m").unwrap().requests, 10);
}

#[test]
fn registry_routes_models_independently_and_rejects_bad_submissions() {
    let fp32_model = tiny_model(11, false);
    let int8_model = tiny_model(12, true);
    let mut registry = ModelRegistry::new();
    registry
        .register("fp32", Engine::builder(fp32_model.clone()).build())
        .unwrap();
    registry
        .register(
            "int8",
            Engine::builder(int8_model.clone())
                .precision(Precision::Int8)
                .build(),
        )
        .unwrap();
    assert!(registry
        .register("fp32", Engine::builder(fp32_model.clone()).build())
        .is_err());

    let server = Server::start(registry, BatchConfig::default());
    let client = server.client();

    let t = tokens_for(&fp32_model, 500);
    let direct_fp32 = Engine::builder(fp32_model.clone()).build().infer_one(&t);
    let direct_int8 = Engine::builder(int8_model.clone())
        .precision(Precision::Int8)
        .build()
        .infer_one(&t);
    // Different models and precisions behind one server: each route
    // reproduces its own engine exactly.
    assert_eq!(
        client.classify("fp32", t.clone()).unwrap().logits,
        direct_fp32.logits
    );
    assert_eq!(
        client.classify("int8", t.clone()).unwrap().logits,
        direct_int8.logits
    );

    assert!(matches!(
        client.classify("nope", t.clone()),
        Err(SubmitError::UnknownModel(_))
    ));
    assert!(matches!(
        client.classify("fp32", Matrix::zeros(3, 3)),
        Err(SubmitError::ShapeMismatch { .. })
    ));
}

/// The serve pool holds `Arc`'d weights: registering and serving a
/// model copies no weight scalars.
#[test]
fn serving_shares_weights_instead_of_cloning_them() {
    let compiled = Arc::new(tiny_model(13, true));
    let scalars_before = compiled.num_weight_scalars();
    let engine = Engine::builder_shared(Arc::clone(&compiled)).build();
    assert!(
        std::ptr::eq(engine.compiled(), Arc::as_ptr(&compiled)),
        "engine must share, not copy"
    );

    let mut registry = ModelRegistry::new();
    registry.register("m", engine).unwrap();
    let server = Server::start(
        registry,
        BatchConfig {
            workers: 4,
            ..BatchConfig::default()
        },
    );
    let client = server.client();
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let client = client.clone();
            let model = Arc::clone(&compiled);
            std::thread::spawn(move || {
                for i in 0..4 {
                    client
                        .classify("m", tokens_for(&model, c * 10 + i))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(server);
    drop(client); // the last handle to the server's shared state
                  // After serving 16 requests through 4 workers, the weights are
                  // still the same single allocation, unchanged in size.
    assert_eq!(compiled.num_weight_scalars(), scalars_before);
    assert_eq!(
        Arc::strong_count(&compiled),
        1, // this handle; the server's engine is dropped
        "no worker may retain a weight copy"
    );
}

#[test]
fn shutdown_drains_accepted_requests() {
    let model = tiny_model(15, false);
    let server = one_worker_server(&model, BatchConfig::default());
    let client = server.client();
    let _hold = Hold::start(&client);
    let tickets: Vec<_> = (0..5)
        .map(|i| client.submit("m", tokens_for(&model, i)).unwrap())
        .collect();
    // Shutdown must drain the assembler rather than dropping the 5
    // pending requests.
    let stats = server.shutdown();
    assert_eq!(stats.model("m").unwrap().requests, 5);
    for t in tickets {
        assert!(
            t.wait_timeout(Duration::ZERO).is_ok(),
            "accepted request must be served"
        );
    }
    // And a closed server refuses new work.
    assert!(matches!(
        client.classify("m", tokens_for(&model, 99)),
        Err(SubmitError::Closed)
    ));
}

/// Late binding, end to end, at the default config: requests that
/// arrive while the only worker is busy join one queue, and the worker
/// comes back to full batches cut oldest-first — `[max, max, 3]` for
/// `2·max + 3` arrivals, not one batch per request. Partial batches run
/// (nothing waits for companions), and none exceeds `max_batch_size`.
#[test]
fn default_config_fills_batches_behind_a_busy_worker() {
    let model = tiny_model(31, false);
    let server = one_worker_server(&model, BatchConfig::default());
    let max_batch = BatchConfig::default().max_batch_size;
    let client = server.client();
    let _hold = Hold::start(&client);
    let arrivals = 2 * max_batch + 3;
    let tickets: Vec<_> = (0..arrivals as u64)
        .map(|i| client.submit("m", tokens_for(&model, i)).unwrap())
        .collect();
    assert_eq!(client.queued_requests(), arrivals);

    // Every request in a batch reports that batch's compute wall, so
    // runs of equal `compute_s` in arrival order are the batches (a run
    // past `max_batch` is two batches that took equally long).
    let mut batches: Vec<(f64, usize)> = Vec::new();
    for ticket in &tickets {
        assert!(ticket.wait_timeout(Duration::from_secs(60)).is_ok());
        let compute_s = ticket.take_stage_report().expect("served").compute_s;
        match batches.last_mut() {
            Some((s, n)) if s.to_bits() == compute_s.to_bits() && *n < max_batch => *n += 1,
            _ => batches.push((compute_s, 1)),
        }
    }
    let sizes: Vec<usize> = batches.iter().map(|&(_, n)| n).collect();
    assert_eq!(sizes, [max_batch, max_batch, 3], "in arrival order");
    let mut want = vec![0u64; max_batch];
    want[max_batch - 1] = 2;
    want[2] = 1;
    let fills = server.stats().model("m").map(|m| m.batch_fill.clone());
    assert_eq!(fills, Some(want), "the batch-fill histogram agrees");
    server.shutdown();
}

/// "No limit", spelled as the largest `Duration`, must mean that — not
/// an `Instant` overflow that panics the caller (`submit_with_timeout`,
/// `Ticket::wait_timeout`).
#[test]
fn unrepresentable_wait_and_timeout_mean_no_limit() {
    let model = tiny_model(33, false);
    let server = one_worker_server(&model, BatchConfig::default());
    let client = server.client();
    let _hold = Hold::start(&client);
    let first = client
        .submit_with_timeout("m", tokens_for(&model, 1), Duration::MAX)
        .unwrap();
    let second = client
        .submit_with_timeout("m", tokens_for(&model, 2), Duration::MAX)
        .unwrap();
    assert!(first.wait_timeout(Duration::from_secs(60)).is_ok());
    assert!(second.wait_timeout(Duration::MAX).is_ok());
    let stats = server.shutdown();
    let m = stats.model("m").expect("model served");
    assert_eq!((m.requests, m.batches, m.timed_out), (2, 1, 0));
}

/// The in-process deadline satellites: `submit_with_timeout` +
/// `Ticket::wait_timeout` give in-process callers the wire path's
/// semantics — a request whose deadline passes before it reaches a
/// batch slot resolves as `TimedOut`, counts in the stats, and stops
/// occupying capacity.
#[test]
fn deadlines_expire_in_process_requests_instead_of_blocking_forever() {
    use vitcod_serve::RequestError;

    let model = tiny_model(17, false);
    let server = one_worker_server(&model, BatchConfig::default());
    let client = server.client();
    let hold = Hold::start(&client);

    // Queued behind the busy worker past its 20 ms deadline: the
    // worker's next take expires it instead of serving it.
    let expiring = client
        .submit_with_timeout("m", tokens_for(&model, 1), Duration::from_millis(20))
        .unwrap();
    // A client-side budget alone also returns, leaving the ticket
    // valid for a later wait.
    let ticket = client.submit("m", tokens_for(&model, 2)).unwrap();
    assert_eq!(
        ticket.wait_timeout(Duration::from_millis(20)),
        Err(RequestError::TimedOut)
    );

    hold.wait_out();
    // No local bound: only the server-side expiry can end this wait.
    assert_eq!(
        expiring.wait_timeout(Duration::MAX),
        Err(RequestError::TimedOut)
    );
    assert!(ticket.wait_timeout(Duration::from_secs(60)).is_ok());
    let stats = server.shutdown();
    let m = stats.model("m").expect("model recorded");
    assert_eq!(m.timed_out, 1, "only the expired request counts");
    assert_eq!(m.requests, 1);
}

/// Hot reload, deterministically: tickets submitted before the swap
/// hold the old engine and must resolve against the old weights even
/// though they are served after the swap; tickets submitted after it
/// resolve against the new ones.
#[test]
fn reload_keeps_in_flight_requests_on_their_submitted_engine() {
    let v1 = tiny_model(23, false);
    let v2 = tiny_model(24, false);
    let server = one_worker_server(&v1, BatchConfig::default());
    let client = server.client();
    let _hold = Hold::start(&client);

    let before: Vec<_> = (0..3)
        .map(|i| {
            let t = tokens_for(&v1, 300 + i);
            (t.clone(), client.submit("m", t).unwrap())
        })
        .collect();
    // The swap happens while those requests pend in the assembler.
    assert_eq!(client.queued_requests(), 3);
    assert!(server.reload("m", Engine::builder(v2.clone()).build()));
    let after: Vec<_> = (0..2)
        .map(|i| {
            let t = tokens_for(&v2, 400 + i);
            (t.clone(), client.submit("m", t).unwrap())
        })
        .collect();

    let v1_engine = Engine::builder(v1).build();
    let v2_engine = Engine::builder(v2).build();
    for (tokens, ticket) in before {
        let served = ticket.wait().expect("served");
        assert_eq!(
            served.logits,
            v1_engine.infer_one(&tokens).logits,
            "pre-reload submissions must finish on the old weights"
        );
    }
    for (tokens, ticket) in after {
        let served = ticket.wait().expect("served");
        assert_eq!(
            served.logits,
            v2_engine.infer_one(&tokens).logits,
            "post-reload submissions must see the new weights"
        );
    }
    server.shutdown();
}

/// The graceful-shutdown satellite: producers race `shutdown` from
/// other threads; every ticket whose submit returned `Ok` must resolve
/// with a prediction — no accepted request is ever stranded or
/// cancelled by a clean shutdown.
#[test]
fn shutdown_never_strands_an_accepted_ticket() {
    let model = tiny_model(29, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let server = Server::start(
        registry,
        BatchConfig {
            max_batch_size: 4,
            queue_capacity: 4,
            workers: 2,
        },
    );

    const PRODUCERS: u64 = 4;
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let client = server.client();
            let model = model.clone();
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                for i in 0..64u64 {
                    match client.submit("m", tokens_for(&model, p * 1000 + i)) {
                        Ok(ticket) => accepted.push(ticket),
                        // The race resolved: the server closed under us.
                        Err(SubmitError::Closed) => break,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                accepted
            })
        })
        .collect();
    // Shut down while the producers are mid-burst.
    std::thread::sleep(Duration::from_millis(5));
    let stats = server.shutdown();

    let mut accepted_total = 0u64;
    for p in producers {
        for ticket in p.join().unwrap() {
            accepted_total += 1;
            assert!(
                ticket.wait_timeout(Duration::from_secs(30)).is_ok(),
                "an accepted ticket must be served, not stranded"
            );
        }
    }
    assert!(accepted_total > 0, "the race should accept some requests");
    assert_eq!(
        stats.total_requests(),
        accepted_total,
        "drained work must match accepted work"
    );
}

/// Per-stage timing e2e: every served request contributes one
/// observation to the queue-wait, batch-assembly, and compute
/// histograms, and the stage durations add up to the end-to-end
/// latency (the stamps are a partition of enqueue → compute-end).
/// Purely in-process serving leaves the serialize stage empty — that
/// stage belongs to the transport.
#[test]
fn stage_histograms_partition_the_end_to_end_latency() {
    let model = tiny_model(91, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let server = Server::start(
        registry,
        BatchConfig {
            max_batch_size: 4,
            queue_capacity: 64,
            workers: 1,
        },
    );

    const CLIENTS: u64 = 3;
    const PER_CLIENT: u64 = 8;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = server.client();
            let model = model.clone();
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let tokens = tokens_for(&model, 4000 + c * PER_CLIENT + i);
                    client.classify("m", tokens).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.shutdown();
    let m = stats.model("m").expect("model served");
    let total = CLIENTS * PER_CLIENT;
    assert_eq!(m.requests, total);
    assert_eq!(m.latency_histogram.count, total);

    // One observation per request in each server-side stage; none in
    // serialize (no transport in this test).
    assert_eq!(m.stages.queue_wait.count, total);
    assert_eq!(m.stages.batch_assembly.count, total);
    assert_eq!(m.stages.compute.count, total);
    assert_eq!(m.stages.serialize.count, 0);

    // The stages partition the end-to-end latency: summed over all
    // requests, queue_wait + batch_assembly + compute equals the total
    // (same monotonic stamps on both sides, so only f64 rounding).
    let stage_sum =
        m.stages.queue_wait.sum_s + m.stages.batch_assembly.sum_s + m.stages.compute.sum_s;
    let e2e_sum = m.latency_histogram.sum_s;
    assert!(
        (stage_sum - e2e_sum).abs() <= 1e-6 * e2e_sum.max(1e-9) + 1e-7,
        "stage sums {stage_sum} must partition end-to-end {e2e_sum}"
    );
    // And the batcher was actually exercised: requests spent nonzero
    // time in assembly (the hand-off to a worker) and in compute.
    assert!(m.stages.compute.sum_s > 0.0);
    assert!(m.stages.batch_assembly.sum_s > 0.0);
    // Histogram and exact-ring views agree on the mean end to end.
    assert!(
        (m.latency_histogram.mean_s() - e2e_sum / total as f64).abs() < 1e-12,
        "histogram mean must be sum/count"
    );
}

/// Head-sampled requests report a compute span tree that exactly
/// partitions into per-layer op leaves; unsampled requests report only
/// stage totals; per-op histograms and the achieved-Gop/s gauge land in
/// the stats; and a slow tree round-trips through the traces ring with a
/// non-destructive peek.
#[test]
fn traced_submits_report_partitioned_span_trees_and_op_stats() {
    let model = tiny_model(21, true);
    let depth = model.config().depth;
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let server = Server::start_with_tracing(
        registry,
        BatchConfig {
            max_batch_size: 2,
            queue_capacity: 64,
            workers: 1,
        },
        TracingConfig {
            sample_rate: 1.0,
            slow_threshold: None,
        },
    );
    let client = server.client();
    assert!(client.sample_trace(), "rate 1.0 samples every request");

    let sampled = client
        .submit_traced("m", tokens_for(&model, 1), None, true)
        .unwrap();
    let traced_prediction = sampled.wait_timeout(Duration::from_secs(60)).unwrap();
    let report = sampled.take_stage_report().expect("sampled report");
    assert!(report.queue_wait_s >= 0.0 && report.batch_assembly_s >= 0.0);
    let compute = report.compute.expect("sampled compute span");
    assert_eq!(compute.name, "compute");
    assert!((compute.duration_s - report.compute_s).abs() < 1e-12);
    // Layers plus the `other` leaf partition compute exactly, and every
    // layer partitions into the engine's named ops.
    assert_eq!(compute.children.len(), depth + 1);
    assert!((children_s(&compute) - compute.duration_s).abs() < 1e-9);
    for (i, layer) in compute.children[..depth].iter().enumerate() {
        assert_eq!(layer.name, format!("layer{i}"));
        let names: Vec<&str> = layer.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vitcod_engine::OP_NAMES.to_vec());
        assert!((children_s(layer) - layer.duration_s).abs() < 1e-9);
    }

    // The same tokens, untraced: the thing observed is the thing served.
    let plain = client.submit("m", tokens_for(&model, 1)).unwrap();
    let plain_prediction = plain.wait_timeout(Duration::from_secs(60)).unwrap();
    let report = plain.take_stage_report().expect("unsampled report");
    assert!(report.compute.is_none(), "fast path carries no span tree");
    assert!(report.compute_s > 0.0);
    assert_eq!(traced_prediction.class, plain_prediction.class);
    let bits = |p: &Prediction| p.logits.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&traced_prediction), bits(&plain_prediction));

    let stats = server.stats();
    let m = stats.model("m").unwrap();
    assert_eq!(m.ops.len(), vitcod_engine::OP_COUNT);
    assert!(m.ops.iter().all(|(_, h)| h.count >= 1));
    assert!(m.achieved_gops.expect("gauge enriched from the engine") > 0.0);
    assert!(m.compute_batch_s > 0.0);

    // Ring round trip: a sampled request past half its 1 s deadline is
    // kept once, as slow → peek (non-destructive) → take (drains).
    let kept = client.record_finished(
        "t-1".into(),
        "m",
        true,
        RequestOutcome::Ok,
        Some(Duration::from_secs(1)),
        Span::leaf("request", 0.6),
    );
    assert_eq!(kept, Some(KeepReason::Slow));
    let peeked = client.peek_traces();
    assert_eq!(peeked.len(), 1);
    assert_eq!(peeked[0].kept, KeepReason::Slow);
    assert_eq!(client.take_traces(), peeked);
    assert!(client.take_traces().is_empty());
    assert_eq!(client.traces_dropped(), 0);
    assert_eq!(server.stats().model("m").unwrap().slow, 1);
    server.shutdown();
}

/// The keep rule, every row of sampled × slow × outcome on a plain
/// `Server::start`: `error` if the request failed or expired, else
/// `slow` past half its deadline, else `head` if sampled, else nothing —
/// and each request lands in `/v1/traces` at most once. Every slow
/// request counts in `slow`, kept as slow or not.
#[test]
fn keep_rule_records_each_request_at_most_once() {
    let model = tiny_model(23, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model).build())
        .unwrap();
    let server = Server::start(registry, BatchConfig::default());
    let client = server.client();
    assert_eq!(client.model_shape("m").map(|(_, d)| d), Some(IN_DIM));
    assert_eq!(client.model_shape("nope"), None);
    let deadline = Some(Duration::from_secs(1));
    let mut slow_rows = 0;
    for sampled in [false, true] {
        for slow in [false, true] {
            for outcome in [
                RequestOutcome::Ok,
                RequestOutcome::Expired,
                RequestOutcome::Failed,
            ] {
                let want = match (outcome, slow, sampled) {
                    (RequestOutcome::Ok, false, false) => None,
                    (RequestOutcome::Ok, false, true) => Some(KeepReason::Head),
                    (RequestOutcome::Ok, true, _) => Some(KeepReason::Slow),
                    _ => Some(KeepReason::Error),
                };
                let row = format!("sampled {sampled}, slow {slow}, {outcome:?}");
                let total_s = if slow { 0.6 } else { 0.4 };
                let got = client.record_finished(
                    row.clone(),
                    "m",
                    sampled,
                    outcome,
                    deadline,
                    Span::leaf("request", total_s),
                );
                assert_eq!(got, want, "{row}");
                let traces = client.take_traces();
                assert_eq!(traces.len(), usize::from(want.is_some()), "{row}");
                if let Some(t) = traces.first() {
                    assert_eq!(Some(t.kept), want, "{row}");
                    assert_eq!(t.trace_id, row);
                    assert_eq!(t.sampled, sampled, "{row}");
                    assert_eq!(t.model, "m");
                }
                slow_rows += u64::from(slow);
            }
        }
    }
    assert_eq!(server.stats().model("m").unwrap().slow, slow_rows);
    assert_eq!(client.traces_dropped(), 0);
    server.shutdown();
}
