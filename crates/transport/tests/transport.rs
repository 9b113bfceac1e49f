//! End-to-end loopback tests for the HTTP transport: bit-identical
//! predictions through the socket, wire-level deadlines, round-robin
//! fairness under a flooding model, hot artifact reload with in-flight
//! requests, graceful shutdown (idle and busy handler pools), the listen
//! backlog as the overflow queue, and status-code mapping.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{save_compiled_vit, CompiledVit, Engine, Precision};
use vitcod_model::{Sample, SparsityPlan, ViTConfig, VisionTransformer};
use vitcod_serve::{BatchConfig, ModelRegistry, Server};
use vitcod_tensor::{Initializer, Matrix};
use vitcod_transport::{api::tokens_json, http, HttpClient, HttpServer, Json, TransportConfig};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

fn tiny_model(seed: u64, sparse: bool) -> CompiledVit {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    if sparse {
        let n = cfg.tokens;
        let mut mask = Matrix::zeros(n, n);
        for q in 0..n {
            mask.set(q, q, 1.0);
            mask.set(q, 0, 1.0);
            mask.set(q, (q + 1) % n, 1.0);
        }
        let plan: SparsityPlan = (0..cfg.depth)
            .map(|_| (0..cfg.heads).map(|_| Some(mask.clone())).collect())
            .collect();
        vit.set_sparsity_plan(plan);
    }
    CompiledVit::from_parts(&vit, &store)
}

fn tokens_for(model: &CompiledVit, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(model.config().tokens, IN_DIM, seed)
}

fn classify_body(m: &Matrix, timeout_ms: Option<u64>) -> String {
    let mut fields = vec![("tokens".to_string(), tokens_json(m))];
    if let Some(t) = timeout_ms {
        fields.push(("timeout_ms".into(), Json::Number(t as f64)));
    }
    Json::Object(fields).to_string()
}

fn batch_body(items: &[Matrix]) -> String {
    Json::Object(vec![(
        "batch".into(),
        Json::Array(
            items
                .iter()
                .map(|m| Json::Object(vec![("tokens".into(), tokens_json(m))]))
                .collect(),
        ),
    )])
    .to_string()
}

fn logits_of(v: &Json) -> Vec<f32> {
    v.get("logits")
        .expect("logits")
        .as_array()
        .expect("array")
        .iter()
        .map(|x| x.as_f64().expect("number") as f32)
        .collect()
}

/// A scratch directory unique to this test, cleaned up on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("vitcod-transport-{tag}-{}", std::process::id()));
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

fn start_http(registry: ModelRegistry, batch: BatchConfig) -> HttpServer {
    start_http_with_root(registry, batch, None)
}

/// Like [`start_http`], with wire reloads enabled under `root`.
fn start_http_with_root(
    registry: ModelRegistry,
    batch: BatchConfig,
    root: Option<std::path::PathBuf>,
) -> HttpServer {
    let server = Server::start(registry, batch);
    HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            artifact_root: root,
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback")
}

/// The ISSUE's acceptance criterion: predictions served through the
/// socket — artifact round trip included — are bit-identical to direct
/// `Engine::infer_batch` on the same tokens, for both the single and
/// the batch wire shape.
#[test]
fn loopback_predictions_are_bit_identical_to_direct_inference() {
    let original = tiny_model(42, true);
    let dir = TempDir::new("bitident");
    std::fs::write(
        dir.0.join("deit-tiny.vitcod"),
        save_compiled_vit(&original, Precision::Fp32),
    )
    .unwrap();
    let registry = ModelRegistry::load_dir(&dir.0).unwrap();
    let http = start_http(registry, BatchConfig::default());
    let mut client = HttpClient::connect(http.local_addr()).unwrap();

    // Health first: the process is alive and knows its model.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health = health.json().unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        health.get("models").unwrap().as_array().unwrap()[0].as_str(),
        Some("deit-tiny")
    );

    let samples: Vec<Matrix> = (0..6).map(|i| tokens_for(&original, 7000 + i)).collect();
    let engine = Engine::builder(original.clone()).build();
    let direct = engine.infer_batch(
        &samples
            .iter()
            .map(|t| Sample {
                tokens: t.clone(),
                label: 0,
            })
            .collect::<Vec<_>>(),
    );

    // Single-shape requests over one keep-alive connection.
    for (tokens, expect) in samples.iter().take(3).zip(&direct) {
        let resp = client
            .post(
                "/v1/models/deit-tiny/classify",
                &classify_body(tokens, None),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let body = resp.json().unwrap();
        let logits = logits_of(&body);
        assert_eq!(logits.len(), expect.logits.len());
        for (a, b) in logits.iter().zip(&expect.logits) {
            assert_eq!(a.to_bits(), b.to_bits(), "socket must not perturb logits");
        }
        assert_eq!(
            body.get("class").unwrap().as_u64(),
            Some(expect.class as u64)
        );
    }

    // Batch shape: one HTTP round trip, three serving-layer tickets.
    let resp = client
        .post("/v1/models/deit-tiny/classify", &batch_body(&samples[3..]))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let results = resp.json().unwrap();
    let results = results.get("results").unwrap().as_array().unwrap().to_vec();
    assert_eq!(results.len(), 3);
    for (r, expect) in results.iter().zip(&direct[3..]) {
        for (a, b) in logits_of(r).iter().zip(&expect.logits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Stats went through the wire too.
    let stats = client.get("/v1/stats").unwrap().json().unwrap();
    let models = stats.get("models").unwrap().as_array().unwrap();
    assert_eq!(models[0].get("model").unwrap().as_str(), Some("deit-tiny"));
    assert_eq!(models[0].get("requests").unwrap().as_u64(), Some(6));

    let final_stats = http.shutdown();
    assert_eq!(final_stats.total_requests(), 6);
}

/// A wire-level `timeout_ms` is a real deadline: on a server whose
/// batcher would otherwise hold the request for 10 s, the response is a
/// prompt 504 and the expiry shows up in the stats.
#[test]
fn wire_timeout_resolves_504_and_counts_in_stats() {
    let model = tiny_model(5, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let http = start_http(
        registry,
        BatchConfig {
            max_batch_size: 64,
            max_wait: Duration::from_secs(10),
            queue_capacity: 64,
            workers: 1,
        },
    );
    let mut client = HttpClient::connect(http.local_addr()).unwrap();
    let t = Instant::now();
    let resp = client
        .post(
            "/v1/models/m/classify",
            &classify_body(&tokens_for(&model, 1), Some(40)),
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_str());
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "timeout must not wait for the 10s flush deadline"
    );
    let stats = client.get("/v1/stats").unwrap().json().unwrap();
    let m = &stats.get("models").unwrap().as_array().unwrap()[0];
    assert_eq!(m.get("timed_out").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("requests").unwrap().as_u64(), Some(0));
    drop(client);
    http.shutdown();
}

/// The fairness acceptance criterion: with one model flooding the
/// server, a light model's latency must not collapse — the batcher
/// hands out ready batches round-robin, so the victim waits behind at
/// most one of the flooder's batches, never its whole backlog.
#[test]
fn round_robin_fairness_under_mixed_traffic() {
    let model = tiny_model(21, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("hot", Engine::builder(model.clone()).build())
        .unwrap();
    registry
        .register("cold", Engine::builder(model.clone()).build())
        .unwrap();
    let http = start_http(
        registry,
        BatchConfig {
            max_batch_size: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 512,
            workers: 1,
        },
    );
    let addr = http.local_addr();

    const VICTIM_REQUESTS: usize = 40;
    let run_victim = || {
        let mut client = HttpClient::connect(addr).unwrap();
        let mut latencies: Vec<f64> = (0..VICTIM_REQUESTS as u64)
            .map(|i| {
                let body = classify_body(&tokens_for(&model, 100 + i), None);
                let t = Instant::now();
                let resp = client.post("/v1/models/cold/classify", &body).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body_str());
                t.elapsed().as_secs_f64()
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize]
    };

    // Baseline: the light model alone.
    let baseline_p99 = run_victim();

    // Flood: three connections hammering "hot" with 32-sample batches
    // (each explodes into eight ready batches) while the victim runs.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooders: Vec<_> = (0..3)
        .map(|f| {
            let stop = std::sync::Arc::clone(&stop);
            let model = model.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let items: Vec<Matrix> = (0..32)
                    .map(|i| tokens_for(&model, 9000 + f * 100 + i))
                    .collect();
                let body = batch_body(&items);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client.post("/v1/models/hot/classify", &body).unwrap();
                    assert_eq!(resp.status, 200);
                }
            })
        })
        .collect();
    // Let the flood build a backlog before measuring.
    std::thread::sleep(Duration::from_millis(100));
    let flooded_p99 = run_victim();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }

    let stats = http.shutdown();
    let hot_p99 = stats.model("hot").expect("hot served").p99_latency_s;
    let cold_served = stats.model("cold").expect("cold served").requests;
    assert_eq!(cold_served as usize, 2 * VICTIM_REQUESTS);
    // The acceptance bound (with a floor to keep 1-CPU scheduler noise
    // from flapping a sub-millisecond baseline): the victim's p99 must
    // not degrade more than 3x under the flood.
    let bound = (3.0 * baseline_p99).max(0.060);
    println!(
        "fairness: victim p99 {:.1}ms alone -> {:.1}ms flooded (bound {:.1}ms, hot p99 {:.1}ms)",
        baseline_p99 * 1e3,
        flooded_p99 * 1e3,
        bound * 1e3,
        hot_p99 * 1e3
    );
    assert!(
        flooded_p99 <= bound,
        "victim p99 {flooded_p99:.4}s exceeds {bound:.4}s (baseline {baseline_p99:.4}s) — \
         round-robin draining failed"
    );
    // And round-robin shows up server-side: the flooder waits behind
    // its own backlog, the victim does not wait behind the flooder's.
    assert!(
        flooded_p99 < hot_p99,
        "victim p99 {flooded_p99:.4}s should undercut the flooding model's {hot_p99:.4}s"
    );
}

/// Hot reload: `POST /v1/models/m/reload` swaps the artifact while
/// requests already in the batch assembler still complete on the old
/// weights, and later requests see the new ones.
#[test]
fn reload_swaps_artifact_without_dropping_in_flight_requests() {
    let v1 = tiny_model(31, false);
    let v2 = tiny_model(32, false);
    let dir = TempDir::new("reload");
    std::fs::write(
        dir.0.join("m.vitcod"),
        save_compiled_vit(&v1, Precision::Fp32),
    )
    .unwrap();
    let v2_path = dir.0.join("m-v2.vitcod");
    std::fs::write(&v2_path, save_compiled_vit(&v2, Precision::Fp32)).unwrap();

    let registry = ModelRegistry::load_dir(&dir.0).unwrap();
    let http = start_http_with_root(
        registry,
        BatchConfig {
            // In-flight window: requests pend in the assembler for up
            // to 1s unless 64 arrive.
            max_batch_size: 64,
            max_wait: Duration::from_secs(1),
            queue_capacity: 64,
            workers: 1,
        },
        Some(dir.0.clone()),
    );
    let addr = http.local_addr();

    let in_flight: Vec<Matrix> = (0..4).map(|i| tokens_for(&v1, 500 + i)).collect();
    let direct_v1 = Engine::builder(v1.clone()).build().infer_batch(
        &in_flight
            .iter()
            .map(|t| Sample {
                tokens: t.clone(),
                label: 0,
            })
            .collect::<Vec<_>>(),
    );

    // Fire the in-flight batch on a raw connection and do NOT read the
    // response yet: its four tickets now pend against the v1 engine.
    let mut conn1 = TcpStream::connect(addr).unwrap();
    let body = batch_body(&in_flight);
    let head = format!(
        "POST /v1/models/m/classify HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn1.write_all(head.as_bytes()).unwrap();
    conn1.write_all(body.as_bytes()).unwrap();
    conn1.flush().unwrap();
    // Generous delivery margin, well inside the 1s flush deadline.
    std::thread::sleep(Duration::from_millis(150));

    // Swap the artifact mid-flight.
    let mut conn2 = HttpClient::connect(addr).unwrap();
    let resp = conn2
        .post(
            "/v1/models/m/reload",
            &Json::Object(vec![(
                "path".into(),
                Json::String(v2_path.display().to_string()),
            )])
            .to_string(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let reload = resp.json().unwrap();
    assert_eq!(reload.get("replaced").unwrap().as_bool(), Some(true));
    assert_eq!(reload.get("precision").unwrap().as_str(), Some("fp32"));

    // A post-reload request resolves against the new weights…
    let probe = tokens_for(&v2, 900);
    let direct_v2 = Engine::builder(v2.clone()).build().infer_one(&probe);
    let resp = conn2
        .post("/v1/models/m/classify", &classify_body(&probe, None))
        .unwrap();
    assert_eq!(resp.status, 200);
    for (a, b) in logits_of(&resp.json().unwrap())
        .iter()
        .zip(&direct_v2.logits)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "post-reload must serve v2");
    }

    // …while the in-flight batch still completes on the old ones.
    let resp = http::read_response(&mut conn1).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let results = resp.json().unwrap();
    let results = results.get("results").unwrap().as_array().unwrap().to_vec();
    assert_eq!(results.len(), 4);
    for (r, expect) in results.iter().zip(&direct_v1) {
        for (a, b) in logits_of(r).iter().zip(&expect.logits) {
            assert_eq!(a.to_bits(), b.to_bits(), "in-flight must finish on v1");
        }
    }
    http.shutdown();
}

/// Graceful shutdown: requests already on the wire complete; new
/// connections are refused afterwards; accepted work shows up in the
/// final statistics.
#[test]
fn shutdown_completes_wire_requests_then_refuses_connections() {
    let model = tiny_model(61, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let http = start_http(
        registry,
        BatchConfig {
            max_batch_size: 8,
            max_wait: Duration::from_millis(20),
            queue_capacity: 64,
            workers: 2,
        },
    );
    let addr = http.local_addr();

    let workers: Vec<_> = (0..4u64)
        .map(|c| {
            let model = model.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let resp = client
                    .post(
                        "/v1/models/m/classify",
                        &classify_body(&tokens_for(&model, 80 + c), None),
                    )
                    .unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body_str());
            })
        })
        .collect();
    // Let the requests reach the wire, then shut down under them.
    std::thread::sleep(Duration::from_millis(30));
    let stats = http.shutdown();
    for w in workers {
        w.join().expect("an accepted wire request was stranded");
    }
    assert_eq!(stats.total_requests(), 4);
    // The listener is gone: a fresh connection cannot complete a
    // request (refused outright, or reset before a response).
    let refused = match HttpClient::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.get("/healthz").is_err(),
    };
    assert!(refused, "shutdown server must not accept new work");
}

/// A transport over one idle tiny model with `handler_threads` handlers.
fn start_http_with_handlers(handler_threads: usize) -> HttpServer {
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(tiny_model(63, false)).build())
        .unwrap();
    HttpServer::bind(
        "127.0.0.1:0",
        Server::start(registry, BatchConfig::default()),
        TransportConfig {
            handler_threads,
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback")
}

/// Shutdown reaches every handler wherever it is parked: in `accept()`
/// (one wake-up connection each) or inside a keep-alive connection (the
/// read poll sees the flag).
#[test]
fn shutdown_is_prompt_with_handlers_idle_and_with_handlers_on_connections() {
    let http = start_http_with_handlers(4);
    let t = Instant::now();
    http.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "idle pool took {:?}",
        t.elapsed()
    );

    let http = start_http_with_handlers(2);
    let mut held: Vec<HttpClient> = (0..2)
        .map(|_| HttpClient::connect(http.local_addr()).unwrap())
        .collect();
    for c in &mut held {
        // Answered, so a handler is inside this connection.
        assert_eq!(c.get("/healthz").unwrap().status, 200);
    }
    let t = Instant::now();
    http.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "busy pool took {:?}",
        t.elapsed()
    );
}

/// Connections beyond the pool wait in the kernel's listen backlog: a
/// third connection's request sits unanswered while two keep-alive
/// connections hold both handlers, and is answered as soon as one of
/// them closes.
#[test]
fn connection_beyond_the_pool_is_served_when_a_handler_frees_up() {
    let http = start_http_with_handlers(2);
    let addr = http.local_addr();
    let mut first = HttpClient::connect(addr).unwrap();
    let mut second = HttpClient::connect(addr).unwrap();
    assert_eq!(first.get("/healthz").unwrap().status, 200);
    assert_eq!(second.get("/healthz").unwrap().status, 200);

    let third = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("the backlog accepts the connect");
        client.get("/healthz").unwrap().status
    });
    std::thread::sleep(Duration::from_millis(200));
    assert!(!third.is_finished(), "both handlers are taken");

    let t = Instant::now();
    drop(first);
    assert_eq!(third.join().unwrap(), 200);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "freed handler took {:?} to pick the waiting connection up",
        t.elapsed()
    );
    drop(second);
    http.shutdown();
}

/// Status-code mapping for well-formed requests that cannot be served.
#[test]
fn api_errors_map_to_clean_statuses() {
    let model = tiny_model(71, false);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let root = TempDir::new("apierrors");
    let http = start_http_with_root(registry, BatchConfig::default(), Some(root.0.clone()));
    let mut client = HttpClient::connect(http.local_addr()).unwrap();

    // Unknown model → 404.
    let resp = client
        .post(
            "/v1/models/nope/classify",
            &classify_body(&tokens_for(&model, 1), None),
        )
        .unwrap();
    assert_eq!(resp.status, 404);
    // Wrong token shape → 400 naming both shapes.
    let resp = client
        .post(
            "/v1/models/m/classify",
            &classify_body(&Matrix::zeros(2, 2), None),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body_str().contains("does not match"),
        "{}",
        resp.body_str()
    );
    // Unknown endpoint → 404; wrong method → 405.
    assert_eq!(client.get("/v2/whatever").unwrap().status, 404);
    assert_eq!(client.post("/healthz", "{}").unwrap().status, 405);
    // Reload without a path → 400; reload of an unregistered id → 404;
    // a path escaping the artifact root → 403.
    let resp = client.post("/v1/models/m/reload", "{}").unwrap();
    assert_eq!(resp.status, 400);
    let resp = client.post("/v1/models/ghost/reload", "{}").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client
        .post(
            "/v1/models/m/reload",
            r#"{"path": "/definitely/not/here.vitcod"}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 403);
    http.shutdown();

    // With no artifact_root configured, wire reloads are off entirely.
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let http = start_http(registry, BatchConfig::default());
    let mut client = HttpClient::connect(http.local_addr()).unwrap();
    let resp = client
        .post("/v1/models/m/reload", r#"{"path": "x.vitcod"}"#)
        .unwrap();
    assert_eq!(resp.status, 403);
    assert!(resp.body_str().contains("disabled"), "{}", resp.body_str());
    http.shutdown();
}
