//! Loopback e2e for the observability surface: `/v1/metrics` is valid
//! Prometheus text exposition (parsed through `vitcod_obs::promtext` —
//! the same parser the monitor binary ships — and cross-checked
//! against `/v1/stats`, per the acceptance criterion), `/v1/traces`
//! keeps each failed, slow or head-sampled request's span tree once,
//! `/v1/health?deep=1` runs per-model inference probes, `/v1/health` +
//! `/v1/stats` report uptime and per-model precision/stage
//! breakdowns, and the `vitcod-obs` burn-rate alert walks an outage and
//! its recovery from live scrapes.

use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{CompiledVit, Engine, Precision};
use vitcod_model::{ViTConfig, VisionTransformer};
use vitcod_obs::promtext::{check_histogram, Exposition};
use vitcod_obs::{AlertState, Objective, Scraper, SloConfig, SloTracker};
use vitcod_serve::{BatchConfig, ModelRegistry, Server, TracingConfig};
use vitcod_tensor::Initializer;
use vitcod_transport::{
    api::tokens_json, HttpClient, HttpServer, Json, TransportConfig, TRACE_ID_HEADER,
};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

fn tiny_model(seed: u64) -> CompiledVit {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    CompiledVit::from_parts(&vit, &store)
}

fn classify_body(model: &CompiledVit, seed: u64) -> String {
    let tokens = Initializer::Normal { std: 1.0 }.sample(model.config().tokens, IN_DIM, seed);
    Json::Object(vec![("tokens".into(), tokens_json(&tokens))]).to_string()
}

/// Parses an exposition body through the shared `vitcod-obs` parser,
/// panicking (test context) on malformed input.
fn parse_prom(text: &str) -> Exposition {
    Exposition::parse(text).expect("valid text exposition")
}

/// The single sample of `name` matching the label pairs.
fn prom_one(prom: &Exposition, name: &str, want: &[(&str, &str)]) -> f64 {
    prom.one(name, want)
        .unwrap_or_else(|e| panic!("{name}{want:?}: {e}"))
}

/// Validates one histogram entry, returning its `_count`.
fn prom_histogram(prom: &Exposition, name: &str, labels: &[(&str, &str)]) -> f64 {
    check_histogram(prom, name, labels).unwrap_or_else(|e| panic!("{name}{labels:?}: {e}"))
}

#[test]
fn metrics_exposition_parses_and_matches_stats() {
    let model = tiny_model(11);
    let mut registry = ModelRegistry::new();
    registry
        .register("tiny-fp32", Engine::builder(model.clone()).build())
        .unwrap();
    registry
        .register(
            "tiny-int8",
            Engine::builder(model.clone())
                .precision(Precision::Int8)
                .build(),
        )
        .unwrap();
    let server = Server::start(
        registry,
        BatchConfig {
            max_batch_size: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64,
            workers: 1,
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();

    const FP32_REQS: u64 = 6;
    const INT8_REQS: u64 = 3;
    for i in 0..FP32_REQS {
        let resp = client
            .post("/v1/models/tiny-fp32/classify", &classify_body(&model, i))
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }
    for i in 0..INT8_REQS {
        let resp = client
            .post(
                "/v1/models/tiny-int8/classify",
                &classify_body(&model, 100 + i),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }

    let resp = client.get("/v1/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let content_type = resp
        .headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.clone())
        .expect("metrics must carry a Content-Type");
    assert!(
        content_type.starts_with("text/plain") && content_type.contains("version=0.0.4"),
        "exposition content type, got {content_type}"
    );
    let text = resp.body_str();
    let prom = parse_prom(&text);

    // Request counters match what we actually sent, per model.
    assert!(
        (prom_one(&prom, "vitcod_requests_total", &[("model", "tiny-fp32")]) - FP32_REQS as f64)
            .abs()
            < 0.5
    );
    assert!(
        (prom_one(&prom, "vitcod_requests_total", &[("model", "tiny-int8")]) - INT8_REQS as f64)
            .abs()
            < 0.5
    );
    assert_eq!(
        prom.types.get("vitcod_requests_total").map(String::as_str),
        Some("counter")
    );
    assert!(prom_one(&prom, "vitcod_uptime_seconds", &[]) > 0.0);
    assert!(prom_one(&prom, "vitcod_queue_depth", &[]) >= 0.0);

    // Precision surfaces as a model_info label, and model_info carries
    // no other label: the kernels have one path, so there is nothing
    // else to report.
    let info = prom.with("vitcod_model_info", &[("model", "tiny-int8")]);
    assert_eq!(info.len(), 1);
    assert_eq!(
        info[0].labels.get("precision").map(String::as_str),
        Some("int8")
    );
    let names: Vec<&str> = info[0].labels.keys().map(String::as_str).collect();
    assert_eq!(names, ["model", "precision"], "vitcod_model_info labels");

    // End-to-end latency histogram: cumulative, +Inf == count == reqs.
    let count = prom_histogram(
        &prom,
        "vitcod_request_latency_seconds",
        &[("model", "tiny-fp32")],
    );
    assert!((count - FP32_REQS as f64).abs() < 0.5);

    // Per-stage histograms exist for every stage of every model — the
    // serialize stage included, since responses went over the wire.
    for model_id in ["tiny-fp32", "tiny-int8"] {
        for stage in ["queue_wait", "batch_assembly", "compute", "serialize"] {
            let count = prom_histogram(
                &prom,
                "vitcod_stage_latency_seconds",
                &[("model", model_id), ("stage", stage)],
            );
            assert!(count > 0.0, "{model_id}/{stage} must have observations");
        }
    }
    prom_histogram(&prom, "vitcod_batch_fill", &[("model", "tiny-fp32")]);
    prom_histogram(&prom, "vitcod_batch_fill", &[("model", "tiny-int8")]);

    // The exposition agrees with the JSON stats surface.
    let stats = client.get("/v1/stats").unwrap().json().unwrap();
    let models = stats.get("models").unwrap().as_array().unwrap().to_vec();
    for m in &models {
        let id = m.get("model").unwrap().as_str().unwrap().to_string();
        let json_reqs = m.get("requests").unwrap().as_u64().unwrap() as f64;
        assert!(
            (prom_one(&prom, "vitcod_requests_total", &[("model", &id)]) - json_reqs).abs() < 0.5,
            "{id}: /v1/metrics and /v1/stats disagree on requests"
        );
        let json_batches = m.get("batches").unwrap().as_u64().unwrap();
        assert!(json_batches > 0, "{id}: served requests ran in no batch");
        assert!(
            (prom_one(&prom, "vitcod_batches_total", &[("model", &id)]) - json_batches as f64)
                .abs()
                < 0.5,
            "{id}: /v1/metrics and /v1/stats disagree on batches"
        );
    }
    http.shutdown();
}

#[test]
fn stats_report_precision_stages_and_uptime() {
    let model = tiny_model(12);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            Engine::builder(model.clone())
                .precision(Precision::Int8)
                .build(),
        )
        .unwrap();
    let http = HttpServer::bind(
        "127.0.0.1:0",
        Server::start(registry, BatchConfig::default()),
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();
    let resp = client
        .post("/v1/models/m/classify", &classify_body(&model, 7))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let health = client.get("/v1/health").unwrap().json().unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert!(health.get("uptime_s").unwrap().as_f64().unwrap() > 0.0);

    let stats = client.get("/v1/stats").unwrap().json().unwrap();
    assert!(stats.get("uptime_s").unwrap().as_f64().unwrap() > 0.0);
    let m = stats.get("models").unwrap().as_array().unwrap()[0].clone();
    assert_eq!(m.get("precision").unwrap().as_str(), Some("int8"));
    assert!(m.get("backend").is_none(), "/v1/stats has no backend key");
    assert!(m.get("p999_latency_s").unwrap().as_f64().unwrap() > 0.0);
    let stages = m.get("stages").unwrap();
    for stage in ["queue_wait", "batch_assembly", "compute", "serialize"] {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("stats missing stage {stage}"));
        assert_eq!(s.get("count").unwrap().as_u64(), Some(1), "{stage}");
        assert!(s.get("p99_s").unwrap().as_f64().is_some(), "{stage}");
    }
    http.shutdown();
}

/// Walks a span tree in its JSON shape.
fn span_name(span: &Json) -> String {
    span.get("name").unwrap().as_str().unwrap().to_string()
}

fn span_duration(span: &Json) -> f64 {
    span.get("duration_s").unwrap().as_f64().unwrap()
}

fn span_children(span: &Json) -> Vec<Json> {
    span.get("children").unwrap().as_array().unwrap().to_vec()
}

/// The tentpole acceptance path, end to end over loopback: a request
/// carrying `x-vitcod-trace-id` is force-sampled, its span tree is
/// fetchable from `/v1/traces` (non-destructively via `?peek=1` first),
/// the tree partitions correctly, and its compute subtree names every
/// per-layer op. The per-op histograms and the achieved-GFLOP/s gauge
/// surface in `/v1/metrics`.
#[test]
fn trace_id_header_yields_partitioned_span_tree_and_op_metrics() {
    let model = tiny_model(21);
    let depth = model.config().depth;
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    // sample_rate 0: only the header can force a request into the ring.
    let server = Server::start_with_tracing(
        registry,
        BatchConfig::default(),
        TracingConfig {
            sample_rate: 0.0,
            slow_threshold: None,
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();

    // One unsampled request (must NOT land in the ring)…
    let resp = client
        .post("/v1/models/m/classify", &classify_body(&model, 30))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    // …and one force-sampled request with a caller-chosen trace id.
    let resp = client
        .post_with_header(
            "/v1/models/m/classify",
            &classify_body(&model, 31),
            (TRACE_ID_HEADER, "forensics-1"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // `?peek=1` is non-destructive: the trace is still there afterwards.
    let peeked = client.get("/v1/traces?peek=1").unwrap().json().unwrap();
    let peeked = peeked.get("traces").unwrap().as_array().unwrap().to_vec();
    assert_eq!(peeked.len(), 1, "exactly the header-forced request");

    let drained = client.get("/v1/traces").unwrap().json().unwrap();
    assert_eq!(drained.get("dropped").unwrap().as_u64(), Some(0));
    let traces = drained.get("traces").unwrap().as_array().unwrap().to_vec();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    assert_eq!(t.get("trace_id").unwrap().as_str(), Some("forensics-1"));
    assert_eq!(t.get("model").unwrap().as_str(), Some("m"));
    assert_eq!(t.get("sampled").unwrap().as_bool(), Some(true));
    let total_s = t.get("total_s").unwrap().as_f64().unwrap();
    assert!(total_s > 0.0);

    // Root partition: request → parse, queue, batch_assembly, compute,
    // serialize; children never sum past the parent (gaps are real
    // waiting, not accounting error).
    let root = t.get("root").unwrap().clone();
    assert_eq!(span_name(&root), "request");
    assert!((span_duration(&root) - total_s).abs() < 1e-9);
    let stages = span_children(&root);
    let stage_names: Vec<String> = stages.iter().map(span_name).collect();
    assert_eq!(
        stage_names,
        ["parse", "queue", "batch_assembly", "compute", "serialize"]
    );
    let stage_sum: f64 = stages.iter().map(span_duration).sum();
    assert!(
        stage_sum <= span_duration(&root) + 1e-9,
        "stage sum {stage_sum} exceeds request {}",
        span_duration(&root)
    );

    // Compute partition is exact: per-layer spans plus an `other` leaf
    // account for every second, and each layer names every op.
    let compute = stages[3].clone();
    let layers = span_children(&compute);
    assert_eq!(layers.len(), depth + 1, "depth layers + other");
    let layer_sum: f64 = layers.iter().map(span_duration).sum();
    assert!(
        (layer_sum - span_duration(&compute)).abs() < 1e-9,
        "compute children must partition compute exactly"
    );
    for (i, layer) in layers.iter().take(depth).enumerate() {
        assert_eq!(span_name(layer), format!("layer{i}"));
        let ops = span_children(layer);
        let op_names: Vec<String> = ops.iter().map(span_name).collect();
        assert_eq!(op_names, vitcod_engine::OP_NAMES, "layer{i} ops");
        let op_sum: f64 = ops.iter().map(span_duration).sum();
        assert!((op_sum - span_duration(layer)).abs() < 1e-9);
    }
    assert_eq!(span_name(&layers[depth]), "other");

    // Drain is destructive: the ring is empty now.
    let again = client.get("/v1/traces").unwrap().json().unwrap();
    assert!(again.get("traces").unwrap().as_array().unwrap().is_empty());

    // The per-op histograms parse out of /v1/metrics with bounded
    // cardinality: one series per op name, no per-layer labels.
    let resp = client.get("/v1/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let prom = parse_prom(&resp.body_str());
    for op in vitcod_engine::OP_NAMES {
        let count = prom_histogram(
            &prom,
            "vitcod_engine_op_seconds",
            &[("model", "m"), ("op", op)],
        );
        assert!(count >= 1.0, "op {op} must have observations");
    }
    let op_series = prom.with("vitcod_engine_op_seconds_count", &[("model", "m")]);
    assert_eq!(op_series.len(), vitcod_engine::OP_NAMES.len());
    assert!(prom_one(&prom, "vitcod_engine_achieved_gops", &[("model", "m")]) > 0.0);
    http.shutdown();
}

/// Slow-request forensics without sampling: with a tiny configured
/// threshold every request is slow, so `/v1/traces` keeps its span tree
/// as `kept: "slow"` even though head sampling never selected it, and
/// the scrape-only slow counter advances.
#[test]
fn traces_keep_unsampled_requests_past_slow_threshold() {
    let model = tiny_model(22);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    let server = Server::start_with_tracing(
        registry,
        BatchConfig::default(),
        TracingConfig {
            sample_rate: 0.0,
            slow_threshold: Some(Duration::from_nanos(1)),
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();
    let resp = client
        .post("/v1/models/m/classify", &classify_body(&model, 40))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // Nothing was head-sampled, but the slow tree was kept. Peek first,
    // then drain.
    let peeked = client.get("/v1/traces?peek=1").unwrap().json().unwrap();
    assert_eq!(
        peeked.get("traces").unwrap().as_array().unwrap().len(),
        1,
        "peek must not drain"
    );
    let slow = client.get("/v1/traces").unwrap().json().unwrap();
    let entries = slow.get("traces").unwrap().as_array().unwrap().to_vec();
    assert_eq!(entries.len(), 1);
    let e = &entries[0];
    assert_eq!(e.get("kept").unwrap().as_str(), Some("slow"));
    assert_eq!(e.get("sampled").unwrap().as_bool(), Some(false));
    let root = e.get("root").unwrap().clone();
    assert_eq!(span_name(&root), "request");
    // Unsampled → the compute span is an unexploded leaf.
    let stages = span_children(&root);
    assert_eq!(span_name(&stages[3]), "compute");
    assert!(span_children(&stages[3]).is_empty());
    assert!(span_duration(&stages[3]) > 0.0);
    let again = client.get("/v1/traces").unwrap().json().unwrap();
    assert!(again.get("traces").unwrap().as_array().unwrap().is_empty());
    let prom = parse_prom(&client.get("/v1/metrics").unwrap().body_str());
    assert!(
        (prom_one(&prom, "vitcod_slow_requests_total", &[("model", "m")]) - 1.0).abs() < 0.5,
        "slow-rate SLOs must be computable by scrape alone"
    );
    http.shutdown();
}

/// `/v1/metrics` scrapes racing a hot model reload: every scrape must
/// be a complete, parseable exposition — never a torn snapshot — while
/// the artifact behind the model id is swapped under load.
#[test]
fn metrics_scrape_races_hot_model_reload() {
    let model = tiny_model(23);
    let dir = {
        let dir = std::env::temp_dir().join(format!(
            "vitcod-observability-reload-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    };
    std::fs::write(
        dir.join("m.vitcod"),
        vitcod_engine::save_compiled_vit(&model, Precision::Fp32),
    )
    .unwrap();
    std::fs::write(
        dir.join("m-int8.vitcod"),
        vitcod_engine::save_compiled_vit(&tiny_model(24), Precision::Int8),
    )
    .unwrap();
    let registry = ModelRegistry::load_dir(&dir).unwrap();
    let server = Server::start_with_tracing(
        registry,
        BatchConfig::default(),
        TracingConfig {
            sample_rate: 1.0,
            slow_threshold: None,
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            artifact_root: Some(dir.clone()),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = http.local_addr();

    let reload_dir = dir.clone();
    let reloader = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("reloader connect");
        for i in 0..10u32 {
            let artifact = if i % 2 == 0 {
                "m-int8.vitcod"
            } else {
                "m.vitcod"
            };
            let body = Json::Object(vec![(
                "path".into(),
                Json::String(reload_dir.join(artifact).display().to_string()),
            )])
            .to_string();
            let resp = client.post("/v1/models/m/reload", &body).expect("reload");
            assert_eq!(resp.status, 200, "{}", resp.body_str());
        }
    });
    let mut client = HttpClient::connect(addr).unwrap();
    for i in 0..20u32 {
        if i % 4 == 0 {
            // Keep compute stats flowing while artifacts swap; both
            // artifacts share the tiny config, so tokens stay valid.
            let resp = client
                .post(
                    "/v1/models/m/classify",
                    &classify_body(&model, 50 + i as u64),
                )
                .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
        }
        let resp = client.get("/v1/metrics").unwrap();
        assert_eq!(resp.status, 200);
        let prom = parse_prom(&resp.body_str());
        // The model_info series must always be whole (exactly one per
        // registered id), whichever precision is live at scrape time.
        assert_eq!(prom.with("vitcod_model_info", &[("model", "m")]).len(), 1);
        assert!(prom_one(&prom, "vitcod_uptime_seconds", &[]) > 0.0);
    }
    reloader.join().expect("reloader thread");
    http.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keep rule over the wire on a plain `Server::start` (sampling
/// off, no fallback threshold): an ordinary request is not kept, an
/// expired one is kept once as `error` (it is also slow: it outlived
/// half its deadline), and a trace-id-forced one as `head`.
#[test]
fn default_server_keeps_expired_and_forced_requests_once() {
    let model = tiny_model(25);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    // A lone request waits 10 s for a partner; a pair runs at once.
    let server = Server::start(
        registry,
        BatchConfig {
            max_batch_size: 2,
            max_wait: Duration::from_secs(10),
            queue_capacity: 64,
            workers: 1,
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();
    let item = |seed| {
        tokens_json(&Initializer::Normal { std: 1.0 }.sample(model.config().tokens, IN_DIM, seed))
    };
    let pair = Json::Object(vec![(
        "batch".into(),
        Json::Array(vec![
            Json::Object(vec![("tokens".into(), item(61))]),
            Json::Object(vec![("tokens".into(), item(62))]),
        ]),
    )])
    .to_string();
    let lone = Json::Object(vec![
        ("tokens".into(), item(63)),
        ("timeout_ms".into(), Json::Number(40.0)),
    ])
    .to_string();

    let resp = client.post("/v1/models/m/classify", &pair).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let resp = client.post("/v1/models/m/classify", &lone).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_str());
    let resp = client
        .post_with_header("/v1/models/m/classify", &pair, (TRACE_ID_HEADER, "forced"))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let drained = client.get("/v1/traces").unwrap().json().unwrap();
    let traces = drained.get("traces").unwrap().as_array().unwrap().to_vec();
    let kept: Vec<(&str, bool)> = traces
        .iter()
        .map(|t| {
            (
                t.get("kept").unwrap().as_str().unwrap(),
                t.get("sampled").unwrap().as_bool().unwrap(),
            )
        })
        .collect();
    assert_eq!(kept, [("error", false), ("head", true)]);
    assert_eq!(traces[1].get("trace_id").unwrap().as_str(), Some("forced"));
    assert_eq!(span_name(traces[0].get("root").unwrap()), "request");
    let prom = parse_prom(&client.get("/v1/metrics").unwrap().body_str());
    assert!(
        (prom_one(&prom, "vitcod_slow_requests_total", &[("model", "m")]) - 1.0).abs() < 0.5,
        "the expired request counts as slow"
    );
    assert!(prom_one(&prom, "vitcod_traces_dropped_total", &[]).abs() < 0.5);
    http.shutdown();
}

/// `GET /v1/health?deep=1` runs a one-sample inference probe per
/// registered model through the real assembler → worker → engine path;
/// the shallow form stays cheap and probe-free.
#[test]
fn deep_health_probes_every_model() {
    let model = tiny_model(26);
    let mut registry = ModelRegistry::new();
    registry
        .register("m-a", Engine::builder(model.clone()).build())
        .unwrap();
    registry
        .register(
            "m-b",
            Engine::builder(model.clone())
                .precision(Precision::Int8)
                .build(),
        )
        .unwrap();
    let http = HttpServer::bind(
        "127.0.0.1:0",
        Server::start(registry, BatchConfig::default()),
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();

    // Shallow: no probes key, no inference served.
    let shallow = client.get("/v1/health").unwrap().json().unwrap();
    assert_eq!(shallow.get("status").unwrap().as_str(), Some("ok"));
    assert!(shallow.get("probes").is_none());

    let resp = client.get("/v1/health?deep=1").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let deep = resp.json().unwrap();
    assert_eq!(deep.get("status").unwrap().as_str(), Some("ok"));
    let probes = deep.get("probes").unwrap().as_array().unwrap().to_vec();
    assert_eq!(probes.len(), 2, "one probe per registered model");
    for p in &probes {
        assert_eq!(p.get("ok").unwrap().as_bool(), Some(true));
        assert!(p.get("latency_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(p.get("model").unwrap().as_str().is_some());
    }

    // The probes went through the real serving path: requests counted.
    let stats = client.get("/v1/stats").unwrap().json().unwrap();
    let models = stats.get("models").unwrap().as_array().unwrap().to_vec();
    for m in &models {
        assert_eq!(
            m.get("requests").unwrap().as_u64(),
            Some(1),
            "each model served exactly its probe"
        );
    }
    http.shutdown();
}

/// The monitor's loop against a live server, on a virtual clock: each
/// step sends a burst, scrapes `/v1/metrics` through `vitcod_obs`'s
/// `Scraper`, and feeds `vitcod_requests_total` (good) and
/// `vitcod_timeouts_total` (bad) to an availability `SloTracker` stamped
/// with the step number, as the `vitcod-obs` binary does with wall time.
/// An outage of expiring requests must walk the alert to `firing`, clean
/// traffic must walk it to `resolved`, and `/v1/traces` must hold the
/// outage's expired trees although none was head-sampled.
#[test]
fn burn_rate_alert_fires_on_expiries_and_resolves_on_recovery() {
    /// Requests per step.
    const BURST: usize = 4;
    /// Steps a phase may take to reach its state before the test fails.
    const MAX_STEPS: usize = 8;
    let model = tiny_model(27);
    let mut registry = ModelRegistry::new();
    registry
        .register("m", Engine::builder(model.clone()).build())
        .unwrap();
    // A lone request is held 50 ms for partners: one with a 1 ms
    // `timeout_ms` expires inside the hold every time, one without a
    // deadline runs when the hold ends.
    let server = Server::start(
        registry,
        BatchConfig {
            max_batch_size: 64,
            max_wait: Duration::from_millis(50),
            queue_capacity: 64,
            workers: 1,
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            idle_timeout: Duration::from_secs(5),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = HttpClient::connect(http.local_addr()).unwrap();
    let scraper = Scraper::new(vec![http.local_addr().to_string()]);
    // Windows in steps: the fast one spans two bursts, the slow one six.
    let mut tracker = SloTracker::new(SloConfig {
        name: "availability".into(),
        objective: Objective::Availability,
        error_budget: 0.01,
        fast_window_s: 2.0,
        slow_window_s: 6.0,
        fast_burn: 10.0,
        slow_burn: 2.0,
    });
    let expiring = Json::Object(vec![
        (
            "tokens".into(),
            tokens_json(&Initializer::Normal { std: 1.0 }.sample(
                model.config().tokens,
                IN_DIM,
                70,
            )),
        ),
        ("timeout_ms".into(), Json::Number(1.0)),
    ])
    .to_string();
    let clean = classify_body(&model, 71);

    let mut t = 0.0;
    let mut step = |body: Option<(&str, u16)>, tracker: &mut SloTracker| {
        if let Some((body, status)) = body {
            for _ in 0..BURST {
                let resp = client.post("/v1/models/m/classify", body).unwrap();
                assert_eq!(resp.status, status, "{}", resp.body_str());
            }
        }
        t += 1.0;
        let scrape = scraper
            .poll(t)
            .pop()
            .expect("one result per endpoint")
            .unwrap_or_else(|(endpoint, e)| panic!("scrape {endpoint}: {e}"));
        let exp = &scrape.exposition;
        tracker.observe(
            scrape.t_s,
            exp.sum("vitcod_requests_total", &[]),
            exp.sum("vitcod_timeouts_total", &[]),
        );
        tracker.eval(scrape.t_s);
    };

    // A quiet scrape, then healthy traffic: nothing arms.
    step(None, &mut tracker);
    for _ in 0..2 {
        step(Some((&clean, 200)), &mut tracker);
    }
    assert_eq!(tracker.state(), AlertState::Inactive);
    for _ in 0..MAX_STEPS {
        step(Some((&expiring, 504)), &mut tracker);
        if tracker.state() == AlertState::Firing {
            break;
        }
    }
    assert_eq!(
        tracker.state(),
        AlertState::Firing,
        "{:?}",
        tracker.transitions()
    );
    for _ in 0..MAX_STEPS {
        step(Some((&clean, 200)), &mut tracker);
        if tracker.state() == AlertState::Resolved {
            break;
        }
    }
    let walk: Vec<(AlertState, AlertState)> = tracker
        .transitions()
        .iter()
        .map(|x| (x.from, x.to))
        .collect();
    assert_eq!(
        walk,
        [
            (AlertState::Inactive, AlertState::Pending),
            (AlertState::Pending, AlertState::Firing),
            (AlertState::Firing, AlertState::Resolved),
        ],
        "{:?}",
        tracker.transitions()
    );

    // A default server samples nothing, yet keeps every expiry's tree.
    let drained = client.get("/v1/traces").unwrap().json().unwrap();
    let traces = drained.get("traces").unwrap().as_array().unwrap().to_vec();
    assert!(
        traces
            .iter()
            .any(|tr| tr.get("kept").unwrap().as_str() == Some("error")),
        "no expired request's span tree was kept"
    );
    assert!(traces
        .iter()
        .all(|tr| tr.get("sampled").unwrap().as_bool() == Some(false)));
    http.shutdown();
}
