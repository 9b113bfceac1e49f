//! HTTP serving smoke example: a compiled ViT behind the full network
//! stack — artifact on disk → registry → `Server` → `HttpServer` on a
//! loopback socket — exercised end to end with the bundled client:
//! healthz, single and batch classify, stats, a hot artifact reload,
//! and a graceful shutdown.
//!
//! ```bash
//! cargo run --example http_serve --release
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod::autograd::ParamStore;
use vitcod::engine::{save_compiled_vit, CompiledVit, Precision};
use vitcod::model::{ViTConfig, VisionTransformer};
use vitcod::serve::{BatchConfig, ModelRegistry, Server};
use vitcod::tensor::{Initializer, Matrix};
use vitcod::transport::{api::tokens_json, HttpClient, HttpServer, Json, TransportConfig};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

fn compile(seed: u64) -> CompiledVit {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    CompiledVit::from_parts(&vit, &store)
}

fn sample_tokens(seed: u64) -> Matrix {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    Initializer::Normal { std: 1.0 }.sample(cfg.tokens, IN_DIM, seed)
}

fn main() {
    // 1. Compile and persist two artifact versions.
    let dir = std::env::temp_dir().join(format!("vitcod-http-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let v1_path = dir.join("deit-tiny.vitcod");
    let v2_path = dir.join("deit-tiny-v2.vitcod");
    std::fs::write(&v1_path, save_compiled_vit(&compile(1), Precision::Fp32)).unwrap();
    std::fs::write(&v2_path, save_compiled_vit(&compile(2), Precision::Fp32)).unwrap();

    // 2. Serve v1 over a loopback socket.
    let registry = ModelRegistry::load_dir(&dir).expect("load artifacts");
    let server = Server::start(
        registry,
        BatchConfig {
            queue_capacity: 32,
            ..BatchConfig::default()
        },
    );
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        TransportConfig {
            // Opt in to wire-triggered reloads, confined to our own
            // artifact directory.
            artifact_root: Some(dir.clone()),
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback");
    println!("serving on http://{}", http.local_addr());

    let mut client = HttpClient::connect(http.local_addr()).expect("connect");

    // 3. Health + a single classify with a wire-level deadline.
    let health = client.get("/healthz").unwrap();
    println!("GET /healthz -> {} {}", health.status, health.body_str());
    assert_eq!(health.status, 200);

    let body = Json::Object(vec![
        ("tokens".into(), tokens_json(&sample_tokens(100))),
        ("timeout_ms".into(), Json::Number(2000.0)),
    ])
    .to_string();
    let resp = client.post("/v1/models/deit-tiny/classify", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let class = resp.json().unwrap().get("class").unwrap().as_u64().unwrap();
    println!("POST classify (single) -> class {class}");
    assert!((class as usize) < CLASSES);

    // 4. A batch classify: one round trip, four serving-layer tickets.
    let batch = Json::Object(vec![(
        "batch".into(),
        Json::Array(
            (0..4)
                .map(|i| {
                    Json::Object(vec![(
                        "tokens".into(),
                        tokens_json(&sample_tokens(200 + i)),
                    )])
                })
                .collect(),
        ),
    )])
    .to_string();
    let resp = client
        .post("/v1/models/deit-tiny/classify", &batch)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let results = resp.json().unwrap();
    let results = results.get("results").unwrap().as_array().unwrap().len();
    println!("POST classify (batch)  -> {results} predictions");
    assert_eq!(results, 4);

    // 5. Hot-swap the artifact and classify again — no restart.
    let reload_body = Json::Object(vec![(
        "path".into(),
        Json::String(v2_path.display().to_string()),
    )])
    .to_string();
    let resp = client
        .post("/v1/models/deit-tiny/reload", &reload_body)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    println!("POST reload -> {}", resp.body_str());
    assert_eq!(
        resp.json().unwrap().get("replaced").unwrap().as_bool(),
        Some(true)
    );
    let resp = client
        .post(
            "/v1/models/deit-tiny/classify",
            &Json::Object(vec![("tokens".into(), tokens_json(&sample_tokens(300)))]).to_string(),
        )
        .unwrap();
    assert_eq!(resp.status, 200);

    // 6. Stats over the wire, then a graceful shutdown.
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let stats = stats.json().unwrap();
    let m = &stats.get("models").unwrap().as_array().unwrap()[0];
    println!(
        "GET /v1/stats -> {} requests, p50 {:.2} ms",
        m.get("requests").unwrap().as_u64().unwrap(),
        m.get("p50_latency_s").unwrap().as_f64().unwrap() * 1e3
    );
    assert_eq!(m.get("requests").unwrap().as_u64(), Some(6));

    let final_stats = http.shutdown();
    assert_eq!(final_stats.total_requests(), 6);
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nhttp_serve: OK");
}
