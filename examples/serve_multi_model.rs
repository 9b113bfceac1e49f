//! Multi-model serving smoke example: two compiled ViTs — one fp32
//! dense, one int8 sparse — behind one `vitcod::serve::Server`, with
//! the sparse model round-tripped through an on-disk artifact first.
//!
//! ```bash
//! cargo run --example serve_multi_model --release
//! ```
//!
//! Walks the full serving story: compile → `save_compiled_vit` to a
//! `*.vitcod` file → `ModelRegistry::load_dir` → concurrent clients
//! submitting through the bounded queue → dynamic batches → per-model
//! p50/p99 and batch-fill stats.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod::autograd::ParamStore;
use vitcod::engine::{save_compiled_vit, CompiledVit, Engine, Precision};
use vitcod::model::{SparsityPlan, ViTConfig, VisionTransformer};
use vitcod::serve::{BatchConfig, ModelRegistry, Server};
use vitcod::tensor::{Initializer, Matrix};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;

fn compile(seed: u64, sparse: bool) -> CompiledVit {
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

fn main() {
    // 1. Compile two models and persist the sparse one as an int8
    //    artifact — the compile-to-artifact-then-serve lifecycle.
    let dense = compile(1, false);
    let sparse = compile(2, true);
    let dir = std::env::temp_dir().join(format!("vitcod-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join("deit-sparse.vitcod");
    let text = save_compiled_vit(&sparse, Precision::Int8);
    std::fs::write(&path, &text).expect("write artifact");
    println!(
        "saved int8 artifact: {} ({:.1} KiB, {} sparse heads, {:.0}% attention sparsity)",
        path.display(),
        text.len() as f64 / 1024.0,
        sparse.num_sparse_heads(),
        sparse.mean_attention_sparsity() * 100.0
    );

    // 2. Registry: the sparse model reloaded from disk (it serves at
    //    the artifact's stored int8 precision), the dense one
    //    registered in-process — independent settings per model id.
    let mut registry = ModelRegistry::load_dir(&dir).expect("load artifacts");
    registry
        .register("deit-dense", Engine::builder(dense.clone()).build())
        .expect("register dense");
    println!("registry models: {:?}", registry.ids());

    // 3. Serve: bounded queue; a free worker takes whatever a model has
    // queued, at most 8 requests a batch (the defaults).
    let server = Server::start(
        registry,
        BatchConfig {
            queue_capacity: 32,
            ..BatchConfig::default()
        },
    );

    // 4. Four concurrent clients, each mixing both models.
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let client = server.client();
            let cfg = dense.config().clone();
            std::thread::spawn(move || {
                for i in 0..8u64 {
                    let tokens =
                        Initializer::Normal { std: 1.0 }.sample(cfg.tokens, IN_DIM, c * 100 + i);
                    let model = if i % 2 == 0 {
                        "deit-dense"
                    } else {
                        "deit-sparse"
                    };
                    let prediction = client.classify(model, tokens).expect("classify");
                    assert!(prediction.class < CLASSES);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // 5. Stats: per-model latency percentiles and batch fill.
    let stats = server.shutdown();
    println!("\nserved for {:.2}s:", stats.uptime_s);
    for m in &stats.models {
        println!(
            "  {:<12} {:>3} requests in {:>2} batches  fill {:.2}  p50 {:.2}ms  p99 {:.2}ms",
            m.model,
            m.requests,
            m.batches,
            m.requests as f64 / m.batches.max(1) as f64,
            m.latency_histogram.quantile(0.50) * 1e3,
            m.latency_histogram.quantile(0.99) * 1e3
        );
    }
    assert_eq!(stats.total_requests(), 32);
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nserve_multi_model: OK");
}
