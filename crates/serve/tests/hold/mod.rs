//! The hold fixture: keeps a one-worker server's only worker computing,
//! so that what a test submits meanwhile stays accepted and not yet
//! taken.
//!
//! A free worker takes whatever is queued, so a request waits only
//! while every worker is busy. [`register_slow`] adds a model far
//! slower than the tests' own under an id of its own; [`Hold::start`]
//! submits one batch of it and returns once the worker has taken that
//! batch, leaving the assembler empty and the worker busy. Nothing here
//! bounds a duration from above: a slower machine only lengthens the
//! hold. The serve and transport test crates share this one file.

use std::sync::{Arc, OnceLock};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_engine::{CompiledVit, Engine};
use vitcod_model::{StageConfig, ViTConfig, VisionTransformer};
use vitcod_serve::{Client, ModelRegistry, Ticket};
use vitcod_tensor::{Initializer, Matrix};

/// The slow model's id.
const SLOW: &str = "hold-slow";

/// Requests in the batch that is the hold: ≈ 0.2 s in a release build
/// and ≈ 0.6 s in the dev profile on a 2-vCPU x86-64 VM, against the
/// ≈ 60 ms the longest wait inside a hold takes (a wire `timeout_ms` of
/// 10 plus the transport's 50 ms of slack).
const HOLD_BATCH: u64 = 8;

/// The slow model's token count and input width.
const SLOW_TOKENS: usize = 577;
const SLOW_IN_DIM: usize = 8;

/// 577 tokens (a 384 × 384 input at patch 16), twelve heads of width
/// 4, two blocks: the softmax over 12 · 577² scores is most of a
/// forward, and it runs only ≈ 2.5× slower in the dev profile than in
/// a release build (≈ 70 and ≈ 28 ms a forward), so the hold costs a
/// debug test run little. Built once per test binary and shared by
/// every server that registers it.
fn slow_engine() -> Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    let engine = ENGINE.get_or_init(|| {
        let stage = StageConfig {
            tokens: SLOW_TOKENS,
            dim: 48,
            heads: 12,
            depth: 2,
        };
        let cfg = ViTConfig {
            tokens: stage.tokens,
            dim: stage.dim,
            heads: stage.heads,
            depth: stage.depth,
            stages: vec![stage],
            ..ViTConfig::deit_tiny()
        };
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let vit = VisionTransformer::new(&cfg, SLOW_IN_DIM, 2, &mut store, &mut rng);
        Arc::new(Engine::builder(CompiledVit::from_parts(&vit, &store)).build())
    });
    Arc::clone(engine)
}

fn slow_tokens(seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(SLOW_TOKENS, SLOW_IN_DIM, seed)
}

/// Registers the model a [`Hold`] runs, under its own id: a test's
/// per-model stats never see it.
pub fn register_slow(registry: &mut ModelRegistry) {
    registry
        .register_shared(SLOW, slow_engine())
        .expect("the hold's model id is free");
}

/// A blocker batch in the server's only worker.
pub struct Hold {
    client: Client,
    blocker: Vec<Ticket>,
}

impl Hold {
    /// Returns once the worker has taken a batch of [`HOLD_BATCH`] slow
    /// requests. The first request, taken alone, keeps the worker busy
    /// while the batch queues behind it. Every blocker request is
    /// head-sampled: a sampled batch runs the engine's profiled forward,
    /// one sample and one head at a time, so the worker computes on one
    /// core and leaves the others to the test. Call it on an idle
    /// one-worker server that registered the slow model
    /// ([`register_slow`]) with a `max_batch_size` and `queue_capacity`
    /// of at least `HOLD_BATCH`.
    pub fn start(client: &Client) -> Hold {
        let mut blocker = Vec::new();
        for seeds in [0..1, 1..1 + HOLD_BATCH] {
            for seed in seeds {
                blocker.push(
                    client
                        .submit_traced(SLOW, slow_tokens(seed), None, true)
                        .expect("blocker accepted"),
                );
            }
            while client.queued_requests() > 0 {
                std::thread::yield_now();
            }
        }
        Hold {
            client: client.clone(),
            blocker,
        }
    }

    /// Waits the hold out: every blocker ticket resolves, then one more
    /// slow request is served. That request queues behind whatever the
    /// test submitted, so the worker's first take after the blocker —
    /// the one that prunes what expired during the hold and closes the
    /// first batch of what queued — has happened by the time this
    /// returns.
    pub fn wait_out(self) {
        for ticket in self.blocker {
            assert!(ticket.wait().is_some(), "blocker served");
        }
        self.client
            .classify(SLOW, slow_tokens(0))
            .expect("served after the hold");
    }
}
