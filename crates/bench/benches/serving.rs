//! Serving-engine benchmark: batched inference throughput at the real
//! DeiT-Tiny shape (197 tokens, 192 dim, 3 heads, 12 layers) across the
//! engine's four execution modes — dense vs 90 %-sparse attention,
//! fp32 vs int8.
//!
//! Run with `cargo bench -p vitcod-bench --bench serving`; results are
//! printed and recorded to `BENCH_serving.json` at the workspace root.
//! The run enforces the serving acceptance gates:
//!
//! * batched **dense int8** and **sparse int8** throughput must hold
//!   [`INT8_FLOOR`] × the rates recorded for them with the register-tile
//!   int8 GEMM ([`DENSE_INT8_RECORDED`], [`SPARSE_INT8_RECORDED`]) —
//!   absolute floors, because a faster kernel on either side moves the
//!   int8-over-fp32 ratios for a good reason; the ratios are still
//!   recorded (sparse int8 is back ahead of dense fp32);
//! * driving the same engine through the **request-queue `Server`**
//!   (concurrent producers → bounded queue → dynamic batches) must
//!   retain ≥ 0.9× the direct `infer_batch` throughput — the serving
//!   shell may cost at most 10 %;
//! * driving that server through the **HTTP transport** (loopback TCP,
//!   JSON bodies, keep-alive connections) must retain ≥ 0.7× the
//!   in-process queued throughput — the socket, parser and codec may
//!   cost at most 30 %;
//! * an **open-loop scenario** (Poisson arrivals at 0.7× the measured
//!   single-sample saturation rate, through the full transport) is the
//!   **latency of record**: it gates p99 ≤ the stated deadline with
//!   zero expiries, and its p50/p99/p999 plus per-stage breakdown are
//!   what `BENCH_serving.json` reports — the closed-loop sections
//!   above state throughput only, since a closed-loop client's
//!   self-throttling makes its latency percentiles an artifact of the
//!   harness, not a property of the server.

use std::time::Instant;

use vitcod_bench::load::{self, LoadConfig, Target};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_baselines::protocol::WORKLOAD_SEED;
use vitcod_core::prune_to_sparsity;
use vitcod_engine::{CompiledVit, Engine, Precision};
use vitcod_model::{AttentionStats, Sample, SparsityPlan, ViTConfig, VisionTransformer};
use vitcod_serve::{BatchConfig, ModelRegistry, Server, TailConfig, TracingConfig};
use vitcod_tensor::{kernels, Initializer, Matrix};
use vitcod_transport::{api, HttpClient, HttpServer, Json, TransportConfig};

const IN_DIM: usize = 48;
const CLASSES: usize = 10;
const BATCH: usize = 8;
const SPARSITY: f64 = 0.9;
/// Queue-driven section: concurrent producers and total request count.
const QUEUE_CLIENTS: usize = 4;
const QUEUE_REQUESTS: usize = 32;
/// Batched samples/s recorded for the int8 engines (one compute thread,
/// this box) with the register-tile int8 GEMM; the row-at-a-time kernel
/// before it reached 6.26, so [`INT8_FLOOR`] × this sits above it.
const DENSE_INT8_RECORDED: f64 = 9.16;
/// The same record for the 90 %-sparse int8 artifact (7.44 before).
const SPARSE_INT8_RECORDED: f64 = 12.11;
/// Share of its recorded rate an int8 engine must hold. The int8 path is
/// the code that set the records, so the allowance is this box's whole
/// run-to-run spread (identical binaries differ by up to 25 %).
const INT8_FLOOR: f64 = 0.75;
/// Minimum acceptable queued/direct throughput ratio.
const QUEUE_GATE: f64 = 0.9;
/// Minimum acceptable socket/in-process throughput ratio.
const TRANSPORT_GATE: f64 = 0.7;
/// Open-loop section: requests in the Poisson schedule.
const OPEN_REQUESTS: usize = 96;
/// Open-loop offered load as a fraction of the single-sample
/// saturation rate (the utilization the SLO is stated at).
const OPEN_RHO: f64 = 0.7;
/// Open-loop SLO deadline: this many single-sample service times, but
/// never below 1 s (shared-box scheduler noise must not flap the gate).
const OPEN_DEADLINE_SERVICE_TIMES: f64 = 12.0;
/// Tracing-overhead gate: with head sampling at rate 0 the span
/// machinery must cost at most 1% of open-loop p99, plus this absolute
/// scheduler-noise floor (one-CPU CI boxes jitter tails by tens of ms
/// between identical runs).
const TRACING_OVERHEAD_FRAC: f64 = 0.01;
const TRACING_OVERHEAD_EPS_S: f64 = 0.020;

/// Times `f` over `runs` invocations (after one warm-up) and returns the
/// best observed seconds per invocation.
fn time_best(runs: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Record {
    name: &'static str,
    latency_s: f64,
}

impl Record {
    fn samples_per_s(&self) -> f64 {
        BATCH as f64 / self.latency_s
    }
}

fn main() {
    let cfg = ViTConfig::deit_tiny();
    println!(
        "serving benchmark: {} at paper shape ({} tokens, {} dim, {} heads x {} layers), \
         batch {BATCH}, {} worker thread(s)\n",
        cfg.name,
        cfg.tokens,
        cfg.dim,
        cfg.heads,
        cfg.depth,
        kernels::num_threads()
    );

    // Random weights at the full DeiT-Tiny shape (throughput does not
    // care about training) and 90 %-sparse masks from the statistical
    // attention ensemble — the same workload source the simulator
    // benchmarks use.
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0xE17);
    let mut model = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    let dense = CompiledVit::from_parts(&model, &store);

    let stats = AttentionStats::for_model(&cfg, WORKLOAD_SEED);
    let plan: SparsityPlan = stats
        .maps
        .iter()
        .map(|layer| {
            layer
                .iter()
                .map(|m| Some(prune_to_sparsity(m, SPARSITY).to_matrix()))
                .collect()
        })
        .collect();
    model.set_sparsity_plan(plan);
    let sparse = CompiledVit::from_parts(&model, &store);
    println!(
        "sparse artifact: {} sparse heads at {:.1}% mean attention sparsity\n",
        sparse.num_sparse_heads(),
        sparse.mean_attention_sparsity() * 100.0
    );

    let samples: Vec<Sample> = (0..BATCH)
        .map(|i| Sample {
            tokens: Initializer::Normal { std: 1.0 }.sample(cfg.tokens, IN_DIM, 900 + i as u64),
            label: 0,
        })
        .collect();

    let configs: [(&'static str, &CompiledVit, Precision); 4] = [
        ("dense_fp32", &dense, Precision::Fp32),
        ("dense_int8", &dense, Precision::Int8),
        ("sparse_fp32", &sparse, Precision::Fp32),
        ("sparse_int8", &sparse, Precision::Int8),
    ];
    let mut records = Vec::new();
    for (name, artifact, precision) in configs {
        let engine = Engine::builder(artifact.clone())
            .precision(precision)
            .build();
        // Best-of-3: scheduler noise only ever inflates a wall-clock
        // sample, so the minimum converges on the true latency and keeps
        // the ~1.05-1.1x acceptance margin below from flapping.
        let latency_s = time_best(3, || {
            std::hint::black_box(engine.infer_batch(&samples));
        });
        let rec = Record { name, latency_s };
        println!(
            "{:<12}  batch {:>9.1} ms  {:>7.1} samples/s",
            rec.name,
            latency_s * 1e3,
            rec.samples_per_s()
        );
        records.push(rec);
    }

    let throughput = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .expect("record")
            .samples_per_s()
    };
    let speedup = throughput("sparse_int8") / throughput("dense_fp32");
    let int8_speedup = throughput("dense_int8") / throughput("dense_fp32");
    println!("\ndense int8 vs dense fp32 throughput: {int8_speedup:.2}x");
    println!("sparse int8 vs dense fp32 throughput: {speedup:.2}x");

    // ------------------------------------------------------------------
    // End-to-end through the serving layer: the same dense fp32 engine
    // behind a `Server` — concurrent producers submit tickets through
    // the bounded queue, the dynamic batcher assembles full batches,
    // workers drain them. Measures what the queueing shell costs over
    // direct `infer_batch`.
    // ------------------------------------------------------------------
    let run_queued = || {
        let mut registry = ModelRegistry::new();
        registry
            .register("dense_fp32", Engine::builder(dense.clone()).build())
            .expect("register");
        let server = Server::start(
            registry,
            BatchConfig {
                max_batch_size: BATCH,
                queue_capacity: QUEUE_REQUESTS,
                ..BatchConfig::default()
            },
        );
        let t = Instant::now();
        let handles: Vec<_> = (0..QUEUE_CLIENTS)
            .map(|c| {
                let client = server.client();
                std::thread::spawn(move || {
                    // Submit the whole burst, then await the tickets —
                    // keeping the queue full so batches assemble at the
                    // size trigger, not the deadline.
                    let tickets: Vec<_> = (0..QUEUE_REQUESTS / QUEUE_CLIENTS)
                        .map(|i| {
                            let tokens: Matrix = Initializer::Normal { std: 1.0 }.sample(
                                ViTConfig::deit_tiny().tokens,
                                IN_DIM,
                                (c * 1000 + i) as u64,
                            );
                            client.submit("dense_fp32", tokens).expect("submit")
                        })
                        .collect();
                    for ticket in tickets {
                        std::hint::black_box(ticket.wait().expect("served"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }
        let elapsed = t.elapsed().as_secs_f64();
        let stats = server.shutdown();
        let m = stats.model("dense_fp32").expect("model served").clone();
        (QUEUE_REQUESTS as f64 / elapsed, m)
    };
    // Warm-up once, then best-of-3 like the direct section.
    let _ = run_queued();
    let mut queued_tput = 0.0f64;
    let mut queued_stats = None;
    for _ in 0..3 {
        let (tput, m) = run_queued();
        if tput > queued_tput {
            queued_tput = tput;
            queued_stats = Some(m);
        }
    }
    let queued_stats = queued_stats.expect("at least one queued run");
    let queue_ratio = queued_tput / throughput("dense_fp32");
    println!(
        "queued dense_fp32: {:.1} samples/s ({QUEUE_CLIENTS} clients, mean fill {:.2}, \
         p50 {:.1} ms, p99 {:.1} ms) -> {:.2}x of direct",
        queued_tput,
        queued_stats.mean_batch_fill,
        queued_stats.p50_latency_s * 1e3,
        queued_stats.p99_latency_s * 1e3,
        queue_ratio
    );

    // ------------------------------------------------------------------
    // Through the wire: the same server behind `vitcod_transport` on a
    // loopback socket — concurrent keep-alive connections, JSON batch
    // bodies, hand-rolled parser. Measures what the network front end
    // costs over the in-process client.
    // ------------------------------------------------------------------
    let run_transport = || {
        let mut registry = ModelRegistry::new();
        registry
            .register("dense_fp32", Engine::builder(dense.clone()).build())
            .expect("register");
        let server = Server::start(
            registry,
            BatchConfig {
                max_batch_size: BATCH,
                queue_capacity: QUEUE_REQUESTS,
                ..BatchConfig::default()
            },
        );
        let http = HttpServer::bind("127.0.0.1:0", server, TransportConfig::default())
            .expect("bind loopback");
        let addr = http.local_addr();
        let t = Instant::now();
        let handles: Vec<_> = (0..QUEUE_CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    // One batch request per connection carrying this
                    // client's whole burst: the server submits one
                    // ticket per sample, so the dynamic batcher sees
                    // the same 32 in-flight samples as the in-process
                    // section.
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let items: Vec<Json> = (0..QUEUE_REQUESTS / QUEUE_CLIENTS)
                        .map(|i| {
                            let tokens: Matrix = Initializer::Normal { std: 1.0 }.sample(
                                ViTConfig::deit_tiny().tokens,
                                IN_DIM,
                                (c * 1000 + i) as u64,
                            );
                            Json::Object(vec![("tokens".into(), api::tokens_json(&tokens))])
                        })
                        .collect();
                    let body = Json::Object(vec![("batch".into(), Json::Array(items))]).to_string();
                    let resp = client
                        .post("/v1/models/dense_fp32/classify", &body)
                        .expect("classify over loopback");
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    std::hint::black_box(resp);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("http client");
        }
        let elapsed = t.elapsed().as_secs_f64();
        let stats = http.shutdown();
        let m = stats.model("dense_fp32").expect("model served").clone();
        (QUEUE_REQUESTS as f64 / elapsed, m)
    };
    let _ = run_transport();
    let mut transport_tput = 0.0f64;
    let mut transport_stats = None;
    for _ in 0..3 {
        let (tput, m) = run_transport();
        if tput > transport_tput {
            transport_tput = tput;
            transport_stats = Some(m);
        }
    }
    let transport_stats = transport_stats.expect("at least one transport run");
    let transport_ratio = transport_tput / queued_tput;
    println!(
        "transport dense_fp32: {:.1} samples/s ({QUEUE_CLIENTS} connections, \
         p50 {:.1} ms, p99 {:.1} ms) -> {:.2}x of in-process",
        transport_tput,
        transport_stats.p50_latency_s * 1e3,
        transport_stats.p99_latency_s * 1e3,
        transport_ratio
    );

    // ------------------------------------------------------------------
    // Open-loop latency of record: Poisson arrivals at 0.7x the
    // measured single-sample saturation rate, through the full
    // transport. Unlike the closed-loop sections above (whose clients
    // slow down whenever the server does), the arrival schedule here is
    // fixed up front, so the percentiles describe the server at a
    // stated offered load — the only form in which an SLO is honest.
    // ------------------------------------------------------------------
    let dense_engine = Engine::builder(dense.clone()).build();
    let single = &samples[..1];
    let s1 = time_best(3, || {
        std::hint::black_box(dense_engine.infer_batch(single));
    });
    drop(dense_engine);
    // One sample every `s1` seconds is the engine's worst-case (fill-1)
    // service rate, so offering OPEN_RHO of it bounds utilization at
    // OPEN_RHO regardless of how well batches fill.
    let open_rate = OPEN_RHO / s1;
    let open_deadline_s = (OPEN_DEADLINE_SERVICE_TIMES * s1).max(1.0);
    let open_deadline_ms = (open_deadline_s * 1e3).ceil() as u64;
    let run_open_loop = |tracing: TracingConfig| {
        let mut registry = ModelRegistry::new();
        registry
            .register("dense_fp32", Engine::builder(dense.clone()).build())
            .expect("register");
        let server = Server::start_with_tracing(
            registry,
            BatchConfig {
                max_batch_size: BATCH,
                queue_capacity: QUEUE_REQUESTS,
                ..BatchConfig::default()
            },
            tracing,
        );
        let http = HttpServer::bind("127.0.0.1:0", server, TransportConfig::default())
            .expect("bind loopback");
        let tokens: Matrix = Initializer::Normal { std: 1.0 }.sample(cfg.tokens, IN_DIM, 0x0BE7);
        let body = Json::Object(vec![
            ("tokens".into(), api::tokens_json(&tokens)),
            ("timeout_ms".into(), Json::Number(open_deadline_ms as f64)),
        ])
        .to_string();
        let report = load::run(
            http.local_addr(),
            &LoadConfig {
                rate: open_rate,
                requests: OPEN_REQUESTS,
                poisson: true,
                seed: 0x510,
                senders: 4,
                targets: vec![Target {
                    model: "dense_fp32".into(),
                    body,
                }],
            },
        );
        let stats = http.shutdown();
        let model = stats.model("dense_fp32").expect("open-loop model").clone();
        (report, model)
    };
    // Latency of record: the default tracing config (sampling off).
    let (open_report, open_model) = run_open_loop(TracingConfig::default());
    println!(
        "open-loop dense_fp32: {open_rate:.2} req/s offered (poisson, rho {OPEN_RHO}), \
         {OPEN_REQUESTS} requests -> p50 {:.0} ms, p99 {:.0} ms, p999 {:.0} ms \
         (deadline {open_deadline_ms} ms, timed out {}, late sends {})",
        open_report.p50_s * 1e3,
        open_report.p99_s * 1e3,
        open_report.p999_s * 1e3,
        open_report.timed_out,
        open_report.late_sends
    );
    for (stage, h) in open_model.stages.iter() {
        println!(
            "  {stage:<15} mean {:>7.1} ms  p99 {:>7.1} ms  ({} obs)",
            h.mean_s() * 1e3,
            h.quantile(0.99) * 1e3,
            h.count
        );
    }

    // ------------------------------------------------------------------
    // Tracing-overhead gate: replay the identical open-loop schedule
    // with tracing explicitly configured at sample rate 0. Unsampled
    // requests take the stamp-free fast path (no per-op timing, no span
    // allocation), so this pass must land within 1% of the recorded p99
    // plus a fixed scheduler-noise floor. A second pass turns tail
    // retention on (reservoir over completions, pending-span buffer):
    // the tail bookkeeping is two cheap map operations per request, so
    // it must fit the same budget.
    // ------------------------------------------------------------------
    let (rate0_report, _) = run_open_loop(TracingConfig {
        sample_rate: 0.0,
        slow_threshold: None,
        tail: None,
    });
    let (tail_report, _) = run_open_loop(TracingConfig {
        sample_rate: 0.0,
        slow_threshold: None,
        tail: Some(TailConfig::default()),
    });
    let tracing_p99_budget_s =
        open_report.p99_s * (1.0 + TRACING_OVERHEAD_FRAC) + TRACING_OVERHEAD_EPS_S;
    println!(
        "tracing at rate 0: p99 {:.1} ms, tail mode p99 {:.1} ms vs record {:.1} ms (budget {:.1} ms)",
        rate0_report.p99_s * 1e3,
        tail_report.p99_s * 1e3,
        open_report.p99_s * 1e3,
        tracing_p99_budget_s * 1e3
    );

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    let mut json = String::from("{\n  \"bench\": \"serving\",\n");
    json.push_str(&format!(
        "  \"model\": \"{}\",\n  \"tokens\": {},\n  \"dim\": {},\n  \"heads\": {},\n  \"depth\": {},\n",
        cfg.name, cfg.tokens, cfg.dim, cfg.heads, cfg.depth
    ));
    json.push_str(&format!(
        "  \"sparsity\": {SPARSITY},\n  \"batch\": {BATCH},\n  \"threads\": {},\n",
        kernels::num_threads()
    ));
    json.push_str("  \"configs\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch_latency_s\": {:.6}, \"samples_per_s\": {:.2}}}{}\n",
            r.name,
            r.latency_s,
            r.samples_per_s(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // The closed-loop sections record throughput and fill only: their
    // latency percentiles are harness artifacts (see the module docs)
    // and the open_loop section below is the latency of record.
    json.push_str(&format!(
        "  \"queued\": {{\"model\": \"dense_fp32\", \"clients\": {QUEUE_CLIENTS}, \
         \"requests\": {QUEUE_REQUESTS}, \"samples_per_s\": {queued_tput:.2}, \
         \"mean_batch_fill\": {:.3}, \"over_direct\": {queue_ratio:.3}}},\n",
        queued_stats.mean_batch_fill
    ));
    json.push_str(&format!(
        "  \"transport\": {{\"model\": \"dense_fp32\", \"connections\": {QUEUE_CLIENTS}, \
         \"requests\": {QUEUE_REQUESTS}, \"transport_throughput\": {transport_tput:.2}, \
         \"over_in_process\": {transport_ratio:.3}}},\n",
    ));
    let stage_fields: Vec<String> = open_model
        .stages
        .iter()
        .map(|(stage, h)| {
            format!(
                "\"{stage}\": {{\"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, \"count\": {}}}",
                h.mean_s(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.count
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"open_loop\": {{\"model\": \"dense_fp32\", \"arrivals\": \"poisson\", \
         \"offered_rate\": {open_rate:.3}, \"rho\": {OPEN_RHO}, \"requests\": {OPEN_REQUESTS}, \
         \"service_time_s\": {s1:.6}, \"deadline_s\": {open_deadline_s:.3}, \
         \"p50_latency_s\": {:.6}, \"p99_latency_s\": {:.6}, \"p999_latency_s\": {:.6}, \
         \"timed_out\": {}, \"failed\": {}, \"late_sends\": {}, \
         \"stages\": {{{}}}}},\n",
        open_report.p50_s,
        open_report.p99_s,
        open_report.p999_s,
        open_report.timed_out,
        open_report.failed,
        open_report.late_sends,
        stage_fields.join(", ")
    ));
    json.push_str(&format!(
        "  \"tracing_overhead\": {{\"sample_rate\": 0.0, \"p99_base_s\": {:.6}, \
         \"p99_rate0_s\": {:.6}, \"p99_tail_s\": {:.6}, \
         \"budget_s\": {tracing_p99_budget_s:.6}, \
         \"max_overhead_frac\": {TRACING_OVERHEAD_FRAC}}},\n",
        open_report.p99_s, rate0_report.p99_s, tail_report.p99_s
    ));
    json.push_str(&format!(
        "  \"dense_int8_over_dense_fp32\": {int8_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"sparse_int8_over_dense_fp32\": {speedup:.3}\n}}\n"
    ));
    std::fs::write(json_path, json).expect("write BENCH_serving.json");
    println!("recorded to BENCH_serving.json");

    for (name, recorded) in [
        ("dense_int8", DENSE_INT8_RECORDED),
        ("sparse_int8", SPARSE_INT8_RECORDED),
    ] {
        let got = throughput(name);
        assert!(
            got >= INT8_FLOOR * recorded,
            "batched {name} throughput fell to {got:.2} samples/s, below \
             {INT8_FLOOR} x its recorded {recorded}"
        );
    }
    assert!(
        queue_ratio >= QUEUE_GATE,
        "queue-batched throughput must retain >= {QUEUE_GATE}x of direct \
         infer_batch (got {queue_ratio:.2}x)"
    );
    assert!(
        transport_ratio >= TRANSPORT_GATE,
        "socket throughput must retain >= {TRANSPORT_GATE}x of the in-process \
         queued path (got {transport_ratio:.2}x)"
    );
    assert_eq!(
        open_report.failed, 0,
        "open-loop requests failed outright (connection errors or 5xx)"
    );
    assert_eq!(
        open_report.timed_out, 0,
        "open-loop requests expired at {OPEN_RHO}x saturation — the deadline \
         ({open_deadline_ms} ms) should be comfortable at this load"
    );
    assert!(
        open_report.p99_s <= open_deadline_s,
        "SLO gate violated: open-loop p99 {:.0} ms > deadline {open_deadline_ms} ms \
         at {OPEN_RHO}x saturation ({open_rate:.2} req/s)",
        open_report.p99_s * 1e3
    );
    assert_eq!(
        rate0_report.failed, 0,
        "tracing-at-rate-0 open-loop requests failed outright"
    );
    assert!(
        rate0_report.p99_s <= tracing_p99_budget_s,
        "tracing at sample rate 0 must be free: p99 {:.1} ms exceeds the \
         {:.0}%-plus-noise budget of {:.1} ms over the recorded {:.1} ms",
        rate0_report.p99_s * 1e3,
        TRACING_OVERHEAD_FRAC * 1e2,
        tracing_p99_budget_s * 1e3,
        open_report.p99_s * 1e3
    );
    assert_eq!(tail_report.failed, 0, "tail-mode open-loop requests failed");
    assert!(
        tail_report.p99_s <= tracing_p99_budget_s,
        "tail retention must be as cheap as rate-0 head sampling: \
         p99 {:.1} ms exceeds the budget of {:.1} ms over the recorded {:.1} ms",
        tail_report.p99_s * 1e3,
        tracing_p99_budget_s * 1e3,
        open_report.p99_s * 1e3
    );
}
