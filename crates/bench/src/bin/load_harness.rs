//! Open-loop SLO load harness: drives the full serving stack (engine →
//! assembler ⇄ workers → HTTP transport) over loopback with scheduled
//! arrivals, then drains `/v1/metrics` and `/v1/trace` and writes
//! everything to disk.
//!
//! ```text
//! cargo run --release -p vitcod-bench --bin load_harness -- \
//!     --scenario steady --out target/load
//! ```
//!
//! Scenarios (`--scenario`):
//!
//! * `steady` — single model, Poisson arrivals at 0.7× the measured
//!   saturation rate; gates p99 ≤ deadline with zero timeouts.
//! * `mixed`  — fp32 and int8 engines round-robin under the same gate.
//! * `reload` — steady traffic while a background thread hot-swaps the
//!   artifact over the wire every 200 ms; the gate must hold through
//!   the swaps.
//! * `storm`  — a deadline storm: the same offered rate but a 1 ms
//!   deadline, so requests expire en masse; gates that the server
//!   keeps answering (no connection errors, `/healthz` stays 200),
//!   that the trace recorded the expiries, and that the slow-request
//!   log retained span trees for the blown deadlines.
//! * `slowloris` — a hostile-connection mix (trickled headers,
//!   half-open connects, never-read clients) riding alongside steady
//!   traffic; gates that the transport sheds every hostile connection
//!   while the well-behaved load still meets its SLO.
//! * `degrade` — two phases under an in-process `vitcod-obs` burn-rate
//!   monitor: an induced outage (1 ms deadlines → mass expiry) followed
//!   by clean recovery traffic. Gates that the availability alert walks
//!   `pending → firing → resolved` as load recedes, that the recovery
//!   phase still meets the SLO, and that `/v1/traces` holds tail-kept
//!   (not head-sampled) span trees from the outage; writes the
//!   transition log to `alerts.json`.
//! * `smoke`  — a few hundred requests at a low rate plus an
//!   `/v1/metrics` format check; the CI workflow runs this one (with
//!   `--hold-s` so the `vitcod-obs` monitor binary can scrape the live
//!   server before shutdown).
//!
//! Every scenario writes `report.json` (arrival process, counts,
//! latency percentiles, final `/v1/stats` snapshot), `metrics.txt`
//! (the Prometheus exposition), `trace.json` (the drained event
//! ring), `traces.json` (sampled span trees), `slowlog.json` (the
//! slow-request forensics ring) and `addr.txt` (the bound loopback
//! address, written before load starts so an external monitor can
//! attach) into `--out`.
//!
//! The model is the reduced DeiT-Tiny training shape, so the harness
//! exercises the full stack in seconds even on one CPU; the
//! latency-of-record numbers at the paper shape live in
//! `benches/serving.rs` → `BENCH_serving.json`.

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vitcod_autograd::ParamStore;
use vitcod_bench::load::{self, HostileConfig, LoadConfig, Target};
use vitcod_engine::{save_compiled_vit, CompiledVit, Engine, Precision, Prediction};
use vitcod_model::{Sample, ViTConfig, VisionTransformer};
use vitcod_obs::{fetch_metrics, AlertState, Objective, SloConfig, SloTracker, Transition};
use vitcod_serve::{BatchConfig, ModelRegistry, Server, TailConfig, TracingConfig};
use vitcod_tensor::{Initializer, Matrix};
use vitcod_transport::{api, HttpClient, HttpServer, Json, TransportConfig};

const IN_DIM: usize = 8;
const CLASSES: usize = 4;
/// Generator rate cap: 1-CPU CI boxes cannot hold sub-10 ms sleeps
/// accurately, and the harness gates on its own `late_sends`.
const MAX_RATE: f64 = 100.0;

struct Args {
    scenario: String,
    out: PathBuf,
    requests: Option<usize>,
    rate: Option<f64>,
    /// Keep the server alive this many seconds after the load finishes
    /// (before draining and shutdown), so an external monitor —
    /// `vitcod-obs` in CI — can scrape the live endpoints.
    hold_s: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: "steady".into(),
        out: PathBuf::from("target/load"),
        requests: None,
        rate: None,
        hold_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--requests" => args.requests = Some(value("--requests").parse().expect("--requests")),
            "--rate" => args.rate = Some(value("--rate").parse().expect("--rate")),
            "--hold-s" => args.hold_s = Some(value("--hold-s").parse().expect("--hold-s")),
            other => {
                panic!("unknown flag '{other}' (see --scenario/--out/--requests/--rate/--hold-s)")
            }
        }
    }
    args
}

fn build_compiled() -> CompiledVit {
    let cfg = ViTConfig::deit_tiny().reduced_for_training();
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x10AD);
    let vit = VisionTransformer::new(&cfg, IN_DIM, CLASSES, &mut store, &mut rng);
    CompiledVit::from_parts(&vit, &store)
}

fn tokens_for(compiled: &CompiledVit, seed: u64) -> Matrix {
    Initializer::Normal { std: 1.0 }.sample(compiled.config().tokens, IN_DIM, seed)
}

/// Best-of-5 single-sample service time: the honest per-request compute
/// cost, independent of batch amortization.
fn service_time_s(engine: &Engine) -> f64 {
    let compiled = engine.compiled();
    let sample = Sample {
        tokens: tokens_for(compiled, 0x51),
        label: 0,
    };
    let samples = [sample];
    let _: Vec<Prediction> = engine.infer_batch(&samples); // warm-up
    (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(engine.infer_batch(&samples));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn classify_body(tokens: &Matrix, timeout_ms: u64) -> String {
    Json::Object(vec![
        ("tokens".into(), api::tokens_json(tokens)),
        ("timeout_ms".into(), Json::Number(timeout_ms as f64)),
    ])
    .to_string()
}

/// Drains one endpoint into a string, panicking on transport failure —
/// the harness's whole point is that these endpoints answer under load.
fn fetch(addr: SocketAddr, path: &str) -> String {
    let mut client = HttpClient::connect(addr).expect("connect for fetch");
    let resp = client.get(path).expect("GET");
    assert_eq!(resp.status, 200, "{path} answered {}", resp.status);
    resp.body_str()
}

fn transition_json(t: &Transition) -> Json {
    Json::Object(vec![
        ("alert".into(), Json::String(t.alert.clone())),
        ("at_s".into(), Json::Number(t.at_s)),
        ("from".into(), Json::String(t.from.as_str().into())),
        ("to".into(), Json::String(t.to.as_str().into())),
        ("fast_burn".into(), Json::Number(t.fast_burn)),
        ("slow_burn".into(), Json::Number(t.slow_burn)),
    ])
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("create --out dir");

    let compiled = build_compiled();
    let fp32 = Engine::builder(compiled.clone()).build();
    let s1 = service_time_s(&fp32);
    // 0.7× saturation: the load level the SLO is stated at. One sample
    // every s1 seconds is the engine's worst-case (fill-1) service
    // rate, so ρ ≤ 0.7 holds regardless of how well batches fill.
    let steady_rate = args.rate.unwrap_or((0.7 / s1).min(MAX_RATE));
    // The SLO deadline: generous against compute (12× the service
    // time) but never below 1 s, so CI noise on a shared box does not
    // flap the gate.
    let deadline = (12.0 * s1).max(1.0);
    let deadline_ms = (deadline * 1e3).ceil() as u64;
    println!(
        "model {} ({} tokens, {} dim): service time {:.3} ms -> rate {:.1} req/s, deadline {} ms",
        compiled.config().name,
        compiled.config().tokens,
        compiled.config().dim,
        s1 * 1e3,
        steady_rate,
        deadline_ms
    );

    let mut registry = ModelRegistry::new();
    registry.register("tiny-fp32", fp32).expect("register fp32");
    if args.scenario == "mixed" {
        let int8 = Engine::builder(compiled.clone())
            .precision(Precision::Int8)
            .build();
        registry.register("tiny-int8", int8).expect("register int8");
    }
    // Head sampling: the smoke run samples everything so CI's
    // traces.json artifact is never empty; the latency-gated scenarios
    // sample lightly, the way production would.
    let sample_rate = if args.scenario == "smoke" { 1.0 } else { 0.05 };
    // `storm` and `degrade` need requests to outlive a 1 ms deadline on
    // a model that answers in 0.04 ms: they hold partial batches back
    // for 5 ms, `max_wait`'s one remaining use here — a deterministic
    // queueing delay. Every other scenario runs what ships.
    let max_wait = match args.scenario.as_str() {
        "storm" | "degrade" => Duration::from_millis(5),
        _ => BatchConfig::default().max_wait,
    };
    let server = Server::start_with_tracing(
        registry,
        BatchConfig {
            max_wait,
            ..BatchConfig::default()
        },
        TracingConfig {
            sample_rate,
            slow_threshold: None,
            // Tail retention on in every scenario: the serving bench
            // gates its cost at ≤1% of p99, so the harness runs the
            // production configuration, and degrade/storm rely on it to
            // retain span trees for expired (never head-sampled)
            // requests.
            tail: Some(TailConfig::default()),
        },
    );
    let mut transport_config = TransportConfig::default();
    if args.scenario == "slowloris" {
        // Tight shedding budgets so the hostile mix resolves within the
        // run, and enough handlers that the attack cannot monopolize
        // the pool while it is being shed.
        transport_config.handler_threads = 12;
        transport_config.idle_timeout = Duration::from_millis(750);
        transport_config.request_deadline = Duration::from_millis(500);
    }
    if args.scenario == "degrade" {
        // The induce phase saturates the default handler pool with
        // expiring requests; give the monitoring plane headroom so the
        // scraper stays on schedule *during* the outage it is watching.
        transport_config.handler_threads = 12;
    }
    if args.scenario == "reload" {
        // Save the artifact the background reloader will swap in.
        let path = args.out.join("tiny-fp32.vitcod");
        std::fs::write(&path, save_compiled_vit(&compiled, Precision::Fp32))
            .expect("write artifact");
        transport_config.artifact_root = Some(args.out.clone());
    }
    let http = HttpServer::bind("127.0.0.1:0", server, transport_config).expect("bind loopback");
    let addr = http.local_addr();
    // Published before any load starts so an external monitor (the CI
    // `vitcod-obs` step) can attach to the live server.
    std::fs::write(args.out.join("addr.txt"), addr.to_string()).expect("write addr.txt");

    let (requests, rate, timeout_ms, poisson) = match args.scenario.as_str() {
        "steady" | "mixed" | "reload" | "slowloris" => {
            (args.requests.unwrap_or(256), steady_rate, deadline_ms, true)
        }
        // Deadline storm: same offered load, but a deadline shorter
        // than the configured `max_wait` hold, so queued requests
        // expire en masse.
        "storm" => (args.requests.unwrap_or(256), steady_rate, 1, true),
        // Degrade: this is the *recovery* phase; an induced outage (1 ms
        // deadlines) runs first under an in-process burn-rate monitor.
        "degrade" => (args.requests.unwrap_or(400), steady_rate, deadline_ms, true),
        "smoke" => (
            args.requests.unwrap_or(200),
            args.rate.unwrap_or(steady_rate.min(50.0)),
            deadline_ms,
            true,
        ),
        other => {
            panic!("unknown scenario '{other}' (steady|mixed|reload|storm|slowloris|degrade|smoke)")
        }
    };

    let mut targets = vec![Target {
        model: "tiny-fp32".into(),
        body: classify_body(&tokens_for(&compiled, 0xA1), timeout_ms),
    }];
    if args.scenario == "mixed" {
        targets.push(Target {
            model: "tiny-int8".into(),
            body: classify_body(&tokens_for(&compiled, 0xA2), timeout_ms),
        });
    }
    let cfg = LoadConfig {
        rate,
        requests,
        poisson,
        seed: 0x0BE7,
        senders: 4,
        targets,
    };

    // Reload-under-load: a background thread hot-swaps the artifact
    // every 200 ms until the run finishes.
    let reload_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reloader = (args.scenario == "reload").then(|| {
        let stop = std::sync::Arc::clone(&reload_stop);
        let path = args.out.join("tiny-fp32.vitcod");
        std::thread::spawn(move || {
            let body = Json::Object(vec![(
                "path".into(),
                Json::String(path.to_string_lossy().into_owned()),
            )])
            .to_string();
            let mut swaps = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut client = HttpClient::connect(addr).expect("reloader connect");
                let resp = client
                    .post("/v1/models/tiny-fp32/reload", &body)
                    .expect("reload request");
                assert_eq!(resp.status, 200, "reload failed: {}", resp.body_str());
                swaps += 1;
                std::thread::sleep(Duration::from_millis(200));
            }
            swaps
        })
    });

    // The hostile mix runs for the expected span of the well-behaved
    // schedule, so shedding happens *under* load, not after it.
    let hostile = (args.scenario == "slowloris").then(|| {
        let window = Duration::from_secs_f64((requests as f64 / rate + 2.0).min(30.0));
        let hostile_cfg = HostileConfig {
            loris: 3,
            half_open: 3,
            never_read: 2,
            trickle: Duration::from_millis(50),
            duration: window,
            model: "tiny-fp32".into(),
            body: classify_body(&tokens_for(&compiled, 0xBAD), timeout_ms),
        };
        std::thread::spawn(move || load::run_hostile(addr, &hostile_cfg))
    });

    // Degrade: a burn-rate monitor scrapes the live /v1/metrics across
    // both phases, exactly as the standalone `vitcod-obs` binary would
    // from outside the process. Windows are scaled down to the harness
    // timeline (each phase spans several seconds at MAX_RATE).
    let monitor_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let monitor = (args.scenario == "degrade").then(|| {
        let stop = std::sync::Arc::clone(&monitor_stop);
        std::thread::spawn(move || {
            let mut tracker = SloTracker::new(SloConfig {
                name: "availability".into(),
                objective: Objective::Availability,
                error_budget: 0.01,
                fast_window_s: 1.0,
                slow_window_s: 4.0,
                fast_burn: 10.0,
                slow_burn: 2.0,
            });
            let endpoint = addr.to_string();
            let started = Instant::now();
            loop {
                let scraped = fetch_metrics(&endpoint);
                // Stamp *after* the fetch: if the scrape stalled behind
                // a saturated server, the counters reflect the time the
                // response arrived, not the time the poll started.
                let t_s = started.elapsed().as_secs_f64();
                if let Ok(exp) = scraped {
                    let requests = exp.sum("vitcod_requests_total", &[]);
                    let timeouts = exp.sum("vitcod_timeouts_total", &[]);
                    tracker.observe(t_s, requests, timeouts);
                    if let Some(tr) = tracker.eval(t_s) {
                        println!(
                            "  alert '{}' {} -> {} at t={:.2}s (fast burn {:.1}, slow burn {:.1})",
                            tr.alert, tr.from, tr.to, tr.at_s, tr.fast_burn, tr.slow_burn
                        );
                    }
                }
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            tracker
        })
    });

    // Degrade phase 1: the same offered load, but with deadlines shorter
    // than one batcher wait — requests expire en masse and burn the
    // availability budget. These requests are not head-sampled; the tail
    // sampler must retain their span trees.
    let induce = (args.scenario == "degrade").then(|| {
        let storm_cfg = LoadConfig {
            rate,
            requests,
            poisson: true,
            seed: 0x0BE8,
            senders: 4,
            targets: vec![Target {
                model: "tiny-fp32".into(),
                body: classify_body(&tokens_for(&compiled, 0xA1), 1),
            }],
        };
        println!(
            "degrade phase 1 (induce): {} requests at {:.1} req/s, timeout 1 ms",
            storm_cfg.requests, storm_cfg.rate
        );
        load::run(addr, &storm_cfg)
    });

    println!(
        "scenario {}: {} requests at {:.1} req/s (poisson), timeout {} ms",
        args.scenario, cfg.requests, cfg.rate, timeout_ms
    );
    let report = load::run(addr, &cfg);
    // Give the monitor one fast window of quiet so the firing alert can
    // observe the recovery and resolve before we stop scraping.
    let tracker = monitor.map(|handle| {
        std::thread::sleep(Duration::from_millis(1500));
        monitor_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handle.join().expect("monitor thread")
    });
    let hostile = hostile.map(|h| h.join().expect("hostile mix"));
    reload_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let swaps = reloader.map(|h| h.join().expect("reloader"));

    // Keep the server alive so an external monitor can finish scraping
    // it (CI runs `vitcod-obs` against the smoke scenario this way).
    if let Some(hold_s) = args.hold_s {
        println!("holding server open for {hold_s}s (--hold-s)");
        std::thread::sleep(Duration::from_secs(hold_s));
    }

    // Drain observability endpoints over the wire BEFORE shutdown, then
    // take the final stats snapshot for the report.
    let metrics_body = fetch(addr, "/v1/metrics");
    let trace_body = fetch(addr, "/v1/trace");
    let traces_body = fetch(addr, "/v1/traces");
    let slowlog_body = fetch(addr, "/v1/slowlog");
    let health_body = fetch(addr, "/healthz");
    let stats = http.shutdown();

    std::fs::write(args.out.join("metrics.txt"), &metrics_body).expect("write metrics.txt");
    std::fs::write(args.out.join("trace.json"), &trace_body).expect("write trace.json");
    std::fs::write(args.out.join("traces.json"), &traces_body).expect("write traces.json");
    std::fs::write(args.out.join("slowlog.json"), &slowlog_body).expect("write slowlog.json");
    let mut report_fields = vec![
        ("scenario".into(), Json::String(args.scenario.clone())),
        ("service_time_s".into(), Json::Number(s1)),
        ("deadline_s".into(), Json::Number(deadline)),
        ("report".into(), report.to_json()),
        ("stats".into(), api::stats_json(&stats)),
    ];
    if let Some(swaps) = swaps {
        report_fields.push(("reloads".into(), Json::Number(swaps as f64)));
    }
    if let Some(hostile) = &hostile {
        report_fields.push(("hostile".into(), hostile.to_json()));
    }
    if let Some(induce) = &induce {
        report_fields.push(("induce".into(), induce.to_json()));
    }
    if let Some(tracker) = &tracker {
        let transitions = tracker
            .transitions()
            .iter()
            .map(transition_json)
            .collect::<Vec<_>>();
        let alerts = Json::Object(vec![
            ("alert".into(), Json::String(tracker.config().name.clone())),
            (
                "objective".into(),
                Json::String(tracker.config().objective.kind().into()),
            ),
            (
                "final_state".into(),
                Json::String(tracker.state().as_str().into()),
            ),
            ("transitions".into(), Json::Array(transitions)),
        ]);
        std::fs::write(args.out.join("alerts.json"), alerts.to_string())
            .expect("write alerts.json");
    }
    std::fs::write(
        args.out.join("report.json"),
        Json::Object(report_fields).to_string(),
    )
    .expect("write report.json");

    println!(
        "sent {} ok {} timed_out {} failed {} late {} | p50 {:.1} ms p99 {:.1} ms p999 {:.1} ms",
        report.sent,
        report.ok,
        report.timed_out,
        report.failed,
        report.late_sends,
        report.p50_s * 1e3,
        report.p99_s * 1e3,
        report.p999_s * 1e3,
    );
    if let Some(swaps) = swaps {
        println!("hot reloads under load: {swaps}");
    }
    println!(
        "wrote report.json, metrics.txt, trace.json to {}",
        args.out.display()
    );

    // ------------------------------------------------------------------
    // Gates. Any failure panics (non-zero exit) so CI fails the step.
    // ------------------------------------------------------------------
    assert_eq!(report.failed, 0, "requests failed outright");
    assert_eq!(
        report.sent, requests,
        "generator did not work through the whole schedule"
    );
    assert!(
        health_body.contains("\"ok\""),
        "/healthz unhealthy after the run: {health_body}"
    );
    match args.scenario.as_str() {
        "storm" => {
            // The point of the storm is mass expiry: the server must
            // shed load via deadlines, not errors, and say so.
            assert!(report.timed_out > 0, "storm produced no deadline expiries");
            assert!(
                trace_body.contains("\"expire\""),
                "trace recorded no expire events"
            );
            assert!(
                metrics_body.contains("vitcod_timeouts_total"),
                "metrics missing the timeout counter"
            );
            // Blown deadlines are exactly what the slow-request log is
            // for: every expiry blew well past deadline/2.
            assert!(
                slowlog_body.contains("\"request\""),
                "storm retained no span trees in the slowlog"
            );
        }
        "degrade" => {
            let induce = induce.as_ref().expect("degrade ran the induce phase");
            let tracker = tracker.as_ref().expect("degrade ran the monitor");
            assert!(
                induce.timed_out > 0,
                "degrade phase 1 induced no deadline expiries"
            );
            assert_eq!(induce.failed, 0, "induce phase requests failed outright");
            // Recovery traffic must still meet the normal SLO — the
            // outage must not poison the server.
            assert_eq!(report.timed_out, 0, "recovery requests expired");
            assert!(
                report.p99_s <= deadline,
                "recovery SLO violated: p99 {:.1} ms > deadline {:.1} ms",
                report.p99_s * 1e3,
                deadline * 1e3
            );
            // The burn-rate alert must have walked the full incident:
            // armed on the fast window, confirmed by the slow window,
            // and resolved once the recovery traffic cleared the fast
            // window.
            let seq: Vec<(AlertState, AlertState)> = tracker
                .transitions()
                .iter()
                .map(|t| (t.from, t.to))
                .collect();
            assert!(
                seq.contains(&(AlertState::Pending, AlertState::Firing)),
                "availability alert never fired: {seq:?}"
            );
            assert!(
                seq.contains(&(AlertState::Firing, AlertState::Resolved)),
                "availability alert never resolved after recovery: {seq:?}"
            );
            // The outage's requests were not head-sampled (5% rate), so
            // the span trees in /v1/traces must be tail keeps: errored
            // expiries and deadline/2 slow completions.
            assert!(
                traces_body.contains("\"sampled\":false"),
                "traces hold no tail-kept (unsampled) span trees"
            );
            assert!(
                traces_body.contains("\"kept\":\"error\"")
                    || traces_body.contains("\"kept\":\"slow\""),
                "traces hold no slow/errored tail keeps from the outage"
            );
        }
        _ => {
            assert_eq!(report.timed_out, 0, "requests expired under the SLO rate");
            assert!(
                report.p99_s <= deadline,
                "SLO violated: p99 {:.1} ms > deadline {:.1} ms at 0.7x saturation",
                report.p99_s * 1e3,
                deadline * 1e3
            );
        }
    }
    if let Some(hostile) = &hostile {
        println!(
            "hostile mix: launched {} shed {} survived {} refused {}",
            hostile.launched, hostile.shed, hostile.survived, hostile.refused
        );
        assert_eq!(
            hostile.survived, 0,
            "transport failed to shed {} hostile connection(s)",
            hostile.survived
        );
    }
    if args.scenario == "smoke" {
        for needle in [
            "# TYPE vitcod_request_latency_seconds histogram",
            "vitcod_stage_latency_seconds_bucket",
            "stage=\"compute\"",
            "vitcod_model_info",
        ] {
            assert!(metrics_body.contains(needle), "metrics missing '{needle}'");
        }
        assert!(
            trace_body.contains("\"enqueue\"") && trace_body.contains("\"dispatch\""),
            "trace missing enqueue/dispatch events"
        );
        // Everything is head-sampled in the smoke run, so the span ring
        // must hold trees whose compute subtrees name the per-layer ops
        // — the artifact CI uploads must actually show the feature.
        for needle in [
            "\"request\"",
            "\"qkv\"",
            "\"spmm\"",
            "vitcod_engine_op_seconds",
        ] {
            let hay = if needle.starts_with("vitcod_") {
                &metrics_body
            } else {
                &traces_body
            };
            assert!(hay.contains(needle), "observability missing '{needle}'");
        }
    }
    println!("scenario '{}' passed its gate", args.scenario);
}
