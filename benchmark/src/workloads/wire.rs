//! `wire_probe`: callers that wait for their reply, so a closed loop.
//! Two keep-alive connections post the real DeiT-Tiny request body
//! (197 × 48 floats as JSON, 186 KB) to a model that computes for about
//! a millisecond, so the wire is most of each round trip.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use vitcod_engine::{Precision, Prediction};
use vitcod_obs::{check_histogram, Exposition};
use vitcod_serve::{BatchConfig, ModelRegistry, Server};
use vitcod_tensor::Matrix;
use vitcod_transport::http::parse_request;
use vitcod_transport::{
    api, json, HttpClient, HttpResponse, HttpServer, Json, Limits, TransportConfig,
};

use crate::models;
use crate::probes::time;
use crate::run::{Layers, Measured, Requests, Workload};
use crate::stats::{bits, quiet, Hash};
use crate::trace::Trace;

const MODEL: &str = "wire_probe_vit";
const PATH: &str = "/v1/models/wire_probe_vit/classify";
const CONNECTIONS: usize = 2;
const POOL: usize = 4;
/// Wire deadline of every request, and the limit an answer must meet.
/// (100 ms was tried: three runs in ten lost two to four of 3300
/// requests to stalls of the box.)
const LIMIT_MS: u64 = 1000;
const MIN_OPS_PER_CONNECTION: usize = 5;

pub struct Wire {
    http: HttpServer,
    addr: SocketAddr,
    pool: Vec<Matrix>,
    bodies: Vec<String>,
    refs: Vec<Vec<u32>>,
    response_bytes: usize,
}

fn encode(tokens: &Matrix) -> String {
    Json::Object(vec![
        ("tokens".into(), api::tokens_json(tokens)),
        ("timeout_ms".into(), Json::Number(LIMIT_MS as f64)),
    ])
    .to_string()
}

/// Logit bits of a `200` answer; `None` if it is not one.
fn decode(resp: &HttpResponse) -> Option<Vec<u32>> {
    if resp.status != 200 {
        return None;
    }
    let body = resp.json().ok()?;
    body.get("logits")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64().map(|x| (x as f32).to_bits()))
        .collect()
}

/// What one connection's loop produced.
struct Connection {
    lat_s: Vec<f64>,
    requests: Requests,
    failed: u64,
    wrong: Option<String>,
    hash: Hash,
    trace: Option<Trace>,
    last_done: Instant,
}

impl Wire {
    fn drive(
        &self,
        conn: usize,
        start: Instant,
        seconds: f64,
        mut trace: Option<Trace>,
    ) -> Connection {
        let mut c = Connection {
            lat_s: Vec::new(),
            requests: Requests::default(),
            failed: 0,
            wrong: None,
            hash: Hash::new(),
            trace: None,
            last_done: start,
        };
        let mut client = HttpClient::connect(self.addr).ok();
        let mut i = 0usize;
        while i < MIN_OPS_PER_CONNECTION || start.elapsed().as_secs_f64() < seconds {
            let slot = (conn + i) % POOL;
            let req = (i * CONNECTIONS + conn) as u32;
            let t_begin = Instant::now();
            // Traced, the caller's own encode and decode are spans too.
            let encoded = trace.as_ref().map(|_| encode(&self.pool[slot]));
            let body = encoded.as_deref().unwrap_or(&self.bodies[slot]);
            if client.is_none() {
                client = HttpClient::connect(self.addr).ok();
            }
            let t0 = Instant::now();
            let resp = client.as_mut().and_then(|cl| cl.post(PATH, body).ok());
            let t1 = Instant::now();
            let answer = resp.as_ref().and_then(decode);
            let t_end = Instant::now();
            c.last_done = t1;
            c.requests.sent += 1;
            let latency = (t1 - t0).as_secs_f64();
            match (&resp, answer) {
                (_, Some(got)) if got == self.refs[slot] => {
                    if latency * 1e3 <= LIMIT_MS as f64 {
                        c.requests.ok += 1;
                        c.lat_s.push(latency);
                    } else {
                        c.requests.late += 1;
                        c.failed += 1;
                    }
                    if i == 0 {
                        for w in got {
                            c.hash.word(w);
                        }
                    }
                }
                (_, Some(_)) => {
                    c.requests.errored += 1;
                    c.failed += 1;
                    c.wrong = Some(format!(
                        "connection {conn} request {i}: logits differ from Engine::infer_batch"
                    ));
                }
                (Some(r), None) if r.status == 504 => {
                    c.requests.expired += 1;
                    c.failed += 1;
                }
                (Some(_), None) => {
                    c.requests.errored += 1;
                    c.failed += 1;
                }
                (None, None) => {
                    c.requests.errored += 1;
                    c.failed += 1;
                    client = None; // reconnect before the next request
                }
            }
            if let Some(trace) = trace.as_mut() {
                let (b, s, e, d) = (
                    trace.ns(t_begin),
                    trace.ns(t0),
                    trace.ns(t1),
                    trace.ns(t_end),
                );
                let root = trace.push(None, req, "bench", "request", b, d);
                trace.push(Some(root), req, "bench", "encode", b, s);
                trace.push(Some(root), req, "transport", "round_trip", s, e);
                trace.push(Some(root), req, "bench", "decode", e, d);
            }
            i += 1;
        }
        c.trace = trace;
        c
    }
}

impl Workload for Wire {
    fn setup(seed: u64, layers: &mut Layers) -> Self {
        let cfg = models::wire_probe_vit();
        let built = models::build(&cfg, seed, false, layers);
        let (_, engine) = models::engine_through_artifact(&built, Precision::Fp32, layers);
        let pool = models::token_pool(&cfg, seed, POOL);
        let answers: Vec<Prediction> = engine.infer_batch(&models::samples(&pool));
        let refs = answers.iter().map(|p| bits(&p.logits)).collect();
        let response_bytes = api::prediction_json(&answers[0]).to_string().len();

        let mut registry = ModelRegistry::new();
        registry
            .register(MODEL, engine)
            .expect("a fresh registry accepts the model");
        let server = Server::start(registry, BatchConfig::default());
        let http = HttpServer::bind("127.0.0.1:0", server, TransportConfig::default())
            .expect("binding a loopback port");
        let addr = http.local_addr();
        let bodies: Vec<String> = pool.iter().map(encode).collect();

        let warm = HttpClient::connect(addr).and_then(|mut c| c.post(PATH, &bodies[0]));
        assert!(
            warm.as_ref().is_ok_and(|r| r.status == 200),
            "warm-up request failed: {:?}",
            warm.map(|r| r.body_str())
        );
        Wire {
            http,
            addr,
            pool,
            bodies,
            refs,
            response_bytes,
        }
    }

    fn measure(
        &mut self,
        seconds: f64,
        trace: Option<&mut Trace>,
        layers: &mut Layers,
    ) -> Measured {
        let start = Instant::now();
        let epoch = trace.as_ref().map(|t| t.epoch());
        let this: &Wire = self;
        let connections: Vec<Connection> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    scope.spawn(move || this.drive(conn, start, seconds, epoch.map(Trace::new)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a connection thread does not panic"))
                .collect()
        });

        let mut m = Measured::default();
        let mut r = Requests::default();
        let mut hash = Hash::new();
        let mut last_done = start;
        let mut local_traces = Vec::new();
        for c in connections {
            m.lat_s.extend(&c.lat_s);
            m.failed += c.failed;
            m.wrong = m.wrong.or(c.wrong);
            r.sent += c.requests.sent;
            r.ok += c.requests.ok;
            r.late += c.requests.late;
            r.expired += c.requests.expired;
            r.errored += c.requests.errored;
            hash.u64(c.hash.0);
            last_done = last_done.max(c.last_done);
            local_traces.extend(c.trace);
        }
        m.attempted = r.sent;
        m.items = r.ok as f64;
        m.window_s = (last_done - start).as_secs_f64().max(f64::MIN_POSITIVE);
        m.output_hash = hash.0;

        if let Some(trace) = trace {
            for t in local_traces {
                trace.absorb(t);
            }
            let body_bytes = self.bodies[0].len();
            layers.set("transport.body_bytes", body_bytes as f64);
            layers.set("transport.response_bytes", self.response_bytes as f64);
            layers.set(
                "transport.bytes_per_s",
                ((body_bytes + self.response_bytes) as f64 * r.ok as f64) / m.window_s,
            );
            layers.set("transport.non_200", (r.expired + r.errored) as f64);
            let compute_mean_s = self
                .http
                .stats()
                .model(MODEL)
                .map_or(0.0, |s| s.stages.compute.mean_s());
            let round_trip = quiet(&trace.per_req_s("transport", "round_trip"));
            layers.set("transport.self_s", (round_trip - compute_mean_s).max(0.0));
        }
        m.requests = Some(r);
        m
    }

    /// The transport's stages called directly on this benchmark's own
    /// request and response bytes, then one scrape through `vitcod_obs`.
    fn probe_layers(&mut self, layers: &mut Layers) {
        let tokens = &self.pool[0];
        let body = &self.bodies[0];
        layers.set(
            "transport.client_encode_s",
            time(|| {
                black_box(api::tokens_json(tokens).to_string());
            }),
        );
        let mut raw = format!(
            "POST {PATH} HTTP/1.1\r\nHost: vitcod\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let limits = Limits::default();
        layers.set(
            "transport.http_parse_s",
            time(|| {
                black_box(parse_request(&raw, &limits).is_ok());
            }),
        );
        layers.set(
            "transport.json_parse_s",
            time(|| {
                black_box(json::parse(body).is_ok());
            }),
        );
        if let Ok(parsed) = json::parse(body) {
            layers.set(
                "transport.classify_decode_s",
                time(|| {
                    black_box(api::parse_classify(&parsed).is_ok());
                }),
            );
        }
        let prediction = Prediction {
            class: 0,
            logits: self.refs[0].iter().map(|b| f32::from_bits(*b)).collect(),
        };
        layers.set(
            "transport.response_encode_s",
            time(|| {
                black_box(api::prediction_json(&prediction).to_string());
            }),
        );

        let Ok(mut client) = HttpClient::connect(self.addr) else {
            return;
        };
        let mut scraped = String::new();
        layers.set(
            "transport.metrics_scrape_s",
            time(|| {
                if let Ok(resp) = client.get("/v1/metrics") {
                    scraped = resp.body_str();
                }
            }),
        );
        layers.set("transport.metrics_bytes", scraped.len() as f64);
        layers.set(
            "transport.stats_get_s",
            time(|| {
                black_box(client.get("/v1/stats").is_ok());
            }),
        );
        layers.set(
            "obs.promtext_parse_s",
            time(|| {
                black_box(Exposition::parse(&scraped).is_ok());
            }),
        );
        if let Ok(exposition) = Exposition::parse(&scraped) {
            layers.set("obs.series", exposition.samples.len() as f64);
            let ok = check_histogram(
                &exposition,
                "vitcod_request_latency_seconds",
                &[("model", MODEL)],
            )
            .is_ok();
            layers.set("obs.histogram_check_ok", f64::from(u8::from(ok)));
        }
    }
}
