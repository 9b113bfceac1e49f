//! The network front end: a handler-thread pool sharing one
//! `TcpListener`, each handler accepting its own connections, speaking
//! keep-alive HTTP/1.1 over them and driving the serving layer through
//! a [`vitcod_serve::Client`].
//!
//! ```text
//!  TcpListener ◀── accept ── handler pool (connections beyond it wait in the listen backlog)
//!                            │ parse → route → Client::submit → wait
//!                            ▼
//!                    vitcod_serve::Server (assembler ⇄ workers → engines)
//! ```
//!
//! A wire request crosses two thread hand-offs: the handler that
//! accepted its connection offers it to the serving layer, and the
//! worker that ran it wakes that handler back up.
//!
//! **Graceful shutdown** ([`HttpServer::shutdown`]) runs front to back:
//! stop accepting connections, let handlers finish the requests already
//! on the wire, then drain the serving layer itself — an accepted
//! request is never dropped, matching [`vitcod_serve::Server`]'s own
//! contract.

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vitcod_engine::{load_compiled_vit, Engine};
use vitcod_serve::{
    Client, RequestError, RequestOutcome, Server, ServerStats, Span, StageReport, SubmitError,
    Ticket,
};

use crate::api;
use crate::http::{self, Limits};
use crate::json::Json;
use crate::metrics;
use crate::router::{route, Route, RouteError};

/// The default response `Content-Type` (everything except
/// `/v1/metrics`, which serves Prometheus text exposition).
const JSON_TYPE: &str = "application/json";

/// How often blocked socket reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The header a client uses to bring its own trace id. Its presence
/// forces head sampling for that request.
pub const TRACE_ID_HEADER: &str = "x-vitcod-trace-id";

/// An ingress-generated trace id: a per-process random-ish prefix
/// (boot-time nanos) plus a monotonic counter — unique within a process
/// and practically unique across restarts, with no RNG dependency.
fn next_trace_id() -> String {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    static PREFIX: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let prefix = PREFIX.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{prefix:016x}-{n}")
}

/// Transport tuning knobs; see [`HttpServer::bind`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Handler threads serving connections (each accepts and runs one
    /// connection at a time; connections beyond the pool wait in the
    /// kernel's listen backlog).
    pub handler_threads: usize,
    /// HTTP parser caps (header section and `Content-Length`).
    pub limits: Limits,
    /// Deadline applied to classify requests that carry no
    /// `timeout_ms`; `None` waits indefinitely.
    pub default_timeout: Option<Duration>,
    /// Idle keep-alive connections (and stalled mid-request reads) are
    /// closed after this long without a byte.
    pub idle_timeout: Duration,
    /// A request whose first byte has arrived must parse completely
    /// within this budget, however steadily bytes trickle in — the
    /// slow-loris defense (`idle_timeout` alone resets on every byte,
    /// so one header byte per poll interval would pin a handler
    /// forever). Idle time *between* keep-alive requests is governed
    /// by [`TransportConfig::idle_timeout`] instead.
    pub request_deadline: Duration,
    /// Directory `POST …/reload` may load `*.vitcod` artifacts from.
    /// `None` (the default) disables wire-triggered reloads entirely:
    /// an unauthenticated endpoint that reads operator-chosen paths
    /// must be opted into, and even then stays confined to this root.
    /// In-process [`Server::reload`] is unaffected.
    pub artifact_root: Option<std::path::PathBuf>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            handler_threads: 4,
            limits: Limits::default(),
            default_timeout: None,
            idle_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            artifact_root: None,
        }
    }
}

struct TransportShared {
    client: Client,
    config: TransportConfig,
    shutting_down: AtomicBool,
    /// Shared by the handler pool: an idle handler parks in `accept()`.
    /// Closed with the last `Arc`, after the handlers have left, which
    /// resets the connections still in the listen backlog — never read
    /// from, so a reset is the correct refusal signal.
    listener: TcpListener,
}

/// The HTTP front end over a [`vitcod_serve::Server`]; see the module
/// docs.
pub struct HttpServer {
    shared: Arc<TransportShared>,
    server: Option<Server>,
    addr: SocketAddr,
    handlers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port `0` for an ephemeral port) and starts
    /// serving `server` over it, taking ownership: the transport is now
    /// the process's front door, and [`HttpServer::shutdown`] drains
    /// both layers in order.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    ///
    /// # Panics
    ///
    /// Panics if `config.handler_threads` is zero.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Server,
        config: TransportConfig,
    ) -> std::io::Result<HttpServer> {
        Self::bind_serving(addr, server, config, handle_connection)
    }

    /// [`HttpServer::bind`] with the function each handler serves an
    /// accepted connection with.
    fn bind_serving(
        addr: impl ToSocketAddrs,
        server: Server,
        config: TransportConfig,
        serve: ServeConnection,
    ) -> std::io::Result<HttpServer> {
        assert!(config.handler_threads >= 1, "handler_threads must be >= 1");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(TransportShared {
            client: server.client(),
            config,
            shutting_down: AtomicBool::new(false),
            listener,
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS thread exhaustion at startup; bind() is the setup path"
        )]
        let handlers = (0..shared.config.handler_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vitcod-transport-handler-{i}"))
                    .spawn(move || run_handler(&shared, serve))
                    .expect("spawn handler")
            })
            .collect();
        Ok(HttpServer {
            shared,
            server: Some(server),
            addr,
            handlers,
        })
    }

    /// The bound address (the ephemeral port when bound to port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A consistent snapshot of the serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.client.stats()
    }

    /// Graceful shutdown: stops accepting connections, lets handlers
    /// finish the requests already on the wire, then drains the serving
    /// layer and returns its final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_transport();
        match self.server.take() {
            // `server` is only taken here, and `shutdown(self)` consumes
            // the transport, so this is always the populated arm.
            Some(server) => server.shutdown(),
            None => self.shared.client.stats(),
        }
    }

    fn stop_transport(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // A handler inside a connection polls the flag; one parked in
        // `accept()` needs a wake-up connection, and takes at most one
        // before it sees the flag.
        for _ in &self.handlers {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.handlers.drain(..) {
            if h.join().is_err() {
                eprintln!("vitcod-transport: handler thread panicked");
            }
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if !self.handlers.is_empty() {
            self.stop_transport();
        }
        // Dropping the inner `Server` (if shutdown() did not take it)
        // drains the serving layer via its own Drop.
    }
}

/// How a handler serves one accepted connection.
type ServeConnection = fn(&TransportShared, TcpStream);

fn run_handler(shared: &TransportShared, serve: ServeConnection) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match shared.listener.accept() {
            // Accepted after the flag went up (the wake-up connection,
            // or a client racing it), a connection is closed unread by
            // `handle_connection`'s own check of the flag. A panic while
            // serving ends only its own connection (unwinding drops the
            // stream, so the client sees it close); the handler goes
            // back to `accept` and the pool keeps its size.
            Ok((stream, _)) => {
                let _ = catch_unwind(AssertUnwindSafe(|| serve(shared, stream)));
            }
            // Transient accept errors (EMFILE, aborted handshakes)
            // must not kill the front door.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Serves one keep-alive connection until it closes, errors, idles out,
/// or the transport shuts down.
fn handle_connection(shared: &TransportShared, mut stream: TcpStream) {
    // Short read timeouts let the loop poll the shutdown flag; the
    // idle budget is enforced separately.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut last_byte = Instant::now();
    let mut chunk = [0u8; 16 * 1024];
    // Stamped when the first byte of a request lands in the buffer — the
    // span tree's `request` root starts here, so queueing inside the
    // kernel's socket buffer is the only wait a trace cannot see.
    let mut request_started: Option<Instant> = None;
    loop {
        match http::parse_request(&buf, &shared.config.limits) {
            Ok(Some((request, consumed))) => {
                buf.drain(..consumed);
                let ingress = request_started.take().unwrap_or_else(Instant::now);
                if !buf.is_empty() {
                    // Pipelined: the next request's first bytes are
                    // already buffered.
                    request_started = Some(Instant::now());
                }
                let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
                let close = !request.keep_alive || shutting_down;
                let (status, content_type, body) = dispatch(shared, &request, ingress);
                if http::write_response_with_type(&mut stream, status, content_type, &body, close)
                    .is_err()
                    || close
                {
                    return;
                }
                last_byte = Instant::now();
            }
            Ok(None) => {
                let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
                if shutting_down && buf.is_empty() {
                    // Idle between requests at shutdown: nothing on the
                    // wire is abandoned by closing now.
                    return;
                }
                // A half-received request gets a short grace at
                // shutdown instead of the full idle budget.
                let idle_budget = if shutting_down {
                    shared.config.idle_timeout.min(Duration::from_millis(500))
                } else {
                    shared.config.idle_timeout
                };
                if last_byte.elapsed() >= idle_budget {
                    if !buf.is_empty() {
                        let _ = http::write_response(
                            &mut stream,
                            408,
                            &api::error_json("timed out waiting for the rest of the request"),
                            true,
                        );
                    }
                    return;
                }
                // Slow-loris shedding: a trickle of header bytes keeps
                // `last_byte` fresh forever, so partial requests also
                // burn a total per-request budget.
                if request_started.is_some_and(|s| s.elapsed() >= shared.config.request_deadline) {
                    let _ = http::write_response(
                        &mut stream,
                        408,
                        &api::error_json("request did not complete within the request deadline"),
                        true,
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        if !buf.is_empty() {
                            let _ = http::write_response(
                                &mut stream,
                                400,
                                &api::error_json("connection closed mid-request"),
                                true,
                            );
                        }
                        return;
                    }
                    Ok(n) => {
                        let Some(read) = chunk.get(..n) else { return };
                        if buf.is_empty() && n > 0 {
                            request_started = Some(Instant::now());
                        }
                        buf.extend_from_slice(read);
                        last_byte = Instant::now();
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => return,
                }
            }
            Err(e) => {
                let _ = http::write_response(
                    &mut stream,
                    e.status(),
                    &api::error_json(&e.to_string()),
                    true,
                );
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

/// Routes and executes one request; infallible by construction (every
/// failure becomes a status + JSON error body). Returns status,
/// `Content-Type` and body. `ingress` is when the request's first byte
/// arrived — the root of its span tree.
fn dispatch(
    shared: &TransportShared,
    request: &http::HttpRequest,
    ingress: Instant,
) -> (u16, &'static str, String) {
    let json = |(status, body): (u16, String)| (status, JSON_TYPE, body);
    match route(&request.method, &request.path) {
        Err(RouteError::NotFound) => json((404, api::error_json("no such endpoint"))),
        Err(RouteError::MethodNotAllowed) => {
            json((405, api::error_json("method not allowed on this endpoint")))
        }
        Ok(Route::Health) => {
            // `?deep=1`: readiness, not just liveness — run one real
            // inference per registered model through the full
            // assembler → worker → engine path.
            if request.query.split('&').any(|kv| kv == "deep=1") {
                json(deep_health(shared))
            } else {
                let body = api::health_json(
                    &shared.client.model_ids(),
                    shared.client.queued_requests(),
                    shared.client.uptime_s(),
                );
                json((200, body.to_string()))
            }
        }
        Ok(Route::Metrics) => {
            let stats = shared.client.stats();
            let body = metrics::render(
                &stats,
                shared.client.queued_requests(),
                shared.client.traces_dropped(),
            );
            (200, metrics::CONTENT_TYPE, body)
        }
        Ok(Route::Traces) => {
            // `?peek=1`: non-destructive read.
            let traces = if request.query.split('&').any(|kv| kv == "peek=1") {
                shared.client.peek_traces()
            } else {
                shared.client.take_traces()
            };
            let body = api::traces_json(&traces, shared.client.traces_dropped());
            json((200, body.to_string()))
        }
        Ok(Route::Classify { model }) => json(match parse_body(request) {
            Ok(body) => classify(shared, &model, &body, request, ingress),
            Err(resp) => resp,
        }),
        Ok(Route::Reload { model }) => json(match parse_body(request) {
            Ok(body) => reload(shared, &model, &body),
            Err(resp) => resp,
        }),
    }
}

/// Decodes the request body as a JSON document (UTF-8 checked first).
fn parse_body(request: &http::HttpRequest) -> Result<Json, (u16, String)> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| (400, api::error_json("body is not valid UTF-8")))?;
    if text.trim().is_empty() {
        return Err((400, api::error_json("empty body; expected a JSON object")));
    }
    crate::json::parse(text).map_err(|e| (400, api::error_json(&e.to_string())))
}

fn submit_status(err: &SubmitError) -> u16 {
    match err {
        SubmitError::UnknownModel(_) => 404,
        SubmitError::ShapeMismatch { .. } => 400,
        SubmitError::Closed => 503,
    }
}

fn classify(
    shared: &TransportShared,
    model: &str,
    body: &Json,
    request: &http::HttpRequest,
    ingress: Instant,
) -> (u16, String) {
    let payload = match api::parse_classify(body) {
        Ok(p) => p,
        Err(e) => return (400, api::error_json(&e.to_string())),
    };
    // Trace identity and the head-sampling decision, at ingress: an
    // explicit `x-vitcod-trace-id` header forces sampling; otherwise
    // the server's deterministic sampler decides.
    let header_id = request.header(TRACE_ID_HEADER).map(str::to_string);
    let sampled = header_id.is_some() || shared.client.sample_trace();
    let trace_id = header_id.unwrap_or_else(next_trace_id);
    // The parse span: first byte on the wire to a validated payload.
    let parse_s = ingress.elapsed().as_secs_f64();
    let timeout = payload
        .timeout_ms
        .map(Duration::from_millis)
        .or(shared.config.default_timeout);
    // Submit every sample before waiting on any: the serving layer sees
    // the whole burst at once, so the assembler can co-batch it.
    let mut tickets: Vec<Ticket> = Vec::with_capacity(payload.items.len());
    for tokens in payload.items {
        match shared.client.submit_traced(model, tokens, timeout, sampled) {
            Ok(ticket) => tickets.push(ticket),
            // Already-submitted samples of a failed batch are still
            // served (their tickets resolve unobserved); the request as
            // a whole reports the error.
            Err(e) => {
                finish_trace(
                    shared,
                    model,
                    timeout,
                    None,
                    TraceFinish {
                        trace_id: trace_id.clone(),
                        sampled,
                        outcome: RequestOutcome::Failed,
                        ingress,
                        parse_s,
                        serialize_s: 0.0,
                    },
                );
                return (submit_status(&e), api::error_json(&e.to_string()));
            }
        }
    }
    let mut results = Vec::with_capacity(tickets.len());
    let mut timed_out = 0usize;
    for ticket in &tickets {
        match wait_for(ticket, timeout) {
            Ok(p) => results.push(api::prediction_json(&p)),
            Err(RequestError::TimedOut) => {
                timed_out += 1;
                results.push(Json::Object(vec![(
                    "error".into(),
                    Json::String("timed out".into()),
                )]));
            }
            Err(RequestError::Cancelled) => {
                finish_trace(
                    shared,
                    model,
                    timeout,
                    None,
                    TraceFinish {
                        trace_id: trace_id.clone(),
                        sampled,
                        outcome: RequestOutcome::Failed,
                        ingress,
                        parse_s,
                        serialize_s: 0.0,
                    },
                );
                return (503, api::error_json("server shut down before serving"));
            }
        }
    }
    // The span tree reports the first sample's stage timings: a batch
    // body is one wire request, its samples co-batch, and their stage
    // stamps are near-identical — one tree per trace id keeps the ring
    // and its JSON bounded.
    let report = tickets.first().and_then(Ticket::take_stage_report);
    let outcome = if timed_out > 0 {
        RequestOutcome::Expired
    } else {
        RequestOutcome::Ok
    };
    let finish = |serialize_s: f64| TraceFinish {
        trace_id: trace_id.clone(),
        sampled,
        outcome,
        ingress,
        parse_s,
        serialize_s,
    };
    // Serialize stage: time the JSON encode of the response body and
    // record it once per sample actually served (every sample in the
    // response observed the same encode latency).
    let served = tickets.len().saturating_sub(timed_out);
    if !payload.batch {
        if timed_out > 0 {
            finish_trace(shared, model, timeout, report, finish(0.0));
            return (504, api::error_json("timed out"));
        }
        let encode_start = Instant::now();
        let body = results.remove(0).to_string();
        let encode = encode_start.elapsed();
        record_serialize(shared, model, encode, served);
        finish_trace(shared, model, timeout, report, finish(encode.as_secs_f64()));
        return (200, body);
    }
    let encode_start = Instant::now();
    let body = Json::Object(vec![("results".into(), Json::Array(results))]).to_string();
    let encode = encode_start.elapsed();
    record_serialize(shared, model, encode, served);
    finish_trace(shared, model, timeout, report, finish(encode.as_secs_f64()));
    (200, body)
}

/// The transport-side half of one finished request's span tree; the
/// serve-side half arrives as the ticket's [`StageReport`].
struct TraceFinish {
    trace_id: String,
    sampled: bool,
    /// How the request ended, for the keep rule's `error` keep.
    outcome: RequestOutcome,
    ingress: Instant,
    parse_s: f64,
    serialize_s: f64,
}

/// Assembles the `request` span tree and hands it to the serving
/// layer's keep rule ([`vitcod_serve::Client::record_finished`]), which
/// keeps it at most once: failed or expired, past the slow threshold
/// (deadline × 0.5, or the configured fallback), or head-sampled.
fn finish_trace(
    shared: &TransportShared,
    model: &str,
    timeout: Option<Duration>,
    report: Option<StageReport>,
    f: TraceFinish,
) {
    // A request that expired before serving has no report; its stage
    // leaves read zero and the gap under `request` is the wait.
    let report = report.unwrap_or_default();
    let compute = report
        .compute
        .unwrap_or_else(|| Span::leaf("compute", report.compute_s));
    let root = Span::with_children(
        "request",
        f.ingress.elapsed().as_secs_f64(),
        vec![
            Span::leaf("parse", f.parse_s),
            Span::leaf("queue", report.queue_wait_s),
            Span::leaf("batch_assembly", report.batch_assembly_s),
            compute,
            Span::leaf("serialize", f.serialize_s),
        ],
    );
    shared
        .client
        .record_finished(f.trace_id, model, f.sampled, f.outcome, timeout, root);
}

/// Per-model budget of the deep health probe: generous against a
/// backlog or a configured `max_wait` hold but bounded, so a wedged
/// model degrades the probe instead of hanging it.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// `GET /v1/health?deep=1`: runs a one-sample inference per registered
/// model through the normal serving path and reports per-model
/// readiness. Any failed probe turns the status to `degraded` and the
/// response to 503 — the shape a load balancer's readiness check wants.
/// Probe requests are real requests: they count in the model's stats
/// (and are never head-sampled or recorded, so they cannot crowd the
/// traces ring).
fn deep_health(shared: &TransportShared) -> (u16, String) {
    let models = shared.client.model_ids();
    let probes: Vec<api::ModelProbe> = models
        .iter()
        .map(|model| {
            let started = Instant::now();
            let ok = probe_model(shared, model);
            api::ModelProbe {
                model: model.clone(),
                ok,
                latency_s: started.elapsed().as_secs_f64(),
            }
        })
        .collect();
    let healthy = probes.iter().all(|p| p.ok);
    let body = api::deep_health_json(
        &models,
        shared.client.queued_requests(),
        shared.client.uptime_s(),
        healthy,
        &probes,
    );
    (if healthy { 200 } else { 503 }, body.to_string())
}

/// One probe: a zero token matrix of the model's compiled shape,
/// submitted with a deadline and waited to a prediction.
fn probe_model(shared: &TransportShared, model: &str) -> bool {
    let Some((tokens, in_dim)) = shared.client.model_shape(model) else {
        // Racing an unregister; a model that is gone cannot be ready.
        return false;
    };
    let sample = vitcod_tensor::Matrix::zeros(tokens, in_dim);
    match shared
        .client
        .submit_traced(model, sample, Some(PROBE_TIMEOUT), false)
    {
        Ok(ticket) => wait_for(&ticket, Some(PROBE_TIMEOUT)).is_ok(),
        Err(_) => false,
    }
}

/// Feeds the serialize-stage histogram: one observation per served
/// sample in the response.
fn record_serialize(shared: &TransportShared, model: &str, took: Duration, served: usize) {
    for _ in 0..served {
        shared.client.observe_serialize(model, took);
    }
}

/// Waits for one ticket, honouring the deadline when there is one.
fn wait_for(
    ticket: &Ticket,
    timeout: Option<Duration>,
) -> Result<vitcod_engine::Prediction, RequestError> {
    // Slack over the submit-time deadline: a request batched just
    // before its deadline is served to completion rather than abandoned
    // mid-inference, so give the engine a beat to deliver before
    // reporting the timeout. No deadline, or one too long to add the
    // slack to, is `Duration::MAX`: a wait without limit.
    ticket.wait_timeout(timeout.map_or(Duration::MAX, |t| {
        t.saturating_add(Duration::from_millis(50))
    }))
}

fn reload(shared: &TransportShared, model: &str, body: &Json) -> (u16, String) {
    // The wire may only swap models that already exist (no remote
    // registry growth) …
    if !shared.client.model_ids().iter().any(|id| id == model) {
        return (404, api::error_json(&format!("unknown model id '{model}'")));
    }
    // … and only from artifacts inside the configured root: an
    // unauthenticated endpoint must not read operator-arbitrary paths.
    let root = match &shared.config.artifact_root {
        Some(root) => root,
        None => {
            return (
                403,
                api::error_json("reload over the wire is disabled: no artifact_root configured"),
            )
        }
    };
    let path = match body.get("path").and_then(Json::as_str) {
        Some(p) => p,
        None => return (400, api::error_json("body must carry 'path'")),
    };
    // Canonicalize both sides (resolving symlinks and `..`) before the
    // containment check.
    let confined = std::fs::canonicalize(root).ok().and_then(|root| {
        let resolved = std::fs::canonicalize(path).ok()?;
        resolved.starts_with(&root).then_some(resolved)
    });
    let resolved = match confined {
        Some(p) => p,
        None => {
            return (
                403,
                api::error_json(&format!(
                    "'{path}' is not an existing artifact inside the configured artifact root"
                )),
            )
        }
    };
    let text = match std::fs::read_to_string(&resolved) {
        Ok(t) => t,
        Err(e) => return (400, api::error_json(&format!("cannot read '{path}': {e}"))),
    };
    let (compiled, precision) = match load_compiled_vit(&text) {
        Ok(x) => x,
        Err(e) => {
            return (
                400,
                api::error_json(&format!("artifact '{path}' invalid: {e}")),
            )
        }
    };
    let engine = Engine::builder(compiled).precision(precision).build();
    let replaced = shared.client.reload(model, engine);
    let body = Json::Object(vec![
        ("model".into(), Json::String(model.into())),
        ("replaced".into(), Json::Bool(replaced)),
        ("precision".into(), Json::String(precision.to_string())),
    ]);
    (200, body.to_string())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use vitcod_serve::{BatchConfig, ModelRegistry};

    use super::*;
    use crate::HttpClient;

    #[test]
    fn a_panic_while_serving_a_connection_leaves_its_handler_in_the_pool() {
        fn panic_on_first(shared: &TransportShared, stream: TcpStream) {
            static SERVED: AtomicUsize = AtomicUsize::new(0);
            if SERVED.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first connection");
            }
            handle_connection(shared, stream);
        }
        let http = HttpServer::bind_serving(
            "127.0.0.1:0",
            Server::start(ModelRegistry::new(), BatchConfig::default()),
            TransportConfig {
                handler_threads: 1,
                ..TransportConfig::default()
            },
            panic_on_first,
        )
        .unwrap();
        let addr = http.local_addr();
        let mut first = HttpClient::connect(addr).unwrap();
        assert!(
            first.get("/v1/health").is_err(),
            "the panicking connection closes"
        );
        // Without a handler left the next connection would wait in the
        // backlog forever, so it is made on a thread and awaited with a
        // deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = std::thread::spawn(move || {
            let status = HttpClient::connect(addr)
                .and_then(|mut c| c.get("/v1/health"))
                .map(|r| r.status);
            let _ = tx.send(status);
        });
        let status = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the one handler answers the next connection");
        assert_eq!(status.unwrap(), 200);
        second.join().unwrap();
        http.shutdown();
    }
}
