//! The network front end of the ViTCoD serving stack: a
//! dependency-free HTTP/1.1 server that turns [`vitcod_serve`] from a
//! library into a process you can curl.
//!
//! The build environment is offline, so everything is hand-rolled on
//! `std::net`: an incremental [`http`] parser with hard header/body
//! caps, a [`json`] codec with a nesting limit and lossless `f32`
//! number round-trips, a [`router`], and a handler pool
//! ([`HttpServer`]) whose threads accept their own connections and sit
//! directly on [`vitcod_serve::Client`].
//!
//! # Endpoints
//!
//! | method | path                       | body                               |
//! |--------|----------------------------|------------------------------------|
//! | POST   | `/v1/models/{id}/classify` | `{"tokens": [[…]], "timeout_ms"?}` or `{"batch": [{"tokens": …}, …]}` |
//! | GET    | `/v1/stats`                | —                                  |
//! | GET    | `/v1/metrics`              | — (Prometheus text exposition)     |
//! | GET    | `/v1/trace`                | — (drains the event-trace ring)    |
//! | GET    | `/v1/traces`               | — (drains sampled span trees)      |
//! | GET    | `/v1/slowlog`              | — (drains the slow-request log)    |
//! | GET    | `/healthz`                 | —                                  |
//! | GET    | `/v1/health`               | — (`?deep=1` runs a one-sample inference probe per model) |
//! | POST   | `/v1/models/{id}/reload`   | `{"path": "models/m.vitcod"}`      |
//!
//! The three ring endpoints (`/v1/trace`, `/v1/traces`, `/v1/slowlog`)
//! accept `?peek=1` to read without draining. A classify request may
//! carry an `x-vitcod-trace-id` header; that id is used verbatim and
//! forces the request through the span sampler, so its full span tree
//! (per-layer compute ops included) lands in `/v1/traces`.
//!
//! Wire-level `timeout_ms` becomes a real per-request deadline: the
//! serving layer's batch assembler expires requests past it (they
//! resolve `504` instead of occupying batch slots), and its workers
//! take models round-robin so one hot model cannot starve the rest.
//! `reload` hot-swaps a `*.vitcod` artifact behind the registry without
//! dropping in-flight requests — they finish on the weights they were
//! submitted against. Wire reloads are an opt-in: they require
//! [`TransportConfig::artifact_root`] and stay confined to it (only
//! already-registered model ids can be swapped).
//!
//! Serving through the socket never perturbs a prediction: logits ride
//! as shortest-round-trip decimals, so a classify response is
//! bit-identical to [`vitcod_engine::Engine::infer_batch`] on the same
//! tokens (enforced end to end by `crates/transport/tests`).
//!
//! # Example
//!
//! ```no_run
//! use vitcod_serve::{BatchConfig, ModelRegistry, Server};
//! use vitcod_transport::{HttpClient, HttpServer, TransportConfig};
//!
//! let registry = ModelRegistry::load_dir("artifacts/").unwrap();
//! let server = Server::start(registry, BatchConfig::default());
//! let http = HttpServer::bind("127.0.0.1:0", server, TransportConfig::default()).unwrap();
//!
//! let mut client = HttpClient::connect(http.local_addr()).unwrap();
//! let resp = client
//!     .post(
//!         "/v1/models/deit-tiny/classify",
//!         r#"{"tokens": [[0.0, 0.1], [0.2, 0.3]], "timeout_ms": 250}"#,
//!     )
//!     .unwrap();
//! println!("{}", resp.body_str());
//! let stats = http.shutdown();
//! println!("served {} requests", stats.total_requests());
//! ```

#![forbid(unsafe_code)]
// The serving path must not panic (vitcod-lint V001); clippy enforces
// the unwrap half at compile time. Tests may unwrap freely.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod json;
pub mod metrics;
pub mod router;

mod client;
mod server;

pub use client::HttpClient;
pub use http::{HttpParseError, HttpRequest, HttpResponse, Limits};
pub use json::{Json, JsonError};
pub use router::{Route, RouteError};
pub use server::{HttpServer, TransportConfig, TRACE_ID_HEADER};
