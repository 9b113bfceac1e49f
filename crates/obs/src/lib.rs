//! The monitoring side of the ViTCoD serving stack: everything that
//! *watches* a running `vitcod-transport` replica from outside the
//! process boundary.
//!
//! The serving crates export; this crate consumes. Four pieces:
//!
//! - [`promtext`] — a strict parser for the Prometheus text exposition
//!   format `0.0.4` the transport renders at `GET /v1/metrics`. This is
//!   the shared source of truth for both the monitor binary and the
//!   transport's own e2e tests (which cross-check the exposition
//!   against the server's in-process snapshot through this parser).
//! - [`scrape`] — a polling scraper over the transport's blocking
//!   [`vitcod_transport::HttpClient`]: connect, `GET /v1/metrics`,
//!   parse, repeat, across one or more endpoints.
//! - [`series`] — fixed-capacity time-series rings with counter-reset
//!   tolerant `delta`/`rate` derivation, the storage behind the SLO
//!   windows.
//! - [`slo`] — a multi-window burn-rate alert engine: availability and
//!   latency objectives evaluated over a fast and a slow window, with a
//!   `pending → firing → resolved` state machine and a transition log
//!   suitable for `alerts.json`.
//!
//! The `vitcod-obs` binary ties them together: poll endpoints on an
//! interval, feed the trackers, and write the alert transitions out as
//! JSON (`tests/binary.rs` runs it against a canned endpoint). The
//! transport suite drives the same library against a live server
//! (`burn_rate_alert_fires_on_expiries_and_resolves_on_recovery` in
//! `crates/transport/tests/observability.rs`), so the alert math that
//! gates CI is the alert math the monitor ships.

// The monitor must not panic on malformed remote data (a scrape target
// is untrusted input); clippy enforces the unwrap half at compile time.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod promtext;
pub mod scrape;
pub mod series;
pub mod slo;

pub use promtext::{check_histogram, good_under, good_under_all, Exposition, PromError, Sample};
pub use scrape::{fetch_metrics, Scrape, ScrapeError, Scraper};
pub use series::{CounterSeries, GaugeSeries};
pub use slo::{AlertState, Objective, SloConfig, SloTracker, Transition};
