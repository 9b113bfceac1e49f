//! The wire schema: JSON shapes for classify/stats/health/reload.
//!
//! A classify body is either a single request
//!
//! ```json
//! {"tokens": [[0.1, -0.2, …], …], "timeout_ms": 250}
//! ```
//!
//! or a batch (one HTTP round trip, one serving-layer ticket per item,
//! so the dynamic batcher still sees every sample individually):
//!
//! ```json
//! {"batch": [{"tokens": [[…], …]}, …], "timeout_ms": 250}
//! ```
//!
//! Numbers ride as `f64` (see [`crate::json`]), which round-trips every
//! `f32` token and logit bit-exactly — the transport never perturbs a
//! prediction.

use std::fmt;

use vitcod_engine::Prediction;
use vitcod_serve::{FinishedTrace, HistogramSnapshot, ModelStats, ServerStats, Span};
use vitcod_tensor::Matrix;

use crate::json::Json;

/// A parsed classify body.
#[derive(Debug)]
pub struct ClassifyPayload {
    /// One token matrix per requested sample.
    pub items: Vec<Matrix>,
    /// Whether the body used the batch shape (controls the response
    /// shape: `{"results": […]}` vs a bare prediction object).
    pub batch: bool,
    /// Wire-level deadline for every sample in the request.
    pub timeout_ms: Option<u64>,
}

/// Why a structurally valid JSON body is not a valid API request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ApiError {}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError(msg.into())
}

/// Decodes a classify body; see the [module docs](self) for the shape.
///
/// # Errors
///
/// [`ApiError`] naming the offending field on any shape violation —
/// missing `tokens`, ragged rows, non-numeric entries, empty batches.
pub fn parse_classify(body: &Json) -> Result<ClassifyPayload, ApiError> {
    let timeout_ms = match body.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("'timeout_ms' must be a non-negative integer"))?,
        ),
    };
    if let Some(batch) = body.get("batch") {
        let entries = batch
            .as_array()
            .ok_or_else(|| bad("'batch' must be an array"))?;
        if entries.is_empty() {
            return Err(bad("'batch' must not be empty"));
        }
        let items = entries
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let tokens = entry
                    .get("tokens")
                    .ok_or_else(|| bad(format!("batch[{i}] is missing 'tokens'")))?;
                parse_tokens(tokens).map_err(|e| bad(format!("batch[{i}]: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(ClassifyPayload {
            items,
            batch: true,
            timeout_ms,
        });
    }
    let tokens = body
        .get("tokens")
        .ok_or_else(|| bad("body must carry 'tokens' or 'batch'"))?;
    Ok(ClassifyPayload {
        items: vec![parse_tokens(tokens)?],
        batch: false,
        timeout_ms,
    })
}

/// Decodes a `[[f32; cols]; rows]` token matrix.
fn parse_tokens(tokens: &Json) -> Result<Matrix, ApiError> {
    let rows = tokens
        .as_array()
        .ok_or_else(|| bad("'tokens' must be an array of rows"))?;
    if rows.is_empty() {
        return Err(bad("'tokens' must not be empty"));
    }
    let cols = rows
        .first()
        .and_then(Json::as_array)
        .ok_or_else(|| bad("'tokens' rows must be arrays of numbers"))?
        .len();
    if cols == 0 {
        return Err(bad("'tokens' rows must not be empty"));
    }
    let mut m = Matrix::zeros(rows.len(), cols);
    for (r, row) in rows.iter().enumerate() {
        let row = row
            .as_array()
            .ok_or_else(|| bad("'tokens' rows must be arrays of numbers"))?;
        if row.len() != cols {
            return Err(bad(format!(
                "'tokens' is ragged: row {r} has {} entries, row 0 has {cols}",
                row.len()
            )));
        }
        for (c, v) in row.iter().enumerate() {
            let x = v
                .as_f64()
                .ok_or_else(|| bad(format!("'tokens'[{r}][{c}] is not a number")))?;
            m.set(r, c, x as f32);
        }
    }
    Ok(m)
}

/// Encodes a token matrix as the wire's `[[f32; cols]; rows]` shape —
/// the inverse of the decoder behind [`parse_classify`], used by the
/// bundled client side (tests, benches, examples).
pub fn tokens_json(m: &Matrix) -> Json {
    Json::Array(
        (0..m.rows())
            .map(|r| Json::Array(m.row(r).iter().map(|&v| Json::Number(v as f64)).collect()))
            .collect(),
    )
}

/// Encodes one prediction.
pub fn prediction_json(p: &Prediction) -> Json {
    Json::Object(vec![
        ("class".into(), Json::Number(p.class as f64)),
        (
            "logits".into(),
            Json::Array(p.logits.iter().map(|&l| Json::Number(l as f64)).collect()),
        ),
    ])
}

/// Summarizes one stage histogram: observation count, mean and
/// interpolated p50/p99 (its exported bucket series lives on
/// `/v1/metrics`).
fn stage_json(h: &HistogramSnapshot) -> Json {
    Json::Object(vec![
        ("count".into(), Json::Number(h.count as f64)),
        ("mean_s".into(), Json::Number(h.mean_s())),
        ("p50_s".into(), Json::Number(h.quantile(0.50))),
        ("p99_s".into(), Json::Number(h.quantile(0.99))),
    ])
}

fn model_stats_json(m: &ModelStats) -> Json {
    let opt_str = |v: &Option<String>| match v {
        Some(s) => Json::String(s.clone()),
        None => Json::Null,
    };
    Json::Object(vec![
        ("model".into(), Json::String(m.model.clone())),
        ("precision".into(), opt_str(&m.precision)),
        ("requests".into(), Json::Number(m.requests as f64)),
        ("batches".into(), Json::Number(m.batches as f64)),
        ("timed_out".into(), Json::Number(m.timed_out as f64)),
        ("slow".into(), Json::Number(m.slow as f64)),
        ("p50_latency_s".into(), Json::Number(m.p50_latency_s)),
        ("p99_latency_s".into(), Json::Number(m.p99_latency_s)),
        ("p999_latency_s".into(), Json::Number(m.p999_latency_s)),
        (
            "stages".into(),
            Json::Object(
                m.stages
                    .iter()
                    .map(|(name, h)| (name.to_string(), stage_json(h)))
                    .collect(),
            ),
        ),
        ("mean_batch_fill".into(), Json::Number(m.mean_batch_fill)),
        (
            "batch_fill".into(),
            Json::Array(
                m.batch_fill
                    .iter()
                    .map(|&c| Json::Number(c as f64))
                    .collect(),
            ),
        ),
        ("requests_per_s".into(), Json::Number(m.requests_per_s)),
        ("compute_batch_s".into(), Json::Number(m.compute_batch_s)),
        (
            "ops".into(),
            Json::Object(
                m.ops
                    .iter()
                    .map(|(name, h)| (name.to_string(), stage_json(h)))
                    .collect(),
            ),
        ),
        (
            "achieved_gops".into(),
            match m.achieved_gops {
                Some(g) => Json::Number(g),
                None => Json::Null,
            },
        ),
    ])
}

/// Encodes a statistics snapshot (the `GET /v1/stats` body).
pub fn stats_json(s: &ServerStats) -> Json {
    Json::Object(vec![
        ("uptime_s".into(), Json::Number(s.uptime_s)),
        (
            "models".into(),
            Json::Array(s.models.iter().map(model_stats_json).collect()),
        ),
    ])
}

/// Encodes the `GET /v1/health` body (without `?deep=1`).
pub fn health_json(models: &[String], queued: usize, uptime_s: f64) -> Json {
    Json::Object(vec![
        ("status".into(), Json::String("ok".into())),
        ("uptime_s".into(), Json::Number(uptime_s)),
        (
            "models".into(),
            Json::Array(models.iter().map(|m| Json::String(m.clone())).collect()),
        ),
        ("queued".into(), Json::Number(queued as f64)),
    ])
}

/// One model's deep-health probe result: did a one-sample inference
/// through the full serving path come back, and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProbe {
    /// Model id probed.
    pub model: String,
    /// Whether the probe came back with a prediction in budget.
    pub ok: bool,
    /// Probe round trip in seconds (submit → prediction or give-up).
    pub latency_s: f64,
}

/// Encodes the `GET /v1/health?deep=1` body: the shallow health fields
/// plus per-model probe results, `status` flipping to `degraded` when
/// any probe failed.
pub fn deep_health_json(
    models: &[String],
    queued: usize,
    uptime_s: f64,
    healthy: bool,
    probes: &[ModelProbe],
) -> Json {
    let status = if healthy { "ok" } else { "degraded" };
    Json::Object(vec![
        ("status".into(), Json::String(status.into())),
        ("uptime_s".into(), Json::Number(uptime_s)),
        (
            "models".into(),
            Json::Array(models.iter().map(|m| Json::String(m.clone())).collect()),
        ),
        ("queued".into(), Json::Number(queued as f64)),
        (
            "probes".into(),
            Json::Array(
                probes
                    .iter()
                    .map(|p| {
                        Json::Object(vec![
                            ("model".into(), Json::String(p.model.clone())),
                            ("ok".into(), Json::Bool(p.ok)),
                            ("latency_s".into(), Json::Number(p.latency_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes one span-tree node recursively: name, duration, children.
pub fn span_json(span: &Span) -> Json {
    Json::Object(vec![
        ("name".into(), Json::String(span.name.clone())),
        ("duration_s".into(), Json::Number(span.duration_s)),
        (
            "children".into(),
            Json::Array(span.children.iter().map(span_json).collect()),
        ),
    ])
}

/// Encodes the `GET /v1/traces` body: the drained (or peeked) kept
/// trees in record order plus the ring's lifetime eviction counter.
pub fn traces_json(traces: &[FinishedTrace], dropped: u64) -> Json {
    Json::Object(vec![
        (
            "traces".into(),
            Json::Array(
                traces
                    .iter()
                    .map(|t| {
                        Json::Object(vec![
                            ("seq".into(), Json::Number(t.seq as f64)),
                            ("at_s".into(), Json::Number(t.at_s)),
                            ("trace_id".into(), Json::String(t.trace_id.clone())),
                            ("model".into(), Json::String(t.model.clone())),
                            ("sampled".into(), Json::Bool(t.sampled)),
                            ("kept".into(), Json::String(t.kept.as_str().into())),
                            ("total_s".into(), Json::Number(t.total_s)),
                            ("root".into(), span_json(&t.root)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("dropped".into(), Json::Number(dropped as f64)),
    ])
}

/// Encodes an error body: `{"error": "…"}`.
pub fn error_json(message: &str) -> String {
    Json::Object(vec![("error".into(), Json::String(message.into()))]).to_string()
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn single_and_batch_bodies_parse() {
        let single = parse(r#"{"tokens": [[1, 2], [3, 4]], "timeout_ms": 50}"#).unwrap();
        let p = parse_classify(&single).unwrap();
        assert!(!p.batch);
        assert_eq!(p.timeout_ms, Some(50));
        assert_eq!(p.items[0].shape(), (2, 2));
        assert_eq!(p.items[0].get(1, 0), 3.0);

        let batch = parse(r#"{"batch": [{"tokens": [[1]]}, {"tokens": [[2]]}]}"#).unwrap();
        let p = parse_classify(&batch).unwrap();
        assert!(p.batch);
        assert_eq!(p.items.len(), 2);
        assert_eq!(p.timeout_ms, None);
    }

    #[test]
    fn shape_violations_name_the_field() {
        for (body, needle) in [
            (r#"{}"#, "tokens"),
            (r#"{"tokens": []}"#, "empty"),
            (r#"{"tokens": [[]]}"#, "empty"),
            (r#"{"tokens": [[1], [1, 2]]}"#, "ragged"),
            (r#"{"tokens": [[true]]}"#, "not a number"),
            (r#"{"tokens": 3}"#, "array of rows"),
            (r#"{"batch": []}"#, "empty"),
            (r#"{"batch": [{}]}"#, "tokens"),
            (r#"{"tokens": [[1]], "timeout_ms": -4}"#, "timeout_ms"),
            (r#"{"tokens": [[1]], "timeout_ms": 1.5}"#, "timeout_ms"),
        ] {
            let err = parse_classify(&parse(body).unwrap()).expect_err(body);
            assert!(err.0.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn tokens_json_is_the_inverse_of_parse_tokens() {
        let m = Matrix::from_rows(&[&[0.5f32, -1.25], &[f32::from_bits(0x3f80_0001), 0.0]]);
        let body = Json::Object(vec![("tokens".into(), tokens_json(&m))]).to_string();
        let back = parse_classify(&parse(&body).unwrap()).unwrap();
        assert_eq!(back.items[0].as_slice(), m.as_slice());
    }

    #[test]
    fn prediction_logits_round_trip_bit_exactly() {
        let p = Prediction {
            class: 3,
            logits: vec![0.1f32, -2.5e-8, f32::from_bits(0x3f80_0001)],
        };
        let encoded = prediction_json(&p).to_string();
        let back = parse(&encoded).unwrap();
        let logits: Vec<f32> = back
            .get("logits")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as f32)
            .collect();
        for (a, b) in logits.iter().zip(&p.logits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.get("class").unwrap().as_u64(), Some(3));
    }
}
