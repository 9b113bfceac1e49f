//! Prometheus text exposition (the `GET /v1/metrics` body), rendered
//! from a [`ServerStats`] snapshot.
//!
//! Everything follows the text format version `0.0.4`: `# HELP` /
//! `# TYPE` preamble per family, label values escaped, histograms as
//! cumulative `_bucket{le="…"}` series closed by `le="+Inf"` plus
//! `_sum` / `_count`. The renderer is pure — it never touches a lock —
//! so the transport takes one stats snapshot and formats it without
//! holding anything up.
//!
//! Exposed families:
//!
//! | family | type | labels |
//! |--------|------|--------|
//! | `vitcod_uptime_seconds` | gauge | — |
//! | `vitcod_queue_depth` | gauge | — |
//! | `vitcod_trace_dropped_total` | counter | — |
//! | `vitcod_traces_dropped_total` | counter | — |
//! | `vitcod_slowlog_dropped_total` | counter | — |
//! | `vitcod_requests_total` | counter | `model` |
//! | `vitcod_timeouts_total` | counter | `model` |
//! | `vitcod_slow_requests_total` | counter | `model` |
//! | `vitcod_batches_total` | counter | `model` |
//! | `vitcod_model_info` | gauge | `model`, `backend`, `precision` |
//! | `vitcod_latency_samples_truncated` | gauge | `model` |
//! | `vitcod_batch_fill` | histogram | `model` |
//! | `vitcod_request_latency_seconds` | histogram | `model` |
//! | `vitcod_stage_latency_seconds` | histogram | `model`, `stage` |
//! | `vitcod_engine_op_seconds` | histogram | `model`, `op` |
//! | `vitcod_engine_achieved_gops` | gauge | `model` |
//!
//! **Cardinality policy**: `vitcod_engine_op_seconds` labels by op name
//! only — per-op seconds are summed over layers before they reach the
//! histogram, so the series count per model is bounded at the engine's
//! seven named ops regardless of model depth. Per-layer detail lives
//! exclusively in sampled span trees (`GET /v1/traces`), never in the
//! exposition.

use std::fmt::Write as _;

use vitcod_serve::{HistogramSnapshot, ServerStats};

/// The `Content-Type` Prometheus scrapers expect.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Escapes a label value (`\`, `"` and newlines, per the text format).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a float the exposition way: integral values without a
/// fraction would also be fine, but a plain shortest round-trip is
/// always valid.
fn num(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else {
        format!("{v}")
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one histogram family entry (cumulative `_bucket` series plus
/// `_sum`/`_count`) under `name` with `labels` (pre-rendered, no
/// trailing comma; may be empty).
fn histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (bound, &count) in HistogramSnapshot::upper_bounds().iter().zip(&h.buckets) {
        cum += count;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}",
            num(*bound)
        );
    }
    // The overflow slot (anything the finite bounds missed) closes the
    // series at +Inf; by construction the cumulative count there equals
    // the observation count.
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", num(h.sum_s));
        let _ = writeln!(out, "{name}_count {}", h.count);
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", num(h.sum_s));
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
}

/// Renders a batch-fill histogram (integer fill counts, unit-width
/// buckets) as a cumulative series.
fn fill_histogram(out: &mut String, name: &str, labels: &str, fills: &[u64]) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    let mut weighted = 0u64;
    for (k, &count) in fills.iter().enumerate() {
        cum += count;
        weighted += (k as u64 + 1) * count;
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}", k + 1);
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum{{{labels}}} {weighted}");
    let _ = writeln!(out, "{name}_count{{{labels}}} {cum}");
}

/// The three ring-eviction counters the snapshot does not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingDrops {
    /// Event-trace ring evictions (`/v1/trace`).
    pub trace: u64,
    /// Sampled span-tree ring evictions (`/v1/traces`).
    pub traces: u64,
    /// Slow-request ring evictions (`/v1/slowlog`).
    pub slowlog: u64,
}

/// Renders the full exposition body from a stats snapshot plus the
/// live values the snapshot does not carry (requests accepted and not
/// yet taken, and the ring eviction counters).
pub fn render(stats: &ServerStats, queued: usize, drops: RingDrops) -> String {
    let mut out = String::with_capacity(4096);

    header(
        &mut out,
        "vitcod_uptime_seconds",
        "gauge",
        "Seconds since the serving process started.",
    );
    let _ = writeln!(out, "vitcod_uptime_seconds {}", num(stats.uptime_s));

    header(
        &mut out,
        "vitcod_queue_depth",
        "gauge",
        "Requests accepted and not yet taken by a worker.",
    );
    let _ = writeln!(out, "vitcod_queue_depth {queued}");

    header(
        &mut out,
        "vitcod_trace_dropped_total",
        "counter",
        "Trace events evicted from the ring before being drained.",
    );
    let _ = writeln!(out, "vitcod_trace_dropped_total {}", drops.trace);

    header(
        &mut out,
        "vitcod_traces_dropped_total",
        "counter",
        "Sampled span trees evicted from the traces ring before being drained.",
    );
    let _ = writeln!(out, "vitcod_traces_dropped_total {}", drops.traces);

    header(
        &mut out,
        "vitcod_slowlog_dropped_total",
        "counter",
        "Slow-request traces evicted from the slowlog ring before being drained.",
    );
    let _ = writeln!(out, "vitcod_slowlog_dropped_total {}", drops.slowlog);

    header(
        &mut out,
        "vitcod_requests_total",
        "counter",
        "Requests served (tickets resolved with a prediction).",
    );
    for m in &stats.models {
        let _ = writeln!(
            out,
            "vitcod_requests_total{{model=\"{}\"}} {}",
            escape_label(&m.model),
            m.requests
        );
    }

    header(
        &mut out,
        "vitcod_timeouts_total",
        "counter",
        "Requests expired past their deadline before reaching a batch slot.",
    );
    for m in &stats.models {
        let _ = writeln!(
            out,
            "vitcod_timeouts_total{{model=\"{}\"}} {}",
            escape_label(&m.model),
            m.timed_out
        );
    }

    header(
        &mut out,
        "vitcod_slow_requests_total",
        "counter",
        "Requests whose end-to-end latency exceeded their slow threshold (slowlog admissions).",
    );
    for m in &stats.models {
        let _ = writeln!(
            out,
            "vitcod_slow_requests_total{{model=\"{}\"}} {}",
            escape_label(&m.model),
            m.slow
        );
    }

    header(
        &mut out,
        "vitcod_batches_total",
        "counter",
        "Batches drained through the engine.",
    );
    for m in &stats.models {
        let _ = writeln!(
            out,
            "vitcod_batches_total{{model=\"{}\"}} {}",
            escape_label(&m.model),
            m.batches
        );
    }

    header(
        &mut out,
        "vitcod_model_info",
        "gauge",
        "Registered backend/precision per model (value is always 1).",
    );
    for m in &stats.models {
        let _ = writeln!(
            out,
            "vitcod_model_info{{model=\"{}\",backend=\"{}\",precision=\"{}\"}} 1",
            escape_label(&m.model),
            escape_label(m.backend.as_deref().unwrap_or("unknown")),
            escape_label(m.precision.as_deref().unwrap_or("unknown")),
        );
    }

    header(
        &mut out,
        "vitcod_latency_samples_truncated",
        "gauge",
        "1 when the exact-percentile sample ring has rolled over for this model.",
    );
    for m in &stats.models {
        let _ = writeln!(
            out,
            "vitcod_latency_samples_truncated{{model=\"{}\"}} {}",
            escape_label(&m.model),
            u8::from(m.latency_samples_truncated)
        );
    }

    header(
        &mut out,
        "vitcod_batch_fill",
        "histogram",
        "Requests per drained batch.",
    );
    for m in &stats.models {
        let labels = format!("model=\"{}\"", escape_label(&m.model));
        fill_histogram(&mut out, "vitcod_batch_fill", &labels, &m.batch_fill);
    }

    header(
        &mut out,
        "vitcod_request_latency_seconds",
        "histogram",
        "End-to-end request latency (enqueue to prediction ready).",
    );
    for m in &stats.models {
        let labels = format!("model=\"{}\"", escape_label(&m.model));
        histogram(
            &mut out,
            "vitcod_request_latency_seconds",
            &labels,
            &m.latency_histogram,
        );
    }

    header(
        &mut out,
        "vitcod_stage_latency_seconds",
        "histogram",
        "Per-stage request latency: queue_wait, batch_assembly, compute, serialize.",
    );
    for m in &stats.models {
        for (stage, h) in m.stages.iter() {
            let labels = format!("model=\"{}\",stage=\"{stage}\"", escape_label(&m.model));
            histogram(&mut out, "vitcod_stage_latency_seconds", &labels, h);
        }
    }

    header(
        &mut out,
        "vitcod_engine_op_seconds",
        "histogram",
        "Per-op engine compute seconds from profiled (head-sampled) forwards, summed over layers.",
    );
    for m in &stats.models {
        for (op, h) in &m.ops {
            let labels = format!("model=\"{}\",op=\"{op}\"", escape_label(&m.model));
            histogram(&mut out, "vitcod_engine_op_seconds", &labels, h);
        }
    }

    header(
        &mut out,
        "vitcod_engine_achieved_gops",
        "gauge",
        "Achieved arithmetic throughput in Gop/s (analytic ops per sample x served samples / engine busy seconds).",
    );
    for m in &stats.models {
        if let Some(gops) = m.achieved_gops {
            let _ = writeln!(
                out,
                "vitcod_engine_achieved_gops{{model=\"{}\"}} {}",
                escape_label(&m.model),
                num(gops)
            );
        }
    }

    out
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vitcod_serve::{RequestTiming, StatsRecorder};

    fn sample_stats() -> ServerStats {
        let r = StatsRecorder::new();
        r.record_batch(
            "deit\"tiny",
            Duration::from_millis(5),
            &[
                RequestTiming {
                    total: Duration::from_millis(10),
                    queue_wait: Duration::from_millis(2),
                    batch_assembly: Duration::from_millis(3),
                    compute: Duration::from_millis(5),
                },
                RequestTiming::from_total(Duration::from_millis(20)),
            ],
        );
        r.record_serialize("deit\"tiny", Duration::from_micros(100));
        r.record_timeout("deit\"tiny");
        r.record_slow_request("deit\"tiny");
        r.record_slow_request("deit\"tiny");
        let mut ops = [0.0f64; vitcod_engine::OP_COUNT];
        for (i, slot) in ops.iter_mut().enumerate() {
            *slot = 1e-4 * (i + 1) as f64;
        }
        r.record_ops("deit\"tiny", &[ops]);
        let mut stats = r.snapshot(12.5);
        for m in &mut stats.models {
            m.achieved_gops = Some(3.25);
        }
        stats
    }

    fn drops() -> RingDrops {
        RingDrops {
            trace: 7,
            traces: 2,
            slowlog: 1,
        }
    }

    #[test]
    fn exposition_carries_every_family() {
        let body = render(&sample_stats(), 3, drops());
        for family in [
            "vitcod_uptime_seconds",
            "vitcod_queue_depth",
            "vitcod_trace_dropped_total",
            "vitcod_traces_dropped_total",
            "vitcod_slowlog_dropped_total",
            "vitcod_requests_total",
            "vitcod_timeouts_total",
            "vitcod_slow_requests_total",
            "vitcod_batches_total",
            "vitcod_model_info",
            "vitcod_latency_samples_truncated",
            "vitcod_batch_fill",
            "vitcod_request_latency_seconds",
            "vitcod_stage_latency_seconds",
            "vitcod_engine_op_seconds",
            "vitcod_engine_achieved_gops",
        ] {
            assert!(
                body.contains(&format!("# TYPE {family}")),
                "missing family {family}"
            );
        }
        assert!(body.contains("vitcod_queue_depth 3"));
        assert!(body.contains("vitcod_slow_requests_total{model=\"deit\\\"tiny\"} 2"));
        assert!(body.contains("vitcod_trace_dropped_total 7"));
        assert!(body.contains("vitcod_traces_dropped_total 2"));
        assert!(body.contains("vitcod_slowlog_dropped_total 1"));
        assert!(body.contains("vitcod_uptime_seconds 12.5"));
    }

    #[test]
    fn op_series_stay_bounded_at_the_named_ops_and_gauge_renders() {
        let body = render(&sample_stats(), 0, RingDrops::default());
        for op in vitcod_engine::OP_NAMES {
            assert!(
                body.contains(&format!("op=\"{op}\"")),
                "missing op series {op}"
            );
        }
        // Cardinality policy: ops are labelled by name only — no
        // per-layer labels ever reach the exposition.
        assert!(!body.contains("layer="));
        let series = body.matches("vitcod_engine_op_seconds_count{").count();
        assert_eq!(series, vitcod_engine::OP_NAMES.len());
        assert!(body.contains("vitcod_engine_achieved_gops{model=\"deit\\\"tiny\"} 3.25"));
    }

    #[test]
    fn label_values_are_escaped() {
        let body = render(&sample_stats(), 0, RingDrops::default());
        assert!(body.contains(r#"model="deit\"tiny""#), "{body}");
        assert!(!body.contains("model=\"deit\"tiny\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_at_inf() {
        let body = render(&sample_stats(), 0, RingDrops::default());
        // Each histogram's +Inf bucket equals its _count.
        let mut last_counts: Vec<(String, u64)> = Vec::new();
        for line in body.lines() {
            if let Some((name_labels, value)) = line.rsplit_once(' ') {
                if name_labels.contains("le=\"+Inf\"") {
                    let family = name_labels
                        .split("_bucket")
                        .next()
                        .unwrap_or_default()
                        .to_string();
                    let labels = name_labels
                        .split('{')
                        .nth(1)
                        .unwrap_or_default()
                        .replace(",le=\"+Inf\"}", "")
                        .replace("le=\"+Inf\"}", "");
                    last_counts.push((
                        format!("{family}_count{{{labels}}}"),
                        value.parse().expect("count"),
                    ));
                }
            }
        }
        assert!(!last_counts.is_empty());
        for (count_series, inf_count) in last_counts {
            let line = body
                .lines()
                .find(|l| l.starts_with(&count_series))
                .unwrap_or_else(|| panic!("missing {count_series}"));
            let count: u64 = line
                .rsplit_once(' ')
                .and_then(|(_, v)| v.parse().ok())
                .expect("parse");
            assert_eq!(count, inf_count, "{count_series}");
        }
    }

    #[test]
    fn stage_series_cover_all_four_stages() {
        let body = render(&sample_stats(), 0, RingDrops::default());
        for stage in ["queue_wait", "batch_assembly", "compute", "serialize"] {
            assert!(
                body.contains(&format!("stage=\"{stage}\"")),
                "missing stage {stage}"
            );
        }
    }
}
