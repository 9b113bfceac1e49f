//! Serving statistics: per-model latency percentiles, **per-stage
//! histograms**, throughput, and the batch-fill histogram.
//!
//! Every served request carries monotonic stage stamps (enqueue →
//! batch-admission → compute-start → compute-end, see
//! [`RequestTiming`]); workers record one timing per request and one
//! fill per drained batch, and the transport layer adds the serialize
//! stage after it encodes the response. [`crate::Server::stats`] takes
//! a consistent [`ServerStats`] snapshot at any time; recording is a
//! short critical section on a per-process mutex, far off the
//! per-sample compute path.
//!
//! Two complementary latency representations are kept per model:
//!
//! * an **exact sample ring** of end-to-end latencies (bounded at
//!   [`MAX_LATENCY_SAMPLES`]; saturation is surfaced via
//!   [`ModelStats::latency_samples_truncated`] instead of silently
//!   skewing percentiles) feeding the exact p50/p99/p999 fields;
//! * **fixed log-bucket histograms** ([`HistogramSnapshot`]) per stage
//!   and for the end-to-end latency — dependency-free, bounded memory,
//!   and renderable as Prometheus `_bucket`/`_sum`/`_count` series by
//!   the transport's `/v1/metrics` endpoint.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use vitcod_engine::{OP_COUNT, OP_NAMES};

/// Per-request latency samples kept per model; older samples are
/// discarded ring-buffer style so a long-lived server's snapshot cost
/// stays bounded. Saturation sets
/// [`ModelStats::latency_samples_truncated`].
pub const MAX_LATENCY_SAMPLES: usize = 65_536;

/// Smallest histogram bucket upper bound, in seconds (10 µs).
const HIST_LOWEST_S: f64 = 1e-5;

/// Finite log-spaced buckets (each bound doubles the previous one:
/// 10 µs, 20 µs, …, ~336 s); one overflow bucket rides behind them.
const HIST_FINITE_BUCKETS: usize = 26;

/// The upper bound of finite bucket `k`, in seconds.
fn bucket_bound(k: usize) -> f64 {
    // Exact in f64: a small power of two times the base.
    HIST_LOWEST_S * (1u64 << k.min(HIST_FINITE_BUCKETS)) as f64
}

/// The finite bucket a value of `s` seconds falls into, or
/// `HIST_FINITE_BUCKETS` for the overflow bucket. Buckets are
/// `le`-style: bucket `k` counts values `v <= bucket_bound(k)`.
fn bucket_index(s: f64) -> usize {
    if s.is_nan() || s <= HIST_LOWEST_S {
        // Non-positive, NaN and sub-lowest values land in bucket 0.
        return 0;
    }
    let mut idx = ((s / HIST_LOWEST_S).log2().ceil()).max(0.0) as usize;
    idx = idx.min(HIST_FINITE_BUCKETS);
    // The log/ceil above can be off by one right at a bucket boundary
    // (float rounding); settle it against the exact bounds.
    while idx > 0 && s <= bucket_bound(idx - 1) {
        idx -= 1;
    }
    while idx < HIST_FINITE_BUCKETS && s > bucket_bound(idx) {
        idx += 1;
    }
    idx
}

/// One served request's per-stage durations, computed by the worker
/// from the monotonic stamps the request carried (enqueue →
/// batch-admission → compute-start → compute-end).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// End-to-end: enqueue → prediction ready.
    pub total: Duration,
    /// Enqueue → admitted into the batch assembler (time the submitter
    /// spent parked on a full server; the lock hand-off otherwise).
    pub queue_wait: Duration,
    /// Admission → compute start: the time in the model's queue until
    /// a free worker took the request's batch — waiting for a worker
    /// under load, any deliberate `max_wait` hold, and the hand-off.
    pub batch_assembly: Duration,
    /// Compute start → compute end (the engine's `infer_batch`).
    pub compute: Duration,
}

impl RequestTiming {
    /// A timing carrying only the end-to-end latency (the stage fields
    /// stay zero) — convenience for tests and synthetic recorders.
    pub fn from_total(total: Duration) -> Self {
        Self {
            total,
            ..Self::default()
        }
    }
}

/// Fixed log-bucket accumulator (the mutable half behind the recorder's
/// mutex); snapshots out as [`HistogramSnapshot`].
#[derive(Debug, Clone)]
struct Histogram {
    /// Per-bucket (non-cumulative) counts; the last slot is the
    /// overflow bucket.
    counts: Vec<u64>,
    sum_s: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; HIST_FINITE_BUCKETS + 1],
            sum_s: 0.0,
            count: 0,
        }
    }
}

impl Histogram {
    fn observe(&mut self, d: Duration) {
        self.observe_s(d.as_secs_f64());
    }

    fn observe_s(&mut self, s: f64) {
        if let Some(slot) = self.counts.get_mut(bucket_index(s)) {
            *slot += 1;
        }
        self.sum_s += s;
        self.count += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.counts.clone(),
            sum_s: self.sum_s,
            count: self.count,
        }
    }
}

/// A point-in-time copy of one fixed log-bucket latency histogram.
///
/// Bucket bounds are shared by every histogram in the process (10 µs
/// doubling up to ~336 s, [`HistogramSnapshot::upper_bounds`]), so
/// snapshots are directly comparable and renderable as Prometheus
/// cumulative `_bucket` series. `buckets` holds **non-cumulative**
/// per-bucket counts; the last slot is the overflow (`+Inf`) bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, one slot per finite bound plus the trailing
    /// overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of every observed value, in seconds.
    pub sum_s: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The shared finite bucket upper bounds, in seconds (the overflow
    /// bucket has no finite bound and is not listed).
    pub fn upper_bounds() -> Vec<f64> {
        (0..HIST_FINITE_BUCKETS).map(bucket_bound).collect()
    }

    /// Mean observed value in seconds; 0 when empty.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Estimated `q`-quantile in seconds, linearly interpolated inside
    /// the bucket holding the target rank (the overflow bucket reports
    /// the top finite bound). 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil()).max(1.0) as u64;
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            let before = cum;
            cum += c;
            if cum >= target && c > 0 {
                if k >= HIST_FINITE_BUCKETS {
                    return bucket_bound(HIST_FINITE_BUCKETS - 1);
                }
                let lower = if k == 0 { 0.0 } else { bucket_bound(k - 1) };
                let upper = bucket_bound(k);
                let frac = (target - before) as f64 / c as f64;
                return lower + frac * (upper - lower);
            }
        }
        bucket_bound(HIST_FINITE_BUCKETS - 1)
    }
}

/// Per-stage latency histograms for one model: where a request's time
/// went, from enqueue to the serialized response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStats {
    /// Enqueue → batch admission.
    pub queue_wait: HistogramSnapshot,
    /// Batch admission → compute start.
    pub batch_assembly: HistogramSnapshot,
    /// Compute start → compute end.
    pub compute: HistogramSnapshot,
    /// Response serialization (recorded by the transport after the JSON
    /// body is encoded; empty for purely in-process serving).
    pub serialize: HistogramSnapshot,
}

impl StageStats {
    /// The stages with their wire names, in pipeline order — what
    /// `/v1/metrics` labels the `stage=` series with.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> {
        [
            ("queue_wait", &self.queue_wait),
            ("batch_assembly", &self.batch_assembly),
            ("compute", &self.compute),
            ("serialize", &self.serialize),
        ]
        .into_iter()
    }
}

#[derive(Default)]
struct ModelAccum {
    requests: u64,
    batches: u64,
    timed_out: u64,
    slow: u64,
    latencies_s: Vec<f64>,
    latency_cursor: usize,
    /// Set the first time the ring overwrites a sample: from then on
    /// the exact percentiles describe only the most recent
    /// [`MAX_LATENCY_SAMPLES`] requests.
    truncated: bool,
    /// `fill_histogram[k]` counts batches that carried `k + 1` requests.
    fill_histogram: Vec<u64>,
    latency_hist: Histogram,
    queue_wait: Histogram,
    batch_assembly: Histogram,
    compute: Histogram,
    serialize: Histogram,
    /// Engine busy seconds: each drained batch's compute wall, summed
    /// once per batch (the compute histogram above observes the wall
    /// once per *request*) — the denominator of the achieved-Gop/s
    /// gauge.
    compute_batch_s: f64,
    /// Per-op seconds from profiled forwards, one observation per
    /// sampled request per op (summed over layers); allocated lazily on
    /// the first profiled batch.
    ops: Vec<Histogram>,
}

/// A point-in-time snapshot of one model's serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Model id, as registered in the [`crate::ModelRegistry`].
    pub model: String,
    /// Kernel backend the serving process runs on (`scalar`/`fast`);
    /// `None` when the model is no longer registered.
    pub backend: Option<String>,
    /// Numeric precision the engine serves at (`fp32`/`int8`); `None`
    /// when the model is no longer registered.
    pub precision: Option<String>,
    /// Requests served (tickets resolved).
    pub requests: u64,
    /// Batches drained through the engine.
    pub batches: u64,
    /// Requests expired past their deadline before reaching a batch
    /// slot (resolved as [`crate::RequestError::TimedOut`]); not
    /// counted in `requests` or the latency percentiles.
    pub timed_out: u64,
    /// Requests whose end-to-end latency exceeded their slow threshold
    /// (the slowlog admissions counter, monotonic — the
    /// `vitcod_slow_requests_total` scrape family). Unlike the slowlog
    /// ring itself this is never drained, so slow rates stay computable
    /// from scrapes alone.
    pub slow: u64,
    /// Median end-to-end request latency (enqueue → prediction), in
    /// seconds; 0 when no request finished yet.
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end request latency, in seconds.
    pub p99_latency_s: f64,
    /// 99.9th-percentile end-to-end request latency, in seconds.
    pub p999_latency_s: f64,
    /// Whether the exact-sample ring has rolled over: the percentiles
    /// above describe only the most recent [`MAX_LATENCY_SAMPLES`]
    /// requests, not the server's whole lifetime.
    pub latency_samples_truncated: bool,
    /// End-to-end latency as a log-bucket histogram (never truncated —
    /// bucket counters accumulate for the server's whole lifetime).
    pub latency_histogram: HistogramSnapshot,
    /// Per-stage latency histograms: queue-wait, batch-assembly,
    /// compute, serialize.
    pub stages: StageStats,
    /// Mean requests per batch — how full the dynamic batcher keeps the
    /// engine's datapath.
    pub mean_batch_fill: f64,
    /// `batch_fill[k]` counts batches that carried `k + 1` requests.
    pub batch_fill: Vec<u64>,
    /// Served requests per second of server uptime.
    pub requests_per_s: f64,
    /// Engine busy seconds: each drained batch's compute wall summed
    /// once per batch.
    pub compute_batch_s: f64,
    /// Per-op latency histograms from profiled (head-sampled) forwards,
    /// in [`vitcod_engine::OP_NAMES`] order — the
    /// `vitcod_engine_op_seconds{model,op}` series. Empty until the
    /// model serves its first sampled request, keeping the exposition's
    /// cardinality bounded at 7 ops regardless of model depth.
    pub ops: Vec<(&'static str, HistogramSnapshot)>,
    /// Live achieved arithmetic throughput in Gop/s —
    /// `ops_per_sample × requests / compute_batch_s / 10⁹` — enriched
    /// from the engine's analytic op count by
    /// [`crate::Server::stats`]; `None` straight out of
    /// [`StatsRecorder::snapshot`] or before any batch completed.
    pub achieved_gops: Option<f64>,
}

/// A point-in-time snapshot of a server's statistics, one entry per
/// model that has served (or expired) at least one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Per-model statistics, sorted by model id.
    pub models: Vec<ModelStats>,
}

impl ServerStats {
    /// The entry for `model`, if it has served anything.
    pub fn model(&self, model: &str) -> Option<&ModelStats> {
        self.models.iter().find(|m| m.model == model)
    }

    /// Total requests served across models.
    pub fn total_requests(&self) -> u64 {
        self.models.iter().map(|m| m.requests).sum()
    }

    /// Total requests expired past their deadline across models.
    pub fn total_timed_out(&self) -> u64 {
        self.models.iter().map(|m| m.timed_out).sum()
    }
}

/// The accumulator behind [`crate::Server::stats`]: workers record
/// batches and timeouts, the transport records serialize durations,
/// anyone snapshots. Public so harnesses and tests
/// can drive it directly; a [`crate::Server`] owns one internally.
#[derive(Default)]
pub struct StatsRecorder {
    inner: Mutex<HashMap<String, ModelAccum>>,
}

impl StatsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request expired past its deadline before it reached
    /// a batch slot.
    pub fn record_timeout(&self, model: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entry(model.to_string()).or_default().timed_out += 1;
    }

    /// Records one request that exceeded its slow threshold (admitted
    /// to the slowlog ring).
    pub fn record_slow_request(&self, model: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entry(model.to_string()).or_default().slow += 1;
    }

    /// Records one drained batch: its compute wall (engine busy time,
    /// counted once per batch), its fill and every request's end-to-end
    /// latency and per-stage breakdown.
    pub fn record_batch(&self, model: &str, batch_compute: Duration, timings: &[RequestTiming]) {
        let fill = timings.len();
        if fill == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let accum = inner.entry(model.to_string()).or_default();
        accum.compute_batch_s += batch_compute.as_secs_f64();
        accum.batches += 1;
        accum.requests += fill as u64;
        if accum.fill_histogram.len() < fill {
            accum.fill_histogram.resize(fill, 0);
        }
        if let Some(slot) = accum.fill_histogram.get_mut(fill - 1) {
            *slot += 1;
        }
        for t in timings {
            let s = t.total.as_secs_f64();
            if accum.latencies_s.len() < MAX_LATENCY_SAMPLES {
                accum.latencies_s.push(s);
            } else {
                let cursor = accum.latency_cursor;
                if let Some(slot) = accum.latencies_s.get_mut(cursor) {
                    *slot = s;
                }
                accum.latency_cursor = (cursor + 1) % MAX_LATENCY_SAMPLES;
                accum.truncated = true;
            }
            accum.latency_hist.observe(t.total);
            accum.queue_wait.observe(t.queue_wait);
            accum.batch_assembly.observe(t.batch_assembly);
            accum.compute.observe(t.compute);
        }
    }

    /// Records the per-op seconds of profiled (head-sampled) forwards:
    /// one `[f64; OP_COUNT]` per sampled request, each op's seconds
    /// already summed over layers ([`vitcod_engine::OpProfile::op_totals`]).
    pub fn record_ops(&self, model: &str, per_sample: &[[f64; OP_COUNT]]) {
        if per_sample.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let accum = inner.entry(model.to_string()).or_default();
        if accum.ops.len() < OP_COUNT {
            accum.ops = vec![Histogram::default(); OP_COUNT];
        }
        for sample in per_sample {
            for (hist, &s) in accum.ops.iter_mut().zip(sample) {
                hist.observe_s(s);
            }
        }
    }

    /// Records one response's serialize duration for `model` (called by
    /// the transport after the JSON body is encoded; every request in
    /// the response observed the same serialize latency).
    pub fn record_serialize(&self, model: &str, d: Duration) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .entry(model.to_string())
            .or_default()
            .serialize
            .observe(d);
    }

    /// A consistent snapshot; `uptime_s` is stamped by the caller (the
    /// server owns the start instant).
    pub fn snapshot(&self, uptime_s: f64) -> ServerStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut models: Vec<ModelStats> = inner
            .iter()
            .map(|(model, a)| {
                let mut sorted = a.latencies_s.clone();
                sorted.sort_by(f64::total_cmp);
                let weighted: u64 = a
                    .fill_histogram
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| (k as u64 + 1) * c)
                    .sum();
                ModelStats {
                    model: model.clone(),
                    backend: None,
                    precision: None,
                    requests: a.requests,
                    batches: a.batches,
                    timed_out: a.timed_out,
                    slow: a.slow,
                    p50_latency_s: percentile(&sorted, 0.50),
                    p99_latency_s: percentile(&sorted, 0.99),
                    p999_latency_s: percentile(&sorted, 0.999),
                    latency_samples_truncated: a.truncated,
                    latency_histogram: a.latency_hist.snapshot(),
                    stages: StageStats {
                        queue_wait: a.queue_wait.snapshot(),
                        batch_assembly: a.batch_assembly.snapshot(),
                        compute: a.compute.snapshot(),
                        serialize: a.serialize.snapshot(),
                    },
                    mean_batch_fill: if a.batches == 0 {
                        0.0
                    } else {
                        weighted as f64 / a.batches as f64
                    },
                    batch_fill: a.fill_histogram.clone(),
                    requests_per_s: if uptime_s > 0.0 {
                        a.requests as f64 / uptime_s
                    } else {
                        0.0
                    },
                    compute_batch_s: a.compute_batch_s,
                    ops: a
                        .ops
                        .iter()
                        .zip(OP_NAMES)
                        .map(|(h, name)| (name, h.snapshot()))
                        .collect(),
                    achieved_gops: None,
                }
            })
            .collect();
        models.sort_by(|a, b| a.model.cmp(&b.model));
        ServerStats { uptime_s, models }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted
        .get(idx.min(sorted.len() - 1))
        .copied()
        .unwrap_or(0.0)
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn timings(ms: &[u64]) -> Vec<RequestTiming> {
        ms.iter()
            .map(|&m| RequestTiming::from_total(Duration::from_millis(m)))
            .collect()
    }

    #[test]
    fn percentiles_and_histogram_track_recorded_batches() {
        let r = StatsRecorder::new();
        r.record_batch("m", Duration::from_millis(30), &timings(&[10, 20, 30]));
        r.record_batch("m", Duration::from_millis(40), &timings(&[40]));
        let s = r.snapshot(1.0);
        let m = s.model("m").expect("model recorded");
        assert_eq!(m.requests, 4);
        assert_eq!(m.batches, 2);
        assert_eq!(m.batch_fill, vec![1, 0, 1]); // one 1-fill, one 3-fill
        assert!((m.mean_batch_fill - 2.0).abs() < 1e-9);
        // Nearest-rank on 4 samples: round(3 · 0.5) = index 2.
        assert!((m.p50_latency_s - 0.030).abs() < 1e-9);
        assert!((m.p99_latency_s - 0.040).abs() < 1e-9);
        assert!((m.p999_latency_s - 0.040).abs() < 1e-9);
        assert!(!m.latency_samples_truncated);
        assert_eq!(m.latency_histogram.count, 4);
        assert_eq!(s.total_requests(), 4);
        assert!(s.model("other").is_none());
        // The compute wall accumulates once per batch, not per request.
        assert!((m.compute_batch_s - 0.070).abs() < 1e-9);
        // Never profiled: no per-op series, and the recorder leaves the
        // gauge for the server to enrich.
        assert!(m.ops.is_empty());
        assert_eq!(m.achieved_gops, None);
    }

    #[test]
    fn op_histograms_observe_per_sample_in_name_order() {
        let r = StatsRecorder::new();
        let mut a = [0.0f64; OP_COUNT];
        let mut b = [0.0f64; OP_COUNT];
        for i in 0..OP_COUNT {
            a[i] = 0.001 * (i + 1) as f64;
            b[i] = 0.002 * (i + 1) as f64;
        }
        r.record_ops("m", &[a, b]);
        r.record_ops("m", &[]); // no-op
        let s = r.snapshot(1.0);
        let m = s.model("m").expect("recorded");
        assert_eq!(m.ops.len(), OP_COUNT);
        for (i, (name, h)) in m.ops.iter().enumerate() {
            assert_eq!(*name, OP_NAMES[i]);
            assert_eq!(h.count, 2, "{name}");
            assert!((h.sum_s - 0.003 * (i + 1) as f64).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn slow_counter_accumulates_independently_of_requests() {
        let r = StatsRecorder::new();
        r.record_slow_request("m");
        r.record_slow_request("m");
        r.record_batch("m", Duration::from_millis(1), &timings(&[1]));
        let m = r.snapshot(1.0);
        let m = m.model("m").expect("recorded");
        assert_eq!(m.slow, 2);
        assert_eq!(m.requests, 1);
    }

    #[test]
    fn empty_recorder_snapshots_cleanly() {
        let s = StatsRecorder::new().snapshot(0.0);
        assert!(s.models.is_empty());
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.total_timed_out(), 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[1.0], 0.99), 1.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
    }

    #[test]
    fn stage_histograms_accumulate_per_stage() {
        let r = StatsRecorder::new();
        r.record_batch(
            "m",
            Duration::from_millis(5),
            &[RequestTiming {
                total: Duration::from_millis(10),
                queue_wait: Duration::from_millis(2),
                batch_assembly: Duration::from_millis(3),
                compute: Duration::from_millis(5),
            }],
        );
        r.record_serialize("m", Duration::from_millis(1));
        let s = r.snapshot(1.0);
        let m = s.model("m").expect("recorded");
        for (name, h) in m.stages.iter() {
            assert_eq!(h.count, 1, "{name}");
        }
        assert!((m.stages.compute.sum_s - 0.005).abs() < 1e-9);
        assert!((m.stages.serialize.sum_s - 0.001).abs() < 1e-9);
    }

    #[test]
    fn bucket_index_respects_exact_bounds() {
        // At a bound the value belongs to that bucket (le semantics);
        // just past it, to the next.
        for k in 0..HIST_FINITE_BUCKETS {
            let b = bucket_bound(k);
            assert_eq!(bucket_index(b), k, "bound {k}");
            assert_eq!(bucket_index(b * 1.0000001), k + 1, "past bound {k}");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e9), HIST_FINITE_BUCKETS);
    }

    #[test]
    fn quantile_interpolates_and_handles_overflow() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(Duration::from_millis(1)); // bucket bound 0.00128
        }
        let snap = h.snapshot();
        let q50 = snap.quantile(0.5);
        // Inside the bucket containing 1 ms: (0.64 ms, 1.28 ms].
        assert!(q50 > 0.00064 && q50 <= 0.00128, "q50 {q50}");
        // Overflow-heavy histogram clamps to the top finite bound.
        let mut h = Histogram::default();
        h.observe(Duration::from_secs(100_000));
        let top = bucket_bound(HIST_FINITE_BUCKETS - 1);
        assert_eq!(h.snapshot().quantile(0.99), top);
        // Empty histogram.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
    }
}
