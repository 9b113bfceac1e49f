//! Serving statistics: per-model counters, the end-to-end latency
//! histogram, **per-stage and per-op histograms**, and the batch-fill
//! histogram.
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
//! Each latency series — end-to-end, every stage, every engine op — has
//! one record: a fixed log-bucket histogram ([`HistogramSnapshot`]) that
//! accumulates for the server's whole lifetime in bounded memory. Its
//! finite bounds run from 10 µs to ≈ 336 s, each octave split into 8
//! geometric sub-buckets (bound ratio 2^(1/8)).
//! Every percentile comes from it: [`HistogramSnapshot::quantile`]
//! interpolates inside the bucket that holds the exact order statistic
//! of rank ⌈count · q⌉, so for values between 10 µs and the top bound an
//! estimate is within 10 % (at most 2^(1/8) − 1 ≈ 9.05 %) of the exact
//! value over every request served. A [`ModelStats`] snapshot copies
//! counters and histograms only; a reader derives percentiles, mean
//! batch fill or request rates from them.
//! This module alone knows the bucket layout: the transport renders
//! `/v1/metrics` from [`HistogramSnapshot::le_buckets`], every 8th
//! bound (10 µs doubling), as Prometheus `_bucket`/`_sum`/`_count`
//! series.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use vitcod_engine::{OP_COUNT, OP_NAMES};

/// Smallest histogram bucket upper bound, in seconds (10 µs).
const HIST_LOWEST_S: f64 = 1e-5;

/// Octaves the finite bounds span above the lowest: the top bound is
/// 10 µs · 2^25 ≈ 336 s.
const HIST_OCTAVES: usize = 25;

/// Geometric sub-buckets per octave: consecutive bounds differ by
/// 2^(1/8), and every 8th bound is an exported (doubling) one.
const SUBS_PER_OCTAVE: usize = 8;

/// Finite buckets: the lowest bound, then [`SUBS_PER_OCTAVE`] per
/// octave; one overflow bucket rides behind them.
const HIST_FINITE_BUCKETS: usize = HIST_OCTAVES * SUBS_PER_OCTAVE + 1;

/// The upper bound of finite bucket `j`, in seconds.
fn bucket_bound(j: usize) -> f64 {
    let j = j.min(HIST_FINITE_BUCKETS - 1);
    let (octave, sub) = (j / SUBS_PER_OCTAVE, j % SUBS_PER_OCTAVE);
    // A small power of two times the base, exact in f64, times
    // 2^(sub/8); at `sub == 0` the factor is exactly 1, so every 8th
    // bound is the doubling bound itself.
    HIST_LOWEST_S * (1u64 << octave) as f64 * (sub as f64 / SUBS_PER_OCTAVE as f64).exp2()
}

/// The finite bucket a value of `s` seconds falls into, or
/// `HIST_FINITE_BUCKETS` for the overflow bucket. Buckets are
/// `le`-style: bucket `j` counts values `v <= bucket_bound(j)`.
fn bucket_index(s: f64) -> usize {
    if s.is_nan() || s <= HIST_LOWEST_S {
        // Non-positive, NaN and sub-lowest values land in bucket 0.
        return 0;
    }
    let octaves = (s / HIST_LOWEST_S).log2();
    let mut idx = ((octaves * SUBS_PER_OCTAVE as f64).ceil()).max(0.0) as usize;
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
    /// under load, and the hand-off.
    pub batch_assembly: Duration,
    /// Compute start → compute end (the engine's `infer_batch`).
    pub compute: Duration,
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
/// Bucket bounds are shared by every histogram in the process (10 µs to
/// ≈ 336 s, 8 per octave, [`HistogramSnapshot::upper_bounds`]), so
/// snapshots are directly comparable. `buckets` holds
/// **non-cumulative** per-bucket counts; the last slot is the overflow
/// (`+Inf`) bucket. [`HistogramSnapshot::le_buckets`] is the coarser
/// view `/v1/metrics` exports.
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

    /// The exported `le` series: every 8th finite bound (10 µs doubling up to ≈ 336 s) with the cumulative count
    /// of observations at or below it. The overflow bucket is left to
    /// the `+Inf` line, whose count is [`Self::count`].
    pub fn le_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let cumulative = self.buckets.iter().scan(0u64, |cum, &c| {
            *cum += c;
            Some(*cum)
        });
        Self::upper_bounds()
            .into_iter()
            .zip(cumulative)
            .step_by(SUBS_PER_OCTAVE)
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
    /// the bucket holding the observation of rank ⌈count · q⌉ (within
    /// 10 % of it from 10 µs up, see the module doc; the overflow
    /// bucket reports the top finite bound). 0 when empty.
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
    /// Numeric precision the engine serves at (`fp32`/`int8`); `None`
    /// when the model is no longer registered.
    pub precision: Option<String>,
    /// Requests served (tickets resolved).
    pub requests: u64,
    /// Batches drained through the engine.
    pub batches: u64,
    /// Requests expired past their deadline before reaching a batch
    /// slot (resolved as [`crate::RequestError::TimedOut`]); not
    /// counted in `requests` or the latency histogram.
    pub timed_out: u64,
    /// Requests whose end-to-end latency exceeded their slow threshold
    /// (monotonic — the `vitcod_slow_requests_total` scrape family).
    /// Every slow request counts, kept in `/v1/traces` or not, so slow
    /// rates stay computable from scrapes alone.
    pub slow: u64,
    /// End-to-end latency (enqueue → prediction) as a log-bucket
    /// histogram, accumulated for the server's whole lifetime; its
    /// percentiles come from [`HistogramSnapshot::quantile`].
    pub latency_histogram: HistogramSnapshot,
    /// Per-stage latency histograms: queue-wait, batch-assembly,
    /// compute, serialize.
    pub stages: StageStats,
    /// `batch_fill[k]` counts batches that carried `k + 1` requests;
    /// `requests / batches` is the mean fill.
    pub batch_fill: Vec<u64>,
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

    /// Records one request that exceeded its slow threshold.
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
            .map(|(model, a)| ModelStats {
                model: model.clone(),
                precision: None,
                requests: a.requests,
                batches: a.batches,
                timed_out: a.timed_out,
                slow: a.slow,
                latency_histogram: a.latency_hist.snapshot(),
                stages: StageStats {
                    queue_wait: a.queue_wait.snapshot(),
                    batch_assembly: a.batch_assembly.snapshot(),
                    compute: a.compute.snapshot(),
                    serialize: a.serialize.snapshot(),
                },
                batch_fill: a.fill_histogram.clone(),
                compute_batch_s: a.compute_batch_s,
                ops: a
                    .ops
                    .iter()
                    .zip(OP_NAMES)
                    .map(|(h, name)| (name, h.snapshot()))
                    .collect(),
                achieved_gops: None,
            })
            .collect();
        models.sort_by(|a, b| a.model.cmp(&b.model));
        ServerStats { uptime_s, models }
    }
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded runs.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn timings(ms: &[u64]) -> Vec<RequestTiming> {
        ms.iter()
            .map(|&m| RequestTiming {
                total: Duration::from_millis(m),
                ..RequestTiming::default()
            })
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
        // One 1-fill and one 3-fill: a mean fill of 4 / 2.
        assert_eq!(m.batch_fill, vec![1, 0, 1]);
        // Within 10 % of the observation of rank ⌈4 · q⌉: the 2nd for
        // p50, the 4th for p99 and p999.
        for (q, want) in [(0.50, 0.020), (0.99, 0.040), (0.999, 0.040)] {
            let got = m.latency_histogram.quantile(q);
            assert!((got - want).abs() <= 0.1 * want, "p{q}: {got} vs {want}");
        }
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
            h.observe(Duration::from_millis(1));
        }
        let snap = h.snapshot();
        let q50 = snap.quantile(0.5);
        // Inside the bucket containing 1 ms, 2^(1/8) wide.
        let j = bucket_index(0.001);
        assert!(
            q50 > bucket_bound(j - 1) && q50 <= bucket_bound(j),
            "q50 {q50}"
        );
        assert!((q50 - 0.001).abs() <= 0.1 * 0.001, "q50 {q50}");
        // Overflow-heavy histogram clamps to the top finite bound.
        let mut h = Histogram::default();
        h.observe(Duration::from_secs(100_000));
        let top = bucket_bound(HIST_FINITE_BUCKETS - 1);
        assert_eq!(h.snapshot().quantile(0.99), top);
        // Empty histogram.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
    }
}
