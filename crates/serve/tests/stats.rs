//! `StatsRecorder` acceptance tests: histogram percentiles against the
//! exact order statistic on skewed latencies, concurrent recording vs
//! snapshotting, and the log-bucket histogram's boundary behavior — all
//! through the public API only.

use std::sync::Arc;
use std::time::Duration;

use vitcod_serve::{HistogramSnapshot, RequestTiming, StatsRecorder};

fn timing_ms(ms: u64) -> RequestTiming {
    RequestTiming {
        total: Duration::from_millis(ms),
        ..RequestTiming::default()
    }
}

/// The observation of rank ⌈len · q⌉ in an ascending sample: the order
/// statistic the histogram's quantile estimates.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn concurrent_recording_and_snapshotting_stays_consistent() {
    let r = Arc::new(StatsRecorder::new());
    const WRITERS: usize = 4;
    const BATCHES: usize = 200;
    const FILL: usize = 8;
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for b in 0..BATCHES {
                    let batch: Vec<RequestTiming> = (0..FILL)
                        .map(|i| timing_ms((w * 7 + b + i) as u64 % 100 + 1))
                        .collect();
                    r.record_batch("m", Duration::from_millis(1), &batch);
                    if b % 3 == 0 {
                        r.record_timeout("m");
                    }
                    r.record_serialize("m", Duration::from_micros(50));
                }
            })
        })
        .collect();
    // Snapshot continuously while the writers race; every intermediate
    // snapshot must be internally consistent.
    let reader = {
        let r = Arc::clone(&r);
        std::thread::spawn(move || {
            let mut snapshots = 0usize;
            loop {
                let s = r.snapshot(1.0);
                if let Some(m) = s.model("m") {
                    assert_eq!(m.requests, m.batches * FILL as u64, "fill is constant");
                    assert_eq!(m.latency_histogram.count, m.requests);
                    assert_eq!(m.stages.compute.count, m.requests);
                    let histogram_total: u64 = m.latency_histogram.buckets.iter().sum();
                    assert_eq!(histogram_total, m.latency_histogram.count);
                }
                snapshots += 1;
                if s.model("m")
                    .is_some_and(|m| m.requests as usize == WRITERS * BATCHES * FILL)
                {
                    return snapshots;
                }
                std::thread::yield_now();
            }
        })
    };
    for w in writers {
        w.join().expect("writer");
    }
    let snapshots = reader.join().expect("reader");
    assert!(snapshots >= 1);
    let m = r.snapshot(1.0);
    let m = m.model("m").expect("recorded");
    assert_eq!(m.requests as usize, WRITERS * BATCHES * FILL);
    assert_eq!(m.batches as usize, WRITERS * BATCHES);
    assert_eq!(m.timed_out as usize, WRITERS * BATCHES.div_ceil(3));
    assert_eq!(m.stages.serialize.count as usize, WRITERS * BATCHES);
}

/// The documented `le` rule: smallest finite bucket whose bound is
/// `>= s`, or the overflow slot past the top bound.
fn le_bucket(bounds: &[f64], s: f64) -> usize {
    bounds.iter().position(|&b| s <= b).unwrap_or(bounds.len())
}

#[test]
fn histogram_boundaries_hold_through_the_public_api() {
    let r = StatsRecorder::new();
    // The shared bucket bounds, via the public snapshot type.
    let bounds = HistogramSnapshot::upper_bounds();
    assert!(!bounds.is_empty());
    assert!(bounds.windows(2).all(|w| w[1] > w[0]), "bounds ascend");
    // Probe every boundary from both sides: exactly at each bound,
    // just past it, mid-bucket, zero, and far past the top bound.
    let mut values_s: Vec<f64> = Vec::new();
    for &b in &bounds {
        values_s.push(b);
        values_s.push(b * 1.0000001);
        values_s.push(b * 0.75);
    }
    values_s.push(0.0);
    values_s.push(1e9);
    let timings: Vec<RequestTiming> = values_s
        .iter()
        .map(|&s| RequestTiming {
            total: Duration::from_secs_f64(s),
            ..RequestTiming::default()
        })
        .collect();
    r.record_batch("m", Duration::from_millis(1), &timings);
    let snap = r.snapshot(1.0);
    let h = &snap.model("m").expect("recorded").latency_histogram;
    assert_eq!(
        h.buckets.len(),
        bounds.len() + 1,
        "finite buckets + overflow"
    );
    // Expected counts from the `le` rule applied to what the recorder
    // actually observed (the Duration round-trip of each probe).
    let mut expected = vec![0u64; bounds.len() + 1];
    for t in &timings {
        expected[le_bucket(&bounds, t.total.as_secs_f64())] += 1;
    }
    assert_eq!(h.buckets, expected, "le-bucket assignment at boundaries");
    assert_eq!(h.count as usize, timings.len());
    assert!(h.buckets[bounds.len()] >= 1, "1e9 s lands in overflow");
}

/// Deterministic log-normal latencies in [50 µs, 5 s]: median 2 ms,
/// σ = 1.5 in log space (a long right tail), out-of-range draws redrawn.
fn skewed_latencies_s(count: usize) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut uniform = move || {
        // xorshift64*, top 53 bits as a float in (0, 1).
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let normal = (-2.0 * uniform().ln()).sqrt() * (std::f64::consts::TAU * uniform()).cos();
        let s = 2e-3 * (1.5 * normal).exp();
        if (50e-6..=5.0).contains(&s) {
            out.push(s);
        }
    }
    out
}

#[test]
fn quantile_estimate_brackets_the_exact_value() {
    let r = StatsRecorder::new();
    let timings: Vec<RequestTiming> = skewed_latencies_s(100_000)
        .into_iter()
        .map(|s| RequestTiming {
            total: Duration::from_secs_f64(s),
            ..RequestTiming::default()
        })
        .collect();
    for batch in timings.chunks(1000) {
        r.record_batch("m", Duration::from_millis(1), batch);
    }
    let s = r.snapshot(1.0);
    let m = s.model("m").expect("recorded");
    assert_eq!(m.latency_histogram.count, 100_000);
    // What the recorder observed: each probe after its Duration
    // round-trip.
    let mut sorted: Vec<f64> = timings.iter().map(|t| t.total.as_secs_f64()).collect();
    sorted.sort_by(f64::total_cmp);
    for q in [0.5, 0.9, 0.99, 0.999] {
        let est = m.latency_histogram.quantile(q);
        let truth = exact_quantile(&sorted, q);
        let err = (est - truth).abs() / truth;
        assert!(
            err <= 0.10,
            "q{q}: estimate {est} vs exact {truth} ({err:.4})"
        );
    }
}
