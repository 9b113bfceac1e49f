//! One run of one workload: set-up, the measuring window, the output
//! checks and the result line.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::metrics::{per_layer_unit, tail_quantile, END_TO_END, PER_LAYER};
use crate::stats::{
    iqr_frac, median, percentile, quiet, samples_beyond, sorted, supports, QUIET_Q,
};
use crate::trace::Trace;

/// Set-ups per untraced run, before and after the measuring window.
/// `setup_s` is their quiet-box percentile: set-ups a window apart
/// rarely all fall into one slow phase of the box, and the median of
/// five made back to back drifted by 29 % between two sets of runs.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Shares of `--seconds` a traced run gives to its untraced and traced
/// segments; the rest is for direct calls into single layers.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.3;
const TRACED_RUN_TRACED_SHARE: f64 = 0.4;
/// A send this far behind schedule is late; a run where more than
/// `INVALID_LATE_SHARE` of sends are `VERY_LATE_S` behind measured the
/// generator, not the server.
pub const LATE_S: f64 = 0.002;
pub const VERY_LATE_S: f64 = 0.005;
const INVALID_LATE_SHARE: f64 = 0.05;

/// Per-layer values recorded during a run, by declared name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Records `value` under a name declared in `metrics::PER_LAYER`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: the declared set is the contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            per_layer_unit(name).is_some(),
            "per-layer metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Records the quiet-box percentile of `xs`, if there are any.
    pub fn set_quiet(&mut self, name: &'static str, xs: &[f64]) {
        if !xs.is_empty() {
            self.set(name, quiet(xs));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// How the load generator of a request workload fared.
#[derive(Debug, Clone, Default)]
pub struct Requests {
    pub sent: u64,
    /// Answered correctly within the limit.
    pub ok: u64,
    /// Answered correctly, but later than the limit.
    pub late: u64,
    /// Expired by the server or the wire.
    pub expired: u64,
    /// Refused, failed, or answered wrongly.
    pub errored: u64,
    /// Sends more than `LATE_S` / `VERY_LATE_S` behind schedule.
    pub late_sends: u64,
    pub very_late_sends: u64,
    pub max_lateness_s: f64,
}

/// What one measuring window produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Seconds of every operation that succeeded.
    pub lat_s: Vec<f64>,
    /// Items completed correctly and in time.
    pub items: f64,
    /// First operation due → last operation done.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the outputs a correct run produces for this seed.
    pub output_hash: u64,
    /// Why outputs are wrong, if they are.
    pub wrong: Option<String>,
    pub requests: Option<Requests>,
}

pub trait Workload: Sized {
    /// One complete set-up from the seed: everything before the first
    /// timed operation, including one warm-up operation.
    fn setup(seed: u64, layers: &mut Layers) -> Self;

    /// Builds what the output checks compare against. Not timed.
    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs the workload for about `seconds`.
    fn measure(&mut self, seconds: f64, trace: Option<&mut Trace>, layers: &mut Layers)
        -> Measured;

    /// Direct calls into single layers; traced runs only.
    fn probe_layers(&mut self, _layers: &mut Layers) {}
}

pub struct RunArgs<'a> {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: &'a Path,
}

/// What a run reports: the last two lines of its standard output.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `detail` line: validity, hash, counts.
    pub detail: String,
}

impl Outcome {
    /// The result line of the contract.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// User + system CPU seconds of this process, all threads
/// (`/proc/self/stat`, at the kernel's 100 ticks per second).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let after = stat.rsplit(')').next().unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn describe_requests(workload: &str, r: &Requests) {
    println!(
        "{workload} requests sent {} ok {} late {} expired {} errored {}",
        r.sent, r.ok, r.late, r.expired, r.errored
    );
    println!(
        "{workload} generator late_sends {} (>{} ms) very_late {} (>{} ms) max_lateness_s {}",
        r.late_sends,
        LATE_S * 1e3,
        r.very_late_sends,
        VERY_LATE_S * 1e3,
        r.max_lateness_s
    );
}

/// Whether the generator kept its schedule well enough for the numbers
/// to describe the server.
fn valid(m: &Measured) -> bool {
    m.requests
        .as_ref()
        .is_none_or(|r| (r.very_late_sends as f64) <= INVALID_LATE_SHARE * r.sent.max(1) as f64)
}

fn detail_line(workload: &str, traced: bool, samples: usize, m: &Measured) -> String {
    let r = m.requests.clone().unwrap_or_default();
    format!(
        "detail {{\"workload\": \"{workload}\", \"trace\": {}, \"valid\": {}, \"output_hash\": \"{:016x}\", \"samples\": {samples}, \"sent\": {}, \"ok\": {}, \"late\": {}, \"expired\": {}, \"errored\": {}, \"late_sends\": {}, \"max_lateness_s\": {}}}",
        u8::from(traced),
        valid(m),
        m.output_hash,
        r.sent,
        r.ok,
        r.late,
        r.expired,
        r.errored,
        r.late_sends,
        r.max_lateness_s
    )
}

pub fn run<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    if args.traced {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

fn run_untraced<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    let name = args.workload;
    let mut layers = Layers::default();
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut workload = None;
    for _ in 0..SETUPS_BEFORE {
        drop(workload.take()); // a server is shut down before the next starts
        let t = Instant::now();
        workload = Some(W::setup(args.seed, &mut layers));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    workload.prepare_checks()?;

    let m = workload.measure(args.seconds, None, &mut layers);
    drop(workload);
    for _ in 0..SETUPS_AFTER {
        let t = Instant::now();
        let again = W::setup(args.seed, &mut layers);
        setups.push(t.elapsed().as_secs_f64());
        drop(again);
    }

    if m.lat_s.is_empty() {
        return Err(format!("{name}: no operation succeeded"));
    }
    let value = |metric: &str| -> f64 {
        match metric {
            "lat_quiet_s" => quiet(&m.lat_s),
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => quiet(&setups),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name, value(d.name), d.unit))
        .collect();

    println!(
        "{name} seed {} seconds {} samples {} ({} at or below p{:.0}) window_s {:.3} p50 {:.6} iqr_frac {:.4}",
        args.seed,
        args.seconds,
        m.lat_s.len(),
        m.lat_s.len() - samples_beyond(m.lat_s.len(), QUIET_Q),
        QUIET_Q * 100.0,
        m.window_s,
        median(&m.lat_s),
        iqr_frac(&m.lat_s)
    );
    if let Some(r) = &m.requests {
        describe_requests(name, r);
    }
    finish(name, false, m.lat_s.len(), &m, metrics)
}

fn run_traced<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    let name = args.workload;
    let mut layers = Layers::default();
    let mut workload = W::setup(args.seed, &mut layers);
    workload.prepare_checks()?;

    let plain = workload.measure(args.seconds * TRACED_RUN_UNTRACED_SHARE, None, &mut layers);
    let mut trace = Trace::new(Instant::now());
    let cpu0 = cpu_seconds();
    let m = workload.measure(
        args.seconds * TRACED_RUN_TRACED_SHARE,
        Some(&mut trace),
        &mut layers,
    );
    let cpu_s = cpu_seconds() - cpu0;
    workload.probe_layers(&mut layers);
    drop(workload);

    let requests = m.requests.clone().unwrap_or_default();
    layers.set("bench.late_sends", requests.late_sends as f64);
    layers.set("bench.max_lateness_s", requests.max_lateness_s);
    layers.set("bench.iter_iqr_frac", iqr_frac(&m.lat_s));
    layers.set("bench.samples", m.lat_s.len() as f64);
    layers.set(
        "bench.failed_share",
        m.failed as f64 / m.attempted.max(1) as f64,
    );
    let (p, t) = (quiet(&plain.lat_s), quiet(&m.lat_s));
    if p > 0.0 {
        layers.set("bench.trace_overhead_frac", t / p - 1.0);
    }
    let lat = sorted(&m.lat_s);
    layers.set("bench.lat_p50_s", percentile(&lat, 0.5));
    let q = tail_quantile(name);
    layers.set("bench.lat_tail_s", percentile(&lat, q));
    println!(
        "{name} bench.lat_tail_s is p{:.0} of {} samples, {} beyond it{}",
        q * 100.0,
        lat.len(),
        samples_beyond(lat.len(), q),
        if supports(lat.len(), q) {
            ""
        } else {
            " (fewer than ten: indicative only)"
        }
    );
    if m.items > 0.0 && m.window_s > 0.0 {
        layers.set("bench.items_per_s", m.items / m.window_s);
        layers.set("bench.cpu_s_per_item", cpu_s / m.items);
    }

    std::fs::create_dir_all(args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("trace.{name}.json"));
    std::fs::write(&path, trace.to_json(name, args.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{name} trace {} spans -> {}",
        trace.spans.len(),
        path.display()
    );
    for (layer, s) in trace.self_s_by_layer() {
        println!("{name} self_time {layer} {s:.6} s");
    }
    if let Some(r) = &m.requests {
        describe_requests(name, r);
    }

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name, layers.get(d.name).unwrap_or(0.0), d.unit))
        .collect();
    // Both segments are checked: a wrong answer in either fails the run.
    let mut both = m.clone();
    both.attempted += plain.attempted;
    both.failed += plain.failed;
    both.wrong = m.wrong.clone().or(plain.wrong);
    finish(name, true, m.lat_s.len(), &both, metrics)
}

fn finish(
    name: &'static str,
    traced: bool,
    samples: usize,
    m: &Measured,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Result<Outcome, String> {
    if let Some((metric, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name}: {metric} is not a number ({value})"));
    }
    if let Some(why) = &m.wrong {
        println!("{name} OUTPUT CHECK FAILED: {why}");
    }
    if !valid(m) {
        println!("{name} INVALID: the generator ran late; these are not server numbers");
    }
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    Ok(Outcome {
        correct: m.wrong.is_none(),
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics,
        detail: detail_line(name, traced, samples, m),
    })
}
