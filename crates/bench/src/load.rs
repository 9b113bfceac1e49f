//! Open-loop load generation against the loopback HTTP transport.
//!
//! Closed-loop clients (send, wait, send again) cannot measure latency
//! under load: the moment the server slows down, a closed-loop client
//! slows its own arrival rate and the queue never builds, so the
//! reported percentiles describe a gentler workload than any stated
//! rate. This module drives the transport **open-loop**: request
//! arrival times are drawn up front from a fixed-rate or Poisson
//! process at the configured offered rate, and a sender pool works
//! through that schedule regardless of how fast responses come back.
//! Latency is measured **from the scheduled arrival instant** — a
//! sender running behind schedule charges its lag to the request, as a
//! real queueing system would — and senders that fall behind by more
//! than a small slack are counted in [`LoadReport::late_sends`] so
//! generator saturation is visible instead of silently shrinking the
//! offered load.
//!
//! [`run_hostile`] layers a hostile-connection mix (slow-loris header
//! trickles, half-open connects, never-read clients) on top of a
//! well-behaved run, reporting how many of them the transport shed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vitcod_serve::stats::percentile;
use vitcod_transport::{HttpClient, Json};

/// A sender that wakes this far past a request's scheduled arrival
/// counts it as a late send (the generator, not the server, fell
/// behind).
const LATE_SLACK: Duration = Duration::from_millis(5);

/// Head start given to the sender pool to connect before the first
/// scheduled arrival.
const CONNECT_GRACE: Duration = Duration::from_millis(100);

/// One model target the generator cycles through round-robin.
#[derive(Debug, Clone)]
pub struct Target {
    /// Registered model id (requests go to `/v1/models/{id}/classify`).
    pub model: String,
    /// Full pre-encoded classify body (tokens plus optional
    /// `timeout_ms`).
    pub body: String,
}

/// Open-loop scenario parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Total requests in the schedule.
    pub requests: usize,
    /// Poisson (exponential gaps) vs fixed-rate arrivals.
    pub poisson: bool,
    /// Seed for the arrival process (schedules replay exactly).
    pub seed: u64,
    /// Sender threads working through the schedule (each holds one
    /// keep-alive connection).
    pub senders: usize,
    /// Models the schedule cycles through round-robin.
    pub targets: Vec<Target>,
}

/// What one finished scenario measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Offered arrival rate, requests per second.
    pub offered_rate: f64,
    /// Whether arrivals were Poisson.
    pub poisson: bool,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered `200`.
    pub ok: usize,
    /// Requests answered `504` (expired past their deadline).
    pub timed_out: usize,
    /// Requests that failed any other way (connection errors, 5xx).
    pub failed: usize,
    /// Requests whose sender woke more than the slack past the
    /// scheduled arrival — generator saturation, not server latency.
    pub late_sends: usize,
    /// Scheduled start of the first arrival to the last response, in
    /// seconds.
    pub duration_s: f64,
    /// Completed (`200`) responses per second of `duration_s`.
    pub achieved_rate: f64,
    /// Mean `200` latency from scheduled arrival, seconds.
    pub mean_s: f64,
    /// Median `200` latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile `200` latency, seconds.
    pub p99_s: f64,
    /// 99.9th-percentile `200` latency, seconds.
    pub p999_s: f64,
    /// Worst `200` latency, seconds.
    pub max_s: f64,
}

impl LoadReport {
    /// The report as a JSON object (the harness writes this to disk).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("offered_rate".into(), Json::Number(self.offered_rate)),
            ("poisson".into(), Json::Bool(self.poisson)),
            ("sent".into(), Json::Number(self.sent as f64)),
            ("ok".into(), Json::Number(self.ok as f64)),
            ("timed_out".into(), Json::Number(self.timed_out as f64)),
            ("failed".into(), Json::Number(self.failed as f64)),
            ("late_sends".into(), Json::Number(self.late_sends as f64)),
            ("duration_s".into(), Json::Number(self.duration_s)),
            ("achieved_rate".into(), Json::Number(self.achieved_rate)),
            ("mean_latency_s".into(), Json::Number(self.mean_s)),
            ("p50_latency_s".into(), Json::Number(self.p50_s)),
            ("p99_latency_s".into(), Json::Number(self.p99_s)),
            ("p999_latency_s".into(), Json::Number(self.p999_s)),
            ("max_latency_s".into(), Json::Number(self.max_s)),
        ])
    }
}

/// Draws the whole arrival schedule up front: offsets (seconds from the
/// epoch) of each request, ascending.
fn arrival_offsets(cfg: &LoadConfig) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    (0..cfg.requests)
        .map(|_| {
            let gap = if cfg.poisson {
                let u: f64 = rng.gen_range(0.0f64..1.0);
                -(1.0 - u).ln() / cfg.rate
            } else {
                1.0 / cfg.rate
            };
            t += gap;
            t
        })
        .collect()
}

/// What one sender thread accumulated.
#[derive(Default)]
struct SenderTally {
    latencies_s: Vec<f64>,
    sent: usize,
    ok: usize,
    timed_out: usize,
    failed: usize,
    late_sends: usize,
    /// Seconds from the epoch to this sender's last response.
    last_done_s: f64,
}

/// Runs one open-loop scenario against the transport at `addr` and
/// returns the merged report.
///
/// # Panics
///
/// Panics on a zero rate/request/sender count, an empty target list, or
/// when no sender manages to connect.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.rate > 0.0, "rate must be positive");
    assert!(cfg.requests > 0, "requests must be positive");
    assert!(cfg.senders > 0, "senders must be positive");
    assert!(!cfg.targets.is_empty(), "at least one target");

    let offsets = Arc::new(arrival_offsets(cfg));
    let targets = Arc::new(cfg.targets.clone());
    let next = Arc::new(AtomicUsize::new(0));
    let epoch = Instant::now() + CONNECT_GRACE;

    let handles: Vec<_> = (0..cfg.senders)
        .map(|_| {
            let offsets = Arc::clone(&offsets);
            let targets = Arc::clone(&targets);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut tally = SenderTally::default();
                let mut client = HttpClient::connect(addr).ok();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&offset) = offsets.get(idx) else {
                        return tally;
                    };
                    let scheduled = epoch + Duration::from_secs_f64(offset);
                    let now = Instant::now();
                    match scheduled.checked_duration_since(now) {
                        Some(wait) => std::thread::sleep(wait),
                        None => {
                            if now.duration_since(scheduled) > LATE_SLACK {
                                tally.late_sends += 1;
                            }
                        }
                    }
                    let target = &targets[idx % targets.len()];
                    let path = format!("/v1/models/{}/classify", target.model);
                    // A dead keep-alive connection gets one reconnect
                    // before the request counts as failed.
                    if client.is_none() {
                        client = HttpClient::connect(addr).ok();
                    }
                    tally.sent += 1;
                    let response = client
                        .as_mut()
                        .and_then(|c| c.post(&path, &target.body).ok());
                    let done_s = epoch.elapsed().as_secs_f64();
                    tally.last_done_s = tally.last_done_s.max(done_s);
                    match response {
                        Some(r) if r.status == 200 => {
                            tally.ok += 1;
                            tally.latencies_s.push((done_s - offset).max(0.0));
                        }
                        Some(r) if r.status == 504 => tally.timed_out += 1,
                        Some(_) => tally.failed += 1,
                        None => {
                            tally.failed += 1;
                            client = None; // force a reconnect next time
                        }
                    }
                }
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::with_capacity(cfg.requests);
    let mut merged = SenderTally::default();
    for h in handles {
        let tally = h.join().expect("sender thread");
        latencies.extend(&tally.latencies_s);
        merged.sent += tally.sent;
        merged.ok += tally.ok;
        merged.timed_out += tally.timed_out;
        merged.failed += tally.failed;
        merged.late_sends += tally.late_sends;
        merged.last_done_s = merged.last_done_s.max(tally.last_done_s);
    }
    latencies.sort_by(f64::total_cmp);
    let first_offset = offsets.first().copied().unwrap_or(0.0);
    let duration_s = (merged.last_done_s - first_offset).max(f64::MIN_POSITIVE);
    LoadReport {
        offered_rate: cfg.rate,
        poisson: cfg.poisson,
        sent: merged.sent,
        ok: merged.ok,
        timed_out: merged.timed_out,
        failed: merged.failed,
        late_sends: merged.late_sends,
        duration_s,
        achieved_rate: merged.ok as f64 / duration_s,
        mean_s: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
        p50_s: percentile(&latencies, 0.50),
        p99_s: percentile(&latencies, 0.99),
        p999_s: percentile(&latencies, 0.999),
        max_s: latencies.last().copied().unwrap_or(0.0),
    }
}

/// The hostile-connection mix driven *alongside* a well-behaved
/// workload: classic slow-loris header trickles, half-open connections
/// that never send a byte, and clients that fire a request but never
/// read the response. The transport must shed all of them (request
/// deadline for the trickles, idle timeout for the silent ones) while
/// the well-behaved load keeps meeting its SLO gate.
#[derive(Debug, Clone)]
pub struct HostileConfig {
    /// Connections that send a request line then trickle header bytes.
    pub loris: usize,
    /// Connections that open and never send anything.
    pub half_open: usize,
    /// Connections that send one valid request and never read the
    /// response.
    pub never_read: usize,
    /// Gap between trickled header bytes (keeps the server's idle
    /// clock reset, which is the whole attack).
    pub trickle: Duration,
    /// How long each hostile connection stays at it before giving up;
    /// a connection still open after this counts as *not* shed.
    pub duration: Duration,
    /// Model id the never-read connections post to.
    pub model: String,
    /// Classify body the never-read connections post.
    pub body: String,
}

/// What the hostile mix observed: a connection is `shed` once the
/// server visibly closes it (EOF, reset, or a `408`/`503` answer).
#[derive(Debug, Clone, Default)]
pub struct HostileReport {
    /// Hostile connections launched (attempted connects included).
    pub launched: usize,
    /// Connections the server shed inside the window.
    pub shed: usize,
    /// Connections still open when their window expired.
    pub survived: usize,
    /// Connects the server refused outright (also a valid shed).
    pub refused: usize,
}

impl HostileReport {
    /// The report as a JSON object (the harness writes this to disk).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("launched".into(), Json::Number(self.launched as f64)),
            ("shed".into(), Json::Number(self.shed as f64)),
            ("survived".into(), Json::Number(self.survived as f64)),
            ("refused".into(), Json::Number(self.refused as f64)),
        ])
    }
}

/// One hostile connection's behaviour after connecting.
enum Hostility<'a> {
    Loris { trickle: Duration },
    HalfOpen,
    NeverRead { model: &'a str, body: &'a str },
}

/// Returns `true` when the server shed the connection inside `window`.
fn drive_hostile(mut stream: TcpStream, kind: &Hostility<'_>, window: Duration) -> bool {
    let deadline = Instant::now() + window;
    let poll = Duration::from_millis(25);
    if stream.set_read_timeout(Some(poll)).is_err() || stream.set_nodelay(true).is_err() {
        return true; // dead on arrival: already shed
    }
    match kind {
        Hostility::Loris { trickle } => {
            if stream
                .write_all(b"POST /v1/models/m/classify HTTP/1.1\r\nX-Slow: ")
                .is_err()
            {
                return true;
            }
            let mut scratch = [0u8; 4096];
            while Instant::now() < deadline {
                if stream.write_all(b"a").is_err() {
                    return true; // reset mid-trickle
                }
                match stream.read(&mut scratch) {
                    // EOF, or a response (the 408) followed by close.
                    Ok(0) => return true,
                    Ok(_) => return true,
                    Err(_) => {} // still being tolerated; keep trickling
                }
                std::thread::sleep(*trickle);
            }
            false
        }
        Hostility::HalfOpen => {
            let mut scratch = [0u8; 64];
            while Instant::now() < deadline {
                match stream.read(&mut scratch) {
                    Ok(0) => return true, // idle-closed by the server
                    Ok(_) => return true,
                    Err(_) => {}
                }
            }
            false
        }
        Hostility::NeverRead { model, body } => {
            let head = format!(
                "POST /v1/models/{model}/classify HTTP/1.1\r\nHost: hostile\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            if stream.write_all(head.as_bytes()).is_err()
                || stream.write_all(body.as_bytes()).is_err()
            {
                return true;
            }
            // Stay deaf for the whole window — the point is a client
            // that never reads its response — then probe: the server
            // should have parked the answer in the kernel buffer and
            // idle-closed, so the drain ends in EOF/reset.
            if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut sink = [0u8; 16 * 1024];
            loop {
                match stream.read(&mut sink) {
                    Ok(0) => return true, // drained to EOF: shed
                    Ok(_) => {}           // buffered response bytes
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return false; // socket still open: not shed
                    }
                    Err(_) => return true, // reset: shed
                }
            }
        }
    }
}

/// Launches the hostile mix and blocks until every connection resolves.
pub fn run_hostile(addr: SocketAddr, cfg: &HostileConfig) -> HostileReport {
    let kinds: Vec<(usize, &'static str)> = vec![
        (cfg.loris, "loris"),
        (cfg.half_open, "half_open"),
        (cfg.never_read, "never_read"),
    ];
    let mut handles = Vec::new();
    for (count, kind) in kinds {
        for _ in 0..count {
            let cfg = cfg.clone();
            let kind: &'static str = kind;
            handles.push(std::thread::spawn(move || {
                let stream = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => return (true, true), // refused = shed
                };
                let hostility = match kind {
                    "loris" => Hostility::Loris {
                        trickle: cfg.trickle,
                    },
                    "half_open" => Hostility::HalfOpen,
                    _ => Hostility::NeverRead {
                        model: &cfg.model,
                        body: &cfg.body,
                    },
                };
                (drive_hostile(stream, &hostility, cfg.duration), false)
            }));
        }
    }
    let mut report = HostileReport::default();
    for h in handles {
        let (shed, refused) = h.join().expect("hostile thread");
        report.launched += 1;
        if refused {
            report.refused += 1;
        }
        if shed {
            report.shed += 1;
        } else {
            report.survived += 1;
        }
    }
    report
}

#[cfg(test)]
// Exact float equality below asserts deterministic replay of seeded
// schedules.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_offsets_are_uniform() {
        let cfg = LoadConfig {
            rate: 100.0,
            requests: 10,
            poisson: false,
            seed: 1,
            senders: 1,
            targets: vec![Target {
                model: "m".into(),
                body: "{}".into(),
            }],
        };
        let offsets = arrival_offsets(&cfg);
        assert_eq!(offsets.len(), 10);
        for (i, &t) in offsets.iter().enumerate() {
            assert!((t - (i + 1) as f64 * 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn poisson_offsets_are_increasing_with_mean_gap_near_rate() {
        let cfg = LoadConfig {
            rate: 1000.0,
            requests: 5000,
            poisson: true,
            seed: 7,
            senders: 1,
            targets: vec![Target {
                model: "m".into(),
                body: "{}".into(),
            }],
        };
        let offsets = arrival_offsets(&cfg);
        assert!(offsets.windows(2).all(|w| w[1] >= w[0]));
        // Mean inter-arrival gap of an Exp(λ) process is 1/λ; with 5000
        // draws the sample mean lands within a few percent.
        let mean_gap = offsets.last().expect("nonempty") / offsets.len() as f64;
        assert!(
            (mean_gap - 1e-3).abs() < 2e-4,
            "mean gap {mean_gap} far from 1e-3"
        );
        // Same seed, same schedule.
        assert_eq!(offsets, arrival_offsets(&cfg));
    }
}
