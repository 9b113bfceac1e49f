//! `vitcod-obs` — poll one or more serving replicas' `/v1/metrics`,
//! drive the burn-rate SLO trackers, and write the alert transitions
//! out as JSON.
//!
//! ```text
//! vitcod-obs --endpoint 127.0.0.1:8080 [--endpoint …]
//!            [--interval-ms 500] [--duration-s 10]
//!            [--latency-threshold-ms 250]
//!            [--out alerts.json] [--fail-on-fire]
//! ```
//!
//! Each endpoint gets two trackers: an availability SLO (bad =
//! timeouts) and a latency SLO (bad = requests over the threshold,
//! derived from the request-latency histogram buckets). Exit status is
//! `0` normally, `2` when `--fail-on-fire` is set and any alert
//! reached `firing` — that is the CI hook.

#![deny(clippy::unwrap_used)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use vitcod_obs::{good_under_all, AlertState, Scraper, SloConfig, SloTracker};
use vitcod_transport::Json;

struct Args {
    endpoints: Vec<String>,
    interval: Duration,
    duration: Duration,
    latency_threshold_s: f64,
    out: Option<String>,
    fail_on_fire: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        endpoints: Vec::new(),
        interval: Duration::from_millis(500),
        duration: Duration::from_secs(10),
        latency_threshold_s: 0.25,
        out: None,
        fail_on_fire: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--endpoint" => args.endpoints.push(value("--endpoint")?),
            "--interval-ms" => {
                let ms: u64 = value("--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms must be an integer".to_string())?;
                args.interval = Duration::from_millis(ms.max(1));
            }
            "--duration-s" => {
                let s: u64 = value("--duration-s")?
                    .parse()
                    .map_err(|_| "--duration-s must be an integer".to_string())?;
                args.duration = Duration::from_secs(s);
            }
            "--latency-threshold-ms" => {
                let ms: u64 = value("--latency-threshold-ms")?
                    .parse()
                    .map_err(|_| "--latency-threshold-ms must be an integer".to_string())?;
                args.latency_threshold_s = ms as f64 / 1000.0;
            }
            "--out" => args.out = Some(value("--out")?),
            "--fail-on-fire" => args.fail_on_fire = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.endpoints.is_empty() {
        return Err("at least one --endpoint is required".to_string());
    }
    Ok(args)
}

/// One endpoint's pair of trackers.
struct Monitored {
    endpoint: String,
    availability: SloTracker,
    latency: SloTracker,
    scrapes_ok: u64,
    scrape_errors: u64,
    ever_fired: bool,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vitcod-obs: {e}");
            eprintln!(
                "usage: vitcod-obs --endpoint host:port [--endpoint …] \
                 [--interval-ms N] [--duration-s N] [--latency-threshold-ms N] \
                 [--out alerts.json] [--fail-on-fire]"
            );
            return ExitCode::FAILURE;
        }
    };
    let scraper = Scraper::new(args.endpoints.clone());
    let mut monitored: Vec<Monitored> = args
        .endpoints
        .iter()
        .map(|ep| Monitored {
            endpoint: ep.clone(),
            availability: SloTracker::new(SloConfig::availability("availability")),
            latency: SloTracker::new(SloConfig::latency("latency", args.latency_threshold_s)),
            scrapes_ok: 0,
            scrape_errors: 0,
            ever_fired: false,
        })
        .collect();

    let start = Instant::now();
    while start.elapsed() < args.duration {
        let t_s = start.elapsed().as_secs_f64();
        for (result, mon) in scraper.poll(t_s).into_iter().zip(monitored.iter_mut()) {
            let scrape = match result {
                Ok(s) => s,
                Err((ep, e)) => {
                    mon.scrape_errors += 1;
                    eprintln!("vitcod-obs: scrape {ep}: {e}");
                    continue;
                }
            };
            mon.scrapes_ok += 1;
            let exp = &scrape.exposition;
            let requests = exp.sum("vitcod_requests_total", &[]);
            let timeouts = exp.sum("vitcod_timeouts_total", &[]);
            mon.availability.observe(t_s, requests, timeouts);
            if let Some(x) = mon.availability.eval(t_s) {
                println!(
                    "[{:7.2}s] {} availability: {} -> {} (fast burn {:.1}, slow burn {:.1})",
                    t_s, mon.endpoint, x.from, x.to, x.fast_burn, x.slow_burn
                );
            }
            match good_under_all(
                exp,
                "vitcod_request_latency_seconds",
                args.latency_threshold_s,
            ) {
                Ok((good, total)) => {
                    mon.latency.observe(t_s, good, total - good);
                    if let Some(x) = mon.latency.eval(t_s) {
                        println!(
                            "[{:7.2}s] {} latency: {} -> {} (fast burn {:.1}, slow burn {:.1})",
                            t_s, mon.endpoint, x.from, x.to, x.fast_burn, x.slow_burn
                        );
                    }
                }
                Err(e) => eprintln!("vitcod-obs: {}: latency histogram: {e}", mon.endpoint),
            }
            let firing = mon.availability.state() == AlertState::Firing
                || mon.latency.state() == AlertState::Firing;
            mon.ever_fired |= firing;
        }
        std::thread::sleep(args.interval);
    }

    let report = report_json(&args, &monitored);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_string()) {
            eprintln!("vitcod-obs: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    } else {
        println!("{report}");
    }

    // A monitor that never reached its target observed nothing — the
    // "no alerts" result would be vacuous, so refuse to report success.
    if let Some(dead) = monitored.iter().find(|m| m.scrapes_ok == 0) {
        eprintln!(
            "vitcod-obs: every scrape of {} failed ({} attempts) — no data observed",
            dead.endpoint, dead.scrape_errors
        );
        return ExitCode::FAILURE;
    }
    let any_fired = monitored.iter().any(|m| m.ever_fired);
    if args.fail_on_fire && any_fired {
        eprintln!("vitcod-obs: an SLO alert fired (--fail-on-fire)");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn tracker_json(t: &SloTracker) -> Json {
    let cfg = t.config();
    Json::Object(vec![
        ("alert".into(), Json::String(cfg.name.clone())),
        (
            "objective".into(),
            Json::String(cfg.objective.kind().into()),
        ),
        ("error_budget".into(), Json::Number(cfg.error_budget)),
        ("fast_window_s".into(), Json::Number(cfg.fast_window_s)),
        ("slow_window_s".into(), Json::Number(cfg.slow_window_s)),
        (
            "final_state".into(),
            Json::String(t.state().as_str().into()),
        ),
        (
            "transitions".into(),
            Json::Array(
                t.transitions()
                    .iter()
                    .map(|x| {
                        Json::Object(vec![
                            ("at_s".into(), Json::Number(x.at_s)),
                            ("from".into(), Json::String(x.from.as_str().into())),
                            ("to".into(), Json::String(x.to.as_str().into())),
                            ("fast_burn".into(), Json::Number(x.fast_burn)),
                            ("slow_burn".into(), Json::Number(x.slow_burn)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn report_json(args: &Args, monitored: &[Monitored]) -> Json {
    Json::Object(vec![
        (
            "interval_ms".into(),
            Json::Number(args.interval.as_millis() as f64),
        ),
        (
            "duration_s".into(),
            Json::Number(args.duration.as_secs_f64()),
        ),
        (
            "latency_threshold_s".into(),
            Json::Number(args.latency_threshold_s),
        ),
        (
            "endpoints".into(),
            Json::Array(
                monitored
                    .iter()
                    .map(|m| {
                        Json::Object(vec![
                            ("endpoint".into(), Json::String(m.endpoint.clone())),
                            ("scrapes_ok".into(), Json::Number(m.scrapes_ok as f64)),
                            ("scrape_errors".into(), Json::Number(m.scrape_errors as f64)),
                            (
                                "alerts".into(),
                                Json::Array(vec![
                                    tracker_json(&m.availability),
                                    tracker_json(&m.latency),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
