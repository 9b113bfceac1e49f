//! The `vitcod-obs` binary end to end: flags, the wall-clock polling
//! loop, the `--out` report and the exit codes, against a canned
//! `/v1/metrics` endpoint served from this test.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::{Command, Output};

use vitcod_transport::json;

/// A healthy replica's exposition: traffic, no timeouts, every request
/// under the default 250 ms latency threshold.
const METRICS: &str = "\
# TYPE vitcod_requests_total counter
vitcod_requests_total{model=\"m\"} 10
# TYPE vitcod_timeouts_total counter
vitcod_timeouts_total{model=\"m\"} 0
# TYPE vitcod_request_latency_seconds histogram
vitcod_request_latency_seconds_bucket{model=\"m\",le=\"0.1\"} 10
vitcod_request_latency_seconds_bucket{model=\"m\",le=\"0.5\"} 10
vitcod_request_latency_seconds_bucket{model=\"m\",le=\"+Inf\"} 10
vitcod_request_latency_seconds_sum{model=\"m\"} 0.3
vitcod_request_latency_seconds_count{model=\"m\"} 10
";

/// An outage at scrape `n`: every one of the `10 n` requests served so
/// far timed out, so the availability burn is far past both thresholds
/// from the second scrape on.
fn outage(n: u64) -> String {
    let total = 10 * n;
    format!(
        "\
# TYPE vitcod_requests_total counter
vitcod_requests_total{{model=\"m\"}} {total}
# TYPE vitcod_timeouts_total counter
vitcod_timeouts_total{{model=\"m\"}} {total}
# TYPE vitcod_request_latency_seconds histogram
vitcod_request_latency_seconds_bucket{{model=\"m\",le=\"0.1\"}} {total}
vitcod_request_latency_seconds_bucket{{model=\"m\",le=\"+Inf\"}} {total}
vitcod_request_latency_seconds_sum{{model=\"m\"}} 0.1
vitcod_request_latency_seconds_count{{model=\"m\"}} {total}
"
    )
}

/// Serves `metrics(n)` to the `n`-th connection (the monitor reconnects
/// per scrape) until the process exits; returns `host:port`.
fn canned_replica(metrics: fn(u64) -> String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for (n, mut stream) in (1..).zip(listener.incoming().flatten()) {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf); // the request head
            let body = metrics(n);
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(resp.as_bytes());
        }
    });
    addr
}

fn vitcod_obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vitcod-obs"))
        .args(args)
        .output()
        .expect("the vitcod-obs binary runs")
}

#[test]
fn polls_a_replica_and_writes_the_alert_report() {
    let addr = canned_replica(|_| METRICS.to_string());
    let out_path = std::env::temp_dir().join(format!("vitcod-obs-{}.json", std::process::id()));
    let run = vitcod_obs(&[
        "--endpoint",
        &addr,
        "--interval-ms",
        "50",
        "--duration-s",
        "1",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out_path);
    let endpoints = report.get("endpoints").and_then(|e| e.as_array()).unwrap();
    assert_eq!(endpoints.len(), 1);
    let ep = &endpoints[0];
    assert_eq!(
        ep.get("endpoint").and_then(|e| e.as_str()),
        Some(addr.as_str())
    );
    assert!(ep.get("scrapes_ok").and_then(|n| n.as_f64()).unwrap() > 0.0);
    let alerts = ep.get("alerts").and_then(|a| a.as_array()).unwrap();
    let names: Vec<&str> = alerts
        .iter()
        .map(|a| a.get("alert").and_then(|n| n.as_str()).unwrap())
        .collect();
    assert_eq!(names, ["availability", "latency"]);
    for alert in alerts {
        // No timeouts and no slow requests: neither alert ever arms.
        assert_eq!(
            alert.get("final_state").and_then(|s| s.as_str()),
            Some("inactive")
        );
    }
}

#[test]
fn a_fired_alert_exits_2_under_fail_on_fire_and_still_writes_the_report() {
    let addr = canned_replica(outage);
    let out_path =
        std::env::temp_dir().join(format!("vitcod-obs-fire-{}.json", std::process::id()));
    let run = vitcod_obs(&[
        "--endpoint",
        &addr,
        "--interval-ms",
        "50",
        "--duration-s",
        "1",
        "--out",
        out_path.to_str().unwrap(),
        "--fail-on-fire",
    ]);
    assert_eq!(
        run.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(String::from_utf8_lossy(&run.stderr).contains("an SLO alert fired"));
    let report = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out_path);
    let endpoints = report.get("endpoints").and_then(|e| e.as_array()).unwrap();
    let alerts = endpoints[0]
        .get("alerts")
        .and_then(|a| a.as_array())
        .unwrap();
    let availability = &alerts[0];
    assert_eq!(
        availability.get("alert").and_then(|n| n.as_str()),
        Some("availability")
    );
    let reached: Vec<&str> = availability
        .get("transitions")
        .and_then(|t| t.as_array())
        .unwrap()
        .iter()
        .map(|x| x.get("to").and_then(|s| s.as_str()).unwrap())
        .collect();
    assert_eq!(reached, ["pending", "firing"]);
}

#[test]
fn a_replica_never_reached_is_a_failure_not_a_clean_report() {
    let run = vitcod_obs(&[
        "--endpoint",
        "127.0.0.1:1",
        "--interval-ms",
        "100",
        "--duration-s",
        "1",
    ]);
    assert_eq!(run.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&run.stderr).contains("no data observed"));
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let run = vitcod_obs(&["--endpoint", "127.0.0.1:1", "--bogus"]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown flag --bogus") && stderr.contains("usage:"));
}
