//! `benchmark compare <a/results.json> <b/results.json>`: one row per
//! end-to-end metric and workload, with a verdict.

use vitcod_transport::{json, Json};

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median, sorted};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, or a run was
    /// invalid: the pair cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them; `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let x = sorted(xs);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Judges `new` against `base` for a metric where `lower_is_better`,
/// allowed to worsen by `bound` of the base median.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse_by = if lower_is_better { n - b } else { b - n } / b.abs().max(f64::MIN_POSITIVE);
    let spread = [base, new]
        .iter()
        .filter_map(|xs| quartiles(xs).map(|(q1, q3)| (q3 - q1) / b.abs().max(f64::MIN_POSITIVE)))
        .fold(0.0, f64::max);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let verdict = if all_better {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// The untraced runs of `workload` in a parsed results file.
fn runs<'a>(results: &'a Json, workload: &str) -> Vec<&'a Json> {
    results
        .get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_u64) == Some(0)
        })
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn sound(runs: &[&Json]) -> bool {
    runs.iter().all(|r| {
        r.get("valid").and_then(Json::as_bool) == Some(true)
            && r.get("correct").and_then(Json::as_bool) == Some(true)
    })
}

/// Prints the comparison; `Ok(true)` if anything regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base {path_a}\nnew  {path_b}");
    println!(
        "{:<20} {:<15} {:>13} {:>13} {:>22} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by (of base)", "bound", "spread"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        let (ra, rb) = (runs(&a, w.name), runs(&b, w.name));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for m in &END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, spread, mut verdict) = judge(&va, &vb, m.better == "lower", m.bound);
            if !sound(&ra) || !sound(&rb) {
                verdict = Verdict::Unresolved;
            }
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<20} {:<15} {:>13.6} {:>13.6} {:>+9.2}% of {:<9.4} {:>5.0}% {:>6.1}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                median(&va),
                m.bound * 100.0,
                spread * 100.0,
                verdict.as_str()
            );
        }
        let hash = |rs: &[&Json]| {
            rs.first()
                .and_then(|r| r.get("output_hash"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let same = hash(&ra) == hash(&rb);
        println!(
            "{:<20} output_hash {}",
            w.name,
            if same {
                "same"
            } else {
                "differs (reported, not gated)"
            }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten values");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).expect("two values");
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound.
        let (_, _, v) = judge(&base, &[1.04, 1.05, 1.03, 1.04, 1.06], true, 0.10);
        assert_eq!(v, Verdict::Ok);
        // Worse by 20 % against a 10 % bound, tight spread.
        let (worse, _, v) = judge(&base, &[1.20, 1.21, 1.19, 1.20, 1.22], true, 0.10);
        assert!((worse - 0.20).abs() < 1e-9);
        assert_eq!(v, Verdict::Regressed);
        // Same medians, but the runs scatter by more than the bound.
        let (_, spread, v) = judge(&base, &[0.8, 1.3, 1.2, 0.7, 1.25], true, 0.10);
        assert!(spread > 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // A wide spread does not hide a change whose every run is better.
        let (_, _, v) = judge(
            &[2.0, 3.0, 2.5, 3.5, 2.2],
            &[1.0, 1.9, 1.2, 1.5, 1.1],
            true,
            0.10,
        );
        assert_eq!(v, Verdict::Ok);
        // Higher is better: a throughput that fell by 20 %.
        let (worse, _, v) = judge(&[100.0], &[80.0], false, 0.10);
        assert!((worse - 0.20).abs() < 1e-9);
        assert_eq!(v, Verdict::Regressed);
        // Single runs have no spread: the bound alone decides.
        let (_, spread, v) = judge(&[100.0], &[95.0], false, 0.10);
        assert!(spread.abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
    }
}
