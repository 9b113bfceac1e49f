//! The one timing protocol of the `BENCH_*.json` benches: repeats over a
//! time window, reported as best (what gates compare), median and MAD.

use std::time::Instant;

/// Fewest timed runs per column (after one warm-up), except where a
/// single run already takes over a second (the kernel bench's scalar
/// oracle on the 1024³ product).
const REPEATS: usize = 5;

/// Runs keep coming until this much time is spent on a column, so the
/// sub-millisecond columns get hundreds of samples, not five.
const WINDOW_S: f64 = 0.3;

/// Windows a gated column may take to reach its floor: this box slows
/// every process by up to half for seconds at a time, so one slow window
/// is the box; [`WINDOWS`] in a row is the code.
const WINDOWS: usize = 3;

/// Seconds per run of one column: best, median and median absolute
/// deviation over `repeats` timed runs.
pub struct Timing {
    /// Fastest run.
    pub best_s: f64,
    /// Median run.
    pub median_s: f64,
    /// Median absolute deviation from the median.
    pub mad_s: f64,
    /// Timed runs taken.
    pub repeats: usize,
}

fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `f` after a warm-up run until both `REPEATS` runs and
/// `WINDOW_S` are spent — or keeps the warm-up as the only sample when
/// it alone took over a second. A column gated at `floor_s` seconds per
/// run gets up to `WINDOWS` such windows to produce one run that fast.
pub fn time_repeats(floor_s: Option<f64>, mut f: impl FnMut()) -> Timing {
    let mut run = || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut samples = vec![run()];
    if samples[0] <= 1.0 {
        samples.clear();
        let mut best = f64::INFINITY;
        for _ in 0..WINDOWS {
            let mut spent = 0.0;
            while samples.len() < REPEATS || spent < WINDOW_S {
                let s = run();
                samples.push(s);
                spent += s;
                best = best.min(s);
            }
            if floor_s.is_none_or(|floor| best <= floor) {
                break;
            }
        }
    }
    samples.sort_by(f64::total_cmp);
    let median_s = median(&samples);
    let mut deviations: Vec<f64> = samples.iter().map(|s| (s - median_s).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    Timing {
        best_s: samples[0],
        median_s,
        mad_s: median(&deviations),
        repeats: samples.len(),
    }
}
