//! The benchmark of record for the ViTCoD reproduction: seven
//! workloads, six end-to-end metrics every workload reports, per-crate
//! layer metrics, and a trace recorded from outside the product.
//! README.md in this directory says how to run it and how to read it.

#![forbid(unsafe_code)]

mod compare;
mod metrics;
mod models;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::WORKLOADS;
use run::RunArgs;

/// `vitcod_bench::WORKLOAD_SEED`.
const DEFAULT_SEED: u64 = 45223;
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
      one run of one workload; the last line of standard output is the result
  benchmark [all] [--seed N] [--seconds S] [--repeat K] [--workload NAME]... [--out DIR]
      every workload (or the named ones) untraced K times, then traced;
      writes DIR/results.json and DIR/trace.NAME.json
  benchmark --smoke
      `all` with one-second windows: every check on, a few seconds a workload
  benchmark compare A/results.json B/results.json
      one row per end-to-end metric and workload; exits 1 on a regression
  benchmark describe [--markdown]
      BENCHMARK.json (or the README's tables) from the declared metrics";

struct Cli {
    command: Option<String>,
    positional: Vec<String>,
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    markdown: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        positional: Vec::new(),
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: None,
        markdown: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                cli.workloads.push(known.name);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--markdown" => cli.markdown = true,
            "--smoke" => cli.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if cli.command.is_none() => cli.command = Some(word.to_string()),
            word => cli.positional.push(word.to_string()),
        }
    }
    Ok(cli)
}

/// Where outputs go unless `--out` says otherwise: beside the
/// executable, so inside the build directory, which git ignores.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("benchmark-out")
}

/// One run in this process; prints the `detail` line and the result line.
fn single(cli: &Cli, workload: &'static str, out: &Path) -> ExitCode {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.trace,
        out_dir: out,
    };
    match workloads::dispatch(&args) {
        Ok(outcome) => {
            println!("{}", outcome.detail);
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

fn environment_json() -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sse42 = cfg!(target_feature = "sse4.2");
    format!(
        "{{\"nproc\": {nproc}, \"thread_budget\": {}, \"backend\": \"{}\", \"rustc\": \"{rustc}\", \"target_feature_sse4.2\": {sse42}}}",
        vitcod_tensor::kernels::num_threads(),
        vitcod_tensor::kernels::backend(),
    )
}

const CAVEATS: [&str; 4] = [
    "single compute thread (VITCOD_NUM_THREADS=1): fan-out and thread scaling are not measured",
    "deit_tiny at depth 1 stands in for DeiT-Tiny on the serve workloads, and at depth 3 on train_sparse_step",
    "bench.cpu_s_per_item assumes the kernel's 100 clock ticks per second",
    "timings of record are 10th percentiles: the box slows every process by 40-50 % for seconds at a time",
];

/// Every workload in a child process each: a cold process, its own
/// peak memory, and nothing left running between workloads.
fn all(cli: &Cli, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let names: Vec<&str> = if cli.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        cli.workloads.clone()
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    for name in names {
        let passes = std::iter::repeat_n(false, cli.repeat.max(1)).chain([true]);
        for traced in passes {
            let output = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(out)
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().unwrap_or("");
            let detail = lines
                .pop()
                .and_then(|l| l.strip_prefix("detail "))
                .unwrap_or("{}");
            for line in &lines {
                println!("{line}");
            }
            if !output.status.success() || !result.starts_with('{') {
                all_ok = false;
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                eprintln!(
                    "benchmark: {name} (trace {}) failed: {}",
                    u8::from(traced),
                    output.status
                );
                continue;
            }
            // Merge the two objects the child printed into one run record.
            runs.push(format!(
                "{}, {}",
                detail.trim_end_matches('}'),
                result.trim_start_matches('{')
            ));
        }
    }
    let caveats: Vec<String> = CAVEATS.iter().map(|c| format!("\"{c}\"")).collect();
    let results = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"environment\": {}, \"caveats\": [{}], \"runs\": [\n{}\n]}}\n",
        cli.seed,
        cli.seconds,
        environment_json(),
        caveats.join(", "),
        runs.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results -> {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    // One compute thread, so that it and the one or two mostly sleeping
    // harness threads fit the machine; read once by the kernel layer,
    // before any thread exists. VITCOD_BACKEND stays the product's default.
    std::env::set_var("VITCOD_NUM_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = cli.out.clone().unwrap_or_else(default_out);
    if cli.smoke {
        cli.command = Some("all".into());
        cli.seconds = SMOKE_SECONDS;
    }
    match cli.command.as_deref() {
        None if cli.workloads.len() == 1 => single(&cli, cli.workloads[0], &out),
        None | Some("all") => match all(&cli, &out) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("benchmark: {why}");
                ExitCode::FAILURE
            }
        },
        Some("compare") => match cli.positional.as_slice() {
            [a, b] => match compare::compare(a, b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(why) => {
                    eprintln!("benchmark: {why}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("describe") => {
            if cli.markdown {
                print!("{}", metrics::markdown_tables());
            } else {
                print!("{}", metrics::benchmark_json(RUN_SECONDS));
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("benchmark: unknown command {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
