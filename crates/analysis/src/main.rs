//! `vitcod-lint` — the workspace static analyzer CLI.
//!
//! ```text
//! vitcod-lint [--root DIR] [--deny-all] [--format text|json] [--lock-graph]
//! vitcod-lint --explain V00x
//! ```
//!
//! Exit codes: 0 clean (or findings without `--deny-all`), 1 findings
//! under `--deny-all`, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    deny_all: bool,
    json: bool,
    lock_graph: bool,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "usage: vitcod-lint [--root DIR] [--deny-all] [--format text|json] [--lock-graph]\n\
     \x20      vitcod-lint --explain V00x\n\
     \n\
     Checks the ViTCoD workspace invariants V000, V002, V005 and V006 (see --explain).\n\
     --root DIR     workspace root (default: auto-detect from CWD)\n\
     --deny-all     exit 1 if any diagnostic remains after allows\n\
     --format FMT   text (default) or json\n\
     --lock-graph   print the serve/transport lock-order graph\n\
     --explain ID   describe one rule and exit"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::new(),
        deny_all: false,
        json: false,
        lock_graph: false,
        explain: None,
    };
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--lock-graph" => opts.lock_graph = true,
            "--root" => {
                let v = args.next().ok_or("--root requires a directory")?;
                root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = args.next().ok_or("--format requires text or json")?;
                match v.as_str() {
                    "json" => opts.json = true,
                    "text" => opts.json = false,
                    other => return Err(format!("unknown format '{other}'")),
                }
            }
            "--explain" => {
                let v = args
                    .next()
                    .ok_or("--explain requires a rule id (V000, V002, V005 or V006)")?;
                opts.explain = Some(v);
            }
            "--help" | "-h" => return Err(String::new()),
            other => {
                if let Some(fmt) = other.strip_prefix("--format=") {
                    match fmt {
                        "json" => opts.json = true,
                        "text" => opts.json = false,
                        _ => return Err(format!("unknown format '{fmt}'")),
                    }
                } else {
                    return Err(format!("unknown argument '{other}'"));
                }
            }
        }
    }
    opts.root = match root {
        Some(r) => r,
        None => find_root()?,
    };
    Ok(opts)
}

/// Walks up from the CWD to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read CWD: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the CWD; pass --root".to_string());
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &opts.explain {
        return match vitcod_analysis::diag::explain(rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "error: unknown rule '{rule}' (known: {})",
                    vitcod_analysis::diag::RULE_IDS.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    let report = match vitcod_analysis::analyze(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        if opts.lock_graph {
            print!("{}", report.lock_graph_text());
        }
        eprintln!(
            "vitcod-lint: {} file(s) scanned, {} diagnostic(s), {} allow(s) used, \
             lock graph: {} node(s) / {} edge(s) / {} cycle(s)",
            report.files_scanned,
            report.diagnostics.len(),
            report.allows_used,
            report.lock_graph.nodes.len(),
            report.lock_graph.edges.len(),
            report.lock_graph.cycles.len()
        );
    }
    if opts.deny_all && !report.diagnostics.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
