//! Diagnostics, the rule registry, and report rendering (text + JSON).

use std::fmt::Write as _;

/// Every rule id `vitcod-lint` can emit, including the directive
/// hygiene pseudo-rule `V000`.
pub const RULE_IDS: [&str; 6] = ["V000", "V001", "V002", "V003", "V004", "V005"];

/// One finding, printed as `file:line: [V00x] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`V001`…).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One edge of the lock-order graph: somewhere, `from` is held while
/// `to` is acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the inner acquisition.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Function the nesting occurs in.
    pub function: String,
}

/// The serve/transport lock-acquisition graph the V002 pass builds.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every lock identity seen (`file_stem.field`), sorted.
    pub nodes: Vec<String>,
    /// Nested-acquisition edges, in discovery order.
    pub edges: Vec<LockEdge>,
    /// Lock identities participating in an order cycle (empty = the
    /// graph is deadlock-free by construction).
    pub cycles: Vec<Vec<String>>,
}

/// Full analysis output.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics after allow directives were applied, sorted by file
    /// then line.
    pub diagnostics: Vec<Diagnostic>,
    /// The V002 lock graph.
    pub lock_graph: LockGraph,
    /// Files scanned.
    pub files_scanned: usize,
    /// Allow directives that suppressed a diagnostic.
    pub allows_used: usize,
}

impl Report {
    /// Renders the machine-readable JSON form (stable key order,
    /// no dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(&d.file),
                d.line,
                json_str(d.rule),
                json_str(&d.message)
            );
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"lock_graph\": {\"nodes\": [");
        for (i, n) in self.lock_graph.nodes.iter().enumerate() {
            let _ = write!(s, "{}{}", if i == 0 { "" } else { ", " }, json_str(n));
        }
        s.push_str("], \"edges\": [");
        for (i, e) in self.lock_graph.edges.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"function\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(&e.from),
                json_str(&e.to),
                json_str(&e.file),
                e.line,
                json_str(&e.function)
            );
        }
        s.push_str("], \"cycles\": [");
        for (i, c) in self.lock_graph.cycles.iter().enumerate() {
            let _ = write!(s, "{}[", if i == 0 { "" } else { ", " });
            for (j, n) in c.iter().enumerate() {
                let _ = write!(s, "{}{}", if j == 0 { "" } else { ", " }, json_str(n));
            }
            s.push(']');
        }
        let _ = write!(
            s,
            "]}},\n  \"files_scanned\": {},\n  \"allows_used\": {}\n}}",
            self.files_scanned, self.allows_used
        );
        s
    }

    /// Renders the lock graph as text.
    pub fn lock_graph_text(&self) -> String {
        let g = &self.lock_graph;
        let mut s = String::from("lock-order graph (serve/transport):\n");
        for n in &g.nodes {
            let _ = writeln!(s, "  node {n}");
        }
        if g.edges.is_empty() {
            s.push_str("  (no nested acquisitions: the order graph is trivially acyclic)\n");
        }
        for e in &g.edges {
            let _ = writeln!(
                s,
                "  edge {} -> {}  ({}:{} in {})",
                e.from, e.to, e.file, e.line, e.function
            );
        }
        if g.cycles.is_empty() {
            s.push_str("  cycles: none\n");
        } else {
            for c in &g.cycles {
                let _ = writeln!(s, "  CYCLE: {}", c.join(" -> "));
            }
        }
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `--explain` text for `rule`, or `None` for unknown ids.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "V000" => {
            "V000 — directive hygiene.\n\
             Every `// vitcod-lint: allow(V00x, reason)` directive must parse, name a known\n\
             rule, and state a non-empty reason (the invariant that makes the allowed code\n\
             safe). A directive that suppresses nothing is stale and reported too: allows\n\
             document living invariants, they are not a mute button."
        }
        "V001" => {
            "V001 — no panics in serving library code.\n\
             Scope: non-test library code of vitcod-serve, vitcod-transport, vitcod-engine.\n\
             Flags `.unwrap()`, `.expect(...)` (a file's own `self.expect(...)` parser\n\
             method is recognized and exempt), `panic!`, `todo!`, `unimplemented!` and\n\
             `unreachable!`. In vitcod-serve and vitcod-transport it additionally flags\n\
             scalar subscript indexing `a[i]` (range slicing `a[i..j]` is the parser idiom\n\
             and exempt). A panic on the serve path kills a worker's batch and with it the\n\
             determinism guarantees; recover (`unwrap_or_else(|e| e.into_inner())` for\n\
             poisoned locks), return a Result, or state the invariant in an allow."
        }
        "V002" => {
            "V002 — lock discipline in the serve/transport concurrency web.\n\
             Scope: non-test library code of vitcod-serve and vitcod-transport. Builds a\n\
             per-function lock-acquisition model (guards from zero-argument `.lock()`,\n\
             `.read()`, `.write()`; scope-tracked through `let` bindings, `drop(guard)`\n\
             and end-of-statement temporaries) and flags: (a) a guard held across a\n\
             blocking call — recv/recv_timeout/wait/wait_timeout/accept/connect/sleep/\n\
             join and buffer I/O (`.read(buf)`, `.write_all(..)`, `.flush()`),\n\
             except the condvar handoff where the guard itself is an argument; (b) cycles\n\
             in the inter-lock order graph (lock B acquired while holding A adds edge\n\
             A->B; any cycle is a potential deadlock). The analysis is intra-procedural:\n\
             helpers that block internally (`next_batch`, `wait_until`) are listed\n\
             explicitly. Run with --lock-graph to print the graph."
        }
        "V003" => {
            "V003 — backend-contract coverage.\n\
             Scope: public functions of vitcod_tensor::{kernels, sparse, quant} whose\n\
             signature involves `Backend`. `Backend` selects an algorithm only where two\n\
             exist, so today that is the `*_with` twins of the five two-algorithm ops\n\
             (matmul, matmul_nt, matmul_tn, transpose, int8_gemm) plus\n\
             `with_backend_override`; every other kernel has one algorithm and no\n\
             `Backend` in its signature. Every such entry point must be referenced by\n\
             name somewhere in crates/tensor/tests/ — the backend-agreement property\n\
             suites are what make \"fp32 bit-identical across Scalar and Fast\" a\n\
             checked contract rather than a hope. Adding a backend-dispatching kernel\n\
             without wiring it into the agreement tests fails this rule."
        }
        "V004" => {
            "V004 — determinism hygiene.\n\
             (a) No `==`/`!=` against a non-zero float literal in non-test library code\n\
             anywhere in the workspace (exact-zero sentinel tests on sparsity masks are\n\
             deliberate and exempt); (b) no `Instant::now()` or environment reads\n\
             (`env::var*`) in vitcod-tensor library code — kernels must be pure functions\n\
             of their inputs (one-time cached process configuration can be allowed with a\n\
             stated invariant); (c) no float reductions (`.sum()`/`.product()`) on a\n\
             `par_*` chain — parallel reduction order would break bit-identical results\n\
             across worker counts."
        }
        "V005" => {
            "V005 — unsafe-free by construction.\n\
             Every workspace crate root (src/lib.rs, src/main.rs, src/bin/*.rs of\n\
             non-vendored members) must carry `#![forbid(unsafe_code)]`, and the token\n\
             `unsafe` must not appear anywhere in workspace source, tests included\n\
             (comments and strings do not count — the check is token-level). Vendored\n\
             stand-ins under vendor/ are out of scope."
        }
        _ => return None,
    })
}
