//! Diagnostics, the rule registry, and report rendering (text + JSON).

use std::fmt::Write as _;

/// Every rule id `vitcod-lint` can emit, including the directive
/// hygiene pseudo-rule `V000`. The retired V001 and V004 are clippy
/// lints now, so an allow naming them is an unknown rule.
pub const RULE_IDS: [&str; 4] = ["V000", "V002", "V005", "V006"];

/// One finding, printed as `file:line: [V00x] message`. Findings sort
/// by file, then line, then rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`V002`…).
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
             a helper that blocks internally (`next_batch`) is listed explicitly.\n\
             Run with --lock-graph to print the graph."
        }
        "V005" => {
            "V005 — every member inherits the workspace lint table.\n\
             Every non-vendored member manifest, the root facade's included, must carry\n\
             `[lints] workspace = true`. That table holds `unsafe_code = \"forbid\"`,\n\
             `float_cmp` and the other workspace lints, and rustc and clippy apply it, to\n\
             library and test builds alike, only in the crates that opt in: the opt-in is\n\
             the one part of the policy no compiler lint sees. Reported on line 1 of the\n\
             manifest. Vendored stand-ins under vendor/ are out of scope."
        }
        "V006" => {
            "V006 — dead public surface.\n\
             Scope: plain-`pub` `fn` (free or method), `struct`, `enum`, `trait`, `type`,\n\
             `const` and `static` items in the non-test src/ of library crates (binaries and\n\
             `pub(crate)` are rustc's). An item is alive when a non-test token anywhere names\n\
             it: any crate's src/, examples/ or benches/, the root facade, or the frozen\n\
             benchmark/src/ (read as callers only; nothing is reported there). Not callers:\n\
             `use` / `pub use` paths (a re-export calls nothing), the defining name, and a\n\
             mention inside an item of the same name (its own body, definition or `impl`\n\
             block), so a same-name delegation chain with no outside caller is reported\n\
             link by link. An item named only by tests/, `#[cfg(test)]` or `#[test]` code is\n\
             reported as test-only; doc comments are not tokens, so a doctest is no caller.\n\
             Delete what it finds, move test helpers into the tests, or allow an item that\n\
             is public on purpose with the reason. The check is by name: a same-named item\n\
             elsewhere keeps it alive."
        }
        _ => return None,
    })
}
