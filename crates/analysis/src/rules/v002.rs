//! V002 — lock discipline: a static deadlock/race detector tuned to the
//! serve/transport concurrency web.
//!
//! Two checks run over every function body in `vitcod-serve` and
//! `vitcod-transport` library code:
//!
//! 1. **Guards across blocking calls.** A `MutexGuard`/`RwLock` guard
//!    held while the thread parks (`recv`, `wait_timeout` on *another*
//!    lock's condvar, `accept`, socket I/O, `sleep`, `next_batch`, …)
//!    stalls every other thread contending for that lock — the classic
//!    serving-tail-latency bug. The condvar handoff (`cv.wait(guard)`)
//!    is the one legitimate shape and is recognized by the guard
//!    appearing as a call argument.
//! 2. **Lock-order cycles.** Acquiring `B` while holding `A` adds the
//!    edge `A -> B` to a global order graph; any cycle (including the
//!    self-edge of re-acquiring a held lock) is a potential deadlock
//!    and is reported with the witness locations.
//!
//! Guard tracking is lexical but scope-aware: `let`-bound guards live
//! to the end of their block (or an explicit `drop(guard)`); temporary
//! guards live to the end of their statement — except in a `match`
//! scrutinee, where Rust keeps the temporary alive for the whole match
//! (the infamous extended-temporary deadlock), and so does this pass.

use crate::diag::{Diagnostic, LockEdge, LockGraph};
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, FnSpan, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose lock usage is modelled.
const LOCKED_CRATES: [&str; 2] = ["vitcod-serve", "vitcod-transport"];

/// Zero-argument methods that produce a guard.
const ACQUIRERS: [&str; 3] = ["lock", "read", "write"];

/// Calls that park the thread. `read`/`write`/`join` are contextual:
/// with arguments they are buffer I/O (blocking), with zero arguments
/// `read`/`write` are lock acquisitions and `join` is thread join
/// (blocking) vs `Path::join` (not). `next_batch` (the serve worker's
/// wait on the assembler) is this workspace's own parking helper: the
/// pass does not look inside callees, so it is listed by name.
const BLOCKING: [&str; 13] = [
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "accept",
    "connect",
    "sleep",
    "next_batch",
    "read_to_end",
    "read_exact",
];

/// Zero-argument blocking calls (`flush()`, `JoinHandle::join()`).
const BLOCKING_NO_ARGS: [&str; 2] = ["flush", "join"];

/// Blocking calls that require at least one argument (`stream.read(buf)`
/// vs the zero-argument `RwLock::read()`; `HttpClient::post` and
/// `post_with_header` are full request/response round trips on a
/// blocking socket, and `vitcod_obs::fetch_metrics` is a whole
/// connect-request-parse scrape).
const BLOCKING_WITH_ARGS: [&str; 6] = [
    "read",
    "write",
    "write_all",
    "post",
    "post_with_header",
    "fetch_metrics",
];

#[derive(Debug)]
struct Guard {
    lock: String,
    var: Option<String>,
    /// Brace depth the binding lives at (guards die when the walk
    /// leaves this depth); `None` for statement temporaries.
    block_depth: Option<u32>,
    /// For temporaries: token index past which the guard is dead
    /// (end of statement, or end of the enclosing `match`).
    dies_after: Option<usize>,
    line: u32,
}

pub(crate) fn check(files: &[SourceFile], out: &mut [Vec<Diagnostic>]) -> LockGraph {
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if file.kind != FileKind::Lib || !LOCKED_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for f in &file.functions {
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            if file.is_test(body_start) {
                continue;
            }
            scan_function(
                file,
                f,
                body_start,
                body_end,
                &mut nodes,
                &mut edges,
                &mut out[fi],
            );
        }
    }
    let cycles = find_cycles(&nodes, &edges);
    for cycle in &cycles {
        // Attach the cycle diagnostic to a witness edge on the cycle.
        if let Some(e) = edges
            .iter()
            .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to))
        {
            // Push onto the first scanned file's list that matches.
            for (fi, file) in files.iter().enumerate() {
                if file.rel_path == e.file {
                    out[fi].push(Diagnostic {
                        file: e.file.clone(),
                        line: e.line,
                        rule: "V002",
                        message: format!(
                            "lock-order cycle {}: these locks are acquired in \
                             conflicting orders somewhere in serve/transport — a \
                             potential deadlock (run with --lock-graph for the full graph)",
                            cycle.join(" -> ")
                        ),
                    });
                    break;
                }
            }
        }
    }
    LockGraph {
        nodes: nodes.into_iter().collect(),
        edges,
        cycles,
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_function(
    file: &SourceFile,
    f: &FnSpan,
    body_start: usize,
    body_end: usize,
    nodes: &mut BTreeSet<String>,
    edges: &mut Vec<LockEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.lexed.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt_start = body_start;
    for i in body_start..body_end.min(toks.len()) {
        let t = &toks[i];
        // Scope maintenance.
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                ";" | "{" | "}" => {
                    guards.retain(|g| match (g.block_depth, g.dies_after) {
                        // `let`-bound: dies with its block (below).
                        (Some(_), _) => true,
                        // Match-scrutinee temporary: extended lifetime.
                        (None, Some(end)) => i < end,
                        // Statement temporary: dead at this boundary.
                        (None, None) => false,
                    });
                    if t.is("}") {
                        // Leaving a block kills its `let`-bound guards.
                        let depth_after = file.depth[i];
                        guards.retain(|g| match g.block_depth {
                            Some(d) => depth_after >= d,
                            None => true,
                        });
                    }
                    stmt_start = i + 1;
                    continue;
                }
                _ => {}
            }
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        // Explicit `drop(guard)`.
        if t.is("drop") && toks.get(i + 1).is_some_and(|n| n.is("(")) {
            if let Some(arg) = toks.get(i + 2) {
                guards.retain(|g| g.var.as_deref() != Some(arg.text.as_str()));
            }
            continue;
        }
        let is_method = i > 0 && toks[i - 1].is(".");
        let open_paren = toks.get(i + 1).is_some_and(|n| n.is("("));
        if !open_paren {
            continue;
        }
        let (arg_idents, has_args, call_end) = call_args(toks, i + 1);
        // Lock acquisition: zero-argument `.lock()` / `.read()` /
        // `.write()`.
        if is_method && ACQUIRERS.contains(&t.text.as_str()) && !has_args {
            let lock = lock_identity(file, toks, i);
            nodes.insert(lock.clone());
            for g in &guards {
                if g.lock != lock {
                    edges.push(LockEdge {
                        from: g.lock.clone(),
                        to: lock.clone(),
                        file: file.rel_path.clone(),
                        line: t.line,
                        function: f.name.clone(),
                    });
                } else {
                    out.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: t.line,
                        rule: "V002",
                        message: format!(
                            "`{}` re-acquired while already held (guard from line {}): \
                             self-deadlock on a Mutex, writer starvation on an RwLock",
                            lock, g.line
                        ),
                    });
                }
            }
            guards.push(new_guard(file, toks, i, stmt_start, lock, t.line));
            continue;
        }
        // Blocking call while holding a guard?
        let blocking = BLOCKING.contains(&t.text.as_str())
            || (BLOCKING_NO_ARGS.contains(&t.text.as_str()) && !has_args && is_method)
            || (BLOCKING_WITH_ARGS.contains(&t.text.as_str()) && has_args && is_method);
        if blocking && !guards.is_empty() {
            // The condvar handoff: the guard itself rides into the call.
            let consumes_guard = guards
                .iter()
                .any(|g| g.var.as_deref().is_some_and(|v| arg_idents.contains(v)));
            if !consumes_guard {
                for g in &guards {
                    out.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: t.line,
                        rule: "V002",
                        message: format!(
                            "guard on `{}` (acquired line {}) held across blocking \
                             call `{}`; drop the guard first — every thread contending \
                             for that lock stalls behind this wait",
                            g.lock, g.line, t.text
                        ),
                    });
                }
            }
        }
        let _ = call_end;
    }
}

/// Collects the top-level argument identifiers of the call whose `(`
/// sits at `open`; returns (idents, any_args, index_past_close).
fn call_args(toks: &[Token], open: usize) -> (BTreeSet<String>, bool, usize) {
    let mut idents = BTreeSet::new();
    let mut depth = 0i32;
    let mut has_args = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is("(") || t.is("[") || t.is("{") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth >= 1 {
            has_args = true;
            if t.kind == TokenKind::Ident {
                idents.insert(t.text.clone());
            }
        }
        j += 1;
    }
    (idents, has_args, j + 1)
}

/// Lock identity of the acquisition at token `i` (the `lock`/`read`/
/// `write` ident): `file_stem.field`, where `field` is the receiver's
/// final field name — unifying `self.state.lock()` and
/// `self.inner.state.lock()` onto one identity per file.
fn lock_identity(file: &SourceFile, toks: &[Token], i: usize) -> String {
    let field = if i >= 2 {
        let prev = &toks[i - 2];
        if prev.kind == TokenKind::Ident && !prev.is("self") {
            prev.text.clone()
        } else if prev.is(")") {
            // `…get_or_init(||…).lock()` — name by the method called.
            let mut depth = 0i32;
            let mut j = i - 2;
            loop {
                if toks[j].is(")") {
                    depth += 1;
                } else if toks[j].is("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            toks.get(j.wrapping_sub(1))
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "anon".to_string())
        } else {
            "anon".to_string()
        }
    } else {
        "anon".to_string()
    };
    format!("{}.{}", file.file_stem(), field)
}

/// Builds the guard for the acquisition at token `i`, inferring its
/// scope from the statement shape.
fn new_guard(
    file: &SourceFile,
    toks: &[Token],
    i: usize,
    stmt_start: usize,
    lock: String,
    line: u32,
) -> Guard {
    // `let [mut] NAME = …` (or `let (A, B) = …`) binding? A deref
    // initializer (`let v = *x.lock()…`) copies the value out — the
    // guard itself is a statement temporary, not bound to `v`.
    let mut var = None;
    let mut k = stmt_start;
    while k < i {
        if toks[k].is("let") {
            let mut v = k + 1;
            while toks.get(v).is_some_and(|t| t.is("mut") || t.is("(")) {
                v += 1;
            }
            if let Some(name) = toks.get(v).filter(|t| t.kind == TokenKind::Ident) {
                let mut eq = v;
                let derefed = loop {
                    match toks.get(eq) {
                        Some(t) if t.is("=") => {
                            break toks.get(eq + 1).is_some_and(|n| n.is("*"));
                        }
                        Some(_) if eq < i => eq += 1,
                        _ => break false,
                    }
                };
                if !derefed {
                    var = Some(name.text.clone());
                }
            }
            break;
        }
        k += 1;
    }
    if var.is_some() {
        return Guard {
            lock,
            var,
            block_depth: Some(file.depth[i]),
            dies_after: None,
            line,
        };
    }
    // Temporary. In a `match` scrutinee, Rust extends the temporary to
    // the end of the match — model that, it is the classic
    // extended-borrow deadlock.
    let in_match = (stmt_start..i).any(|k| toks[k].is("match"));
    let dies_after = if in_match {
        // Find the match block's `{` and brace-match it.
        let mut j = i;
        while j < toks.len() && !toks[j].is("{") {
            j += 1;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is("{") {
                depth += 1;
            } else if toks[j].is("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        Some(j + 1)
    } else {
        // Dead at the next statement boundary (the scan drops it at the
        // next `;`/`{`/`}` it walks over).
        None
    };
    Guard {
        lock,
        var: None,
        block_depth: None,
        dies_after,
        line,
    }
}

/// Finds elementary cycles in the order graph (DFS back-edge walk; the
/// graph is tiny, so simplicity beats Johnson's algorithm).
fn find_cycles(nodes: &BTreeSet<String>, edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for start in nodes.iter().map(String::as_str) {
        if done.contains(start) {
            continue;
        }
        let mut stack: Vec<&str> = vec![start];
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        // Iterative DFS with an explicit edge stack.
        let mut iter_stack: Vec<(&str, Vec<&str>)> = vec![(
            start,
            adj.get(start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
        )];
        path.push(start);
        on_path.insert(start);
        while let Some((node, succs)) = iter_stack.last_mut() {
            if let Some(next) = succs.pop() {
                if on_path.contains(next) {
                    // Back edge: record the cycle slice.
                    let pos = path.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        path[pos..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    if !cycles.iter().any(|c| same_cycle(c, &cycle)) {
                        cycles.push(cycle);
                    }
                } else if !done.contains(next) {
                    path.push(next);
                    on_path.insert(next);
                    iter_stack.push((
                        next,
                        adj.get(next)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default(),
                    ));
                }
            } else {
                let node = *node;
                done.insert(node);
                on_path.remove(node);
                path.pop();
                iter_stack.pop();
            }
        }
        let _ = stack.pop();
    }
    cycles
}

/// Whether two cycle paths denote the same rotation-invariant cycle.
fn same_cycle(a: &[String], b: &[String]) -> bool {
    let strip = |c: &[String]| -> BTreeSet<String> { c.iter().cloned().collect() };
    strip(a) == strip(b)
}
