#![forbid(unsafe_code)]
//! `vitcod-analysis` — a dependency-free static analyzer for the
//! ViTCoD workspace, shipped as the `vitcod-lint` binary.
//!
//! The analyzer enforces the project's cross-cutting invariants —
//! the ones `rustc` and clippy cannot see because they are *this
//! codebase's* contracts, not the language's:
//!
//! | rule | contract |
//! |------|----------|
//! | V001 | serving library code never panics |
//! | V002 | lock discipline: no guard held across a blocking call, no lock-order cycles |
//! | V004 | determinism hygiene: no float `==`, no wall clock/env in kernels |
//! | V005 | `#![forbid(unsafe_code)]` everywhere, zero `unsafe` tokens |
//! | V006 | every library `pub` item is named by some non-test code |
//!
//! The pipeline is a hand-rolled lexer ([`lexer`]) feeding a
//! lightweight item scanner ([`source`]); rules ([`rules`]) run over
//! tokens plus recovered structure, and inline
//! `// vitcod-lint: allow(V00x, reason)` directives ([`directives`])
//! filter the result. See [`diag::explain`] for the per-rule detail.

pub mod diag;
pub mod directives;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

use std::io;
use std::path::Path;

pub use diag::{Diagnostic, LockEdge, LockGraph, Report};
pub use source::{FileKind, SourceFile};

/// Analyzes pre-built [`SourceFile`]s (the fixture-test entry point).
pub fn analyze_files(files: &[SourceFile]) -> Report {
    let (per_file, lock_graph) = rules::run_all(files);
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut allows_used = 0usize;
    for (file, raw) in files.iter().zip(per_file) {
        // Caller-only input feeds V006's reference count; nothing is
        // reported on it, stale allows included.
        if file.kind == FileKind::CallerOnly {
            continue;
        }
        let directives = directives::scan(file);
        diagnostics.extend(directives::apply(file, &directives, raw));
        allows_used += directives.allows.iter().filter(|a| a.used.get()).count();
    }
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        diagnostics,
        lock_graph,
        files_scanned: files.len(),
        allows_used,
    }
}

/// Analyzes the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
pub fn analyze(root: &Path) -> io::Result<Report> {
    let files = workspace::load_workspace(root)?;
    Ok(analyze_files(&files))
}
