//! `vitcod-analysis` — a dependency-free static analyzer for the
//! ViTCoD workspace, shipped as the `vitcod-lint` binary.
//!
//! The analyzer checks only what no `rustc` or clippy lint can say,
//! because these are *this codebase's* contracts, not the language's:
//!
//! | rule | contract |
//! |------|----------|
//! | V000 | every allow directive parses, names a rule, states a reason and suppresses something |
//! | V002 | lock discipline: no guard held across a blocking call, no lock-order cycles |
//! | V005 | every member manifest inherits the workspace lint table |
//! | V006 | every library `pub` item is named by some non-test code |
//!
//! The compiler carries the rest: `[workspace.lints]` forbids `unsafe`
//! and float `==`, the serving crates' roots deny `clippy::unwrap_used`
//! and the other panicking calls, and `crates/tensor/clippy.toml`
//! disallows the clock and the environment in kernels.
//!
//! The pipeline is a hand-rolled lexer ([`lexer`]) feeding a
//! lightweight item scanner ([`source`]); the source rules ([`rules`])
//! run over tokens plus recovered structure, and inline
//! `// vitcod-lint: allow(V00x, reason)` directives ([`directives`])
//! filter the result. V005 reads the manifests ([`workspace`]). See
//! [`diag::explain`] for the per-rule detail.

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
    diagnostics.sort();
    Report {
        diagnostics,
        lock_graph,
        files_scanned: files.len(),
        allows_used,
    }
}

/// Analyzes the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`): its manifests, then its sources.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let mut manifest_findings = Vec::new();
    let files = workspace::load_workspace(root, &mut manifest_findings)?;
    let mut report = analyze_files(&files);
    report.diagnostics.extend(manifest_findings);
    report.diagnostics.sort();
    Ok(report)
}
