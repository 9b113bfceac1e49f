//! The source rules; one module per rule.
//!
//! Both rules receive the full workspace (every [`SourceFile`]): V002
//! checks lock order across files and V006 searches every file for
//! callers. V005 reads manifests, not source, and lives in
//! [`crate::workspace`].

use crate::diag::{Diagnostic, LockGraph};
use crate::source::SourceFile;

pub mod v002;
pub mod v006;

/// Runs every rule over `files`, returning raw (pre-allow-filtering)
/// diagnostics per file index, plus the lock graph.
pub fn run_all(files: &[SourceFile]) -> (Vec<Vec<Diagnostic>>, LockGraph) {
    let mut per_file: Vec<Vec<Diagnostic>> = files.iter().map(|_| Vec::new()).collect();
    let graph = v002::check(files, &mut per_file);
    v006::check(files, &mut per_file);
    (per_file, graph)
}
