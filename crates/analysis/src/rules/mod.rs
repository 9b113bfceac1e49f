//! The project-specific rule set; one module per rule.
//!
//! Rules receive the full workspace (every [`SourceFile`]) so that
//! cross-file rules (V002's global cycle check, V006's caller search)
//! and per-file rules share one entry point.

use crate::diag::{Diagnostic, LockGraph};
use crate::source::SourceFile;

pub mod v001;
pub mod v002;
pub mod v004;
pub mod v005;
pub mod v006;

/// Runs every rule over `files`, returning raw (pre-allow-filtering)
/// diagnostics per file index, plus the lock graph.
pub fn run_all(files: &[SourceFile]) -> (Vec<Vec<Diagnostic>>, LockGraph) {
    let mut per_file: Vec<Vec<Diagnostic>> = files.iter().map(|_| Vec::new()).collect();
    for (i, file) in files.iter().enumerate() {
        v001::check(file, &mut per_file[i]);
        v004::check(file, &mut per_file[i]);
        v005::check_file(file, &mut per_file[i]);
    }
    let graph = v002::check(files, &mut per_file);
    v006::check(files, &mut per_file);
    (per_file, graph)
}

/// Rust keywords that can directly precede `[` without forming a
/// subscript expression.
pub(crate) const KEYWORDS: [&str; 28] = [
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "use", "while",
];
