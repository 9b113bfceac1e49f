//! Inline allow directives: `// vitcod-lint: allow(V00x, reason)`.
//!
//! A directive suppresses one rule on one line — the line it trails,
//! or, for a comment standing on its own line, the next line that
//! carries code. Every directive must state a reason: an allow is a
//! *documented invariant* ("infallible: length checked above"), not an
//! opt-out. Directives that fail to parse, name an unknown rule, omit
//! the reason, or suppress nothing are themselves diagnostics (`V000`),
//! so stale allows cannot accumulate.

use std::cell::Cell;

use crate::diag::{Diagnostic, RULE_IDS};
use crate::source::SourceFile;

/// One parsed allow directive.
#[derive(Debug)]
pub struct Allow {
    /// Rule being allowed (`V002`…).
    pub rule: String,
    /// The stated reason.
    pub reason: String,
    /// Line the directive applies to.
    pub applies_to: u32,
    /// Line the directive itself sits on.
    pub line: u32,
    /// Whether it suppressed at least one diagnostic.
    pub used: Cell<bool>,
}

/// Directive scan result: valid allows plus `V000` hygiene diagnostics.
#[derive(Debug, Default)]
pub struct Directives {
    /// Valid allows, in source order.
    pub allows: Vec<Allow>,
    /// Malformed-directive diagnostics.
    pub errors: Vec<Diagnostic>,
}

const MARKER: &str = "vitcod-lint:";

/// Scans `file`'s comments for directives.
pub fn scan(file: &SourceFile) -> Directives {
    let mut out = Directives::default();
    for comment in &file.lexed.comments {
        // Doc comments describe the directive syntax; only plain
        // comments carry live directives.
        let is_doc = comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(at) = comment.text.find(MARKER) else {
            continue;
        };
        let rest = comment.text[at + MARKER.len()..].trim();
        let err = |msg: String| Diagnostic {
            file: file.rel_path.clone(),
            line: comment.line,
            rule: "V000",
            message: msg,
        };
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        else {
            out.errors.push(err(format!(
                "malformed directive '{}': expected `vitcod-lint: allow(V00x, reason)`",
                rest.chars().take(60).collect::<String>()
            )));
            continue;
        };
        let Some((rule, reason)) = args.split_once(',') else {
            out.errors.push(err(
                "allow directive must carry a reason: `allow(V00x, reason)`".to_string(),
            ));
            continue;
        };
        let rule = rule.trim();
        let reason = reason.trim();
        if !RULE_IDS.contains(&rule) {
            out.errors.push(err(format!(
                "allow directive names unknown rule '{rule}' (known: {})",
                RULE_IDS.join(", ")
            )));
            continue;
        }
        if reason.is_empty() {
            out.errors.push(err(format!(
                "allow({rule}) directive must state a non-empty reason"
            )));
            continue;
        }
        let applies_to = if comment.has_code_before {
            comment.line
        } else {
            // A standalone directive comment governs the next code line.
            file.lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > comment.line)
                .unwrap_or(comment.line)
        };
        out.allows.push(Allow {
            rule: rule.to_string(),
            reason: reason.to_string(),
            applies_to,
            line: comment.line,
            used: Cell::new(false),
        });
    }
    out
}

/// Filters `diags`, consuming matching allows; appends a `V000` for
/// every allow that suppressed nothing.
pub fn apply(
    file: &SourceFile,
    directives: &Directives,
    diags: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut kept: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| {
            let allowed = directives
                .allows
                .iter()
                .find(|a| a.rule == d.rule && a.applies_to == d.line);
            if let Some(a) = allowed {
                a.used.set(true);
                false
            } else {
                true
            }
        })
        .collect();
    kept.extend(directives.errors.iter().cloned());
    for a in &directives.allows {
        if !a.used.get() {
            kept.push(Diagnostic {
                file: file.rel_path.clone(),
                line: a.line,
                rule: "V000",
                message: format!(
                    "unused allow({}) directive (line {} raises no {} diagnostic); remove it",
                    a.rule, a.applies_to, a.rule
                ),
            });
        }
    }
    kept
}
