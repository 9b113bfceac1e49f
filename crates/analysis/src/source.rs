//! The per-file source model the rules run over: lexed tokens plus the
//! structural facts a lightweight item/block scanner can recover —
//! brace depth per token, which tokens sit inside `#[cfg(test)]` /
//! `#[test]` regions or attributes, and every `fn` item's signature and
//! body span.

use crate::lexer::{lex, Lexed, TokenKind};

/// Where a file sits in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source under `src/`.
    Lib,
    /// Test, bench or example code (`tests/`, `benches/`, `examples/`):
    /// V002 skips it, and V006 reads it only for callers.
    TestCode,
    /// Source outside the workspace read only for its references (the
    /// frozen benchmark harness): V006 counts its tokens as callers,
    /// and no rule reports on it.
    CallerOnly,
}

/// One `fn` item (free function or method).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Whether the item carries `pub`.
    pub is_pub: bool,
    /// Token range `[start, end)` of the signature (from `fn` to the
    /// body's `{` or the trailing `;`).
    pub sig: (usize, usize),
    /// Token range `[start, end)` of the body, brackets included;
    /// `None` for bodyless trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// One analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Owning crate's package name (e.g. `vitcod-serve`).
    pub crate_name: String,
    /// Library or test-code classification.
    pub kind: FileKind,
    /// Lexed tokens and comments.
    pub lexed: Lexed,
    /// Brace depth per token (depth *before* the token takes effect, so
    /// an opening `{` carries the depth outside it).
    pub depth: Vec<u32>,
    /// Whether each token sits inside a `#[cfg(test)]` item or a
    /// `#[test]`/`#[bench]` function.
    pub test_mask: Vec<bool>,
    /// Whether each token sits inside an `#[...]` attribute.
    pub attr_mask: Vec<bool>,
    /// Every `fn` item found, outermost first.
    pub functions: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes and scans `text`.
    pub fn new(rel_path: &str, crate_name: &str, kind: FileKind, text: &str) -> Self {
        let lexed = lex(text);
        let depth = brace_depths(&lexed);
        let attr_mask = attr_mask(&lexed);
        let test_mask = test_mask(&lexed, &attr_mask);
        let functions = scan_functions(&lexed, &attr_mask);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            lexed,
            depth,
            test_mask,
            attr_mask,
            functions,
        }
    }

    /// Whether the token at `i` is test code (a test file, or inside a
    /// `#[cfg(test)]`/`#[test]` region).
    pub fn is_test(&self, i: usize) -> bool {
        self.kind == FileKind::TestCode || self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// The file's base name (`lib.rs`, `kernels.rs`, …).
    pub fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(&self.rel_path)
    }

    /// The file's stem (`kernels` for `kernels.rs`), used to qualify
    /// lock identities.
    pub fn file_stem(&self) -> &str {
        self.file_name()
            .strip_suffix(".rs")
            .unwrap_or(self.file_name())
    }
}

fn brace_depths(lexed: &Lexed) -> Vec<u32> {
    let mut depth = 0u32;
    lexed
        .tokens
        .iter()
        .map(|t| {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        let d = depth;
                        depth += 1;
                        return d;
                    }
                    "}" => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            depth
        })
        .collect()
}

/// Marks tokens inside `#[...]` / `#![...]` attributes.
fn attr_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is("#") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is("!") {
                j += 1;
            }
            if j < toks.len() && toks[j].is("[") {
                // Bracket-match the attribute body.
                let mut depth = 0i32;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is("[") {
                        depth += 1;
                    } else if toks[k].is("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take((k + 1).min(toks.len())).skip(i) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Whether the attribute starting at token `i` (`#`) is `#[cfg(test)]`
/// or `#[test]`/`#[bench]`; returns the token index just past `]`.
fn classify_attr(lexed: &Lexed, i: usize) -> Option<(bool, usize)> {
    let toks = &lexed.tokens;
    if !toks.get(i)?.is("#") || !toks.get(i + 1)?.is("[") {
        return None;
    }
    let mut depth = 0i32;
    let mut k = i + 1;
    while k < toks.len() {
        if toks[k].is("[") {
            depth += 1;
        } else if toks[k].is("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        k += 1;
    }
    let body: Vec<&str> = toks[i + 2..k.min(toks.len())]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    let is_test_attr = matches!(body.as_slice(), ["test"] | ["bench"])
        || (body.len() >= 4 && body[0] == "cfg" && body.contains(&"test"));
    Some((is_test_attr, k + 1))
}

/// Marks tokens inside items annotated `#[cfg(test)]` (typically
/// `mod tests { … }`) and inside `#[test]` functions.
fn test_mask(lexed: &Lexed, attr_mask: &[bool]) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let Some((is_test_attr, mut j)) = classify_attr(lexed, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while let Some((_, next)) = classify_attr(lexed, j) {
            j = next;
        }
        // Find the item's body: first `{` at bracket/paren depth 0, or
        // give up at a `;` (e.g. `mod tests;`).
        let mut pb = 0i32;
        let mut k = j;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" | "[" => pb += 1,
                ")" | "]" => pb -= 1,
                "{" if pb == 0 => break,
                ";" if pb == 0 => {
                    k = toks.len();
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            i = j;
            continue;
        }
        // Brace-match the body and mask it.
        let mut depth = 0i32;
        let mut end = k;
        while end < toks.len() {
            if toks[end].is("{") {
                depth += 1;
            } else if toks[end].is("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        for m in mask.iter_mut().take((end + 1).min(toks.len())).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    let _ = attr_mask;
    mask
}

/// Finds every `fn` item (free functions and methods at any depth).
fn scan_functions(lexed: &Lexed, attr_mask: &[bool]) -> Vec<FnSpan> {
    let toks = &lexed.tokens;
    let mut fns = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || !toks[i].is("fn") || attr_mask[i] {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Look back over qualifiers for `pub` (`pub fn`, `pub(crate)
        // fn`, `pub async unsafe extern "C" fn`).
        let mut back = i;
        let mut is_pub = false;
        while back > 0 {
            back -= 1;
            match toks[back].text.as_str() {
                "pub" => {
                    is_pub = true;
                    break;
                }
                "async" | "const" | "unsafe" | "extern" | ")" | "(" | "crate" | "super" | "in" => {
                    continue
                }
                _ => {
                    if toks[back].kind == TokenKind::StrLit {
                        continue; // extern "C"
                    }
                    break;
                }
            }
        }
        // Scan the signature: to the body's `{` at paren/bracket depth
        // 0, or to `;` (trait method without a body).
        let mut pb = 0i32;
        let mut k = i + 2;
        let mut body = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" | "[" => pb += 1,
                ")" | "]" => pb -= 1,
                "{" if pb == 0 => {
                    // Brace-match the body.
                    let mut depth = 0i32;
                    let mut end = k;
                    while end < toks.len() {
                        if toks[end].is("{") {
                            depth += 1;
                        } else if toks[end].is("}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        end += 1;
                    }
                    body = Some((k, (end + 1).min(toks.len())));
                    break;
                }
                ";" if pb == 0 => break,
                _ => {}
            }
            k += 1;
        }
        fns.push(FnSpan {
            name: name_tok.text.clone(),
            is_pub,
            sig: (i, k),
            body,
            line: toks[i].line,
        });
    }
    fns
}
