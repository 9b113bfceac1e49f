//! V006 — dead public surface.
//!
//! A `pub` item in a library crate's `src/` that nothing outside tests
//! names is either dead or a test helper in the wrong place. The check
//! is by name: an item is alive when some non-test token
//! anywhere in the workspace (or in the frozen benchmark harness, read
//! as [`FileKind::CallerOnly`]) spells its identifier. Three kinds of
//! mention are not callers: a `use` / `pub use` path (a re-export
//! calls nothing), the name being defined, and a mention inside an item
//! of the same name — a function's own body, a type's own definition
//! or `impl` block — which is what lets a same-name delegation chain
//! (`Tape::relu` → `Matrix::relu` → `ops::relu`) be found as one.
//! `pub(crate)` items are rustc's to report; binaries' items too.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};

/// Keywords that introduce a named item the rule covers.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Keywords whose next identifier is a definition, not a mention.
const DEFINING_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

pub(crate) fn check(files: &[SourceFile], out: &mut [Vec<Diagnostic>]) {
    let mut callers: BTreeSet<&str> = BTreeSet::new();
    let mut tested: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        let toks = &file.lexed.tokens;
        let own = own_regions(file);
        let in_use = use_mask(toks);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || file.attr_mask[i]
                || in_use[i]
                || (i > 0 && DEFINING_KEYWORDS.contains(&toks[i - 1].text.as_str()))
                || own
                    .get(t.text.as_str())
                    .is_some_and(|spans| spans.iter().any(|&(s, e)| s <= i && i < e))
            {
                continue;
            }
            if is_test_token(file, i) {
                tested.insert(t.text.as_str());
            } else {
                callers.insert(t.text.as_str());
            }
        }
    }
    for (fi, file) in files.iter().enumerate() {
        if !is_library_source(file) {
            continue;
        }
        for (i, name) in pub_items(&file.lexed.tokens) {
            if file.is_test(i) || callers.contains(name) {
                continue;
            }
            let message = if tested.contains(name) {
                format!(
                    "pub `{name}` is named only by tests; move it into the test that \
                     uses it, or allow it with the reason it is public"
                )
            } else {
                format!(
                    "pub `{name}` is named by no code outside its own definition; delete \
                     it, or allow it with the reason it is public"
                )
            };
            out[fi].push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.lexed.tokens[i].line,
                rule: "V006",
                message,
            });
        }
    }
}

/// Test code for this rule: a file under a `tests/` directory, or a
/// `#[cfg(test)]` / `#[test]` region anywhere. Examples and benches
/// are callers.
fn is_test_token(file: &SourceFile, i: usize) -> bool {
    file.test_mask[i]
        || (file.kind == FileKind::TestCode && file.rel_path.split('/').any(|c| c == "tests"))
}

/// A library crate's `src/`: not a test file, not caller-only input and
/// not a binary (`src/main.rs`, `src/bin/`).
fn is_library_source(file: &SourceFile) -> bool {
    file.kind == FileKind::Lib
        && !file.rel_path.ends_with("src/main.rs")
        && !file.rel_path.contains("src/bin/")
}

/// `(index of pub, item name)` for every plain-`pub` covered item.
fn pub_items(toks: &[Token]) -> Vec<(usize, &str)> {
    let mut items = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is("pub") || toks.get(i + 1).is_some_and(|t| t.is("(")) {
            continue;
        }
        let mut k = i + 1;
        while let Some(t) = toks.get(k) {
            let qualifier = t.is("async")
                || t.is("unsafe")
                || t.is("extern")
                || t.kind == TokenKind::StrLit
                || (t.is("const") && toks.get(k + 1).is_some_and(|n| n.is("fn")));
            if !qualifier {
                break;
            }
            k += 1;
        }
        let (Some(kw), Some(name)) = (toks.get(k), toks.get(k + 1)) else {
            continue;
        };
        if ITEM_KEYWORDS.contains(&kw.text.as_str()) && name.kind == TokenKind::Ident {
            items.push((i, name.text.as_str()));
        }
    }
    items
}

/// Marks the tokens of every `use` declaration, `use` to `;`.
fn use_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Ident && t.is("use") {
            in_use = true;
        }
        mask[i] = in_use;
        if in_use && t.is(";") {
            in_use = false;
        }
    }
    mask
}

/// Token ranges `[start, end)` that belong to an item, keyed by the
/// item's name: every `fn` (from the item scanner), every other covered
/// definition, and every `impl` block under its self type's name.
fn own_regions(file: &SourceFile) -> BTreeMap<&str, Vec<(usize, usize)>> {
    let toks = &file.lexed.tokens;
    let mut regions: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for f in &file.functions {
        let end = f.body.map_or(f.sig.1, |b| b.1);
        regions
            .entry(&toks[f.sig.0 + 1].text)
            .or_default()
            .push((f.sig.0, end));
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.attr_mask[i] {
            continue;
        }
        if t.is("impl") && starts_item(toks, i) {
            if let Some((name, end)) = impl_block(toks, i) {
                regions.entry(name).or_default().push((i, end));
            }
        } else if !t.is("fn") && ITEM_KEYWORDS.contains(&t.text.as_str()) {
            let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
                continue;
            };
            let braced = matches!(t.text.as_str(), "struct" | "enum" | "trait");
            regions
                .entry(&name.text)
                .or_default()
                .push((i, item_end(toks, i, braced)));
        }
    }
    regions
}

/// Whether the token at `i` begins an item (so `impl` is an impl block,
/// not `impl Trait` in type position).
fn starts_item(toks: &[Token], i: usize) -> bool {
    i == 0 || ["}", ";", "{", "]"].contains(&toks[i - 1].text.as_str())
}

/// End (exclusive) of the item whose keyword is at `i`: its closing
/// `}` when `braced` and a body opens first, else its `;`.
fn item_end(toks: &[Token], i: usize, braced: bool) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(i) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 && braced && t.is("}") {
                    return k + 1;
                }
            }
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    toks.len()
}

/// The self type's name and the end (exclusive) of the `impl` block at
/// `i`: the last identifier outside angle brackets after the generics
/// (or after `for`) and before `where` or the body.
fn impl_block(toks: &[Token], i: usize) -> Option<(&str, usize)> {
    let mut angle = 0i32;
    let mut name = None;
    let mut in_where = false;
    let mut k = i + 1;
    while let Some(t) = toks.get(k) {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if !toks[k - 1].is("-") => angle -= 1,
            "{" if angle == 0 => break,
            "where" if angle == 0 => in_where = true,
            "for" if angle == 0 => name = None,
            _ if angle == 0 && !in_where && t.kind == TokenKind::Ident => {
                name = Some(t.text.as_str());
            }
            _ => {}
        }
        k += 1;
    }
    Some((name?, item_end(toks, k, true)))
}
