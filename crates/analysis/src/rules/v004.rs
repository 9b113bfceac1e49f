//! V004 — determinism hygiene.
//!
//! Three checks that keep "same artifact + same inputs = same bytes
//! out" true:
//!
//! * **(a)** no `==`/`!=` against a non-zero float literal in non-test
//!   library code, workspace-wide. Exact-zero compares are exempt: the
//!   sparsity masks use `0.0` as a structural sentinel on values that
//!   were *assigned*, never computed, so `== 0.0` is deliberate there.
//! * **(b)** no `Instant::now()` and no environment reads in
//!   `vitcod-tensor` library code — kernels are pure functions of
//!   their inputs. One-time cached process configuration
//!   (`VITCOD_NUM_THREADS`) is allowed with a stated invariant.
//! * **(c)** no `.sum()` / `.product()` at the end of a `par_*` chain —
//!   parallel float reduction order varies with worker count.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};

pub(crate) fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let toks = &file.lexed.tokens;
    let diag = |line: u32, message: String| Diagnostic {
        file: file.rel_path.clone(),
        line,
        rule: "V004",
        message,
    };
    let in_tensor = file.crate_name == "vitcod-tensor";
    for i in 0..toks.len() {
        if file.is_test(i) || file.attr_mask[i] {
            continue;
        }
        let t = &toks[i];
        // (a) float equality against a non-zero literal. The lexer
        // emits single-character puncts, so `==` is two adjacent `=`
        // tokens and `!=` is `!` then `=`.
        let is_eq = t.is("=")
            && toks.get(i + 1).is_some_and(|n| n.is("="))
            && !(i > 0 && matches!(toks[i - 1].text.as_str(), "=" | "<" | ">" | "!"));
        let is_ne = t.is("!") && toks.get(i + 1).is_some_and(|n| n.is("="));
        if is_eq || is_ne {
            let left = i.checked_sub(1).map(|j| &toks[j]);
            // Right operand may carry a unary minus.
            let mut r = i + 2;
            if toks.get(r).is_some_and(|n| n.is("-")) {
                r += 1;
            }
            let right = toks.get(r);
            let nonzero_float = |tok: Option<&crate::lexer::Token>| {
                tok.is_some_and(|tok| {
                    tok.kind == TokenKind::NumLit
                        && tok.is_float()
                        && tok.float_value() != Some(0.0)
                })
            };
            if nonzero_float(left) || nonzero_float(right) {
                out.push(diag(
                    t.line,
                    "exact equality against a non-zero float literal; floats computed \
                     through kernels are not exact — compare with a tolerance, or state \
                     why the value is structural in an allow directive"
                        .to_string(),
                ));
            }
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        // (b) wall clock / environment in tensor kernels.
        if in_tensor {
            if t.is("Instant")
                && toks.get(i + 1).is_some_and(|n| n.is(":"))
                && toks.get(i + 2).is_some_and(|n| n.is(":"))
                && toks.get(i + 3).is_some_and(|n| n.is("now"))
            {
                out.push(diag(
                    t.line,
                    "`Instant::now()` in tensor library code; kernels must be pure \
                     functions of their inputs — time belongs in the bench and serve \
                     layers"
                        .to_string(),
                ));
            }
            if t.is("env")
                && toks.get(i + 1).is_some_and(|n| n.is(":"))
                && toks.get(i + 2).is_some_and(|n| n.is(":"))
                && toks
                    .get(i + 3)
                    .is_some_and(|n| n.kind == TokenKind::Ident && n.text.starts_with("var"))
            {
                out.push(diag(
                    t.line,
                    "environment read in tensor library code; kernel behaviour must not \
                     depend on ambient process state — one-time cached configuration \
                     needs an allow directive stating the caching invariant"
                        .to_string(),
                ));
            }
        }
        // (c) reduction at the end of a `par_*` chain.
        if (t.is("sum") || t.is("product"))
            && i > 0
            && toks[i - 1].is(".")
            && toks.get(i + 1).is_some_and(|n| n.is("("))
        {
            // Scan back through the current statement for a `par_*` link.
            let mut j = i;
            let mut par = false;
            while j > 0 {
                j -= 1;
                let tj = &toks[j];
                if tj.is(";") || tj.is("{") || tj.is("}") {
                    break;
                }
                if tj.kind == TokenKind::Ident && tj.text.starts_with("par_") {
                    par = true;
                    break;
                }
            }
            if par {
                out.push(diag(
                    t.line,
                    format!(
                        "`.{}()` on a parallel iterator chain; float reduction order \
                         would vary with the worker count — reduce per-shard and combine \
                         in a fixed order",
                        t.text
                    ),
                ));
            }
        }
    }
}
