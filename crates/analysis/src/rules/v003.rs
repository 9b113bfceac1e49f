//! V003 — backend-contract coverage.
//!
//! The tensor crate's core promise is that its two backends,
//! `Backend::Scalar` and `Backend::Fast`, are bit-identical for fp32.
//! That promise is only as good as the agreement suites under
//! `crates/tensor/tests/`: a public kernel entry point that dispatches
//! on `Backend` but is referenced by no test there ships an unchecked
//! code path. This rule cross-references every such `pub fn` against
//! the identifiers appearing in the tensor test files. `Backend` picks an
//! algorithm only where two exist, so what it guards today is the `*_with`
//! twins of `matmul`, `matmul_nt`, `matmul_tn`, `transpose` and
//! `int8_gemm` (and `with_backend_override`); a kernel with one algorithm
//! takes no `Backend` and is covered by the thread-budget agreement
//! suites instead.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// Modules of `vitcod-tensor` whose public Backend surface must be
/// covered.
const COVERED_MODULES: [&str; 3] = ["kernels", "sparse", "quant"];

pub(crate) fn check(files: &[SourceFile], out: &mut [Vec<Diagnostic>]) {
    // Identifiers referenced anywhere in crates/tensor/tests/.
    let mut test_idents: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        if file.crate_name == "vitcod-tensor" && file.kind == FileKind::TestCode {
            for t in &file.lexed.tokens {
                if t.kind == TokenKind::Ident {
                    test_idents.insert(t.text.as_str());
                }
            }
        }
    }
    for (fi, file) in files.iter().enumerate() {
        if file.crate_name != "vitcod-tensor"
            || file.kind != FileKind::Lib
            || !COVERED_MODULES.contains(&file.file_stem())
        {
            continue;
        }
        for f in &file.functions {
            if !f.is_pub || file.is_test(f.sig.0) {
                continue;
            }
            // Does the signature mention `Backend`?
            let sig_mentions_backend = (f.sig.0..f.sig.1.min(file.lexed.tokens.len()))
                .any(|i| file.lexed.tokens[i].is("Backend"));
            if !sig_mentions_backend {
                continue;
            }
            if !test_idents.contains(f.name.as_str()) {
                out[fi].push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: f.line,
                    rule: "V003",
                    message: format!(
                        "`pub fn {}` dispatches on Backend but no test under \
                         crates/tensor/tests/ references it; wire it into the \
                         backend-agreement suite so the bit-identical contract is checked",
                        f.name
                    ),
                });
            }
        }
    }
}
