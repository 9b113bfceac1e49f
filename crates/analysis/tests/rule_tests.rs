//! Fixture-driven rule tests: every rule V000–V005 demonstrated on a
//! positive fixture (violations caught, with exact lines) and a
//! negative fixture (correct code stays clean).

use vitcod_analysis::{analyze_files, FileKind, Report, SourceFile};

fn serve_lib(file_name: &str, text: &str) -> SourceFile {
    SourceFile::new(
        &format!("crates/serve/src/{file_name}"),
        "vitcod-serve",
        FileKind::Lib,
        false,
        text,
    )
}

fn count(report: &Report, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.rule == rule).count()
}

fn lines(report: &Report, rule: &str) -> Vec<u32> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn v001_catches_every_panic_path() {
    let file = serve_lib("fixture.rs", include_str!("fixtures/v001_bad.rs"));
    let report = analyze_files(&[file]);
    assert_eq!(count(&report, "V001"), 6, "{:#?}", report.diagnostics);
    // unwrap, expect, panic!, todo!, unreachable!, v[i] — and nothing
    // from the range slice or the #[cfg(test)] module.
    assert_eq!(lines(&report, "V001"), [6, 10, 14, 18, 24, 29]);
    assert_eq!(report.diagnostics.len(), 6);
}

#[test]
fn v001_panic_free_code_is_clean() {
    let file = serve_lib("fixture.rs", include_str!("fixtures/v001_good.rs"));
    let report = analyze_files(&[file]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows_used, 1);
}

#[test]
fn v002_flags_guards_across_blocking_calls() {
    let file = serve_lib(
        "queue_fix.rs",
        include_str!("fixtures/v002_blocking_bad.rs"),
    );
    let report = analyze_files(&[file]);
    assert_eq!(count(&report, "V002"), 6, "{:#?}", report.diagnostics);
    // recv under guard, sleep under guard, re-acquisition, serve's own
    // parking helpers (listed by name: the pass does not look inside
    // callees) — `next_batch`, and `wait_until` handed some other
    // lock's guard — and the submitter's park on `space` with the
    // assembler's guard left behind.
    assert_eq!(lines(&report, "V002"), [16, 23, 29, 54, 62, 71]);
    // The nested acquisition contributes an order edge, not a finding.
    assert_eq!(report.lock_graph.edges.len(), 1);
    let e = &report.lock_graph.edges[0];
    assert_eq!(e.from, "queue_fix.state");
    assert_eq!(e.to, "queue_fix.side");
    assert_eq!(e.function, "nested_order");
    assert!(report.lock_graph.cycles.is_empty());
}

#[test]
fn v002_detects_lock_order_cycles() {
    let file = serve_lib("pair_fix.rs", include_str!("fixtures/v002_cycle_bad.rs"));
    let report = analyze_files(&[file]);
    assert_eq!(report.lock_graph.cycles.len(), 1, "{:?}", report.lock_graph);
    let cycle = &report.lock_graph.cycles[0];
    assert!(cycle.contains(&"pair_fix.alpha".to_string()));
    assert!(cycle.contains(&"pair_fix.beta".to_string()));
    assert_eq!(count(&report, "V002"), 1);
    assert!(report.diagnostics[0].message.contains("cycle"));
}

#[test]
fn v002_correct_lock_discipline_is_clean() {
    let file = serve_lib("waiter_fix.rs", include_str!("fixtures/v002_good.rs"));
    let report = analyze_files(&[file]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    // The lock still registers as a graph node, with no edges.
    assert!(report
        .lock_graph
        .nodes
        .contains(&"waiter_fix.state".to_string()));
    assert!(report.lock_graph.edges.is_empty());
}

#[test]
fn v003_requires_backend_entry_points_to_be_tested() {
    let lib_text = "pub fn covered(b: Backend) -> u32 { 1 }\n\
                    pub fn uncovered(b: Backend) -> u32 { 2 }\n\
                    pub fn no_backend(x: u32) -> u32 { x }\n\
                    fn private_helper(b: Backend) -> u32 { 3 }\n";
    let lib = SourceFile::new(
        "crates/tensor/src/kernels.rs",
        "vitcod-tensor",
        FileKind::Lib,
        false,
        lib_text,
    );
    let tests = SourceFile::new(
        "crates/tensor/tests/agreement.rs",
        "vitcod-tensor",
        FileKind::TestCode,
        false,
        "fn t() { covered(Backend::Scalar); }\n",
    );
    let report = analyze_files(&[lib, tests]);
    assert_eq!(count(&report, "V003"), 1, "{:#?}", report.diagnostics);
    assert!(report.diagnostics[0].message.contains("uncovered"));

    // Without the test file, both public Backend fns are flagged.
    let lib = SourceFile::new(
        "crates/tensor/src/kernels.rs",
        "vitcod-tensor",
        FileKind::Lib,
        false,
        lib_text,
    );
    let report = analyze_files(&[lib]);
    assert_eq!(count(&report, "V003"), 2);
}

#[test]
fn v003_ignores_modules_outside_the_covered_set() {
    let lib = SourceFile::new(
        "crates/tensor/src/layout.rs",
        "vitcod-tensor",
        FileKind::Lib,
        false,
        "pub fn helper(b: Backend) -> u32 { 1 }\n",
    );
    let report = analyze_files(&[lib]);
    assert!(report.diagnostics.is_empty());
}

#[test]
fn v004_catches_determinism_hazards() {
    let file = SourceFile::new(
        "crates/tensor/src/determinism_fix.rs",
        "vitcod-tensor",
        FileKind::Lib,
        false,
        include_str!("fixtures/v004_bad.rs"),
    );
    let report = analyze_files(&[file]);
    assert_eq!(count(&report, "V004"), 6, "{:#?}", report.diagnostics);
    // Three float compares, Instant::now, env read, par-chain sum —
    // the zero sentinel and the serial reduction stay clean.
    assert_eq!(lines(&report, "V004"), [5, 6, 7, 17, 22, 26]);
}

#[test]
fn v004_deterministic_code_is_clean() {
    let file = SourceFile::new(
        "crates/tensor/src/determinism_fix.rs",
        "vitcod-tensor",
        FileKind::Lib,
        false,
        include_str!("fixtures/v004_good.rs"),
    );
    let report = analyze_files(&[file]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows_used, 1);
}

#[test]
fn v005_requires_forbid_and_flags_unsafe() {
    let file = SourceFile::new(
        "crates/io/src/lib.rs",
        "vitcod-io",
        FileKind::Lib,
        true,
        include_str!("fixtures/v005_bad.rs"),
    );
    let report = analyze_files(&[file]);
    assert_eq!(count(&report, "V005"), 2, "{:#?}", report.diagnostics);
    assert_eq!(lines(&report, "V005"), [1, 6]);
}

#[test]
fn v005_forbidding_crate_root_is_clean() {
    let file = SourceFile::new(
        "crates/io/src/lib.rs",
        "vitcod-io",
        FileKind::Lib,
        true,
        include_str!("fixtures/v005_good.rs"),
    );
    let report = analyze_files(&[file]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn v000_directive_hygiene() {
    let file = serve_lib(
        "directives_fix.rs",
        include_str!("fixtures/v000_directives.rs"),
    );
    let report = analyze_files(&[file]);
    // Malformed, reason-less, unknown-rule, empty-reason, stale.
    assert_eq!(count(&report, "V000"), 5, "{:#?}", report.diagnostics);
    assert_eq!(lines(&report, "V000"), [11, 13, 15, 17, 19]);
    // The well-formed allow suppressed its V001 and is counted as used.
    assert_eq!(count(&report, "V001"), 0);
    assert_eq!(report.allows_used, 1);
}
