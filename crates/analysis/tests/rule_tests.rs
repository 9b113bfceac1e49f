//! Fixture-driven rule tests: every rule V000–V006 demonstrated on a
//! positive fixture (violations caught, with exact lines) and a
//! negative fixture (correct code stays clean). The single-rule
//! fixtures declare their items private, so V006 (which needs a
//! workspace of callers to judge `pub` items) has nothing to say there.

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

fn tensor_file(path: &str, kind: FileKind, text: &str) -> SourceFile {
    SourceFile::new(path, "vitcod-tensor", kind, false, text)
}

#[test]
fn v006_flags_dead_and_test_only_public_items() {
    let files = [
        tensor_file(
            "crates/tensor/src/ops_fix.rs",
            FileKind::Lib,
            include_str!("fixtures/v006_bad.rs"),
        ),
        // A re-export names the item but calls nothing.
        tensor_file(
            "crates/tensor/src/lib.rs",
            FileKind::Lib,
            "pub use ops_fix::{l2_norm, EXPORTED};\n",
        ),
        tensor_file(
            "crates/tensor/tests/props.rs",
            FileKind::TestCode,
            "#[test]\nfn exported() { assert_eq!(vitcod_tensor::EXPORTED, 3); }\n",
        ),
    ];
    let report = analyze_files(&files);
    // sigmoid (dead), l2_norm (its unit test only), the free and the
    // method `relu` (a chain named only inside items called `relu`) and
    // EXPORTED (re-exported, named by a tests/ file only).
    assert_eq!(
        lines(&report, "V006"),
        [7, 12, 18, 23, 30],
        "{:#?}",
        report.diagnostics
    );
    let message = |line: u32| {
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "V006" && d.line == line);
        d.unwrap().message.clone()
    };
    for line in [12, 30] {
        assert!(
            message(line).contains("named only by tests"),
            "{}",
            message(line)
        );
    }
    for line in [7, 18, 23] {
        assert!(
            message(line).contains("named by no code"),
            "{}",
            message(line)
        );
    }
    // The allow over `kept`, which has a caller, suppresses nothing.
    assert_eq!(lines(&report, "V000"), [32]);
    assert_eq!(report.diagnostics.len(), 6);
}

#[test]
fn v006_counts_examples_other_crates_and_the_benchmark_as_callers() {
    let files = [
        tensor_file(
            "crates/tensor/src/kernels_fix.rs",
            FileKind::Lib,
            include_str!("fixtures/v006_good.rs"),
        ),
        SourceFile::new(
            "crates/engine/src/engine.rs",
            "vitcod-engine",
            FileKind::Lib,
            false,
            "fn forward(row: &mut [f32]) { vitcod_tensor::softmax_row(row) }\n",
        ),
        SourceFile::new(
            "crates/engine/examples/demo.rs",
            "vitcod-engine",
            FileKind::TestCode,
            false,
            "fn main() { let _ = vitcod_tensor::gelu(1.0); }\n",
        ),
        // Caller-only input: its calls count, and its own uncalled `pub`
        // item and `unsafe` token are not reported.
        SourceFile::new(
            "benchmark/src/probes.rs",
            "vitcod-benchmark",
            FileKind::CallerOnly,
            false,
            "pub fn probe() { let _ = unsafe { vitcod_tensor::kernels::multi_head_attention() }; }\n",
        ),
    ];
    let report = analyze_files(&files);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows_used, 1);

    // Without the callers, the three items they called are dead.
    // `MhaForward` is still named by `multi_head_attention`'s signature
    // and the allowed item stays quiet.
    let report = analyze_files(&files[..1]);
    assert_eq!(
        lines(&report, "V006"),
        [6, 11, 19],
        "{:#?}",
        report.diagnostics
    );
}
