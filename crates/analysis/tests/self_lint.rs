//! The analyzer's strongest test: the workspace it ships in passes its
//! own `--deny-all` bar. A guard held across a blocking call, a
//! lock-order inversion, a dead public item, a stale allow or a member
//! manifest off the workspace lint table fails this test locally, not
//! just in the CI lint leg. (Panic paths in the serve web are clippy's:
//! the CI clippy step fails on them.)

use std::path::PathBuf;

#[test]
fn workspace_passes_deny_all() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = vitcod_analysis::analyze(&root).expect("workspace must be analyzable");
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must lint clean; found:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A meaningful scan, not a silently-empty one.
    assert!(
        report.files_scanned > 100,
        "scanned {}",
        report.files_scanned
    );
    // Every allow in the tree is consumed (V000 enforces the reverse).
    assert!(
        report.allows_used >= 5,
        "allows used: {}",
        report.allows_used
    );
}

#[test]
fn lock_graph_is_acyclic_with_known_nodes() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = vitcod_analysis::analyze(&root).expect("workspace must be analyzable");
    assert!(
        report.lock_graph.cycles.is_empty(),
        "lock-order cycles: {:?}",
        report.lock_graph.cycles
    );
    // The serve web's real locks all register as nodes.
    for lock in [
        "server.assembler",
        "ticket.state",
        "stats.inner",
        "server.engines",
    ] {
        assert!(
            report.lock_graph.nodes.contains(&lock.to_string()),
            "missing lock node {lock}; nodes: {:?}",
            report.lock_graph.nodes
        );
    }
}
