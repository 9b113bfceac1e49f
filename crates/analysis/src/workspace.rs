//! Workspace discovery: reads the root `Cargo.toml` member list,
//! resolves each member's package name, checks that it inherits the
//! workspace lint table (V005), and enumerates its Rust sources.
//! Vendored stand-ins under `vendor/` are out of scope (they
//! mirror external crates' APIs, not our invariants), as are build
//! artifacts under `target/` and the analyzer's own lint fixtures
//! under `tests/fixtures/` (which exist to violate the rules). The
//! frozen benchmark harness (`benchmark/src/`, its own package) is read
//! as caller-only input: V006 counts its calls, and nothing is reported
//! on it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};

/// One discovered workspace member.
#[derive(Debug)]
pub struct Member {
    /// Package name from the member's `Cargo.toml`.
    pub name: String,
    /// Member directory, absolute.
    pub dir: PathBuf,
}

/// Parses the root manifest's `members = [...]` list plus the root
/// package itself (the workspace root doubles as the `vitcod` facade
/// crate), excluding `vendor/`. A member whose manifest lacks `[lints]
/// workspace = true` gets a V005 in `findings`: the workspace's
/// `unsafe_code = "forbid"` and clippy policy reach only the crates
/// that opt in.
pub fn discover_members(root: &Path, findings: &mut Vec<Diagnostic>) -> io::Result<Vec<Member>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") && line.contains('[') {
            in_members = true;
        }
        if in_members {
            let mut rest = line;
            while let Some(start) = rest.find('"') {
                let tail = &rest[start + 1..];
                let Some(end) = tail.find('"') else { break };
                let member = &tail[..end];
                if !member.starts_with("vendor/") {
                    dirs.push(root.join(member));
                }
                rest = &tail[end + 1..];
            }
            if line.contains(']') {
                in_members = false;
            }
        }
    }
    // The root package (workspace manifest carries a [package] too).
    if manifest.contains("[package]") {
        dirs.push(root.to_path_buf());
    }
    let mut members = Vec::new();
    for dir in dirs {
        let manifest_path = dir.join("Cargo.toml");
        let text = fs::read_to_string(&manifest_path)?;
        if !inherits_workspace_lints(&text) {
            findings.push(Diagnostic {
                file: rel_path(root, &manifest_path),
                line: 1,
                rule: "V005",
                message: "member manifest lacks `[lints] workspace = true`, so the \
                          workspace's `unsafe_code = \"forbid\"` and clippy lints do not \
                          reach this crate"
                    .to_string(),
            });
        }
        let name = package_name(&text, &manifest_path)?;
        members.push(Member { name, dir });
    }
    Ok(members)
}

/// Whether a manifest's `[lints]` table is `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    manifest.lines().map(str::trim).any(|line| {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            return false;
        }
        in_lints
            && line
                .split_once('=')
                .is_some_and(|(key, value)| key.trim() == "workspace" && value.trim() == "true")
    })
}

/// Extracts `name = "..."` from the `[package]` section of `text`, the
/// manifest at `manifest_path`.
fn package_name(text: &str, manifest_path: &Path) -> io::Result<String> {
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package && line.starts_with("name") {
            if let Some(name) = line.split('"').nth(1) {
                return Ok(name.to_string());
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("no [package] name in {}", manifest_path.display()),
    ))
}

/// Loads and scans every Rust source of every non-vendored member;
/// manifest findings go to `findings`.
pub fn load_workspace(root: &Path, findings: &mut Vec<Diagnostic>) -> io::Result<Vec<SourceFile>> {
    let members = discover_members(root, findings)?;
    let mut files: Vec<SourceFile> = Vec::new();
    for m in &members {
        for sub in ["src", "tests", "benches", "examples"] {
            let dir = m.dir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let kind = if sub == "src" {
                FileKind::Lib
            } else {
                FileKind::TestCode
            };
            let mut paths = Vec::new();
            collect_rs(&dir, &mut paths)?;
            paths.sort();
            for path in paths {
                let rel = rel_path(root, &path);
                if rel.contains("/fixtures/") || rel.contains("/target/") {
                    continue;
                }
                // The root facade's src/ must not recurse into crates/.
                if m.dir == root && rel.starts_with("crates/") {
                    continue;
                }
                let text = fs::read_to_string(&path)?;
                files.push(SourceFile::new(&rel, &m.name, kind, &text));
            }
        }
    }
    // The benchmark of record is its own package, outside the member
    // list and frozen: its calls keep product items alive (V006), and
    // nothing is reported on it.
    let bench = root.join(BENCHMARK_DIR);
    if bench.join("src").is_dir() {
        let manifest_path = bench.join("Cargo.toml");
        let name = package_name(&fs::read_to_string(&manifest_path)?, &manifest_path)?;
        let mut paths = Vec::new();
        collect_rs(&bench.join("src"), &mut paths)?;
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let rel = rel_path(root, &path);
            files.push(SourceFile::new(&rel, &name, FileKind::CallerOnly, &text));
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// The benchmark of record's package directory, relative to the root.
const BENCHMARK_DIR: &str = "benchmark";

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
