//! File discovery and the top-level `check` entry point.
//!
//! `check` walks the workspace, reads every scanned file, and hands
//! the lot to [`Workspace::analyze`] — the whole analysis is a pure
//! function over the gathered texts; this module is the only part
//! that touches the filesystem.

use crate::pass::{Diagnostic, Pass};
use crate::workspace::{sort_findings, Workspace};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned, wherever they appear. `examples/`
/// is *not* here: the examples drive the real serving API and are
/// scanned (with the guard-blocking and discarded-result passes).
const EXCLUDED_DIRS: [&str; 4] = ["target", "tests", "benches", "fixtures"];

/// Runs every pass over the workspace rooted at `root` and returns
/// the sorted findings. An unreadable file becomes a diagnostic
/// rather than aborting the run.
pub fn check(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut inputs = Vec::new();
    for path in workspace_sources(root) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        match fs::read_to_string(&path) {
            Ok(src) => inputs.push((rel, src)),
            Err(err) => out.push(read_error(rel, &err)),
        }
    }
    out.extend(Workspace::analyze(inputs));
    sort_findings(&mut out);
    out
}

/// Lints one file's text as if it lived at `rel` (a workspace-
/// relative path — pass scoping keys off it). Single-file mode:
/// cross-file call edges cannot exist — but the interprocedural
/// passes still run (helper-fn chains *within* the file resolve).
pub fn lint_source(rel: &Path, src: &str) -> Vec<Diagnostic> {
    Workspace::analyze(vec![(rel.to_path_buf(), src.to_owned())])
}

/// All `.rs` files the linter scans, sorted: `crates/*/src/**`
/// (excluding the lint crate itself — its strings and fixtures
/// mention every flagged token by design), the root crate's
/// `src/**`, and the root `examples/`.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "lint"))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("examples"), &mut files);
    files.sort();
    files
}

/// Recursively collects `.rs` files under `dir`, skipping excluded
/// directory names.
fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return, // absent src/ is fine (virtual workspace root)
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !EXCLUDED_DIRS.contains(&name) {
                collect_rs(&path, files);
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

/// An unreadable source file is itself a finding: the linter must
/// never silently skip part of the surface it gates.
fn read_error(rel: PathBuf, err: &io::Error) -> Diagnostic {
    Diagnostic {
        file: rel,
        line: 0,
        pass: Pass::Io,
        message: format!("could not read file: {err}"),
    }
}
