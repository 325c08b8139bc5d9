//! Phase 2 of the workspace analysis: the two-phase pipeline.
//!
//! [`Workspace::analyze`] is the whole linter as a pure function
//! over `(path, text)` pairs: phase 1 parses every file and builds
//! the [`SymbolIndex`] and [`CallGraph`]; phase 2 runs the per-file
//! passes (scoped by path) and then the interprocedural pass that
//! needs the graph, panic-reachability.
//!
//! Taking the file set as a value (rather than walking the
//! filesystem) is what makes the workspace fixtures possible: they
//! inject synthetic crates.

use crate::callgraph::CallGraph;
use crate::pass::Diagnostic;
use crate::passes;
use crate::source::SourceFile;
use crate::symbols::SymbolIndex;
use std::path::{Path, PathBuf};

/// Serving crates subject to the panic-freedom pass and used as the
/// reachability targets of the panic-reachability pass. `obs_obs`
/// (the root crate, experiments, benches) may still panic: it is
/// driven by operators, not user queries. `telemetry` is included
/// because its recording paths run inline in every serving request.
pub const SERVING_CRATES: [&str; 5] = ["live", "search", "wrappers", "model", "telemetry"];

/// Whether `rel` is inside one of the serving crates.
pub fn in_serving_crate(rel: &Path) -> bool {
    SERVING_CRATES
        .iter()
        .any(|c| rel.starts_with(Path::new("crates").join(c)))
}

/// Whether the crate *name* is a serving crate (`obs_live`, …).
pub fn is_serving_krate(krate: &str) -> bool {
    SERVING_CRATES
        .iter()
        .any(|c| krate.strip_prefix("obs_") == Some(c))
}

/// Package name owning a workspace-relative path. Every crate under
/// `crates/` follows the `obs_<dir>` convention except `crates/core`
/// (package `obs_quality`); the root `src/` tree is the
/// `informing_observers` crate; `examples/` are root-crate binaries
/// but get their own scope name so they never alias workspace fns.
pub fn krate_of_path(rel: &Path) -> String {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match (parts.next().as_deref(), parts.next()) {
        (Some("crates"), Some(dir)) if dir == "core" => "obs_quality".to_owned(),
        (Some("crates"), Some(dir)) => format!("obs_{dir}"),
        (Some("examples"), _) => "examples".to_owned(),
        _ => "informing_observers".to_owned(),
    }
}

/// The parsed workspace: phase-1 output shared by every phase-2 pass.
#[derive(Debug)]
pub struct Workspace {
    /// Every scanned file, parsed.
    pub files: Vec<SourceFile>,
    /// Package name owning `files[i]`.
    pub krates: Vec<String>,
    /// The symbol index over `files`.
    pub index: SymbolIndex,
    /// The call graph over `index`.
    pub graph: CallGraph,
}

impl Workspace {
    /// Phase 1: parse the files and build index + graph.
    pub fn build(inputs: Vec<(PathBuf, String)>) -> Workspace {
        let mut files = Vec::with_capacity(inputs.len());
        let mut krates = Vec::with_capacity(inputs.len());
        for (path, text) in inputs {
            krates.push(krate_of_path(&path));
            files.push(SourceFile::parse(path, &text));
        }
        let index = SymbolIndex::build(&files, &krates);
        let graph = CallGraph::build(&files, &index);
        Workspace {
            files,
            krates,
            index,
            graph,
        }
    }

    /// Runs both phases over the inputs and returns the sorted,
    /// deduplicated findings.
    pub fn analyze(inputs: Vec<(PathBuf, String)>) -> Vec<Diagnostic> {
        let ws = Workspace::build(inputs);
        let mut out = Vec::new();
        for file in &ws.files {
            out.extend(file.pragma_diags.clone());
            let rel = &file.path;
            if rel.starts_with("examples") {
                // Examples drive the real serving API: gate the lock
                // discipline and durability-error handling, but let
                // them unwrap (they are demo binaries, not servers).
                passes::guard_blocking::run(file, &mut out);
                passes::discarded_result::run(file, &mut out);
                continue;
            }
            if in_serving_crate(rel) {
                passes::panic_freedom::run(file, &mut out);
            }
            passes::guard_blocking::run(file, &mut out);
            passes::determinism::run(file, &mut out); // no-op unless tagged
            passes::discarded_result::run(file, &mut out);
        }
        passes::panic_reachability::run(&ws, &mut out);
        sort_findings(&mut out);
        out
    }
}

/// The one diagnostic ordering: by file, line, pass, message.
pub fn sort_findings(out: &mut Vec<Diagnostic>) {
    out.sort_by(|a, b| {
        (&a.file, a.line, a.pass, &a.message).cmp(&(&b.file, b.line, b.pass, &b.message))
    });
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn krate_of_path_follows_the_layout() {
        assert_eq!(krate_of_path(Path::new("crates/live/src/a.rs")), "obs_live");
        assert_eq!(
            krate_of_path(Path::new("crates/core/src/a.rs")),
            "obs_quality"
        );
        assert_eq!(
            krate_of_path(Path::new("src/bin/x.rs")),
            "informing_observers"
        );
        assert_eq!(
            krate_of_path(Path::new("examples/quickstart.rs")),
            "examples"
        );
    }

    #[test]
    fn serving_krate_names_match_the_dir_list() {
        for name in [
            "obs_live",
            "obs_search",
            "obs_wrappers",
            "obs_model",
            "obs_telemetry",
        ] {
            assert!(is_serving_krate(name), "{name}");
        }
        for name in ["obs_quality", "obs_stats", "obs_analytics", "examples"] {
            assert!(!is_serving_krate(name), "{name}");
        }
    }
}
