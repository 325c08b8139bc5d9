//! The workspace fixture corpus for the interprocedural passes.
//!
//! `tests/fixtures_ws/<pass-key>/<case>/` holds one miniature
//! workspace per case: `.rs` files under workspace-relative paths
//! (`crates/<name>/src/…`). Expected findings are marked `//~ <key>`
//! inline (compiletest style). Each case requires exact set equality
//! — a missed finding fails, and so does a false positive.

use obs_lint::{Pass, Workspace};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures_ws")
}

/// Every case, as (pass-dir name, case path).
fn all_cases() -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let mut pass_dirs: Vec<PathBuf> = fs::read_dir(corpus_root())
        .expect("fixtures_ws directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    pass_dirs.sort();
    for dir in pass_dirs {
        let key = dir.file_name().unwrap().to_string_lossy().into_owned();
        let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        cases.sort();
        for case in cases {
            out.push((key.clone(), case));
        }
    }
    assert!(!out.is_empty(), "no workspace fixtures found");
    out
}

/// Recursively collects the case's `.rs` files as
/// (workspace-relative path, text).
fn collect_sources(case: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_sources(case, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(case).unwrap().to_path_buf();
            out.push((rel, fs::read_to_string(&path).unwrap()));
        }
    }
}

/// An expected finding: (workspace-relative file, line, pass key).
type Expected = BTreeSet<(String, u32, String)>;

/// Loads one case: the inputs and the expected finding set.
fn load_case(case: &Path) -> (Vec<(PathBuf, String)>, Expected) {
    let mut inputs = Vec::new();
    collect_sources(case, case, &mut inputs);
    let mut expected = BTreeSet::new();
    for (rel, text) in &inputs {
        for (i, line) in text.lines().enumerate() {
            let mut rest: &str = line;
            while let Some(at) = rest.find("//~") {
                rest = &rest[at + 3..];
                let key = rest.split_whitespace().next().unwrap_or("");
                assert!(
                    Pass::from_key(key).is_some() || key == "pragma" || key == "io",
                    "bad marker key {key:?} in {}",
                    rel.display()
                );
                expected.insert((rel.display().to_string(), i as u32 + 1, key.to_owned()));
            }
        }
    }
    (inputs, expected)
}

#[test]
fn workspace_fixtures_fire_exactly_where_marked() {
    for (_, case) in all_cases() {
        let (inputs, expected) = load_case(&case);
        let actual: BTreeSet<(String, u32, String)> = Workspace::analyze(inputs)
            .into_iter()
            .map(|d| {
                (
                    d.file.display().to_string(),
                    d.line,
                    d.pass.key().to_owned(),
                )
            })
            .collect();
        assert_eq!(
            actual,
            expected,
            "workspace fixture {} diverged from its markers",
            case.display()
        );
    }
}

#[test]
fn interprocedural_passes_have_firing_and_clean_cases() {
    for key in ["reach"] {
        let (mut firing, mut clean) = (0, 0);
        for (dir, case) in all_cases() {
            if dir != key {
                continue;
            }
            let (_, expected) = load_case(&case);
            if expected.is_empty() {
                clean += 1;
            } else {
                firing += 1;
            }
        }
        assert!(
            firing >= 2 && clean >= 2,
            "pass {key}: {firing} firing / {clean} clean workspace fixtures (need >= 2 of each)"
        );
    }
}

/// Every firing case must fail a CI gate built on the diagnostic
/// list being non-empty.
#[test]
fn firing_workspace_fixtures_would_fail_ci() {
    for (_, case) in all_cases() {
        let (inputs, expected) = load_case(&case);
        if expected.is_empty() {
            continue;
        }
        assert!(
            !Workspace::analyze(inputs).is_empty(),
            "firing workspace fixture {} produced no diagnostics",
            case.display()
        );
    }
}
