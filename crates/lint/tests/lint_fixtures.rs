//! The fixture corpus: every pass has firing and clean fixtures
//! under `tests/fixtures/<pass-key>/`, with expected findings marked
//! inline as `//~ <pass-key>` (compiletest style). The harness lints
//! each fixture as if it lived at `crates/live/src/fixture.rs` — a
//! serving-crate path inside `obs_live`, so every pass is in scope —
//! and requires the diagnostic set to equal the marker set exactly:
//! a missed finding fails, and so does a false positive.

use obs_lint::{lint_source, Pass};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The marker key a pass's diagnostics map to.
fn marker_key(pass: Pass) -> &'static str {
    pass.key()
}

/// Parses `//~ <key>` markers: the set of (1-based line, key).
fn expected_markers(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("//~") {
            rest = &rest[at + 3..];
            let key = rest.split_whitespace().next().unwrap_or("");
            assert!(
                key == "pragma" || Pass::from_key(key).is_some(),
                "bad marker key {key:?} on line {}",
                i + 1
            );
            out.insert((i as u32 + 1, key.to_owned()));
        }
    }
    out
}

/// Every fixture file, as (pass-dir name, path).
fn all_fixtures() -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(fixtures_root())
        .expect("fixtures directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let key = dir.file_name().unwrap().to_string_lossy().into_owned();
        let mut files: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();
        for f in files {
            out.push((key.clone(), f));
        }
    }
    assert!(!out.is_empty(), "no fixtures found");
    out
}

#[test]
fn fixtures_fire_exactly_where_marked() {
    let pseudo = Path::new("crates/live/src/fixture.rs");
    for (_, path) in all_fixtures() {
        let src = fs::read_to_string(&path).unwrap();
        let expected = expected_markers(&src);
        let actual: BTreeSet<(u32, String)> = lint_source(pseudo, &src)
            .into_iter()
            .map(|d| (d.line, marker_key(d.pass).to_owned()))
            .collect();
        assert_eq!(
            actual,
            expected,
            "fixture {} diverged from its markers",
            path.display()
        );
    }
}

#[test]
fn every_pass_has_firing_and_clean_fixtures() {
    // The single-file passes. `reach` needs multiple files, so its
    // corpus lives in the workspace harness
    // (tests/workspace_fixtures.rs) with the same ≥2+≥2 requirement.
    let single_file_keys = ["panic", "guard", "determinism", "discard"];
    for key in single_file_keys.iter().chain(["pragma"].iter()) {
        let (mut firing, mut clean) = (0, 0);
        for (dir, path) in all_fixtures() {
            if dir != *key {
                continue;
            }
            let src = fs::read_to_string(&path).unwrap();
            if expected_markers(&src).is_empty() {
                clean += 1;
            } else {
                firing += 1;
            }
        }
        assert!(
            firing >= 2 && clean >= 2,
            "pass {key}: {firing} firing / {clean} clean fixtures (need >= 2 of each)"
        );
    }
}

/// Firing fixtures are what CI's non-zero exit is made of: the CLI
/// exits non-zero iff the diagnostic list is non-empty, so every
/// firing fixture must produce at least one diagnostic.
#[test]
fn firing_fixtures_would_fail_ci() {
    let pseudo = Path::new("crates/live/src/fixture.rs");
    for (_, path) in all_fixtures() {
        let src = fs::read_to_string(&path).unwrap();
        if expected_markers(&src).is_empty() {
            continue;
        }
        assert!(
            !lint_source(pseudo, &src).is_empty(),
            "firing fixture {} produced no diagnostics",
            path.display()
        );
    }
}
