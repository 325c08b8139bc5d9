//! The workspace invariants are clippy lints (README, "Invariant
//! lints"). Clippy reports a banned call or an unfulfilled waiver,
//! but not a lint that was never switched on: a dropped attribute or
//! config entry leaves the clippy job green. These tests pin that
//! wiring.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `crates/` directories of obs_live and every crate it links, as
/// README and ARCHITECTURE.md list them.
const PANIC_FREE_CRATES: [&str; 8] = [
    "analytics",
    "live",
    "model",
    "search",
    "stats",
    "synth",
    "telemetry",
    "wrappers",
];

const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// Modules whose output is replayed and must be byte-identical.
const REPLAY_MODULES: [&str; 4] = [
    "crates/model/src/codec.rs",
    "crates/search/src/scatter.rs",
    "crates/live/src/journal.rs",
    "crates/live/src/shard.rs",
];

/// Serving-path modules held to checked indexing (`get`/`get_mut`,
/// or an `#[expect]` with a reason): every re-blend runs through both.
const CHECKED_INDEXING_MODULES: [&str; 2] = [
    "crates/search/src/blend.rs",
    "crates/stats/src/normalize.rs",
];

const BANNED_TYPES: [&str; 4] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::time::Instant",
    "std::time::SystemTime",
];

fn read(relative: &str) -> String {
    let path = Path::new(ROOT).join(relative);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every lint a `#![warn(…)]` in `source` names.
fn warned_lints(source: &str) -> Vec<&str> {
    source
        .split("#![warn(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]").map(|(args, _)| args))
        .flat_map(|args| args.split(',').map(str::trim))
        .collect()
}

#[test]
fn clippy_toml_bans_the_nondeterministic_types() {
    let config = read("clippy.toml");
    for banned in BANNED_TYPES {
        assert!(
            config.contains(&format!("path = \"{banned}\"")),
            "clippy.toml no longer bans {banned}"
        );
    }
    for exempt in ["unwrap", "expect", "panic"] {
        assert!(
            config.contains(&format!("allow-{exempt}-in-tests = true")),
            "clippy.toml no longer exempts tests from the {exempt} lint"
        );
    }
}

#[test]
fn replay_modules_warn_on_disallowed_types() {
    for module in REPLAY_MODULES {
        let source = read(module);
        assert!(
            warned_lints(&source).contains(&"clippy::disallowed_types"),
            "{module} lost #![warn(clippy::disallowed_types)]"
        );
    }
}

#[test]
fn checked_indexing_modules_warn_on_indexing_slicing() {
    for module in CHECKED_INDEXING_MODULES {
        let source = read(module);
        assert!(
            warned_lints(&source).contains(&"clippy::indexing_slicing"),
            "{module} lost #![warn(clippy::indexing_slicing)]"
        );
    }
}

/// The lines of `manifest` under `header`, up to the next table.
fn section<'a>(manifest: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    manifest
        .lines()
        .skip_while(move |line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
}

/// `crates/` directories of obs_live and of every workspace crate it
/// links, following each manifest's `[dependencies]`.
fn crates_obs_live_links() -> BTreeSet<String> {
    let root = read("Cargo.toml");
    let dir_of: BTreeMap<&str, &str> = section(&root, "[workspace.dependencies]")
        .filter_map(|line| {
            let (name, rest) = line.split_once(" = { path = \"crates/")?;
            Some((name, rest.split_once('"')?.0))
        })
        .collect();
    let mut linked = BTreeSet::new();
    let mut pending = vec!["live".to_string()];
    while let Some(dir) = pending.pop() {
        if !linked.insert(dir.clone()) {
            continue;
        }
        let manifest = read(&format!("crates/{dir}/Cargo.toml"));
        for line in section(&manifest, "[dependencies]") {
            let name = line.split('=').next().unwrap_or_default().trim();
            if let Some(dep) = dir_of.get(name) {
                pending.push(dep.to_string());
            }
        }
    }
    linked
}

#[test]
fn every_crate_obs_live_links_warns_on_the_panic_lints() {
    let linked = crates_obs_live_links();
    assert_eq!(
        linked,
        PANIC_FREE_CRATES.map(String::from).into(),
        "obs_live's dependencies changed: give each new crate the panic lints \
         and update the scope in README and ARCHITECTURE.md"
    );
    for krate in linked {
        let lib = format!("crates/{krate}/src/lib.rs");
        let source = read(&lib);
        let warned = warned_lints(&source);
        for lint in PANIC_LINTS {
            assert!(warned.contains(&lint), "{lib} no longer warns on {lint}");
        }
    }
}

#[test]
fn every_workspace_crate_takes_the_workspace_lints() {
    let root = read("Cargo.toml");
    for level in [
        "disallowed_types = \"allow\"",
        "let_underscore_must_use = \"warn\"",
    ] {
        assert!(
            root.contains(level),
            "[workspace.lints.clippy] lost `{level}`"
        );
    }
    let mut manifests = vec![PathBuf::from("Cargo.toml")];
    for entry in fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/ is listable") {
        let dir = entry.expect("crates/ entry").path();
        manifests.push(dir.join("Cargo.toml"));
    }
    for manifest in manifests {
        let text = read(&manifest.to_string_lossy());
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} does not opt into the workspace lints",
            manifest.display()
        );
    }
}

/// Collects every `.rs` file under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_comment_pragma_is_left_in_the_tree() {
    let mut files = Vec::new();
    for dir in ["crates", "examples", "shims", "src", "tests"] {
        rust_files(&Path::new(ROOT).join(dir), &mut files);
    }
    assert!(
        files.len() > 50,
        "the walk found only {} files",
        files.len()
    );
    // Built by concatenation so this file does not match itself.
    let pragmas = [concat!("lint", ":allow"), concat!("lint", ":deterministic")];
    for file in files {
        let source = fs::read_to_string(&file).expect("readable source");
        for pragma in pragmas {
            assert!(
                !source.contains(pragma),
                "{} still carries a `{pragma}` comment: waivers are #[expect(clippy::…, reason = …)]",
                file.display()
            );
        }
    }
}
