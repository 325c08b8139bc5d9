//! Phase 1 of the workspace analysis: the symbol index.
//!
//! Every scanned file contributes its non-test `fn` definitions —
//! free functions and impl-block methods, with crate, visibility and
//! body extent — plus its `use`-imports. The index is what turns the
//! per-file token streams into one workspace: the call-graph builder
//! (phase 1b) resolves call sites against it, and the
//! interprocedural passes (phase 2) walk the result.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a function in [`SymbolIndex::fns`].
pub type FnId = usize;

/// One non-test `fn` definition somewhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnSymbol {
    /// The function name.
    pub name: String,
    /// The impl-block type the method belongs to, if any.
    pub impl_type: Option<String>,
    /// Package name of the defining crate (`obs_search`, …).
    pub krate: String,
    /// Index of the defining file in the workspace file list.
    pub file_idx: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn carries a `pub` (incl. `pub(crate)` etc.).
    pub is_pub: bool,
    /// Token indices of the body's `{` and `}` in the defining file.
    pub body: (usize, usize),
}

impl FnSymbol {
    /// Display path for diagnostics: `crate::file_stem::name` or
    /// `crate::Type::name` for methods.
    pub fn display(&self, files: &[SourceFile]) -> String {
        let module = files
            .get(self.file_idx)
            .and_then(|f| f.path.file_stem())
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        match &self.impl_type {
            Some(ty) => format!("{}::{}::{}", self.krate, ty, self.name),
            None if module == "lib" || module == "mod" || module == "main" => {
                format!("{}::{}", self.krate, self.name)
            }
            None => format!("{}::{}::{}", self.krate, module, self.name),
        }
    }
}

/// The non-test `use`-imports of one file, resolved to workspace
/// crates. External imports (`std`, shim crates) are dropped: they
/// can never name a workspace symbol.
#[derive(Debug, Default, Clone)]
pub struct FileImports {
    /// Imported name (last path segment, or the `as` alias) → the
    /// workspace crate it comes from.
    pub names: BTreeMap<String, String>,
    /// Crates imported wholesale via `use obs_x::…::*`.
    pub glob_crates: BTreeSet<String>,
}

/// The workspace-wide symbol index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Every non-test fn, in (file, token) order.
    pub fns: Vec<FnSymbol>,
    /// Free-fn ids by name.
    pub free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Method ids by name.
    pub methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// Per-file imports, parallel to the workspace file list.
    pub imports: Vec<FileImports>,
}

impl SymbolIndex {
    /// Builds the index over the workspace files. `krates[i]` is the
    /// package name owning `files[i]`.
    pub fn build(files: &[SourceFile], krates: &[String]) -> SymbolIndex {
        let mut index = SymbolIndex::default();
        for (file_idx, file) in files.iter().enumerate() {
            index.imports.push(parse_imports(file, &krates[file_idx]));
            let impls = impl_regions(file);
            for def in fn_defs(file) {
                let impl_type = impls
                    .iter()
                    .rfind(|(open, close, _)| (*open..=*close).contains(&def.body.0))
                    .map(|(_, _, ty)| ty.clone());
                let id = index.fns.len();
                let symbol = FnSymbol {
                    name: def.name.clone(),
                    impl_type: impl_type.clone(),
                    krate: krates[file_idx].clone(),
                    file_idx,
                    line: def.line,
                    is_pub: def.is_pub,
                    body: def.body,
                };
                match impl_type {
                    Some(_) => index.methods_by_name.entry(def.name).or_default().push(id),
                    None => index.free_by_name.entry(def.name).or_default().push(id),
                }
                index.fns.push(symbol);
            }
        }
        index
    }

    /// The innermost fn whose body contains token `tok` of file
    /// `file_idx` (innermost = smallest enclosing body).
    pub fn enclosing_fn(&self, file_idx: usize, tok: usize) -> Option<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file_idx == file_idx && (f.body.0..=f.body.1).contains(&tok))
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(id, _)| id)
    }
}

/// A raw fn definition found in one file.
struct FnDef {
    name: String,
    line: u32,
    is_pub: bool,
    body: (usize, usize),
}

/// All non-test fn definitions with bodies in the file. Nested fns
/// get their own entries (the walk resumes just inside each body).
fn fn_defs(file: &SourceFile) -> Vec<FnDef> {
    let tokens = &file.tokens;
    let mut defs = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") || file.test_mask[i] {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
            i += 1;
            continue;
        };
        // Visibility: walk back over the modifier run (`pub`,
        // `pub(crate)`, `const`, `async`, `unsafe`, `extern "C"`);
        // any token outside the run ends the scan.
        let mut is_pub = false;
        let mut k = i;
        while k > 0 {
            k -= 1;
            match &tokens[k].kind {
                TokenKind::Ident(w)
                    if matches!(
                        w.as_str(),
                        "const" | "async" | "unsafe" | "extern" | "crate" | "in" | "super" | "self"
                    ) => {}
                TokenKind::Ident(w) if w == "pub" => is_pub = true,
                TokenKind::Punct('(' | ')') => {}
                TokenKind::Str => {} // extern "C"
                _ => break,
            }
        }
        // Find the body `{` at bracket depth 0 past the signature.
        let mut depth = 0isize;
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(';') if depth == 0 => break, // trait signature
                _ => {}
            }
            j += 1;
        }
        match open.and_then(|o| file.brace_match.get(&o).map(|&c| (o, c))) {
            Some((open, close)) => {
                defs.push(FnDef {
                    name: name.to_owned(),
                    line: tokens[i].line,
                    is_pub,
                    body: (open, close),
                });
                i = open + 1;
            }
            None => i = j + 1,
        }
    }
    defs
}

/// Every `impl` block in the file as `(open, close, type_name)`.
/// For `impl Trait for Type` the type is `Type`; for `impl Type` it
/// is `Type` (last path segment, generics stripped).
fn impl_regions(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let tokens = &file.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list `<…>` if present.
        if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(tokens, j);
        }
        // Collect path segments until `for`, `where` or the body `{`.
        let mut first_path = last_path_segment(tokens, &mut j);
        let mut saw_for = false;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('{') => break,
                TokenKind::Ident(kw) if kw == "for" => {
                    saw_for = true;
                    j += 1;
                    first_path = last_path_segment(tokens, &mut j);
                }
                TokenKind::Ident(kw) if kw == "where" => {
                    // Run forward to the body brace.
                    while j < tokens.len() && !tokens[j].is_punct('{') {
                        j += 1;
                    }
                    break;
                }
                TokenKind::Punct('<') => j = skip_angles(tokens, j),
                _ => j += 1,
            }
        }
        let _ = saw_for;
        match (first_path, file.brace_match.get(&j)) {
            (Some(ty), Some(&close)) if tokens.get(j).is_some_and(|t| t.is_punct('{')) => {
                regions.push((j, close, ty));
                i = j + 1;
            }
            _ => i = j.max(i + 1),
        }
    }
    regions
}

/// Reads a type path at `*j` (`a::b::Type<…>`), advancing past it,
/// and returns the last plain segment (`Type`).
fn last_path_segment(tokens: &[Token], j: &mut usize) -> Option<String> {
    let mut last = None;
    loop {
        match tokens.get(*j).map(|t| &t.kind) {
            Some(TokenKind::Ident(name))
                if name != "for" && name != "where" && name != "dyn" && name != "impl" =>
            {
                last = Some(name.clone());
                *j += 1;
            }
            Some(TokenKind::Punct(':')) => *j += 1,
            Some(TokenKind::Punct('<')) => {
                *j = skip_angles(tokens, *j);
                break;
            }
            Some(TokenKind::Punct('&' | '\'')) | Some(TokenKind::Lifetime) => *j += 1,
            _ => break,
        }
    }
    last
}

/// Given `tokens[start] == '<'`, returns the index one past the
/// matching `>`. `->` arrows inside (fn-pointer types) are skipped
/// so their `>` never closes the angle scope.
fn skip_angles(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0isize;
    let mut i = start;
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('-') if tokens.get(i + 1).is_some_and(|t| t.is_punct('>')) => {
                i += 2;
                continue;
            }
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // A `(`…`)` group (fn-pointer args) can contain commas
            // and nothing angle-relevant; fall through, depth on
            // parens is unnecessary for matching `<`/`>` pairs here.
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Parses the file's non-test `use` statements into a [`FileImports`]
/// map. Only workspace crates matter — identified by the `obs_`
/// naming convention every workspace crate follows: `use obs_x::Type`
/// records `Type → obs_x`; `use crate::…` / `use self::…` /
/// `use super::…` record into `own` (the file's crate); everything
/// else (`std`, shim crates) is external and ignored.
fn parse_imports(file: &SourceFile, own: &str) -> FileImports {
    let tokens = &file.tokens;
    let mut imports = FileImports::default();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("use") || file.test_mask[i] {
            i += 1;
            continue;
        }
        // The root crate of the path decides whether we care.
        let root = tokens.get(i + 1).and_then(Token::ident);
        let krate = match root {
            Some("crate") | Some("self") | Some("super") => Some(own.to_owned()),
            Some(name) if name.starts_with("obs_") => Some(name.to_owned()),
            _ => None,
        };
        // Consume the whole statement regardless, collecting leaf
        // names when the crate is in-workspace.
        let mut j = i + 1;
        let mut pending: Option<String> = None;
        while j < tokens.len() && !tokens[j].is_punct(';') {
            match &tokens[j].kind {
                TokenKind::Ident(name) if name == "as" => {
                    // The alias replaces the leaf name.
                    if let Some(alias) = tokens.get(j + 1).and_then(Token::ident) {
                        pending = Some(alias.to_owned());
                        j += 1;
                    }
                }
                TokenKind::Ident(name) => pending = Some(name.clone()),
                TokenKind::Punct(',' | '}') => {
                    if let (Some(k), Some(name)) = (&krate, pending.take()) {
                        imports.names.insert(name, k.clone());
                    }
                }
                TokenKind::Punct('*') => {
                    if let Some(k) = &krate {
                        imports.glob_crates.insert(k.clone());
                    }
                    pending = None;
                }
                _ => {}
            }
            j += 1;
        }
        if let (Some(k), Some(name)) = (&krate, pending.take()) {
            if name != *k {
                imports.names.insert(name, k.clone());
            }
        }
        i = j + 1;
    }
    imports
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn index(src: &str) -> (SymbolIndex, Vec<SourceFile>) {
        let files = vec![SourceFile::parse(
            PathBuf::from("crates/live/src/x.rs"),
            src,
        )];
        let krates = vec!["obs_live".to_string()];
        let idx = SymbolIndex::build(&files, &krates);
        (idx, files)
    }

    #[test]
    fn free_fns_and_methods_are_separated() {
        let (idx, _) = index(
            "pub fn free() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             impl std::fmt::Display for S { fn fmt(&self) {} }",
        );
        assert_eq!(idx.free_by_name["free"].len(), 1);
        assert_eq!(idx.methods_by_name["method"].len(), 1);
        let fmt = idx.fns[idx.methods_by_name["fmt"][0]].clone();
        assert_eq!(fmt.impl_type.as_deref(), Some("S"));
        assert!(idx.fns[idx.free_by_name["free"][0]].is_pub);
        assert!(!idx.fns[idx.methods_by_name["method"][0]].is_pub);
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let (idx, _) = index(
            "impl<T: Fn() -> u64> Holder<T> { fn call(&self) {} }\n\
             impl<'a> Iterator for Walker<'a> { fn next(&mut self) {} }",
        );
        assert_eq!(
            idx.fns[idx.methods_by_name["call"][0]].impl_type.as_deref(),
            Some("Holder")
        );
        assert_eq!(
            idx.fns[idx.methods_by_name["next"][0]].impl_type.as_deref(),
            Some("Walker")
        );
    }

    #[test]
    fn test_fns_are_not_indexed() {
        let (idx, _) = index("#[cfg(test)]\nmod tests { fn helper() {} }\nfn live() {}");
        assert!(!idx.free_by_name.contains_key("helper"));
        assert!(idx.free_by_name.contains_key("live"));
    }

    #[test]
    fn enclosing_fn_picks_the_innermost() {
        let (idx, files) = index("fn outer() { fn inner() { work(); } }");
        let work_tok = files[0]
            .tokens
            .iter()
            .position(|t| t.is_ident("work"))
            .unwrap();
        let id = idx.enclosing_fn(0, work_tok).unwrap();
        assert_eq!(idx.fns[id].name, "inner");
    }

    #[test]
    fn imports_map_names_to_workspace_crates() {
        let files = vec![SourceFile::parse(
            PathBuf::from("crates/search/src/x.rs"),
            "use obs_analytics::{AlexaPanel, LinkGraph};\n\
             use obs_stats::normalize::z_scores;\n\
             use obs_synth::rng::Rng64 as Rng;\n\
             use std::collections::BTreeMap;\n\
             use obs_model::*;\n\
             fn f() {}",
        )];
        let idx = SymbolIndex::build(&files, &["obs_search".to_string()]);
        let imports = &idx.imports[0];
        assert_eq!(imports.names["AlexaPanel"], "obs_analytics");
        assert_eq!(imports.names["LinkGraph"], "obs_analytics");
        assert_eq!(imports.names["z_scores"], "obs_stats");
        assert_eq!(imports.names["Rng"], "obs_synth");
        assert!(!imports.names.contains_key("BTreeMap"));
        assert!(imports.glob_crates.contains("obs_model"));
    }

    #[test]
    fn test_masked_imports_are_ignored() {
        let files = vec![SourceFile::parse(
            PathBuf::from("crates/live/src/x.rs"),
            "#[cfg(test)]\nmod tests { use obs_synth::World; }\nfn f() {}",
        )];
        let idx = SymbolIndex::build(&files, &["obs_live".to_string()]);
        assert!(idx.imports[0].names.is_empty());
    }
}
