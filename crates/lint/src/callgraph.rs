//! Phase 1b of the workspace analysis: the call graph.
//!
//! Call sites are extracted from each fn body's token stream and
//! resolved against the [`SymbolIndex`]. Resolution is name-based
//! and deliberately *over*-approximate (a reachability analysis must
//! never miss a real edge), but bounded by what the caller's file
//! can actually see:
//!
//! * a plain call `name(…)` resolves to free fns named `name` in the
//!   caller's own crate, plus any crate the file imports `name` from
//!   (or glob-imports);
//! * a path call `Type::name(…)` / `obs_x::name(…)` resolves through
//!   the qualifier — impl methods of `Type` (if visible), or free
//!   fns of the named crate;
//! * a method call `recv.name(…)` resolves to impl methods named
//!   `name` on types defined in the caller's crate or imported by
//!   the caller's file (the receiver's type is unknown to a lexer,
//!   so every visible candidate gets an edge).
//!
//! Imports inside `#[cfg(test)]` regions don't count, so test-only
//! dependencies (`World::generate` in a `mod tests`) never create
//! production edges.

use crate::lexer::Token;
use crate::source::SourceFile;
use crate::symbols::{FnId, SymbolIndex};
use std::collections::BTreeMap;

/// One resolved call edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// The calling fn.
    pub from: FnId,
    /// The called fn.
    pub to: FnId,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
}

/// The workspace call graph: resolved edges plus reverse adjacency.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All resolved edges, deduplicated, in deterministic order.
    pub edges: Vec<Edge>,
    /// Edge indices by callee — the reverse adjacency the
    /// reachability pass walks.
    pub callers_of: BTreeMap<FnId, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over every fn body in the index.
    pub fn build(files: &[SourceFile], index: &SymbolIndex) -> CallGraph {
        let mut edges = Vec::new();
        for (caller, symbol) in index.fns.iter().enumerate() {
            let file = &files[symbol.file_idx];
            let imports = &index.imports[symbol.file_idx];
            for site in call_sites(file, symbol.body) {
                for callee in resolve(&site, symbol, index, imports) {
                    if callee != caller {
                        edges.push(Edge {
                            from: caller,
                            to: callee,
                            line: site.line,
                        });
                    }
                }
            }
        }
        edges.sort_by_key(|e| (e.from, e.to, e.line));
        edges.dedup();
        let mut graph = CallGraph {
            edges,
            callers_of: BTreeMap::new(),
        };
        for (i, edge) in graph.edges.iter().enumerate() {
            graph.callers_of.entry(edge.to).or_default().push(i);
        }
        graph
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` with no path or receiver.
    Plain,
    /// `recv.name(…)`.
    Method,
    /// `Qual::name(…)`.
    Path {
        /// The segment directly before `::name` (`Qual`).
        qual: String,
        /// The leading path segment (equals `qual` for two-segment
        /// paths).
        root: String,
    },
}

/// One unresolved call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (last path segment).
    pub name: String,
    /// The call shape.
    pub kind: CallKind,
    /// 1-based line.
    pub line: u32,
}

/// Extracts every non-test call site in the body token range.
pub fn call_sites(file: &SourceFile, body: (usize, usize)) -> Vec<CallSite> {
    let tokens = &file.tokens;
    let mut sites = Vec::new();
    for i in body.0 + 1..body.1.min(tokens.len()) {
        if file.test_mask[i] || !crate::passes::is_call(tokens, i) {
            continue;
        }
        let name = tokens[i].ident().unwrap_or_default().to_owned();
        let kind = if i > 0 && tokens[i - 1].is_punct('.') {
            CallKind::Method
        } else if i >= 3 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
            let qual = tokens
                .get(i - 3)
                .and_then(Token::ident)
                .unwrap_or_default()
                .to_owned();
            // Walk the path back to its root segment.
            let mut j = i - 3;
            let mut root = qual.clone();
            while j >= 3
                && tokens[j - 1].is_punct(':')
                && tokens[j - 2].is_punct(':')
                && tokens[j - 3].ident().is_some()
            {
                j -= 3;
                root = tokens[j].ident().unwrap_or_default().to_owned();
            }
            if qual.is_empty() {
                CallKind::Plain
            } else {
                CallKind::Path { qual, root }
            }
        } else {
            CallKind::Plain
        };
        sites.push(CallSite {
            name,
            kind,
            line: tokens[i].line,
        });
    }
    sites
}

/// Resolves a call site to candidate callees.
fn resolve(
    site: &CallSite,
    caller: &crate::symbols::FnSymbol,
    index: &SymbolIndex,
    imports: &crate::symbols::FileImports,
) -> Vec<FnId> {
    let visible_crate =
        |krate: &str| -> bool { krate == caller.krate || imports.glob_crates.contains(krate) };
    let type_visible = |ty: &str, krate: &str| -> bool {
        visible_crate(krate) || imports.names.get(ty).is_some_and(|k| k == krate)
    };
    let name_visible = |name: &str, krate: &str| -> bool {
        visible_crate(krate) || imports.names.get(name).is_some_and(|k| k == krate)
    };
    let empty = Vec::new();
    match &site.kind {
        CallKind::Plain => index
            .free_by_name
            .get(&site.name)
            .unwrap_or(&empty)
            .iter()
            .copied()
            .filter(|&id| name_visible(&site.name, &index.fns[id].krate))
            .collect(),
        CallKind::Method => index
            .methods_by_name
            .get(&site.name)
            .unwrap_or(&empty)
            .iter()
            .copied()
            .filter(|&id| {
                let sym = &index.fns[id];
                let ty = sym.impl_type.as_deref().unwrap_or_default();
                type_visible(ty, &sym.krate)
            })
            .collect(),
        CallKind::Path { qual, root } => {
            // `Self::helper(…)` — the caller's own impl type.
            let qual = if qual == "Self" {
                caller.impl_type.clone().unwrap_or_else(|| qual.clone())
            } else {
                qual.clone()
            };
            let mut out: Vec<FnId> = index
                .methods_by_name
                .get(&site.name)
                .unwrap_or(&empty)
                .iter()
                .copied()
                .filter(|&id| {
                    let sym = &index.fns[id];
                    sym.impl_type.as_deref() == Some(qual.as_str())
                        && (type_visible(&qual, &sym.krate) || root == &sym.krate)
                })
                .collect();
            // Crate- or module-qualified free fns:
            // `obs_stats::spearman(…)`, `normalize::z_scores(…)`.
            out.extend(
                index
                    .free_by_name
                    .get(&site.name)
                    .unwrap_or(&empty)
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let sym = &index.fns[id];
                        let root_names_crate =
                            root == &sym.krate || (root == "crate" && sym.krate == caller.krate);
                        root_names_crate
                            || visible_crate(&sym.krate)
                            || name_visible(&qual, &sym.krate)
                    }),
            );
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn graph(files: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolIndex, CallGraph) {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(PathBuf::from(path), src))
            .collect();
        let krates: Vec<String> = files
            .iter()
            .map(|(path, _)| {
                let dir = path.split('/').nth(1).unwrap_or("x");
                format!("obs_{dir}")
            })
            .collect();
        let index = SymbolIndex::build(&parsed, &krates);
        let cg = CallGraph::build(&parsed, &index);
        (parsed, index, cg)
    }

    fn edge_names(index: &SymbolIndex, cg: &CallGraph) -> Vec<(String, String)> {
        cg.edges
            .iter()
            .map(|e| (index.fns[e.from].name.clone(), index.fns[e.to].name.clone()))
            .collect()
    }

    #[test]
    fn same_crate_plain_calls_resolve() {
        let (_, index, cg) = graph(&[(
            "crates/live/src/a.rs",
            "fn caller() { helper(); }\nfn helper() {}",
        )]);
        assert_eq!(
            edge_names(&index, &cg),
            vec![("caller".to_string(), "helper".to_string())]
        );
    }

    #[test]
    fn cross_crate_calls_need_an_import() {
        let (_, index, cg) = graph(&[
            (
                "crates/live/src/a.rs",
                "use obs_stats::quantile;\nfn caller() { quantile(); }",
            ),
            ("crates/stats/src/lib.rs", "pub fn quantile() {}"),
            // Same name in an unimported crate: no edge.
            ("crates/synth/src/lib.rs", "pub fn quantile() {}"),
        ]);
        let names: Vec<(String, String)> = edge_names(&index, &cg);
        assert_eq!(names.len(), 1);
        assert_eq!(index.fns[cg.edges[0].to].krate, "obs_stats");
    }

    #[test]
    fn method_calls_resolve_to_imported_types_only() {
        let (_, index, cg) = graph(&[
            (
                "crates/search/src/a.rs",
                "use obs_analytics::LinkGraph;\nfn caller(g: &LinkGraph) { g.outbound(); }",
            ),
            (
                "crates/analytics/src/links.rs",
                "impl LinkGraph { pub fn outbound(&self) {} }\n\
                 impl Other { pub fn outbound(&self) {} }",
            ),
            (
                "crates/mashup/src/x.rs",
                "impl Widget { pub fn outbound(&self) {} }",
            ),
        ]);
        // LinkGraph::outbound reachable (type imported); Other and
        // Widget are not visible from the caller's file.
        let tos: Vec<&str> = cg
            .edges
            .iter()
            .map(|e| index.fns[e.to].impl_type.as_deref().unwrap())
            .collect();
        assert_eq!(tos, vec!["LinkGraph"]);
    }

    #[test]
    fn self_path_calls_resolve_to_own_impl() {
        let (_, index, cg) = graph(&[(
            "crates/live/src/a.rs",
            "impl S { fn a(&self) { Self::b(); } fn b() {} }",
        )]);
        assert_eq!(
            edge_names(&index, &cg),
            vec![("a".to_string(), "b".to_string())]
        );
    }

    #[test]
    fn crate_qualified_free_fns_resolve() {
        let (_, index, cg) = graph(&[
            (
                "crates/search/src/a.rs",
                "fn caller() { obs_stats::spearman(); }",
            ),
            ("crates/stats/src/lib.rs", "pub fn spearman() {}"),
        ]);
        assert_eq!(
            edge_names(&index, &cg),
            vec![("caller".to_string(), "spearman".to_string())]
        );
    }

    #[test]
    fn test_code_creates_no_edges() {
        let (_, index, cg) = graph(&[
            (
                "crates/live/src/a.rs",
                "#[cfg(test)]\nmod tests { use obs_synth::boom; fn t() { boom(); } }\n\
                 fn live() {}",
            ),
            ("crates/synth/src/lib.rs", "pub fn boom() {}"),
        ]);
        assert!(cg.edges.is_empty(), "{:?}", edge_names(&index, &cg));
    }

    #[test]
    fn recursion_does_not_self_edge() {
        let (_, index, cg) = graph(&[("crates/live/src/a.rs", "fn f() { f(); }")]);
        assert!(cg.edges.is_empty(), "{:?}", edge_names(&index, &cg));
    }
}
