//! `obs_lint`: the in-tree invariant linter for the delta pipeline.
//!
//! The workspace's correctness story rests on a handful of
//! invariants that the type system cannot see — panic-free serving
//! paths, deterministic replay, locks never held across blocking
//! calls, durability errors never silently dropped. Each is
//! documented in ARCHITECTURE.md and exercised by tests, but tests
//! only cover the call sites they know about; a new code path can
//! violate the contract without failing anything. This crate closes
//! that gap: a hand-rolled Rust lexer (no `syn` — the image is
//! offline and the linter must gate every other crate without
//! sitting downstream of one) feeding two analysis phases that fail
//! CI with `file:line` findings.
//!
//! **Phase 1** indexes the whole workspace: every `fn` with its
//! crate, impl type and body span ([`symbols`]), and an
//! import-gated, over-approximate call graph over those symbols
//! ([`callgraph`]). **Phase 2** runs the passes. Four are per-file
//! (panic-freedom on serving crates, guard across blocking,
//! determinism, discarded results) and one is interprocedural over
//! the phase-1 graph: `reach` walks panic sites in *non*-serving
//! crates backwards to serving entry points and prints the call
//! chain. The linter reads Rust sources only.
//!
//! The journal→fsync→apply→publish order is not a lint: it is
//! pinned by the `obs_live` shard tests that refuse an fsync and
//! check that neither the engine nor the served snapshot moved.
//!
//! Suppression is explicit and justified:
//!
//! ```text
//! // lint:allow(<pass>): <reason>
//! ```
//!
//! where `<pass>` is one of `panic`, `guard`, `determinism`,
//! `discard`, `reach`. A trailing pragma covers its own line; a
//! standalone comment covers the next code line. For `reach`, the
//! pragma can also sit on a call-edge line to vouch for that edge
//! (cutting every chain through it). A reasonless or unknown-pass
//! pragma is itself a (non-suppressible) finding. Files opting into
//! replay-determinism checks carry a `// lint:deterministic`
//! comment.
//!
//! The CLI (`obs_lint check`) prints text or `--format github`
//! annotations and exits non-zero on any finding.

#![warn(missing_docs)]

pub mod callgraph;
pub mod emit;
pub mod lexer;
pub mod pass;
pub mod passes;
pub mod runner;
pub mod source;
pub mod symbols;
pub mod workspace;

pub use pass::{Diagnostic, Pass};
pub use runner::{check, lint_source, workspace_sources};
pub use workspace::Workspace;
