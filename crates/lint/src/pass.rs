//! Pass identities and diagnostics.

use std::fmt;
use std::path::PathBuf;

/// The analyses the linter runs. Each maps to a named invariant in
/// ARCHITECTURE.md's invariant→test matrix ("Static analysis"
/// section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// No `.unwrap()` / `.expect()` / `panic!`-family macros in
    /// non-test code of the serving crates. Pragma key: `panic`.
    PanicFreedom,
    /// No lock guard held across a blocking call (fsync, thread
    /// join, simulated RTT). Pragma key: `guard`.
    GuardAcrossBlocking,
    /// No `HashMap`/`HashSet` and no wall-clock reads in modules
    /// tagged `lint:deterministic`. Pragma key: `determinism`.
    Determinism,
    /// `let _ =` on a fallible commit/fsync call needs a pragma.
    /// Pragma key: `discard`.
    DiscardedResult,
    /// A direct panic site (`unwrap`, `expect`, `panic!`-family,
    /// slice/array indexing) in a *non*-serving crate that the
    /// workspace call graph proves reachable from a function defined
    /// in a serving crate. Pragma key: `reach` — a pragma on a call
    /// edge (the call-site line) or on the panic site itself cuts
    /// every chain through it.
    PanicReachability,
    /// A malformed `lint:allow` pragma (reasonless, unknown pass).
    /// Not suppressible — a typo'd suppression must not hide itself.
    Pragma,
    /// A source file the linter must gate but could not read. Not suppressible — the linter never silently
    /// skips part of its surface.
    Io,
}

impl Pass {
    /// The pragma keys, in pass order (excluding the
    /// non-suppressible `Pragma` and `Io`).
    pub const KEYS: [&'static str; 5] = ["panic", "guard", "determinism", "discard", "reach"];

    /// Parses a pragma key.
    pub fn from_key(key: &str) -> Option<Pass> {
        match key {
            "panic" => Some(Pass::PanicFreedom),
            "guard" => Some(Pass::GuardAcrossBlocking),
            "determinism" => Some(Pass::Determinism),
            "discard" => Some(Pass::DiscardedResult),
            "reach" => Some(Pass::PanicReachability),
            _ => None,
        }
    }

    /// The name diagnostics print.
    pub fn name(self) -> &'static str {
        match self {
            Pass::PanicFreedom => "panic-freedom",
            Pass::GuardAcrossBlocking => "guard-across-blocking",
            Pass::Determinism => "determinism",
            Pass::DiscardedResult => "discarded-result",
            Pass::PanicReachability => "panic-reachability",
            Pass::Pragma => "pragma",
            Pass::Io => "io",
        }
    }

    /// The stable key fixture markers use (the pragma key where one
    /// exists).
    pub fn key(self) -> &'static str {
        match self {
            Pass::PanicFreedom => "panic",
            Pass::GuardAcrossBlocking => "guard",
            Pass::Determinism => "determinism",
            Pass::DiscardedResult => "discard",
            Pass::PanicReachability => "reach",
            Pass::Pragma => "pragma",
            Pass::Io => "io",
        }
    }
}

/// One finding: file, line, pass, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the finding is in (relative to the lint root).
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// The pass that fired.
    pub pass: Pass,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.pass.name(),
            self.message
        )
    }
}
