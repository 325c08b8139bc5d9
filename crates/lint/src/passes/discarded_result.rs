//! Silently discarded fallible commit-path results.
//!
//! Invariant: durability errors are part of the crash-safety
//! contract — an fsync or journal write that fails must either
//! propagate or be *visibly* waived. `let _ = file.sync_data();`
//! compiles clean (it defeats `#[must_use]`), which is exactly why
//! it needs a human-readable justification:
//! `// lint:allow(discard): <reason>`.
//!
//! The pass flags `let _ = <expr>;` statements whose initializer
//! calls one of the fallible commit/fsync names. Plain `let _ =`
//! on non-commit expressions (e.g. silencing an unused value) is
//! out of scope.

use super::is_call;
use crate::lexer::TokenKind;
use crate::pass::{Diagnostic, Pass};
use crate::source::SourceFile;

const FALLIBLE_COMMIT: [&str; 9] = [
    "sync",
    "sync_data",
    "sync_all",
    "set_len",
    "seek",
    "commit",
    "append",
    "append_batch",
    "flush",
];

/// Runs the pass over one file.
pub fn run(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        let is_discard = tokens[i].is_ident("let")
            && !file.test_mask[i]
            && tokens[i + 1].is_ident("_")
            && tokens[i + 2].is_punct('=');
        if !is_discard {
            i += 1;
            continue;
        }
        // Scan the initializer up to the statement's `;` for a call
        // to a fallible commit name.
        let mut depth = 0isize;
        let mut j = i + 3;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct(';') if depth == 0 => break,
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                _ => {}
            }
            let name = tokens[j].ident().unwrap_or_default();
            if FALLIBLE_COMMIT.contains(&name) && is_call(tokens, j) {
                file.report(
                    out,
                    Pass::DiscardedResult,
                    tokens[i].line,
                    format!(
                        "`let _ =` discards the result of fallible `{name}`: \
                         propagate the error or justify with \
                         `// lint:allow(discard): <reason>`"
                    ),
                );
                break; // one finding per statement
            }
            j += 1;
        }
        i = j;
    }
}
