//! The repo-specific analyses.
//!
//! Every pass walks the pre-analyzed [`SourceFile`] token stream,
//! skips test-masked tokens, and reports through
//! [`SourceFile::report`] so `lint:allow` pragmas apply uniformly.

pub mod determinism;
pub mod discarded_result;
pub mod guard_blocking;
pub mod panic_freedom;
pub mod panic_reachability;

use crate::lexer::Token;
use crate::source::SourceFile;

/// Whether `tokens[i]` is the name of a call: an identifier directly
/// followed by `(`, and not a declaration (`fn name(`).
pub(crate) fn is_call(tokens: &[Token], i: usize) -> bool {
    tokens[i].ident().is_some()
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        && !(i > 0 && tokens[i - 1].is_ident("fn"))
}

/// Whether `tokens[i]` is a *method* call name (`recv.name(…)`).
pub(crate) fn is_method_call(tokens: &[Token], i: usize) -> bool {
    is_call(tokens, i) && i > 0 && tokens[i - 1].is_punct('.')
}

/// Iterator over the indices of non-test code tokens.
pub(crate) fn live_indices(file: &SourceFile) -> impl Iterator<Item = usize> + '_ {
    (0..file.tokens.len()).filter(|&i| !file.test_mask[i])
}
