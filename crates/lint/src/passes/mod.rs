//! The repo-specific analyses.
//!
//! Every pass walks the pre-analyzed [`SourceFile`] token stream,
//! skips test-masked tokens, and reports through
//! [`SourceFile::report`] so `lint:allow` pragmas apply uniformly.

pub mod commit_ordering;
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

/// The spans of every non-test `fn` body in the file, as
/// `(name, open_brace_index, close_brace_index)`.
///
/// The body is found as the first `{` after the `fn` name at bracket
/// depth 0 relative to the signature — `where` clauses and return
/// types carry no braces in this workspace's (and most) code.
pub(crate) fn fn_bodies(file: &SourceFile) -> Vec<(String, usize, usize)> {
    let tokens = &file.tokens;
    let mut bodies = Vec::new();
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
        let mut depth = 0isize;
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            match tokens[j].kind {
                crate::lexer::TokenKind::Punct('(' | '[') => depth += 1,
                crate::lexer::TokenKind::Punct(')' | ']') => depth -= 1,
                crate::lexer::TokenKind::Punct('{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                // A body-less declaration (trait method signature).
                crate::lexer::TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        match open.and_then(|o| file.brace_match.get(&o).map(|&c| (o, c))) {
            Some((open, close)) => {
                bodies.push((name.to_owned(), open, close));
                i = open + 1; // nested fns get their own entries
            }
            None => i = j + 1,
        }
    }
    bodies
}
