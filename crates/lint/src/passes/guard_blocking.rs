//! Lock guards held across blocking calls.
//!
//! Invariant: readers acquire snapshots in nanoseconds because no
//! lock in the serving path is ever held across an fsync, a thread
//! join, or a (simulated) network round trip. A guard that lives
//! across such a call turns "wait for a pointer swap" into "wait for
//! a disk flush" for every reader behind it.
//!
//! Detection is lexical but shaped like the real lifetimes:
//!
//! * `let g = …​.read()/.write()/.lock()…;` binds a guard that lives
//!   to the end of its enclosing block;
//! * `match …​.read()… { … }` binds guards in its arms that live to
//!   the end of the match block;
//! * an acquisition that is *not* bound (consumed on the same
//!   statement, e.g. `*store.write().unwrap() = x;` or
//!   `let _ = l.read();`) dies at the statement's `;` and is not
//!   tracked.
//!
//! Within a live region, a call to a blocking name (`sync`,
//! `sync_data`, `sync_all`, `join`, `sleep`, `recv`, `wait`) fires
//! the lint unless the guard was explicitly `drop(…)`ped first.
//! Acquisition methods are recognized by their *argument-less* call
//! shape, which keeps `io::Read::read(buf)` and `io::Write::write(buf)`
//! out of scope.

use super::{is_call, is_method_call};
use crate::lexer::TokenKind;
use crate::pass::{Diagnostic, Pass};
use crate::source::SourceFile;

const ACQUIRERS: [&str; 3] = ["read", "write", "lock"];
const BLOCKERS: [&str; 7] = [
    "sync",
    "sync_data",
    "sync_all",
    "join",
    "sleep",
    "recv",
    "wait",
];

/// Whether `tokens[i]` is an argument-less acquisition method call:
/// `.read()`, `.write()` or `.lock()`.
fn is_acquisition(file: &SourceFile, i: usize) -> bool {
    let tokens = &file.tokens;
    tokens[i]
        .ident()
        .is_some_and(|name| ACQUIRERS.contains(&name))
        && is_method_call(tokens, i)
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// Index one past the end of the statement starting at `i`: the
/// first `;` at bracket depth 0, or the end of a `{…}` block that
/// closes the statement (match/if-else initializers).
fn statement_end(file: &SourceFile, start: usize) -> usize {
    let tokens = &file.tokens;
    let mut depth = 0isize;
    let mut i = start;
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct(';') if depth == 0 => return i + 1,
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth < 0 {
                    return i; // fell out of the enclosing block
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// One tracked guard region.
struct Guard {
    /// Pattern identifiers the guard may be bound to (for `drop(g)`).
    names: Vec<String>,
    /// The acquisition site (line) for the message.
    acquired_line: u32,
    /// Token range `(start, end)` the guard is live over.
    live: (usize, usize),
}

/// Runs the pass over one file.
pub fn run(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    let mut guards: Vec<Guard> = Vec::new();

    // Maintain the stack of open `{` while scanning so a `let` can
    // know its enclosing block's extent.
    let mut block_stack: Vec<usize> = Vec::new();
    for i in 0..tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct('{') => block_stack.push(i),
            TokenKind::Punct('}') => {
                block_stack.pop();
            }
            _ => {}
        }
        if file.test_mask[i] || !is_acquisition(file, i) {
            continue;
        }
        // Walk back to the statement head to find how the guard is
        // bound: `let <pat> = …` (block-scoped), `match …` (match-
        // scoped), or neither (temporary — dies at the `;`).
        let stmt_head = statement_head(file, i, &block_stack);
        match stmt_head {
            Head::Let { names } if !names.is_empty() => {
                let end = block_stack
                    .last()
                    .and_then(|open| file.brace_match.get(open))
                    .copied()
                    .unwrap_or(tokens.len());
                guards.push(Guard {
                    names,
                    acquired_line: tokens[i].line,
                    live: (statement_end(file, i), end),
                });
            }
            Head::Match { body_open } => {
                if let Some(&close) = file.brace_match.get(&body_open) {
                    guards.push(Guard {
                        names: Vec::new(),
                        acquired_line: tokens[i].line,
                        live: (body_open + 1, close),
                    });
                }
            }
            _ => {}
        }
    }

    for guard in &guards {
        let mut dropped = false;
        for i in guard.live.0..guard.live.1.min(tokens.len()) {
            if file.test_mask[i] {
                continue;
            }
            // `drop(name)` releases the guard early.
            if tokens[i].is_ident("drop")
                && is_call(tokens, i)
                && tokens
                    .get(i + 2)
                    .and_then(|t| t.ident())
                    .is_some_and(|n| guard.names.iter().any(|g| g == n))
            {
                dropped = true;
            }
            if dropped {
                continue;
            }
            let blocking = tokens[i]
                .ident()
                .is_some_and(|name| BLOCKERS.contains(&name))
                && is_call(tokens, i);
            if blocking {
                file.report(
                    out,
                    Pass::GuardAcrossBlocking,
                    tokens[i].line,
                    format!(
                        "blocking call `{}` while the lock guard acquired at line {} \
                         is live: every reader behind that lock now waits on it",
                        tokens[i].ident().unwrap_or_default(),
                        guard.acquired_line,
                    ),
                );
                break; // one finding per guard region
            }
        }
    }
}

/// How the statement containing an acquisition binds it.
enum Head {
    Let { names: Vec<String> },
    Match { body_open: usize },
    Other,
}

/// Classifies the statement head for the acquisition at `i`.
fn statement_head(file: &SourceFile, i: usize, block_stack: &[usize]) -> Head {
    let tokens = &file.tokens;
    let stmt_floor = block_stack.last().map_or(0, |&open| open + 1);
    // Scan backwards for `let` / `match` before hitting a `;`, a `{`
    // opening our block, or a closing brace (end of a nested block).
    let mut j = i;
    let mut names = Vec::new();
    let mut saw_eq = false;
    while j > stmt_floor {
        j -= 1;
        match &tokens[j].kind {
            TokenKind::Punct(';' | '}' | '{') => break,
            TokenKind::Punct('=') => saw_eq = true,
            TokenKind::Ident(name) if name == "match" => {
                // The match body is the next `{` at depth 0 after i.
                let mut k = i;
                let mut depth = 0isize;
                while k < tokens.len() {
                    match tokens[k].kind {
                        TokenKind::Punct('(' | '[') => depth += 1,
                        TokenKind::Punct(')' | ']') => depth -= 1,
                        TokenKind::Punct('{') if depth == 0 => return Head::Match { body_open: k },
                        _ => {}
                    }
                    k += 1;
                }
                return Head::Other;
            }
            TokenKind::Ident(name) if name == "let" => {
                // Pattern idents sit between `let` and the `=`.
                if !saw_eq {
                    return Head::Other;
                }
                let mut k = j + 1;
                while k < i && !tokens[k].is_punct('=') {
                    if let Some(id) = tokens[k].ident() {
                        if !matches!(id, "mut" | "ref" | "Ok" | "Err" | "Some" | "_") {
                            names.push(id.to_owned());
                        }
                    }
                    k += 1;
                }
                return Head::Let { names };
            }
            _ => {}
        }
    }
    Head::Other
}
