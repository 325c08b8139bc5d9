//! A hand-rolled Rust lexer with span (line) tracking.
//!
//! `syn` is not available offline (the build image has no crates.io
//! access, consistent with the `shims/` approach), so the linter
//! carries its own token scanner. It is deliberately *not* a full
//! Rust grammar: the passes only need a faithful token stream —
//! identifiers, literals, punctuation — with comments separated out
//! (they carry the pragma grammar) and with string/char/comment
//! contents never leaking into the code stream. Getting *that* wrong
//! would make every pass unsound, so the corner cases the workspace
//! actually contains are covered and unit-tested: nested block
//! comments, raw strings, byte strings, byte chars, lifetimes vs.
//! char literals, numeric literals with type suffixes.

/// What a code token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `append`, `HashMap`, …).
    Ident(String),
    /// A lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Any string-like literal (`"…"`, `r#"…"#`, `b"…"`). No pass
    /// reads string contents, so the token carries none.
    Str,
    /// A char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// A numeric literal (`42`, `0xEDB8_8320u32`, `1.5e-3`).
    Num,
    /// A single punctuation character (`.`, `(`, `{`, `!`, …).
    /// Multi-character operators arrive as consecutive tokens.
    Punct(char),
}

/// One code token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the given identifier/keyword.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }
}

/// One comment (line or block) with the 1-based line it starts on.
/// The text excludes the comment markers themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line number of the comment start.
    pub line: u32,
    /// Comment text without `//` / `/* */` markers.
    pub text: String,
}

/// A lexed source file: the comment-free code token stream plus the
/// comments, both line-stamped.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Never fails: unterminated constructs are tolerated
/// by running to end-of-file, which is the right behavior for a
/// linter (the compiler, not the linter, owns rejecting such a
/// file — and every file the linter gates already compiles).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let line = self.line;
            let b = self.src[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                b'r' | b'b' if self.raw_or_byte_literal() => {}
                _ if b == b'_' || b.is_ascii_alphabetic() => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ => {
                    self.pos += 1;
                    self.push(TokenKind::Punct(b as char), line);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.out.tokens.push(Token { kind, line });
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos + 2;
        let mut end = start;
        while end < self.src.len() && self.src[end] != b'\n' {
            end += 1;
        }
        self.out.comments.push(Comment {
            line,
            text: String::from_utf8_lossy(&self.src[start..end]).into_owned(),
        });
        self.pos = end; // the newline advances the line counter itself
    }

    /// Block comments nest in Rust; the depth counter honors that.
    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos + 2;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            match (self.src[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let end = self.pos.saturating_sub(2).max(start);
        self.out.comments.push(Comment {
            line,
            text: String::from_utf8_lossy(&self.src[start..end]).into_owned(),
        });
    }

    /// A `"…"` string with escapes; newlines inside advance the line
    /// counter so later tokens stay correctly stamped.
    fn string(&mut self) {
        let line = self.line;
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokenKind::Str, line);
    }

    /// `'` begins either a lifetime (`'a`, `'_`) or a char literal
    /// (`'x'`, `'\n'`). The disambiguation rustc itself uses: it is
    /// a char literal when an escape follows, or when the character
    /// after the (single) content character is a closing quote.
    fn quote(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let is_char = match next {
            Some(b'\\') => true,
            Some(c) if c == b'_' || c.is_ascii_alphanumeric() => self.peek(2) == Some(b'\''),
            _ => true, // e.g. '(' — a char literal of punctuation
        };
        if is_char {
            self.pos += 1;
            while self.pos < self.src.len() {
                match self.src[self.pos] {
                    b'\\' => self.pos += 2,
                    b'\'' => {
                        self.pos += 1;
                        break;
                    }
                    b'\n' => break, // not a char literal after all; bail
                    _ => self.pos += 1,
                }
            }
            self.push(TokenKind::Char, line);
        } else {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            self.push(TokenKind::Lifetime, line);
        }
    }

    /// Handles the literal prefixes starting with `r` or `b`:
    /// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`. Returns false if
    /// the text is a plain identifier (`raw`, `bytes`, …), leaving
    /// the position untouched for `ident()` to consume.
    fn raw_or_byte_literal(&mut self) -> bool {
        let line = self.line;
        let b0 = self.src[self.pos];
        let rest = &self.src[self.pos..];
        // b'…' — a byte char with ordinary escape rules.
        if b0 == b'b' && rest.get(1) == Some(&b'\'') {
            self.pos += 1;
            self.quote();
            return true;
        }
        // b"…" — a byte string with ordinary escape rules.
        if b0 == b'b' && rest.get(1) == Some(&b'"') {
            self.pos += 1;
            self.string();
            return true;
        }
        // r"…" / r#"…"# / br"…" / br#"…"# — raw strings: no escapes,
        // terminated by a quote followed by the same number of `#`s.
        let hash_start = match (b0, rest.get(1)) {
            (b'r', Some(&b'"' | &b'#')) => 1,
            (b'b', Some(&b'r')) if matches!(rest.get(2), Some(&b'"' | &b'#')) => 2,
            _ => return false,
        };
        let mut hashes = 0usize;
        while rest.get(hash_start + hashes) == Some(&b'#') {
            hashes += 1;
        }
        if rest.get(hash_start + hashes) != Some(&b'"') {
            return false; // r#foo — a raw identifier, not a string
        }
        self.pos += hash_start + hashes + 1;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if self.src[self.pos..].starts_with(&closer) {
                self.pos += closer.len();
                break;
            }
            self.pos += 1;
        }
        self.push(TokenKind::Str, line);
        true
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident(text), line);
    }

    /// Numbers, including `0x…` radix forms, `_` separators, type
    /// suffixes (`u32`), fractions and exponents. A trailing `.` is
    /// consumed only when a digit follows, so ranges (`0..8`) and
    /// method calls on literals (`1.max(2)`) tokenize correctly.
    fn number(&mut self) {
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        }
        // Exponent with an explicit sign (`1e-3`): the sign is not an
        // ident char, so stitch it on here.
        if matches!(self.src.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            && matches!(self.peek(0), Some(b'+' | b'-'))
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
            while self.peek(0).is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.push(TokenKind::Num, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn comments_never_leak_into_code_tokens() {
        let lexed = lex("let a = 1; // unwrap() in a comment\n/* panic! */ let b = 2;");
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("panic")));
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("unwrap()"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let lexed = lex("/* outer /* inner */ still comment */ fn after() {}");
        assert_eq!(idents("/* a /* b */ c */ x"), vec!["x"]);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("after")));
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn strings_hide_their_contents_and_track_lines() {
        let lexed = lex("let s = \"fn unwrap() // not code\";\nlet t = 1;");
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(lexed.comments.is_empty());
        let t_line = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("t"))
            .map(|t| t.line);
        assert_eq!(t_line, Some(2));
    }

    #[test]
    fn raw_and_byte_strings_are_single_tokens() {
        for src in [
            "r\"panic!\" x",
            "r#\"has \" quote and panic!\"# x",
            "b\"panic!\" x",
            "br#\"panic!\"# x",
        ] {
            let lexed = lex(src);
            assert_eq!(lexed.tokens.len(), 2, "{src}");
            assert_eq!(lexed.tokens[0].kind, TokenKind::Str, "{src}");
            assert!(lexed.tokens[1].is_ident("x"), "{src}");
        }
    }

    #[test]
    fn escaped_quotes_do_not_end_a_string() {
        let lexed = lex(r#"f("a\"b", c);"#);
        let kinds: Vec<&TokenKind> = lexed.tokens.iter().map(|t| &t.kind).collect();
        assert_eq!(
            kinds,
            [
                &TokenKind::Ident("f".into()),
                &TokenKind::Punct('('),
                &TokenKind::Str,
                &TokenKind::Punct(','),
                &TokenKind::Ident("c".into()),
                &TokenKind::Punct(')'),
                &TokenKind::Punct(';'),
            ]
        );
    }

    #[test]
    fn lifetimes_and_char_literals_disambiguate() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let b = b'\\n'; }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 3);
    }

    #[test]
    fn numbers_with_suffixes_and_radix_lex_as_one_token() {
        for src in ["0xEDB8_8320u32", "1_000", "1.5e-3", "42usize"] {
            let lexed = lex(src);
            assert_eq!(lexed.tokens.len(), 1, "{src}: {:?}", lexed.tokens);
            assert_eq!(lexed.tokens[0].kind, TokenKind::Num, "{src}");
        }
        // Ranges and literal method calls keep their punctuation.
        assert_eq!(lex("0..8").tokens.len(), 4);
        assert!(lex("1.max(2)").tokens.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn identifiers_starting_with_r_or_b_are_not_strings() {
        assert_eq!(
            idents("raw bytes br b r"),
            vec!["raw", "bytes", "br", "b", "r"]
        );
    }

    #[test]
    fn line_numbers_are_one_based_and_advance() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
