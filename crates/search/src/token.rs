//! Tokenization.

/// Minimal English stopword list (enough to keep the index and the
/// sentiment services from drowning in glue words).
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "i", "in", "is", "it", "its", "of", "on", "or", "our", "she", "that",
    "the", "their", "they", "this", "to", "was", "we", "were", "with", "you", "your",
];

/// Whether a token is a stopword.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

/// Lowercases, splits on non-alphanumeric boundaries, drops
/// single-character tokens and stopwords: the collecting form of
/// [`for_each_token`].
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |token| out.push(token.to_owned()));
    out
}

/// Calls `f` with each token of `text`, in order, exactly as
/// [`tokenize`] returns them, building each in `buf` instead of a
/// fresh `String`: a caller that reuses `buf` tokenizes without
/// allocating.
pub fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if !buf.is_empty() {
            emit_token(buf, &mut f);
        }
    }
    if !buf.is_empty() {
        emit_token(buf, &mut f);
    }
}

/// Hands the token in `buf` to `f` unless it is too short or a
/// stopword, and empties `buf`.
fn emit_token(buf: &mut String, f: &mut impl FnMut(&str)) {
    if buf.len() >= 2 && !is_stopword(buf) {
        f(buf);
    }
    buf.clear();
}

/// Whether `term` is already exactly one output token of
/// [`tokenize`], i.e. running it through the tokenizer would return
/// `[term]` unchanged. Deliberately conservative: only ASCII
/// lowercase letters and digits qualify, so any term this accepts
/// can be scored by borrowing it instead of re-tokenizing into fresh
/// allocations (the hot-path case — query terms are usually already
/// normalized).
pub fn is_normalized_token(term: &str) -> bool {
    term.len() >= 2
        && term
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        && !is_stopword(term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn tokenize_basics() {
        assert_eq!(tokenize("The Duomo was AMAZING!"), vec!["duomo", "amazing"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("a I at"), Vec::<String>::new());
    }

    #[test]
    fn tokenize_handles_punctuation_and_digits() {
        assert_eq!(
            tokenize("metro-line 4, opens 2015?"),
            vec!["metro", "line", "opens", "2015"]
        );
    }

    #[test]
    fn for_each_token_reuses_one_buffer() {
        let mut buf = String::from("stale");
        let mut seen = Vec::new();
        for_each_token("Metro-line 4, CAFFÈ a Brera", &mut buf, |t| {
            seen.push(t.to_owned())
        });
        assert_eq!(seen, ["metro", "line", "caffè", "brera"]);
        assert!(buf.is_empty());
    }

    #[test]
    fn tokenize_lowercases_unicode() {
        assert_eq!(tokenize("CAFFÈ Milano"), vec!["caffè", "milano"]);
    }

    #[test]
    fn normalized_token_agrees_with_tokenize() {
        // Accepted terms must be tokenize fixed points.
        for term in ["duomo", "metro4", "x2"] {
            assert!(is_normalized_token(term), "{term}");
            assert_eq!(tokenize(term), vec![term.to_owned()]);
        }
        // Rejected: too short, stopword, uppercase, punctuation,
        // non-ASCII (conservatively sent to the slow path).
        for term in ["x", "the", "Duomo", "metro-line", "caffè", ""] {
            assert!(!is_normalized_token(term), "{term}");
        }
    }
}
