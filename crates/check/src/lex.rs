//! A std-only Rust lexer producing a lossless token stream with spans.
//!
//! The v1 lint engine was a per-line character state machine: it blanked
//! string literals in place and could not see across lines, which made
//! multi-line raw strings, attribute-spanning items, and statement-level
//! reasoning (SAFETY coverage, lock guard scopes) either impossible or
//! silently wrong. This lexer replaces it with a real tokenizer:
//!
//! * **Lossless**: tokens tile the input exactly — concatenating every
//!   token's text reproduces the source byte for byte (property-tested
//!   over the whole workspace corpus). Analyses therefore never lose
//!   track of what line or byte they are looking at.
//! * **Raw strings** (`r"…"`, `r#"…"#`, any hash depth, plus `b"…"` /
//!   `br#"…"#`) and **raw identifiers** (`r#match`) are disambiguated.
//! * **Nested block comments** (`/* a /* b */ c */`) are tracked to
//!   arbitrary depth; doc comments (`///`, `//!`, `/** */`, `/*! */`)
//!   are distinguished from plain comments.
//! * **Char literals vs lifetimes** (`'a'` vs `'a`, `'\n'`, `'_`) use
//!   lookahead, not line-local guessing.
//!
//! Everything downstream — the lint rules, the item parser / call graph,
//! and the lock-order analysis — consumes this stream.

/// Classification of one token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers `r#ident`).
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`) — no closing quote.
    Lifetime,
    /// Char or byte-char literal (`'x'`, `'\n'`, `b'x'`).
    CharLit,
    /// String or byte-string literal (`"…"`, `b"…"`), escapes intact.
    StrLit,
    /// Raw (byte) string literal (`r"…"`, `r#"…"#`, `br"…"`).
    RawStrLit,
    /// Numeric literal (loose: `12`, `0x1f`, `1.5e-3`, `8usize`).
    NumLit,
    /// Plain line comment (`//`), text includes the slashes.
    LineComment,
    /// Doc comment (`///`, `//!`, `/** */`, `/*! */`).
    DocComment,
    /// Plain block comment (`/* */`, nested).
    BlockComment,
    /// One punctuation byte (`.`, `:`, `{`, …). Multi-byte operators are
    /// emitted as consecutive one-byte tokens; analyses match sequences.
    Punct,
    /// Whitespace run (may contain newlines).
    White,
}

impl TokKind {
    /// Whether the token is code (not comment, not whitespace). String
    /// literals count as code *tokens* but rules that look for source
    /// constructs must check the kind — a keyword inside a string is a
    /// `StrLit`, never an `Ident`.
    pub fn is_code(self) -> bool {
        !matches!(
            self,
            TokKind::LineComment | TokKind::DocComment | TokKind::BlockComment | TokKind::White
        )
    }

    /// Whether the token is any kind of comment.
    pub fn is_comment(self) -> bool {
        matches!(
            self,
            TokKind::LineComment | TokKind::DocComment | TokKind::BlockComment
        )
    }
}

/// One token: kind + byte span + 1-based line of its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Byte offset of the first byte (inclusive).
    pub lo: usize,
    /// Byte offset one past the last byte (exclusive).
    pub hi: usize,
    /// 1-based line number of the first byte.
    pub line: u32,
}

impl Tok {
    /// The token's text within its source.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.lo..self.hi]
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Tokenize `src`. Never fails: unterminated literals/comments run to
/// end of input (the workspace corpus test keeps us honest on real code).
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Number of newlines in b[lo..hi].
    let newlines = |lo: usize, hi: usize| b[lo..hi].iter().filter(|&&c| c == b'\n').count() as u32;

    while i < n {
        let lo = i;
        let start_line = line;
        let c = b[i];
        let kind = if c.is_ascii_whitespace() {
            while i < n && b[i].is_ascii_whitespace() {
                i += 1;
            }
            TokKind::White
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let doc = {
                let rest = &b[i..];
                (rest.len() > 3 && rest[2] == b'/' && rest.get(3) != Some(&b'/'))
                    || (rest.len() >= 3 && rest[2] == b'!')
            };
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            if doc {
                TokKind::DocComment
            } else {
                TokKind::LineComment
            }
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let doc = {
                let rest = &b[i..];
                (rest.len() > 4 && rest[2] == b'*' && rest[3] != b'*' && rest[3] != b'/')
                    || (rest.len() > 3 && rest[2] == b'!')
            };
            i += 2;
            let mut depth = 1u32;
            while i < n && depth > 0 {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            if doc {
                TokKind::DocComment
            } else {
                TokKind::BlockComment
            }
        } else if (c == b'r' || c == b'b') && raw_or_str_prefix(b, i).is_some() {
            // r"…" / r#…#"…" / b"…" / br#"…"# / b'…' / r#ident.
            let (kind, end) = raw_or_str_prefix(b, i).unwrap_or((TokKind::Ident, i + 1));
            i = end;
            kind
        } else if is_ident_start(c) {
            while i < n && is_ident_cont(b[i]) {
                i += 1;
            }
            TokKind::Ident
        } else if c.is_ascii_digit() {
            i = lex_number(b, i);
            TokKind::NumLit
        } else if c == b'"' {
            i = lex_string(b, i + 1, 0);
            TokKind::StrLit
        } else if c == b'\'' {
            // Lifetime or char literal.
            let next = b.get(i + 1).copied();
            match next {
                Some(x) if is_ident_start(x) => {
                    // 'a' is a char, 'a / 'abc a lifetime: a literal has a
                    // closing quote right after one ident char.
                    if b.get(i + 2) == Some(&b'\'') {
                        i += 3;
                        TokKind::CharLit
                    } else {
                        i += 1;
                        while i < n && is_ident_cont(b[i]) {
                            i += 1;
                        }
                        TokKind::Lifetime
                    }
                }
                Some(b'\\') => {
                    i = lex_char_tail(b, i + 1);
                    TokKind::CharLit
                }
                Some(_) => {
                    i = lex_char_tail(b, i + 1);
                    TokKind::CharLit
                }
                None => {
                    i += 1;
                    TokKind::Punct
                }
            }
        } else {
            i += 1;
            TokKind::Punct
        };
        line += newlines(lo, i);
        toks.push(Tok {
            kind,
            lo,
            hi: i,
            line: start_line,
        });
    }
    toks
}

/// If `b[i..]` starts a raw string / byte string / byte char / raw ident,
/// return its kind and end offset.
fn raw_or_str_prefix(b: &[u8], i: usize) -> Option<(TokKind, usize)> {
    let n = b.len();
    let c = b[i];
    // Identifier boundary: `car"x"` is ident `car` then a string — the
    // caller only reaches us when `i` starts a token, so no check needed.
    if c == b'b' {
        match b.get(i + 1) {
            Some(b'"') => return Some((TokKind::StrLit, lex_string(b, i + 2, 0))),
            Some(b'\'') => return Some((TokKind::CharLit, lex_char_tail(b, i + 2))),
            Some(b'r') => {
                let mut j = i + 2;
                let mut hashes = 0usize;
                while j < n && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == b'"' {
                    return Some((TokKind::RawStrLit, lex_raw_tail(b, j + 1, hashes)));
                }
                return None;
            }
            _ => return None,
        }
    }
    // c == 'r'
    let mut j = i + 1;
    let mut hashes = 0usize;
    while j < n && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < n && b[j] == b'"' {
        return Some((TokKind::RawStrLit, lex_raw_tail(b, j + 1, hashes)));
    }
    if hashes == 1 && j < n && is_ident_start(b[j]) {
        // Raw identifier r#match.
        while j < n && is_ident_cont(b[j]) {
            j += 1;
        }
        return Some((TokKind::Ident, j));
    }
    None
}

/// Body of a normal string starting right after the opening quote.
fn lex_string(b: &[u8], mut i: usize, _hashes: usize) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            b'\\' => i = (i + 2).min(n),
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Body of a raw string: scan for `"` followed by `hashes` `#`s.
fn lex_raw_tail(b: &[u8], mut i: usize, hashes: usize) -> usize {
    let n = b.len();
    while i < n {
        if b[i] == b'"'
            && b[i + 1..].len() >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    n
}

/// Tail of a char literal starting right after the opening quote.
fn lex_char_tail(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            b'\\' => i = (i + 2).min(n),
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Loose numeric literal: digits, `_`, radix/suffix letters, one decimal
/// point when followed by a digit, exponent sign after `e`/`E` (only in
/// decimal floats, where a hex literal cannot have reached a `.`/sign).
fn lex_number(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    let hex = b[i] == b'0' && matches!(b.get(i + 1), Some(b'x') | Some(b'X'));
    while i < n {
        let c = b[i];
        if c.is_ascii_alphanumeric() || c == b'_' {
            i += 1;
            // Exponent sign: 1e-3 / 2.5E+7 (decimal only — 0x1e-3 is
            // `0x1e` minus `3`).
            if !hex
                && (c == b'e' || c == b'E')
                && matches!(b.get(i), Some(b'+') | Some(b'-'))
                && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())
            {
                i += 1;
            }
        } else if c == b'.'
            && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())
            && b.get(i.wrapping_sub(1)).is_some_and(|d| d.is_ascii_digit())
        {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Re-emit a token stream: exact concatenation of every token's text.
/// `lex` followed by `emit` is the identity on any input (the round-trip
/// property the corpus test asserts for every workspace source file).
pub fn emit(src: &str, toks: &[Tok]) -> String {
    let mut out = String::with_capacity(src.len());
    for t in toks {
        out.push_str(t.text(src));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .filter(|t| t.kind != TokKind::White)
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn roundtrip(src: &str) {
        let toks = lex(src);
        assert_eq!(emit(src, &toks), src, "lossless round-trip");
        // Tokens tile the input: no gaps, no overlaps.
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.lo, pos, "gap before {t:?}");
            assert!(t.hi > t.lo, "empty token {t:?}");
            pos = t.hi;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        for src in [
            "let s = r\"unsafe { }\";",
            "let s = r#\"has \" quote\"#;",
            "let s = r##\"has \"# inside\"##;",
            "let s = br#\"bytes\"#;",
            "let s = b\"bytes\";",
        ] {
            roundtrip(src);
            let ks = kinds(src);
            assert!(
                ks.iter()
                    .any(|(k, _)| matches!(k, TokKind::RawStrLit | TokKind::StrLit)),
                "{src}: {ks:?}"
            );
            assert!(
                !ks.iter()
                    .any(|(k, t)| *k == TokKind::Ident && t.contains("unsafe")),
                "keyword inside literal leaked: {ks:?}"
            );
        }
    }

    #[test]
    fn multi_line_raw_string_hides_tokens() {
        let src = "let s = r#\"line one\nx.unwrap()\nline three\"#;\nf();\n";
        roundtrip(src);
        let ks = kinds(src);
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Ident && t == "f"));
        // The token after the raw string knows its real line.
        let toks = lex(src);
        let f = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.text(src) == "f")
            .unwrap();
        assert_eq!(f.line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* unsafe { } */ b */ fn f() {}";
        roundtrip(src);
        let ks = kinds(src);
        assert_eq!(ks[0].0, TokKind::BlockComment);
        assert!(ks[0].1.ends_with("b */"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Ident && t == "fn"));
    }

    #[test]
    fn doc_comments_distinguished() {
        let src =
            "/// docs\n//! inner\n// plain\n/** block doc */\n/*! inner block */\n/* plain */\n";
        roundtrip(src);
        let ks = kinds(src);
        let seq: Vec<TokKind> = ks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            seq,
            vec![
                TokKind::DocComment,
                TokKind::DocComment,
                TokKind::LineComment,
                TokKind::DocComment,
                TokKind::DocComment,
                TokKind::BlockComment,
            ]
        );
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\"'; let e = '\\''; let u = '_'; }";
        roundtrip(src);
        let ks = kinds(src);
        let lifetimes: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let chars = ks.iter().filter(|(k, _)| *k == TokKind::CharLit).count();
        assert_eq!(chars, 4, "{ks:?}");
    }

    #[test]
    fn underscore_lifetime_and_static() {
        let src = "fn f(x: &'_ str, y: &'static str) {}";
        roundtrip(src);
        let ls: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(ls, vec!["'_", "'static"]);
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#match = 1; let r = 2;";
        roundtrip(src);
        let ks = kinds(src);
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#match"));
    }

    #[test]
    fn numbers_stay_loose_but_tiled() {
        for src in [
            "let x = 1..10;",
            "let y = 1.5e-3 + 0x1f + 8usize + 1_000;",
            "let z = v[0].max(1.0);",
            "let w = 0x1e-3;",
        ] {
            roundtrip(src);
        }
        let ks = kinds("let x = 1..10;");
        let nums: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::NumLit)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, vec!["1", "10"], "range must not glue: {ks:?}");
    }

    #[test]
    fn attributes_and_strings_with_escapes() {
        let src = "#[doc = \"has \\\" quote and \\n\"]\nfn f() { let s = \"unsafe\"; }";
        roundtrip(src);
        let ks = kinds(src);
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unsafe"));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "// x", "b\"x", "1."] {
            let toks = lex(src);
            assert_eq!(emit(src, &toks), src);
        }
    }

    #[test]
    fn line_numbers_track_every_token() {
        let src = "a\nb /* c\nd */ e\nf\n";
        let toks = lex(src);
        let at = |name: &str| toks.iter().find(|t| t.text(src) == name).unwrap().line;
        assert_eq!(at("a"), 1);
        assert_eq!(at("b"), 2);
        assert_eq!(at("e"), 3);
        assert_eq!(at("f"), 4);
    }
}
