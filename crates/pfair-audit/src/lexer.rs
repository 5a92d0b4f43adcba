//! A small hand-rolled Rust lexer.
//!
//! The audit runs in an offline build environment with no access to
//! `syn`/`proc-macro2`, so it works on a token stream produced here.
//! The lexer understands everything needed to reason *lexically* about
//! Rust source without mis-tokenizing: line and nested block comments,
//! plain/raw/byte string literals, char literals versus lifetimes, raw
//! identifiers, and numeric literals with their type suffixes.
//!
//! It builds no syntax tree: [`crate::parser`] shapes the token stream,
//! and [`crate::lints`] reads the `audit:` directives from its comments
//! and clippy's `#[expect]` attributes from its tokens.

/// Token classification, as fine-grained as the parser needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (keywords are not distinguished).
    Ident,
    /// Integer literal; `suffix` is the explicit type suffix, if any
    /// (e.g. `i128` in `5i128`).
    Int {
        /// Explicit type suffix, e.g. `u64`, if present.
        suffix: Option<String>,
    },
    /// Floating-point literal (`1.0`, `1e3`, `2.5f64`, …).
    Float,
    /// String literal of any flavor (plain, raw, byte).
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime such as `'a` or `'static`.
    Lifetime,
    /// Punctuation; multi-character for `->`, `=>`, `::`, `..`, `..=`.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (for raw identifiers, without the `r#` prefix;
    /// for a string literal, its source text, quotes included).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A comment, kept out-of-band so lints can read `// audit: allow(..)`
/// annotations.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body without the `//` / `/*` delimiters.
    pub text: String,
}

/// A lexed source file: code tokens, comments, and per-token test-region
/// membership.
#[derive(Debug, Default)]
pub struct LexFile {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// `in_test[i]` is true when `toks[i]` sits under a `#[cfg(test)]`
    /// / `#[test]` / `#[bench]` item.
    pub in_test: Vec<bool>,
}

impl LexFile {
    /// Lexes `src`, then marks test regions.
    pub fn lex(src: &str) -> LexFile {
        let mut f = lex_tokens(src);
        f.in_test = mark_test_regions(&f.toks);
        f
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

struct Cursor<'a> {
    rest: &'a str,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    fn peek2(&self) -> Option<char> {
        self.rest.chars().nth(1)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.rest.chars().next()?;
        self.rest = &self.rest[c.len_utf8()..];
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if pred(c) {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }
}

fn lex_tokens(src: &str) -> LexFile {
    let mut cur = Cursor { rest: src, line: 1 };
    let mut out = LexFile::default();

    while let Some(c) = cur.peek() {
        let line = cur.line;
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek2() == Some('/') {
            cur.bump();
            cur.bump();
            let text = cur.eat_while(|c| c != '\n');
            out.comments.push(Comment { line, text });
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            let mut text = String::new();
            while depth > 0 {
                match (cur.peek(), cur.peek2()) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                        text.push_str("/*");
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                        if depth > 0 {
                            text.push_str("*/");
                        }
                    }
                    (Some(ch), _) => {
                        text.push(ch);
                        cur.bump();
                    }
                    (None, _) => break, // unterminated; tolerate
                }
            }
            out.comments.push(Comment { line, text });
            continue;
        }
        // Raw strings / raw identifiers / byte strings: r"..", r#".."#,
        // r#ident, b"..", br#".."#, b'x'.
        if c == 'r' || c == 'b' {
            if let Some(tok) = try_lex_prefixed(&mut cur, line) {
                out.toks.push(tok);
                continue;
            }
        }
        if is_ident_start(c) {
            let text = cur.eat_while(is_ident_continue);
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            out.toks.push(lex_number(&mut cur, line));
            continue;
        }
        if c == '"' {
            let start = cur.rest;
            cur.bump();
            lex_plain_string(&mut cur, '"');
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: start[..start.len() - cur.rest.len()].to_string(),
                line,
            });
            continue;
        }
        if c == '\'' {
            out.toks.push(lex_quote(&mut cur, line));
            continue;
        }
        // Punctuation; join the few multi-char tokens whose parts would
        // otherwise confuse the lints (`->` is not a minus).
        cur.bump();
        let joined = match (c, cur.peek()) {
            ('-', Some('>')) | ('=', Some('>')) => {
                cur.bump();
                format!("{c}>")
            }
            (':', Some(':')) => {
                cur.bump();
                "::".to_string()
            }
            ('.', Some('.')) => {
                cur.bump();
                if cur.peek() == Some('=') {
                    cur.bump();
                    "..=".to_string()
                } else {
                    "..".to_string()
                }
            }
            _ => c.to_string(),
        };
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: joined,
            line,
        });
    }
    out
}

/// Lexes tokens that start with `r` or `b`: raw strings, raw
/// identifiers, byte strings, and byte chars. Returns `None` when the
/// prefix turns out to begin a plain identifier, leaving the cursor
/// untouched.
fn try_lex_prefixed(cur: &mut Cursor<'_>, line: u32) -> Option<Tok> {
    let rest = cur.rest;
    let mut chars = rest.chars();
    let first = chars.next()?;
    let mut prefix_len = 1;
    let mut second = chars.next();
    if first == 'b' && second == Some('r') {
        prefix_len = 2;
        second = chars.next();
    }
    match second {
        Some('"') => {
            for _ in 0..=prefix_len {
                cur.bump();
            }
            lex_plain_string(cur, '"');
            Some(Tok {
                kind: TokKind::Str,
                text: rest[..rest.len() - cur.rest.len()].to_string(),
                line,
            })
        }
        Some('\'') if first == 'b' => {
            cur.bump();
            Some(lex_quote(cur, line))
        }
        Some('#') => {
            // Count hashes; a quote makes it a raw string, an ident
            // start makes it a raw identifier (r#type).
            let mut hashes = 0usize;
            let mut it = rest[prefix_len..].chars();
            let mut nxt = it.next();
            while nxt == Some('#') {
                hashes += 1;
                nxt = it.next();
            }
            match nxt {
                Some('"') => {
                    for _ in 0..prefix_len + hashes + 1 {
                        cur.bump();
                    }
                    lex_raw_string(cur, hashes);
                    Some(Tok {
                        kind: TokKind::Str,
                        text: rest[..rest.len() - cur.rest.len()].to_string(),
                        line,
                    })
                }
                Some(ch) if first == 'r' && hashes == 1 && is_ident_start(ch) => {
                    cur.bump();
                    cur.bump();
                    let text = cur.eat_while(is_ident_continue);
                    Some(Tok {
                        kind: TokKind::Ident,
                        text,
                        line,
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Consumes a plain (escaped) string body up to the closing `delim`.
fn lex_plain_string(cur: &mut Cursor<'_>, delim: char) {
    while let Some(c) = cur.bump() {
        if c == '\\' {
            cur.bump();
        } else if c == delim {
            break;
        }
    }
}

/// Consumes a raw string body up to `"` followed by `hashes` hashes.
fn lex_raw_string(cur: &mut Cursor<'_>, hashes: usize) {
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            let mut seen = 0usize;
            while seen < hashes {
                if cur.peek() == Some('#') {
                    cur.bump();
                    seen += 1;
                } else {
                    continue 'outer;
                }
            }
            break;
        }
    }
}

/// Lexes a `'`-introduced token: a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor<'_>, line: u32) -> Tok {
    cur.bump(); // the opening quote
    match cur.peek() {
        Some('\\') => {
            cur.bump();
            cur.bump(); // the escaped char
                        // Possibly \u{..} or \x..; consume to the closing quote.
            lex_plain_string(cur, '\'');
            Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            }
        }
        Some(c) if is_ident_start(c) => {
            let text = cur.eat_while(is_ident_continue);
            if cur.peek() == Some('\'') {
                cur.bump();
                Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                }
            } else {
                Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                }
            }
        }
        _ => {
            // 'x' for any other single char.
            cur.bump();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            Tok {
                kind: TokKind::Char,
                text: String::new(),
                line,
            }
        }
    }
}

fn lex_number(cur: &mut Cursor<'_>, line: u32) -> Tok {
    let start = cur.rest;
    let start_len = start.len();
    let mut is_float = false;
    if cur.peek() == Some('0') && matches!(cur.peek2(), Some('x' | 'o' | 'b')) {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_hexdigit() || c == '_');
    } else {
        cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        // A `.` continues the number only when followed by a digit
        // (`1..3` is a range, `x.0` is tuple indexing territory).
        if cur.peek() == Some('.') && cur.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            cur.bump();
            cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        }
        if matches!(cur.peek(), Some('e' | 'E')) {
            let mut it = cur.rest.chars();
            it.next();
            let mut nxt = it.next();
            if matches!(nxt, Some('+' | '-')) {
                nxt = it.next();
            }
            if nxt.is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                cur.bump();
                if matches!(cur.peek(), Some('+' | '-')) {
                    cur.bump();
                }
                cur.eat_while(|c| c.is_ascii_digit() || c == '_');
            }
        }
    }
    let suffix = cur.eat_while(is_ident_continue);
    if suffix.starts_with('f') {
        is_float = true;
    }
    if is_float {
        Tok {
            kind: TokKind::Float,
            text: String::new(),
            line,
        }
    } else {
        // The digit text (prefix included, suffix stripped) is retained
        // so the abstract interpreter can recover the literal's value.
        let consumed = start_len - cur.rest.len() - suffix.len();
        let text = start[..consumed].to_string();
        Tok {
            kind: TokKind::Int {
                suffix: if suffix.is_empty() {
                    None
                } else {
                    Some(suffix)
                },
            },
            text,
            line,
        }
    }
}

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` / `#[bench]`
/// items. An attribute containing the bare identifier `test` or `bench`
/// suppresses the item it annotates: everything up to the end of the
/// next brace-balanced block (or a top-level `;` for block-less items).
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let is_attr_start = toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[");
        if !is_attr_start {
            i += 1;
            continue;
        }
        // Find the matching `]` of the attribute.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut is_test_attr = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" | "bench" if toks[j].kind == TokKind::Ident => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Extend over the annotated item: to a top-level `;` before any
        // `{`, or to the `}` closing the first brace-balanced block.
        let mut k = j + 1;
        let mut braces = 0i32;
        let mut saw_brace = false;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => {
                    braces += 1;
                    saw_brace = true;
                }
                "}" => {
                    braces -= 1;
                    if saw_brace && braces == 0 {
                        break;
                    }
                }
                ";" if !saw_brace && braces == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let end = k.min(toks.len().saturating_sub(1));
        for flag in &mut in_test[i..=end] {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        LexFile::lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let f = LexFile::lex(
            "// f64 in a comment\nlet s = \"as f64\"; /* nested /* block */ f32 */ let x = 1;",
        );
        assert!(f.toks.iter().all(|t| t.text != "f64" && t.text != "f32"));
        assert_eq!(f.comments.len(), 2);
        assert!(f.comments[0].text.contains("f64"));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let v = idents("let r#type = r#\"as f64 \"# ; foo");
        assert_eq!(v, vec!["let", "type", "foo"]);
    }

    /// A string literal keeps its source text, quotes included, so it
    /// reads as no identifier or punctuation the lints look for.
    #[test]
    fn string_literals_keep_their_source_text() {
        let f = LexFile::lex("f(\"a \\\" b\", r#\"(\"#, b\"as\")");
        let strs: Vec<&str> = f
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["\"a \\\" b\"", "r#\"(\"#", "b\"as\""]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let f = LexFile::lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = f
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(f.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn numeric_suffixes_and_floats() {
        let f = LexFile::lex("let a = 5i128 + 0xFFu64; let b = 1.5; let c = 1e3; let d = 1..3;");
        let ints: Vec<_> = f
            .toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Int { suffix } => Some(suffix.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            ints,
            vec![Some("i128".into()), Some("u64".into()), None, None]
        );
        assert_eq!(
            f.toks.iter().filter(|t| t.kind == TokKind::Float).count(),
            2
        );
    }

    #[test]
    fn arrow_is_not_a_minus() {
        let f = LexFile::lex("fn f() -> i64 { 0 }");
        assert!(f.toks.iter().any(|t| t.text == "->"));
        assert!(!f.toks.iter().any(|t| t.text == "-"));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\nfn lib2() {}";
        let f = LexFile::lex(src);
        let unwraps: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, in_test)| *in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let lib2 = f.toks.iter().position(|t| t.text == "lib2").unwrap();
        assert!(!f.in_test[lib2]);
    }

    #[test]
    fn blockless_test_attr_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { a.unwrap(); }";
        let f = LexFile::lex(src);
        let unwrap = f.toks.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(!f.in_test[unwrap]);
    }

    #[test]
    fn lines_are_tracked() {
        let f = LexFile::lex("a\nb\n  c");
        let lines: Vec<u32> = f.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
