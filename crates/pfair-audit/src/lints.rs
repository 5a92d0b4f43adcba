//! The lint catalog and the source directives the passes read.
//!
//! Each pass proves one invariant the paper's correctness story rests
//! on and clippy cannot check (see DESIGN.md, "Invariant catalog &
//! static audit"). Floats, casts, panicking calls and nondeterminism
//! sources are clippy's (`float_arithmetic`, `as_conversions`, `panic`,
//! and the root `clippy.toml`'s `disallowed-methods` /
//! `disallowed-types`), turned on at the scheduling crates' roots.
//!
//! Any finding can be suppressed for one line with
//! `// audit: allow(<lint>, <reason>)` — on the same line or the line
//! directly above. The annotation **must** carry a reason; a bare allow
//! or an allow that suppresses nothing is itself a finding, so the
//! escape hatch cannot rot silently. A reasoned
//! `#[expect(clippy::disallowed_methods | clippy::panic, reason = "…")]`
//! reads as the `panic-reach` discharge of the `unwrap` / `expect` /
//! `panic!` it covers (see [`parse_allows`]).

use crate::lexer::{LexFile, TokKind};

/// Canonical name of the call-graph panic-reachability pass.
pub const PANIC_REACH: &str = "panic-reach";
/// Canonical name of the interval/overflow pass.
pub const OVERFLOW_INTERVAL: &str = "overflow-interval";
/// Pseudo-lint reporting malformed or unused `audit: allow` annotations.
pub const BAD_ANNOTATION: &str = "audit-annotation";
/// Pseudo-lint reporting files the parser could not fully shape; a
/// parse error is an analysis blind spot, so it gates like a finding.
pub const PARSE_ERROR: &str = "audit-parse";
/// The clippy lint that flags `Option`/`Result` `unwrap` and `expect`
/// (through the root `clippy.toml`'s `disallowed-methods`).
pub const CLIPPY_METHODS: &str = "disallowed_methods";
/// The clippy lint that flags `panic!`.
pub const CLIPPY_PANIC: &str = "panic";

/// The two AST/call-graph passes, with one-line descriptions (shown by
/// `list-lints`).
pub const CATALOG: &[(&str, &str)] = &[
    (
        PANIC_REACH,
        "panic sources transitively reachable from the scheduling entry points",
    ),
    (
        OVERFLOW_INTERVAL,
        "interval analysis of `audit: prove(overflow-bounds)` functions",
    ),
];

/// Short aliases accepted inside `audit: allow(..)` annotations.
pub fn canonical_lint(name: &str) -> Option<&'static str> {
    match name {
        PANIC_REACH => Some(PANIC_REACH),
        OVERFLOW_INTERVAL | "overflow" => Some(OVERFLOW_INTERVAL),
        _ => None,
    }
}

/// A parsed `audit: allow(lint, reason)` annotation, or a reasoned
/// `#[expect(clippy::…)]` read as a `panic-reach` discharge.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line the annotation comment or attribute starts on.
    pub line: u32,
    /// Canonical lint name, or `Err(raw)` for an unknown lint.
    pub lint: Result<&'static str, String>,
    /// The justification, possibly empty.
    pub reason: String,
    /// For an attribute, the clippy lint it expects ([`CLIPPY_METHODS`]
    /// or [`CLIPPY_PANIC`]): it discharges only the panic sources that
    /// lint flags. `None` for a comment.
    pub clippy: Option<&'static str>,
}

/// An `// audit: prove(<property>)` directive: opts the next function
/// into a strict analysis mode (today: `overflow-bounds`).
#[derive(Clone, Debug)]
pub struct Prove {
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The property name inside the parentheses.
    pub property: String,
}

/// An `// audit: assume(<name> in <lo>..=<hi>)` directive: a documented
/// input contract seeding the overflow pass's interval for a parameter
/// or local.
#[derive(Clone, Debug)]
pub struct Assume {
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The constrained binding.
    pub name: String,
    /// Lower-bound expression text (may reference workspace consts).
    pub lo: String,
    /// Upper-bound expression text (inclusive).
    pub hi: String,
}

/// Extracts `audit: allow(..)` annotations from a file's comments. A
/// single comment may carry several `;`-separated clauses
/// (`// audit: allow(overflow, r1); allow(panic-reach, r2)`), each
/// suppressing its own lint on the same covered line.
///
/// An outer `#[expect(clippy::disallowed_methods, reason = "…")]` or
/// `#[expect(clippy::panic, reason = "…")]` is one `panic-reach` allow
/// per lint it names, on the attribute's last line: clippy already holds the
/// call to a reason, so the site needs no second annotation. One
/// without a reason discharges nothing (clippy's
/// `allow_attributes_without_reason` flags it), and rustc's
/// `unfulfilled_lint_expectations`, not this audit, reports one that
/// covers no call.
pub fn parse_allows(file: &LexFile) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &file.comments {
        let Some(idx) = c.text.find("audit:") else {
            continue;
        };
        let mut rest = &c.text[idx + "audit:".len()..];
        loop {
            let trimmed = rest.trim_start();
            let Some(after_kw) = trimmed
                .strip_prefix("allow")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('('))
            else {
                break;
            };
            let Some(close) = after_kw.find(')') else {
                break;
            };
            let inner = &after_kw[..close];
            let (name, reason) = match inner.split_once(',') {
                Some((n, r)) => (n.trim(), r.trim()),
                None => (inner.trim(), ""),
            };
            out.push(Allow {
                line: c.line,
                lint: canonical_lint(name).ok_or_else(|| name.to_string()),
                reason: reason.to_string(),
                clippy: None,
            });
            rest = after_kw[close + 1..]
                .trim_start()
                .strip_prefix(';')
                .unwrap_or("");
        }
    }
    let toks = &file.toks;
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    for (i, t) in toks.iter().enumerate() {
        if [t.text.as_str(), text(i + 1), text(i + 2), text(i + 3)] != ["#", "[", "expect", "("] {
            continue;
        }
        let (mut lints, mut reason) = (Vec::new(), "");
        let mut j = i + 4;
        while j < toks.len() && text(j) != ")" {
            match [text(j), text(j + 1)] {
                ["clippy", "::"] => lints.extend(
                    [CLIPPY_METHODS, CLIPPY_PANIC]
                        .into_iter()
                        .filter(|l| *l == text(j + 2)),
                ),
                ["reason", "="] if toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Str) => {
                    reason = string_body(text(j + 2));
                }
                _ => {}
            }
            j += 1;
        }
        // The attribute's last line: it covers the statement below it,
        // however rustfmt wraps it.
        let Some(close) = toks.get(j + 1).filter(|_| !reason.is_empty()) else {
            continue;
        };
        out.extend(lints.into_iter().map(|lint| Allow {
            line: close.line,
            lint: Ok(PANIC_REACH),
            reason: reason.to_string(),
            clippy: Some(lint),
        }));
    }
    out
}

/// The body of a string literal's source text (`"…"` or `r#"…"#`).
fn string_body(lit: &str) -> &str {
    let raw = lit.trim_start_matches('r');
    let hashes = raw.len() - raw.trim_start_matches('#').len();
    raw.get(hashes + 1..raw.len().saturating_sub(hashes + 1))
        .unwrap_or("")
}

/// Extracts `audit: prove(..)` directives.
pub fn parse_proves(file: &LexFile) -> Vec<Prove> {
    let mut out = Vec::new();
    for c in &file.comments {
        if let Some(inner) = directive_body(&c.text, "prove") {
            out.push(Prove {
                line: c.line,
                property: inner.trim().to_string(),
            });
        }
    }
    out
}

/// Extracts `audit: assume(name in lo..=hi)` directives. Malformed
/// bodies are returned with empty bounds so the overflow pass can
/// report them instead of silently ignoring the contract.
pub fn parse_assumes(file: &LexFile) -> Vec<Assume> {
    let mut out = Vec::new();
    for c in &file.comments {
        let Some(inner) = directive_body(&c.text, "assume") else {
            continue;
        };
        let (name, bounds) = match inner.split_once(" in ") {
            Some((n, b)) => (n.trim().to_string(), b.trim()),
            None => (inner.trim().to_string(), ""),
        };
        let (lo, hi) = match bounds.split_once("..=") {
            Some((l, h)) => (l.trim().to_string(), h.trim().to_string()),
            None => (String::new(), String::new()),
        };
        out.push(Assume {
            line: c.line,
            name,
            lo,
            hi,
        });
    }
    out
}

/// The parenthesized body of `audit: <keyword>(..)`, if the comment
/// carries that directive.
fn directive_body<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let idx = text.find("audit:")?;
    let rest = text[idx + "audit:".len()..].trim_start();
    let rest = rest.strip_prefix(keyword)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(&rest[..close])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_clause_allows_parse_from_one_comment() {
        let f = LexFile::lex(
            "// audit: allow(overflow, slot fits by construction); allow(panic-reach, clamp bounds the index)\nlet x = v[i] * 2;",
        );
        let allows = parse_allows(&f);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].lint, Ok(OVERFLOW_INTERVAL));
        assert_eq!(allows[1].lint, Ok(PANIC_REACH));
        assert_eq!(allows[1].reason, "clamp bounds the index");
        assert_eq!(allows[0].line, allows[1].line);
    }

    #[test]
    fn prove_and_assume_directives_parse() {
        let f = LexFile::lex(
            "// audit: prove(overflow-bounds)\n// audit: assume(deadline in -SLOT_BOUND..=SLOT_BOUND)\nfn biased(deadline: i64) -> u128 { 0 }",
        );
        let proves = parse_proves(&f);
        assert_eq!(proves.len(), 1);
        assert_eq!(proves[0].property, "overflow-bounds");
        let assumes = parse_assumes(&f);
        assert_eq!(assumes.len(), 1);
        assert_eq!(assumes[0].name, "deadline");
        assert_eq!(assumes[0].lo, "-SLOT_BOUND");
        assert_eq!(assumes[0].hi, "SLOT_BOUND");
    }

    #[test]
    fn allows_parse_with_and_without_reason() {
        let f = LexFile::lex(
            "// audit: allow(overflow, the product fits i128 here)\nlet x = 1;\n// audit: allow(panic-reach)\n// audit: allow(bogus, hm)",
        );
        let allows = parse_allows(&f);
        assert_eq!(allows.len(), 3);
        assert_eq!(allows[0].lint, Ok(OVERFLOW_INTERVAL));
        assert!(!allows[0].reason.is_empty());
        assert_eq!(allows[1].lint, Ok(PANIC_REACH));
        assert!(allows[1].reason.is_empty());
        assert!(allows[2].lint.is_err());
    }

    #[test]
    fn reasoned_clippy_expects_parse_as_panic_reach_allows() {
        let f = LexFile::lex(
            "#[expect(clippy::disallowed_methods, reason = \"callers pass Some\")]\nlet a = v.expect(\"some\");\n\
             #[expect(clippy::panic, clippy::disallowed_methods, reason = r#\"both \"kinds\"\"#)]\nlet b = 1;\n\
             #[expect(clippy::disallowed_methods)]\nlet c = 2;\n\
             #[expect(clippy::as_conversions, reason = \"not a panic\")]\nlet d = 3;\n\
             #![expect(clippy::panic, reason = \"module-wide\")]",
        );
        let allows = parse_allows(&f);
        let got: Vec<(u32, Option<&str>, &str)> = allows
            .iter()
            .map(|a| {
                assert_eq!(a.lint, Ok(PANIC_REACH));
                (a.line, a.clippy, a.reason.as_str())
            })
            .collect();
        assert_eq!(
            got,
            [
                (1, Some(CLIPPY_METHODS), "callers pass Some"),
                (3, Some(CLIPPY_PANIC), "both \"kinds\""),
                (3, Some(CLIPPY_METHODS), "both \"kinds\""),
            ]
        );
    }
}
