//! The lint catalog.
//!
//! Each lint enforces one invariant the paper's correctness story rests
//! on (see DESIGN.md, "Invariant catalog & static audit"):
//!
//! - [`NO_FLOAT`]: lag/drift/weight reasoning is exact rational
//!   arithmetic; a float anywhere near it silently breaks Theorems 3–5.
//! - [`NO_LOSSY_CASTS`]: time, weight, and lag quantities travel between
//!   integer widths only through `From`/`TryFrom`/checked helpers.
//! - [`NO_PANIC`]: library code in the scheduling crates must surface
//!   errors, not `unwrap()`; the executor is meant to run unattended.
//! - [`RAW_ARITH`]: unchecked `+`/`-`/`*` on raw `i64`/`i128` operands
//!   belongs in `rational.rs`/`time.rs`, where overflow is documented
//!   policy, and nowhere else.
//! - [`NONDETERMINISM`]: two runs of one task system must produce the
//!   same schedule, so scheduling code may not contain a source of
//!   per-run variation at all — hash-ordered collections, wall-clock
//!   reads, thread identity, pointer-derived integers. Containment
//!   over-approximates "no such value reaches a decision" without a
//!   points-to analysis, and the token stream sees inside macro
//!   arguments, where the AST passes do not look.
//!
//! Any lint can be suppressed for one line with
//! `// audit: allow(<lint>, <reason>)` — on the same line or the line
//! directly above. The annotation **must** carry a reason; a bare allow
//! or an allow that suppresses nothing is itself a finding, so the
//! escape hatch cannot rot silently.

use crate::ast::int_type_bits;
use crate::lexer::{LexFile, Tok, TokKind};

/// Canonical name of the float lint.
pub const NO_FLOAT: &str = "no-float-in-scheduling";
/// Canonical name of the cast lint.
pub const NO_LOSSY_CASTS: &str = "no-lossy-casts";
/// Canonical name of the panic lint.
pub const NO_PANIC: &str = "no-panic-in-library";
/// Canonical name of the raw-arithmetic lint.
pub const RAW_ARITH: &str = "raw-arithmetic-quarantine";
/// Canonical name of the nondeterminism-source lint.
pub const NONDETERMINISM: &str = "nondeterminism";
/// Canonical name of the call-graph panic-reachability pass.
pub const PANIC_REACH: &str = "panic-reach";
/// Canonical name of the interval/overflow pass.
pub const OVERFLOW_INTERVAL: &str = "overflow-interval";
/// Canonical name of the exact-arithmetic float-taint pass.
pub const FLOAT_TAINT: &str = "float-taint";
/// Pseudo-lint reporting malformed or unused `audit: allow` annotations.
pub const BAD_ANNOTATION: &str = "audit-annotation";
/// Pseudo-lint reporting files the parser could not fully shape; a
/// parse error is an analysis blind spot, so it gates like a finding.
pub const PARSE_ERROR: &str = "audit-parse";

/// All real lints, with one-line descriptions (shown by `list-lints`).
/// The first five are token lints; the last three are the
/// AST/call-graph passes.
pub const CATALOG: &[(&str, &str)] = &[
    (
        NO_FLOAT,
        "f32/f64 are forbidden where exact rational arithmetic is required",
    ),
    (
        NO_LOSSY_CASTS,
        "bare `as` numeric casts must be From/TryFrom or a checked helper",
    ),
    (
        NO_PANIC,
        "unwrap()/expect()/panic! are forbidden in scheduling library code",
    ),
    (
        RAW_ARITH,
        "unchecked +,-,* on raw i64/i128 operands outside rational.rs/time.rs",
    ),
    (
        NONDETERMINISM,
        "hash-order, wall-clock, thread-id, and pointer-derived values in scheduling code",
    ),
    (
        PANIC_REACH,
        "panic sources transitively reachable from the scheduling entry points",
    ),
    (
        OVERFLOW_INTERVAL,
        "interval analysis of `audit: prove(overflow-bounds)` functions",
    ),
    (
        FLOAT_TAINT,
        "float/lossy values must never flow into Rational, Priority, or slot counts",
    ),
];

/// Short aliases accepted inside `audit: allow(..)` annotations.
pub fn canonical_lint(name: &str) -> Option<&'static str> {
    match name {
        NO_FLOAT | "float" => Some(NO_FLOAT),
        NO_LOSSY_CASTS | "lossy-cast" => Some(NO_LOSSY_CASTS),
        NO_PANIC | "panic" => Some(NO_PANIC),
        RAW_ARITH | "raw-arithmetic" => Some(RAW_ARITH),
        PANIC_REACH => Some(PANIC_REACH),
        NONDETERMINISM | "nondet" => Some(NONDETERMINISM),
        OVERFLOW_INTERVAL | "overflow" => Some(OVERFLOW_INTERVAL),
        FLOAT_TAINT => Some(FLOAT_TAINT),
        _ => None,
    }
}

/// One diagnostic, before path-level filtering.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// Canonical lint name.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

const NUMERIC_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "f32",
    "f64",
];

/// Runs `lint` over a lexed file, returning findings in source order.
/// Test regions (`#[cfg(test)]` / `#[test]` / `#[bench]` items) are
/// skipped for every lint: test code may take shortcuts.
pub fn run_lint(lint: &str, file: &LexFile) -> Vec<RawFinding> {
    match lint {
        NO_FLOAT => no_float(file),
        NO_LOSSY_CASTS => no_lossy_casts(file),
        NO_PANIC => no_panic(file),
        RAW_ARITH => raw_arith(file),
        NONDETERMINISM => nondeterminism(file),
        _ => Vec::new(),
    }
}

fn live(file: &LexFile) -> impl Iterator<Item = (usize, &Tok)> {
    file.toks
        .iter()
        .enumerate()
        .filter(|(i, _)| !file.in_test[*i])
}

fn no_float(file: &LexFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (_, t) in live(file) {
        let hit = match &t.kind {
            TokKind::Ident => t.text == "f32" || t.text == "f64",
            TokKind::Float => true,
            _ => false,
        };
        if hit {
            out.push(RawFinding {
                line: t.line,
                lint: NO_FLOAT,
                message: "floating point where exact rational arithmetic is required \
                          (use pfair_core::Rational)"
                    .into(),
            });
        }
    }
    out
}

fn no_lossy_casts(file: &LexFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in live(file) {
        if t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(next) = file.toks.get(i + 1) else {
            continue;
        };
        if next.kind == TokKind::Ident && NUMERIC_TYPES.contains(&next.text.as_str()) {
            out.push(RawFinding {
                line: t.line,
                lint: NO_LOSSY_CASTS,
                message: format!(
                    "bare `as {}` cast on a scheduling quantity; use From/TryFrom \
                     or a checked helper",
                    next.text
                ),
            });
        }
    }
    out
}

fn no_panic(file: &LexFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in live(file) {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let after_dot = i > 0 && file.toks[i - 1].text == ".";
                let called = file.toks.get(i + 1).is_some_and(|n| n.text == "(");
                // The path form (`.map(Option::unwrap)`) panics just
                // the same, called or passed; `Foo::unwrap` is a name.
                let path_of = (i > 1 && file.toks[i - 1].text == "::")
                    .then(|| file.toks[i - 2].text.as_str())
                    .filter(|ty| matches!(*ty, "Option" | "Result"));
                let shown = match path_of {
                    Some(ty) => format!("{ty}::{}", t.text),
                    None if after_dot && called => format!(".{}()", t.text),
                    None => continue,
                };
                out.push(RawFinding {
                    line: t.line,
                    lint: NO_PANIC,
                    message: format!(
                        "{shown} in scheduling library code; propagate the error \
                         or document the invariant with an audited expect"
                    ),
                });
            }
            "panic" if file.toks.get(i + 1).is_some_and(|n| n.text == "!") => {
                out.push(RawFinding {
                    line: t.line,
                    lint: NO_PANIC,
                    message: "panic! in scheduling library code; return an error instead".into(),
                });
            }
            _ => {}
        }
    }
    out
}

/// True when the token can end an operand expression, making a
/// following `-`/`*` a binary operator rather than a unary one.
fn ends_operand(t: &Tok) -> bool {
    matches!(
        t.kind,
        TokKind::Ident | TokKind::Int { .. } | TokKind::Float
    ) || t.text == ")"
        || t.text == "]"
}

/// True when token `i` is a raw wide-integer operand: a suffixed
/// `i64`/`i128` literal, or the `i64`/`i128` of an `as` cast.
fn wide_raw_operand(file: &LexFile, i: usize) -> bool {
    match &file.toks[i].kind {
        TokKind::Int { suffix: Some(s) } => s == "i64" || s == "i128",
        TokKind::Ident => {
            (file.toks[i].text == "i64" || file.toks[i].text == "i128")
                && i > 0
                && file.toks[i - 1].text == "as"
        }
        _ => false,
    }
}

fn raw_arith(file: &LexFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in live(file) {
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "-" | "*") {
            continue;
        }
        let binary = i > 0 && ends_operand(&file.toks[i - 1]);
        if !binary {
            continue;
        }
        let lhs_wide = wide_raw_operand(file, i - 1);
        // The right operand is wide when it is itself a suffixed
        // literal, or a simple operand immediately cast (`* t as i128`).
        let rhs_wide = (file.toks.get(i + 1).is_some() && wide_raw_operand(file, i + 1))
            || (matches!(
                file.toks.get(i + 1).map(|t| &t.kind),
                Some(TokKind::Ident | TokKind::Int { .. })
            ) && file.toks.get(i + 2).is_some_and(|t| t.text == "as")
                && file
                    .toks
                    .get(i + 3)
                    .is_some_and(|t| t.text == "i64" || t.text == "i128"));
        if lhs_wide || rhs_wide {
            out.push(RawFinding {
                line: t.line,
                lint: RAW_ARITH,
                message: format!(
                    "unchecked `{}` on a raw i64/i128 operand; quarantine wide \
                     arithmetic in rational.rs/time.rs or use checked_* methods",
                    t.text
                ),
            });
        }
    }
    out
}

fn nondeterminism(file: &LexFile) -> Vec<RawFinding> {
    let toks = &file.toks;
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for (i, t) in live(file) {
        if t.kind != TokKind::Ident {
            continue;
        }
        // The segment before this one in an `a::b` path.
        let parent = if i > 1 && text(i - 1) == "::" {
            text(i - 2)
        } else {
            ""
        };
        // A pointer-derived value reaching an integer cast: the cast's
        // `as`, where the finding sits.
        let ptr_cast = match t.text.as_str() {
            "as_ptr" | "as_mut_ptr"
                if i > 0 && [text(i - 1), text(i + 1), text(i + 2)] == [".", "(", ")"] =>
            {
                int_cast_at(toks, i + 3)
            }
            "as" if text(i + 1) == "*" => int_cast_at(toks, pointer_type_end(toks, i + 2)),
            _ => None,
        };
        let (line, message) = match (t.text.as_str(), parent, ptr_cast) {
            (_, _, Some(j)) => (
                toks[j].line,
                format!(
                    "pointer-to-`{}` cast: addresses vary per run and must not flow \
                     into scheduling state",
                    text(j + 1)
                ),
            ),
            (ty @ ("HashMap" | "HashSet" | "RandomState" | "DefaultHasher"), _, _) => (
                t.line,
                format!(
                    "`{ty}` in scheduling code: iteration order is per-process random; \
                     use BTreeMap/BTreeSet"
                ),
            ),
            ("ThreadId", _, _) => (
                t.line,
                "`ThreadId` in scheduling code: thread identity is nondeterministic".into(),
            ),
            ("current", "thread", _) => (
                t.line,
                "`thread::current()` in scheduling code: thread identity is nondeterministic"
                    .into(),
            ),
            ("now", clock @ ("Instant" | "SystemTime"), _) => (
                t.line,
                format!(
                    "`{clock}::now()` in scheduling code: wall-clock reads are \
                     nondeterministic; drive time from the slot counter"
                ),
            ),
            _ => continue,
        };
        out.push(RawFinding {
            line,
            lint: NONDETERMINISM,
            message,
        });
    }
    out
}

/// The index just past a raw-pointer type whose `*` precedes `j`.
fn pointer_type_end(toks: &[Tok], mut j: usize) -> usize {
    let mut depth = 0u32;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" if depth > 0 => depth -= 1,
            "as" | ")" | "]" | ";" | "," | "=" | "{" | "}" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    j
}

/// The index of the `as` when the tokens from `j`, past closing
/// parens, cast to an integer type.
fn int_cast_at(toks: &[Tok], mut j: usize) -> Option<usize> {
    while toks.get(j)?.text == ")" {
        j += 1;
    }
    (toks.get(j)?.text == "as" && int_type_bits(&toks.get(j + 1)?.text).is_some()).then_some(j)
}

/// A parsed `audit: allow(lint, reason)` annotation.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line the annotation comment starts on.
    pub line: u32,
    /// Canonical lint name, or `Err(raw)` for an unknown lint.
    pub lint: Result<&'static str, String>,
    /// The justification, possibly empty.
    pub reason: String,
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
/// (`// audit: allow(panic, r1); allow(panic-reach, r2)`), each
/// suppressing its own lint on the same covered line.
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
            });
            rest = after_kw[close + 1..]
                .trim_start()
                .strip_prefix(';')
                .unwrap_or("");
        }
    }
    out
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

    fn lines(lint: &str, src: &str) -> Vec<u32> {
        run_lint(lint, &LexFile::lex(src))
            .iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn float_lint_sees_types_and_literals() {
        let src = "fn f(x: f64) -> f32 {\n    0.5\n}";
        assert_eq!(lines(NO_FLOAT, src), vec![1, 1, 2]);
    }

    #[test]
    fn float_lint_skips_tests_and_comments() {
        let src = "// f64 here\n#[cfg(test)]\nmod tests {\n    fn t() -> f64 { 1.0 }\n}";
        assert!(lines(NO_FLOAT, src).is_empty());
    }

    #[test]
    fn cast_lint_flags_numeric_targets_only() {
        let src = "let a = x as u32;\nlet b = y as Weight;\nlet c = z as usize;";
        assert_eq!(lines(NO_LOSSY_CASTS, src), vec![1, 3]);
    }

    #[test]
    fn panic_lint_flags_method_calls_not_names() {
        let src = "let a = x.unwrap();\nlet b = Foo::unwrap;\nfn expect() {}\npanic!(\"boom\");\nlet c = y.expect(\"msg\");";
        assert_eq!(lines(NO_PANIC, src), vec![1, 4, 5]);
    }

    #[test]
    fn panic_lint_flags_the_option_and_result_path_forms() {
        let src = "let a = v.map(Option::unwrap);\nlet b = Result::expect(r, \"msg\");\nlet c = Slot::unwrap(s);";
        assert_eq!(lines(NO_PANIC, src), vec![1, 2]);
    }

    #[test]
    fn raw_arith_needs_a_wide_operand() {
        let src = "let a = x as i128 * y;\nlet b = p + 1i64;\nlet c = p + 1;\nlet d = -x;\nlet e = a * b;\nlet f = num * t as i128;";
        assert_eq!(lines(RAW_ARITH, src), vec![1, 2, 6]);
    }

    #[test]
    fn raw_arith_ignores_deref_and_arrows() {
        let src = "fn f(x: &i64) -> i64 { *x }\nlet c: fn() -> i128 = f;";
        assert!(lines(RAW_ARITH, src).is_empty());
    }

    #[test]
    fn nondeterminism_flags_hash_types_anywhere() {
        let src = "use std::collections::HashMap;\npub struct S { m: HashMap<u32, u32> }\npub fn f() { let m: HashSet<u8> = HashSet::new(); }\nfn g(h: DefaultHasher, t: ThreadId) {}";
        assert_eq!(lines(NONDETERMINISM, src), vec![1, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn nondeterminism_flags_clocks_threads_and_pointer_casts() {
        let src = "let t = Instant::now();\nlet s = std::time::SystemTime::now();\nlet id = std::thread::current();\nlet a = v.as_ptr() as usize;\nlet b = (p as *const u8) as u64;\nlet c = v.as_mut_ptr() as *mut u8 as usize;";
        assert_eq!(lines(NONDETERMINISM, src), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn nondeterminism_sees_inside_macro_arguments() {
        let src = "let s = format!(\"{:?}\", Instant::now());\nlet t = vec![HashSet::new()];\nlet u = format!(\"{}\", v.as_ptr() as usize);";
        assert_eq!(lines(NONDETERMINISM, src), vec![1, 2, 3]);
    }

    #[test]
    fn nondeterminism_leaves_names_values_and_tests_alone() {
        let src = "use std::time::{Duration, Instant};\nuse std::collections::BTreeMap;\nfn f(x: u32, p: *const u8) -> usize { let n = now(); x as usize }\nlet q = v.as_ptr();\n#[cfg(test)]\nmod tests { fn t() { let m = HashMap::new(); } }";
        assert!(lines(NONDETERMINISM, src).is_empty());
    }

    #[test]
    fn multi_clause_allows_parse_from_one_comment() {
        let f = LexFile::lex(
            "// audit: allow(panic, slot fits by construction); allow(panic-reach, clamp bounds the index)\nlet x = v[i];",
        );
        let allows = parse_allows(&f);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].lint, Ok(NO_PANIC));
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
            "// audit: allow(lossy-cast, u32 -> usize is lossless here)\nlet x = 1;\n// audit: allow(float)\n// audit: allow(bogus, hm)",
        );
        let allows = parse_allows(&f);
        assert_eq!(allows.len(), 3);
        assert_eq!(allows[0].lint, Ok(NO_LOSSY_CASTS));
        assert!(!allows[0].reason.is_empty());
        assert_eq!(allows[1].lint, Ok(NO_FLOAT));
        assert!(allows[1].reason.is_empty());
        assert!(allows[2].lint.is_err());
    }
}
