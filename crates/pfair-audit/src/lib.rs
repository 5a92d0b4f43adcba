//! pfair-audit: workspace-wide static analysis for the Pfair
//! reproduction.
//!
//! The repository's claim to reproduce "Task Reweighting on
//! Multiprocessors: Efficiency versus Accuracy" rests on two invariants
//! neither the compiler nor clippy can check: annotated integer
//! arithmetic stays inside its declared bounds, and no panic is
//! reachable from the scheduling entry points. (Lag, drift and weight
//! arithmetic is exact: in the scheduling crates a float type, float
//! arithmetic, a cast and a lossy `to_f64` are clippy's lints, so a
//! float that carries a run-time value comes only from a line clippy
//! flags and an `#[expect]` argues for; see the root `clippy.toml`.
//! Casts, panicking calls and nondeterminism sources are clippy's too.)
//!
//! A hand-rolled recursive-descent parser ([`parser`]) produces
//! per-file ASTs ([`ast`]), a workspace call graph (`callgraph`) links
//! them, and two passes (`passes`) prove panic-freedom of the
//! scheduling entry points and overflow bounds of annotated arithmetic
//! (via the interval interpreter in `absint`).
//!
//! The standalone binary drives it:
//!
//! ```text
//! cargo run -p pfair-audit -- check .
//! cargo run -p pfair-audit -- check . --report json --out audit.json
//! ```
//!
//! It exits nonzero with `file:line` diagnostics when any invariant is
//! violated. Scope and path-level exemptions live in the checked-in
//! `audit.toml`; line-level exemptions are `// audit: allow(<lint>,
//! <reason>)` comments, which must carry a reason and must actually
//! suppress something.

pub(crate) mod absint;
pub mod ast;
pub(crate) mod callgraph;
pub mod config;
pub mod lexer;
pub mod lints;
pub mod parser;
pub(crate) mod passes;
pub mod report;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::Config;
use lexer::LexFile;
use lints::{parse_allows, BAD_ANNOTATION, CATALOG, PARSE_ERROR};
use passes::panic_reach::{EntryStatus, PanicToken};
use passes::{analyze_source, Workspace};

/// One diagnostic attributed to a file.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the audited root, `/`-separated.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Canonical lint name.
    pub lint: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// One finding after allow-discharge: still a diagnostic, but carrying
/// whether a typed annotation suppressed it and with what reason.
#[derive(Clone, Debug)]
pub struct AuditEntry {
    /// The diagnostic.
    pub finding: Finding,
    /// True when a reasoned `audit: allow` covers it.
    pub allowed: bool,
    /// The annotation's justification, when allowed.
    pub reason: Option<String>,
}

/// The full audit result: every finding (discharged ones included, for
/// the JSON artifact), plus the panic-reach proof summary.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// All findings in `(path, line, lint)` order.
    pub entries: Vec<AuditEntry>,
    /// Panic-reach entry points with post-discharge verdicts.
    pub entry_points: Vec<EntryStatus>,
    /// Number of files analyzed.
    pub files: usize,
    /// Number of recovered parse errors (analysis blind spots).
    pub parse_errors: usize,
}

impl AuditReport {
    /// Findings not discharged by an allow — the CI gate.
    pub fn active(&self) -> Vec<Finding> {
        self.entries
            .iter()
            .filter(|e| !e.allowed)
            .map(|e| e.finding.clone())
            .collect()
    }
}

/// Discharges one file's findings against its `audit: allow`
/// annotations. An annotation covers findings of its lint on its own
/// line (trailing comment) or the line directly below. Missing
/// reasons, unknown lint names, and allows that suppress nothing are
/// findings themselves, so the escape hatch cannot rot silently.
///
/// One annotation per panic site: a reasoned
/// `#[expect(clippy::disallowed_methods | clippy::panic, ..)]` under the
/// same line rule discharges a `panic-reach` finding when its lints
/// flag every source the finding stands for (`tokens`); asserts,
/// indexing and division still need `allow(panic-reach, ..)`.
fn discharge_file(
    rel_path: &str,
    lex: &LexFile,
    mut raw: Vec<Finding>,
    tokens: &[PanicToken],
    cfg: &Config,
) -> Vec<AuditEntry> {
    let allows = parse_allows(lex);
    let mut used_allow = vec![false; allows.len()];
    raw.sort();
    raw.dedup();
    let mut out: Vec<AuditEntry> = Vec::new();

    // A same-line (trailing) allow wins over one on the line above, so
    // adjacent annotated lines each consume their own allow.
    let covering = |lint: &str, line: u32| {
        let at = |l: u32| {
            allows
                .iter()
                .enumerate()
                .find(|(_, a)| a.clippy.is_none() && a.lint.as_deref() == Ok(lint) && a.line == l)
        };
        at(line).or_else(|| line.checked_sub(1).and_then(at))
    };
    // An attribute on the line covers a source its lint flags; the
    // finding is discharged when every source behind it is covered.
    let expected = |f: &Finding| {
        let at = |l: u32| {
            let attr = |k: Option<&str>| {
                allows
                    .iter()
                    .find(|a| a.line == l && k.is_some() && a.clippy == k)
            };
            tokens
                .iter()
                .filter(|t| f.lint == lints::PANIC_REACH && t.path == rel_path && t.line == f.line)
                .map(|t| attr(t.clippy))
                .collect::<Option<Vec<_>>>()?
                .first()
                .copied()
        };
        at(f.line).or_else(|| f.line.checked_sub(1).and_then(at))
    };
    for f in raw {
        if let Some(a) = expected(&f) {
            let reason = Some(a.reason.clone());
            out.push(AuditEntry {
                finding: f,
                allowed: true,
                reason,
            });
            continue;
        }
        match covering(&f.lint, f.line) {
            Some((idx, a)) if !a.reason.is_empty() => {
                used_allow[idx] = true;
                out.push(AuditEntry {
                    finding: f,
                    allowed: true,
                    reason: Some(a.reason.clone()),
                });
            }
            Some((idx, _)) => {
                // Reason missing: the finding stands, plus a nudge.
                used_allow[idx] = true;
                out.push(AuditEntry {
                    finding: Finding {
                        path: rel_path.to_string(),
                        line: f.line,
                        lint: BAD_ANNOTATION.to_string(),
                        message: format!(
                            "allow({lint}) must carry a justification: \
                             `// audit: allow({lint}, <reason>)`",
                            lint = f.lint
                        ),
                    },
                    allowed: false,
                    reason: None,
                });
                out.push(active(f));
            }
            None => out.push(active(f)),
        }
    }

    for (idx, a) in allows.iter().enumerate() {
        match &a.lint {
            Err(unknown) => out.push(active(Finding {
                path: rel_path.to_string(),
                line: a.line,
                lint: BAD_ANNOTATION.to_string(),
                message: format!(
                    "unknown lint `{unknown}` in audit: allow(..); known lints: {}",
                    CATALOG
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            })),
            Ok(lint)
                if !used_allow[idx] && a.clippy.is_none() && cfg.lint_applies(lint, rel_path) =>
            {
                out.push(active(Finding {
                    path: rel_path.to_string(),
                    line: a.line,
                    lint: BAD_ANNOTATION.to_string(),
                    message: format!(
                        "allow({lint}) suppresses nothing on the next line; remove it"
                    ),
                }));
            }
            Ok(_) => {}
        }
    }
    out
}

fn active(finding: Finding) -> AuditEntry {
    AuditEntry {
        finding,
        allowed: false,
        reason: None,
    }
}

/// Lexes and parses every `.rs` file under `root` (honoring the
/// config's `exclude` list) into a [`Workspace`].
pub(crate) fn analyze_root(root: &Path, cfg: &Config) -> io::Result<Workspace> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, cfg, &mut paths)?;
    paths.sort();
    let mut ws = Workspace::default();
    for rel in paths {
        let src = fs::read_to_string(root.join(&rel))?;
        ws.files.push(analyze_source(&rel, &src));
    }
    Ok(ws)
}

/// The full v2 pipeline over a parsed workspace: parse errors, the two
/// AST/call-graph passes, then allow-discharge.
pub(crate) fn audit_workspace(ws: &Workspace, cfg: &Config) -> AuditReport {
    let mut all: Vec<Finding> = Vec::new();
    let mut parse_errors = 0usize;
    for file in &ws.files {
        for e in &file.errors {
            parse_errors += 1;
            all.push(Finding {
                path: file.path.clone(),
                line: e.line,
                lint: PARSE_ERROR.to_string(),
                message: format!("parse error (analysis blind spot): {}", e.message),
            });
        }
    }
    let pass_out = passes::run_all(ws, cfg);
    all.extend(pass_out.findings);

    let mut grouped: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in all {
        grouped.entry(f.path.clone()).or_default().push(f);
    }
    let mut entries = Vec::new();
    for file in &ws.files {
        let raw = grouped.remove(&file.path).unwrap_or_default();
        entries.extend(discharge_file(
            &file.path,
            &file.lex,
            raw,
            &pass_out.panic_tokens,
            cfg,
        ));
    }
    // Findings not attributed to a parsed file (e.g. unresolved entry
    // points, attributed to audit.toml) cannot be allow-discharged.
    for (_, raws) in grouped {
        entries.extend(raws.into_iter().map(active));
    }
    entries.sort_by(|a, b| a.finding.cmp(&b.finding));
    entries.dedup_by(|a, b| a.finding == b.finding && a.allowed == b.allowed);

    // An entry point is proven panic-free only when every reachable
    // source site is either absent or discharged with a reason.
    let entry_points = pass_out
        .entry_points
        .into_iter()
        .map(|mut s| {
            let marker = format!("entry `{}`", s.spec);
            s.panic_free = s.resolved
                && !entries.iter().any(|e| {
                    !e.allowed
                        && e.finding.lint == lints::PANIC_REACH
                        && e.finding.message.contains(&marker)
                });
            s
        })
        .collect();

    AuditReport {
        entries,
        entry_points,
        files: ws.files.len(),
        parse_errors,
    }
}

/// Recursively audits every `.rs` file under `root` through the full
/// v2 pipeline, returning the *active* (un-discharged) findings.
/// Paths in findings are relative to `root`.
pub fn audit_root(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    Ok(audit_report(root, cfg)?.active())
}

/// Like [`audit_root`], but returning the full report (discharged
/// findings and entry-point statuses included) for the JSON artifact.
pub fn audit_report(root: &Path, cfg: &Config) -> io::Result<AuditReport> {
    let ws = analyze_root(root, cfg)?;
    Ok(audit_workspace(&ws, cfg))
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if cfg.is_excluded(&rel) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all() -> Config {
        let mut cfg = Config::default();
        for (lint, _) in CATALOG {
            cfg.lints.entry(lint.to_string()).or_default();
        }
        cfg
    }

    /// The active findings of a one-file workspace.
    fn audit_one(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![analyze_source(rel_path, src)],
        };
        audit_workspace(&ws, cfg).active()
    }

    /// The config with `entry` as panic-reach's one entry point.
    fn cfg_entry() -> Config {
        let mut cfg = cfg_all();
        cfg.lints
            .get_mut(lints::PANIC_REACH)
            .unwrap()
            .entry_points
            .push("entry".into());
        cfg
    }

    #[test]
    fn allow_with_reason_suppresses_one_line() {
        let src = "\
pub fn entry(v: &[u64]) -> u64 {
    // audit: allow(panic-reach, callers pass two slots)
    let a = v[0];
    let b = v[1];
    a.wrapping_add(b)
}
";
        let found = audit_one("src/lib.rs", src, &cfg_entry());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "pub fn entry(v: &[u64]) -> u64 {\n    v[0] // audit: allow(panic-reach)\n}\n";
        let found = audit_one("src/lib.rs", src, &cfg_entry());
        let lints: Vec<&str> = found.iter().map(|f| f.lint.as_str()).collect();
        assert!(lints.contains(&lints::PANIC_REACH));
        assert!(lints.contains(&BAD_ANNOTATION));
    }

    #[test]
    fn unused_allow_is_rejected() {
        let src =
            "fn f() {\n    // audit: allow(panic-reach, stale justification)\n    let a = 1;\n}\n";
        let found = audit_one("src/lib.rs", src, &cfg_all());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].lint, BAD_ANNOTATION);
    }

    #[test]
    fn out_of_scope_paths_are_clean() {
        let mut cfg = cfg_all();
        cfg.lints
            .get_mut(lints::OVERFLOW_INTERVAL)
            .unwrap()
            .paths
            .push("crates/pfair-core".into());
        let src = "// audit: prove(overflow-bounds)\npub fn f(x: i64) -> i64 {\n    x * 8\n}\n";
        assert!(audit_one("crates/whisper-sim/src/lib.rs", src, &cfg).is_empty());
        assert_eq!(
            audit_one("crates/pfair-core/src/lag.rs", src, &cfg).len(),
            1
        );
    }

    #[test]
    fn workspace_pipeline_discharges_pass_findings() {
        let src = "\
pub fn entry(v: &[u64]) -> u64 {
    // audit: allow(panic-reach, caller guarantees a non-empty slice)
    v[0]
}
";
        let cfg = cfg_entry();
        let ws = Workspace {
            files: vec![analyze_source("src/lib.rs", src)],
        };
        let report = audit_workspace(&ws, &cfg);
        assert!(report.active().is_empty(), "{:?}", report.active());
        let allowed: Vec<&AuditEntry> = report.entries.iter().filter(|e| e.allowed).collect();
        assert_eq!(allowed.len(), 1);
        assert_eq!(allowed[0].finding.lint, lints::PANIC_REACH);
        assert!(report.entry_points[0].panic_free);
    }

    /// The report of a one-file workspace whose entry point is `entry`.
    fn audit_entry(src: &str) -> AuditReport {
        let cfg = cfg_entry();
        let ws = Workspace {
            files: vec![analyze_source("src/lib.rs", src)],
        };
        audit_workspace(&ws, &cfg)
    }

    /// Asserts that `src`'s one reachable panic site is discharged with
    /// `reason` and its entry point proves panic-free.
    fn assert_discharged(src: &str, reason: &str) {
        let report = audit_entry(src);
        assert!(report.active().is_empty(), "{:?}", report.active());
        let allowed: Vec<(&str, Option<&str>)> = report
            .entries
            .iter()
            .filter(|e| e.allowed)
            .map(|e| (e.finding.lint.as_str(), e.reason.as_deref()))
            .collect();
        assert_eq!(allowed, [(lints::PANIC_REACH, Some(reason))]);
        assert!(report.entry_points[0].panic_free);
    }

    /// Asserts that `src`'s one reachable panic site stays active.
    fn assert_standing(src: &str) {
        let report = audit_entry(src);
        let active = report.active();
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].lint, lints::PANIC_REACH);
        assert!(!report.entry_points[0].panic_free);
    }

    /// One annotation per panic site: the `#[expect]` clippy needs for
    /// an `.expect()` also discharges its reachability, under the
    /// comment's line rule, and leaves no unused allow.
    #[test]
    fn reasoned_expect_discharges_a_reachable_expect_call() {
        assert_discharged(
            "pub fn entry(v: Option<u64>) -> u64 {\n    #[expect(clippy::disallowed_methods, reason = \"callers pass Some\")]\n    let x = v\n        .expect(\"some\");\n    x\n}\n",
            "callers pass Some",
        );
    }

    #[test]
    fn reasoned_expect_discharges_a_reachable_panic_macro() {
        assert_discharged(
            "pub fn entry(v: Option<u64>) -> u64 {\n    let Some(x) = v else {\n        #[expect(clippy::panic, reason = \"callers pass Some\")]\n        panic!(\"none\");\n    };\n    x\n}\n",
            "callers pass Some",
        );
    }

    /// rustfmt wraps a long attribute over several lines; the line rule
    /// counts from its last, so it still covers the statement below.
    #[test]
    fn a_wrapped_expect_covers_the_statement_below_it() {
        assert_discharged(
            "pub fn entry(v: Option<u64>) -> u64 {\n    #[expect(\n        clippy::disallowed_methods,\n        reason = \"callers pass Some\"\n    )]\n    let x = v.expect(\"some\");\n    x\n}\n",
            "callers pass Some",
        );
    }

    #[test]
    fn an_expect_without_a_reason_discharges_nothing() {
        assert_standing(
            "pub fn entry(v: Option<u64>) -> u64 {\n    #[expect(clippy::disallowed_methods)]\n    let x = v.expect(\"some\");\n    x\n}\n",
        );
    }

    #[test]
    fn an_expect_of_another_lint_discharges_nothing() {
        assert_standing(
            "pub fn entry(v: Option<u64>) -> u64 {\n    #[expect(clippy::as_conversions, reason = \"callers pass Some\")]\n    let x = v.expect(\"some\");\n    x\n}\n",
        );
    }

    /// No clippy lint the tree turns on flags an `assert!` or an index,
    /// so neither a `clippy::panic` nor a `disallowed_methods` expect
    /// vouches for one, alone or beside a call it does cover.
    #[test]
    fn an_expect_over_an_assert_or_an_index_discharges_nothing() {
        for src in [
            "pub fn entry(v: u64) -> u64 {\n    #[expect(clippy::panic, reason = \"callers pass nonzero\")]\n    assert!(v > 0);\n    v\n}\n",
            "pub fn entry(v: &[u64]) -> u64 {\n    #[expect(clippy::disallowed_methods, reason = \"callers pass one\")]\n    let x = v[0];\n    x\n}\n",
            "pub fn entry(v: &[u64]) -> u64 {\n    #[expect(clippy::disallowed_methods, reason = \"callers pass two\")]\n    let x = v[0] + v.first().copied().expect(\"one\");\n    x\n}\n",
        ] {
            assert_standing(src);
        }
    }

    #[test]
    fn workspace_pipeline_reports_undischarged_reachability() {
        let src = "pub fn entry(v: &[u64]) -> u64 { v[0] }\n";
        let cfg = cfg_entry();
        let ws = Workspace {
            files: vec![analyze_source("src/lib.rs", src)],
        };
        let report = audit_workspace(&ws, &cfg);
        assert_eq!(report.active().len(), 1);
        assert!(!report.entry_points[0].panic_free);
    }
}
