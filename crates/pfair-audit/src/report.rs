//! JSON report rendering for `pfair-audit check --report json`.
//!
//! Hand-rolled writer (the workspace takes no serialization
//! dependency): stable key order, findings sorted by
//! `(path, line, lint)`, entry points in config order. The artifact is
//! what CI archives, so its shape is covered by a golden-snapshot
//! test in `tests/corpus.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::AuditReport;

/// Renders the full report — discharged findings included — as a
/// pretty-printed JSON document with a trailing newline.
pub fn render_json(report: &AuditReport) -> String {
    let active = report.entries.iter().filter(|e| !e.allowed).count();
    let allowed = report.entries.len() - active;
    let mut by_lint: BTreeMap<&str, usize> = BTreeMap::new();
    for e in report.entries.iter().filter(|e| !e.allowed) {
        *by_lint.entry(e.finding.lint.as_str()).or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": 2,");
    let _ = writeln!(out, "  \"files_parsed\": {},", report.files);
    let _ = writeln!(out, "  \"parse_errors\": {},", report.parse_errors);
    out.push_str("  \"summary\": {\n");
    let _ = writeln!(out, "    \"active\": {active},");
    let _ = writeln!(out, "    \"allowed\": {allowed},");
    out.push_str("    \"by_lint\": {");
    for (i, (lint, n)) in by_lint.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n      ");
        let _ = write!(out, "{}: {n}", quote(lint));
    }
    if !by_lint.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("}\n  },\n");

    out.push_str("  \"entry_points\": [");
    for (i, ep) in report.entry_points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"spec\": {}, ", quote(&ep.spec));
        let _ = write!(out, "\"resolved\": {}, ", ep.resolved);
        let _ = write!(out, "\"panic_free\": {}, ", ep.panic_free);
        let _ = write!(out, "\"reachable_fns\": {}", ep.reachable.len());
        out.push('}');
    }
    if !report.entry_points.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"findings\": [");
    for (i, e) in report.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"path\": {}, ", quote(&e.finding.path));
        let _ = write!(out, "\"line\": {}, ", e.finding.line);
        let _ = write!(out, "\"lint\": {}, ", quote(&e.finding.lint));
        let _ = write!(out, "\"message\": {}, ", quote(&e.finding.message));
        let _ = write!(out, "\"allowed\": {}", e.allowed);
        if let Some(reason) = &e.reason {
            let _ = write!(out, ", \"reason\": {}", quote(reason));
        }
        out.push('}');
    }
    if !report.entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string literal with the mandatory escapes.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuditEntry, Finding};

    #[test]
    fn renders_stable_json() {
        let report = AuditReport {
            entries: vec![
                AuditEntry {
                    finding: Finding {
                        path: "src/a.rs".into(),
                        line: 3,
                        lint: "overflow-interval".into(),
                        message: "`*` may overflow `i64`".into(),
                    },
                    allowed: false,
                    reason: None,
                },
                AuditEntry {
                    finding: Finding {
                        path: "src/b.rs".into(),
                        line: 9,
                        lint: "panic-reach".into(),
                        message: "entry \"x\"".into(),
                    },
                    allowed: true,
                    reason: Some("bounded by caller".into()),
                },
            ],
            entry_points: vec![],
            files: 2,
            parse_errors: 0,
        };
        let json = render_json(&report);
        assert!(json.starts_with("{\n  \"version\": 2,\n"));
        assert!(json.contains("\"active\": 1"));
        assert!(json.contains("\"allowed\": 1"));
        assert!(json.contains("\"overflow-interval\": 1"));
        assert!(json.contains("\\\"x\\\""), "escaped quotes: {json}");
        assert!(json.contains("\"reason\": \"bounded by caller\""));
        assert!(json.ends_with("]\n}\n"));
    }

    #[test]
    fn quote_escapes_control_characters() {
        assert_eq!(quote("a\nb\t\"\\\u{1}"), "\"a\\nb\\t\\\"\\\\\\u0001\"");
    }

    #[test]
    fn empty_report_renders_empty_collections() {
        let json = render_json(&AuditReport::default());
        assert!(json.contains("\"by_lint\": {}"));
        assert!(json.contains("\"entry_points\": [],"));
        assert!(json.contains("\"findings\": []\n}"));
    }
}
