//! Runs the audit over the known-bad fixture corpus and asserts the
//! exact set of diagnostics, per fixture, line by line.

use std::path::Path;

use pfair_audit::audit_root;
use pfair_audit::lints::{BAD_ANNOTATION, OVERFLOW_INTERVAL, PANIC_REACH};

mod common;
use common::fixture_config;

#[test]
fn corpus_produces_exactly_the_expected_diagnostics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");

    let got: Vec<(String, u32, String)> = findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.lint.clone()))
        .collect();

    let expected: Vec<(String, u32, String)> = [
        ("passes/overflow_interval.rs", 6, OVERFLOW_INTERVAL),
        ("passes/overflow_interval.rs", 11, OVERFLOW_INTERVAL),
        ("passes/overflow_interval.rs", 11, OVERFLOW_INTERVAL),
        ("passes/panic_reach.rs", 14, PANIC_REACH),
        ("passes/panic_reach.rs", 18, PANIC_REACH),
        ("sched/bad_annotation.rs", 4, BAD_ANNOTATION),
        ("sched/bad_annotation.rs", 5, BAD_ANNOTATION),
        ("sched/rational_small.rs", 29, OVERFLOW_INTERVAL),
    ]
    .into_iter()
    .map(|(p, l, lint)| (p.to_string(), l, lint.to_string()))
    .collect();

    let pretty = findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(got, expected, "full diagnostics:\n{pretty}");
}

/// Each pass pair's `_ok` twin — checked lookups plus a typed allow
/// (panic-reach) and `assume`-bounded arithmetic (overflow-interval) —
/// must audit clean, and so must the macro-argument pair's, whose
/// values sit in checked `let`s where the passes can read them, and the
/// small-operand rational path's: a value-surfaced gate and a cross
/// product under the ±2^31 contracts.
#[test]
fn sanctioned_pass_fixtures_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    for ok in [
        "passes/panic_reach_ok.rs",
        "passes/overflow_interval_ok.rs",
        "sched/macro_args_ok.rs",
        "sched/rational_small_ok.rs",
    ] {
        assert!(
            !findings.iter().any(|f| f.path == ok),
            "{ok} should audit clean; findings:\n{}",
            findings
                .iter()
                .filter(|f| f.path == ok)
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Both fixture entry points resolve, and only the sanctioned one is
/// panic-free: the pass's verdict, not just its findings, must track
/// the fixture pair. The third entry pins the passes' blind spot: its
/// `.unwrap()` sits in macro arguments no pass reads, so it proves
/// panic-free and only clippy's `disallowed_methods` names the line.
#[test]
fn fixture_entry_points_split_on_panic_freedom() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let report = pfair_audit::audit_report(&root, &fixture_config()).expect("fixture tree");
    let by_spec = |spec: &str| {
        report
            .entry_points
            .iter()
            .find(|e| e.spec == spec)
            .unwrap_or_else(|| panic!("entry `{spec}` missing from the report"))
    };
    let bad = by_spec("Sched::run");
    assert!(bad.resolved && !bad.panic_free, "{bad:?}");
    let ok = by_spec("SafeSched::run");
    assert!(ok.resolved && ok.panic_free, "{ok:?}");
    let blind = by_spec("MacroSched::run");
    assert!(blind.resolved && blind.panic_free, "{blind:?}");
}
