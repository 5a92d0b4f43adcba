//! Runs the audit over the known-bad fixture corpus and asserts the
//! exact set of diagnostics, per fixture, line by line.

use std::path::Path;

use pfair_audit::audit_root;
use pfair_audit::lints::{
    BAD_ANNOTATION, FLOAT_TAINT, NONDETERMINISM, NO_FLOAT, NO_LOSSY_CASTS, NO_PANIC,
    OVERFLOW_INTERVAL, PANIC_REACH, RAW_ARITH,
};

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
        ("passes/float_taint.rs", 10, FLOAT_TAINT),
        ("passes/float_taint.rs", 10, FLOAT_TAINT),
        ("passes/nondeterminism.rs", 4, NONDETERMINISM),
        ("passes/nondeterminism.rs", 6, NONDETERMINISM),
        ("passes/nondeterminism.rs", 12, NONDETERMINISM),
        ("passes/nondeterminism.rs", 17, NONDETERMINISM),
        ("passes/nondeterminism.rs", 19, NONDETERMINISM),
        ("passes/overflow_interval.rs", 6, OVERFLOW_INTERVAL),
        ("passes/overflow_interval.rs", 11, OVERFLOW_INTERVAL),
        ("passes/overflow_interval.rs", 11, OVERFLOW_INTERVAL),
        ("passes/panic_reach.rs", 14, PANIC_REACH),
        ("passes/panic_reach.rs", 18, PANIC_REACH),
        ("sched/bad_annotation.rs", 4, BAD_ANNOTATION),
        ("sched/busy_span.rs", 11, NO_FLOAT),
        ("sched/busy_span.rs", 11, NO_LOSSY_CASTS),
        ("sched/busy_span.rs", 12, NO_LOSSY_CASTS),
        ("sched/busy_span.rs", 17, NO_LOSSY_CASTS),
        ("sched/busy_span.rs", 17, RAW_ARITH),
        ("sched/busy_span.rs", 22, NO_PANIC),
        ("sched/float_in_kernel.rs", 5, NO_FLOAT),
        ("sched/float_in_kernel.rs", 6, NO_FLOAT),
        ("sched/float_in_kernel.rs", 9, NO_FLOAT),
        ("sched/float_in_kernel.rs", 10, NO_FLOAT),
        ("sched/float_in_kernel.rs", 10, NO_LOSSY_CASTS),
        ("sched/interval_advance.rs", 9, NO_LOSSY_CASTS),
        ("sched/interval_advance.rs", 9, RAW_ARITH),
        ("sched/interval_advance.rs", 10, RAW_ARITH),
        ("sched/interval_advance.rs", 11, NO_LOSSY_CASTS),
        ("sched/interval_advance.rs", 16, NO_PANIC),
        ("sched/journal_replay.rs", 10, NO_LOSSY_CASTS),
        ("sched/journal_replay.rs", 16, NO_PANIC),
        ("sched/journal_replay.rs", 17, NO_PANIC),
        ("sched/journal_replay.rs", 23, NO_FLOAT),
        ("sched/journal_replay.rs", 25, NO_FLOAT),
        ("sched/journal_replay.rs", 27, NO_LOSSY_CASTS),
        ("sched/lossy_casts.rs", 5, NO_LOSSY_CASTS),
        ("sched/lossy_casts.rs", 12, BAD_ANNOTATION),
        ("sched/lossy_casts.rs", 12, NO_LOSSY_CASTS),
        ("sched/macro_args.rs", 20, NO_LOSSY_CASTS),
        ("sched/macro_args.rs", 21, NO_PANIC),
        ("sched/macro_args.rs", 22, NO_FLOAT),
        ("sched/obs_aggregation.rs", 8, NO_FLOAT),
        ("sched/obs_aggregation.rs", 8, NO_LOSSY_CASTS),
        ("sched/obs_aggregation.rs", 9, NO_FLOAT),
        ("sched/obs_aggregation.rs", 9, NO_LOSSY_CASTS),
        ("sched/obs_aggregation.rs", 14, NO_PANIC),
        ("sched/packed_priority.rs", 9, NO_LOSSY_CASTS),
        ("sched/packed_priority.rs", 9, RAW_ARITH),
        ("sched/packed_priority.rs", 10, NO_LOSSY_CASTS),
        ("sched/packed_priority.rs", 16, NO_LOSSY_CASTS),
        ("sched/packed_priority.rs", 17, NO_PANIC),
        ("sched/panics.rs", 4, NO_PANIC),
        ("sched/panics.rs", 9, NO_PANIC),
        ("sched/panics.rs", 13, NO_PANIC),
        ("sched/panics.rs", 21, NO_PANIC),
        ("sched/panics.rs", 25, NO_PANIC),
        ("sched/rational_small.rs", 11, NO_FLOAT),
        ("sched/rational_small.rs", 11, NO_LOSSY_CASTS),
        ("sched/rational_small.rs", 16, NO_LOSSY_CASTS),
        ("sched/rational_small.rs", 16, RAW_ARITH),
        ("sched/rational_small.rs", 21, NO_PANIC),
        ("sched/rational_small.rs", 29, OVERFLOW_INTERVAL),
        ("sched/raw_arithmetic.rs", 6, NO_LOSSY_CASTS),
        ("sched/raw_arithmetic.rs", 6, RAW_ARITH),
        ("sched/raw_arithmetic.rs", 11, RAW_ARITH),
        ("sched/raw_arithmetic.rs", 18, BAD_ANNOTATION),
        ("sched/span_digest.rs", 10, NO_FLOAT),
        ("sched/span_digest.rs", 10, NO_LOSSY_CASTS),
        ("sched/span_digest.rs", 15, NO_LOSSY_CASTS),
        ("sched/span_digest.rs", 15, RAW_ARITH),
        ("sched/span_digest.rs", 20, NO_PANIC),
        ("sched/task_slab.rs", 10, NO_FLOAT),
        ("sched/task_slab.rs", 10, NO_LOSSY_CASTS),
        ("sched/task_slab.rs", 15, NO_LOSSY_CASTS),
        ("sched/task_slab.rs", 15, RAW_ARITH),
        ("sched/task_slab.rs", 20, NO_PANIC),
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

#[test]
fn allowed_paths_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings.iter().any(|f| f.path.starts_with("allowed/")),
        "float-exempt path should produce no findings"
    );
}

#[test]
fn sanctioned_interval_advancement_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings
            .iter()
            .any(|f| f.path == "sched/interval_advance_ok.rs"),
        "checked closed-form advancement should audit clean"
    );
}

#[test]
fn sanctioned_busy_span_jump_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings.iter().any(|f| f.path == "sched/busy_span_ok.rs"),
        "checked period counting, checked delta scaling, and a \
         value-surfaced probe mismatch should audit clean"
    );
}

#[test]
fn sanctioned_journal_replay_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings
            .iter()
            .any(|f| f.path == "sched/journal_replay_ok.rs"),
        "try_from widths, value-surfaced decode errors, and an \
         integer-domain checksum should audit clean"
    );
}

#[test]
fn sanctioned_packed_priority_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings
            .iter()
            .any(|f| f.path == "sched/packed_priority_ok.rs"),
        "clamped bias and try_from width changes should audit clean"
    );
}

/// Each pass pair's `_ok` twin — checked lookups plus a typed allow
/// (panic-reach), ordered collections and logical clocks
/// (nondeterminism), `assume`-bounded arithmetic (overflow-interval),
/// and float-free accounting (float-taint) — must audit clean, and so
/// must the macro-argument pair's, whose values sit in checked `let`s
/// where the passes can read them.
#[test]
fn sanctioned_pass_fixtures_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    for ok in [
        "passes/panic_reach_ok.rs",
        "passes/nondeterminism_ok.rs",
        "passes/overflow_interval_ok.rs",
        "passes/float_taint_ok.rs",
        "sched/macro_args_ok.rs",
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
/// `.unwrap()` sits in a macro token tree no pass reads, so it proves
/// panic-free and only the token lint (above) names the line.
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

#[test]
fn sanctioned_span_digest_scaling_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings.iter().any(|f| f.path == "sched/span_digest_ok.rs"),
        "checked digest scaling and a value-surfaced task lookup should audit clean"
    );
}

#[test]
fn sanctioned_small_operand_rational_path_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings
            .iter()
            .any(|f| f.path == "sched/rational_small_ok.rs"),
        "a value-surfaced gate and a cross product under the ±2^31 \
         contracts should audit clean"
    );
}

#[test]
fn sanctioned_task_slab_scan_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings.iter().any(|f| f.path == "sched/task_slab_ok.rs"),
        "exact column accounting, checked id narrowing, and a \
         value-surfaced cold-row lookup should audit clean"
    );
}

#[test]
fn sanctioned_obs_aggregation_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = audit_root(&root, &fixture_config()).expect("fixture tree readable");
    assert!(
        !findings
            .iter()
            .any(|f| f.path == "sched/obs_aggregation_ok.rs"),
        "integer-log2 bucketing and value-propagating lookups should audit clean"
    );
}
