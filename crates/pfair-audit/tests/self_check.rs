//! The workspace must pass its own audit, and clippy's float gate must
//! be in force: `cargo test -p pfair-audit` fails the moment a panic
//! path or a stray wide-integer operation sneaks into the scheduling
//! crates without justification, or a crate root stops asking clippy to
//! flag floats.

use std::path::Path;

use pfair_audit::audit_root;
use pfair_audit::config::Config;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
}

#[test]
fn workspace_passes_its_own_audit() {
    let root = workspace_root();
    let config_src =
        std::fs::read_to_string(root.join("audit.toml")).expect("audit.toml at workspace root");
    let cfg = Config::parse(&config_src).expect("audit.toml parses");
    let findings = audit_root(root, &cfg).expect("workspace tree readable");
    let pretty = findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        findings.is_empty(),
        "the workspace must be audit-clean; findings:\n{pretty}"
    );
}

/// The crates whose roots turn clippy's float lints on, and whether the
/// root also turns on `disallowed_methods` (the five scheduling crates).
const FLOAT_GATED_ROOTS: &[(&str, bool)] = &[
    ("crates/pfair-core/src/lib.rs", true),
    ("crates/pfair-sched/src/lib.rs", true),
    ("crates/pfair-exec/src/lib.rs", true),
    ("crates/pfair-obs/src/lib.rs", true),
    ("crates/pfair-persist/src/lib.rs", true),
    ("crates/pfair-cli/src/lib.rs", false),
    ("crates/pfair-cli/src/main.rs", false),
    ("crates/pfair-json/src/lib.rs", false),
];

/// The body of the `key = [ .. ]` list in `clippy.toml`.
fn clippy_list<'a>(toml: &'a str, key: &str) -> &'a str {
    let start = toml
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
    let body = &toml[start..];
    &body[..body.find("\n]").expect("the list is closed")]
}

/// Floats are clippy's to flag: a float type, float arithmetic, a cast
/// (`as_conversions`, turned on beside these), and a call that makes a
/// float from an exact value (`to_f64`, the report functions) or an
/// exact value from a float (`to_bits`). Nothing else fails when a
/// root's lint line or a list entry is deleted.
#[test]
fn clippy_float_gate_is_in_force() {
    let root = workspace_root();
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml at root");
    let types = clippy_list(&toml, "disallowed-types");
    for ty in ["f64", "f32"] {
        assert!(
            types.contains(&format!("path = \"{ty}\"")),
            "clippy.toml's disallowed-types must list `{ty}`"
        );
    }
    let methods = clippy_list(&toml, "disallowed-methods");
    for method in [
        "pfair_core::rational::Rational::to_f64",
        "pfair_core::weight::Weight::to_f64",
        "pfair_sched::trace::pct_of_ideal",
        "pfair_sched::trace::TaskResult::pct_of_ideal",
        "pfair_sched::trace::SimResult::mean_pct_of_ideal",
        "pfair_sched::edf::EdfRun::pct_of_ideal",
        "f64::to_bits",
        "f32::to_bits",
        "f64::powi",
        "f32::powi",
    ] {
        assert!(
            methods.contains(&format!("path = \"{method}\"")),
            "clippy.toml's disallowed-methods must list `{method}`"
        );
    }
    for &(file, methods_too) in FLOAT_GATED_ROOTS {
        let src = std::fs::read_to_string(root.join(file)).expect("crate root readable");
        let start = src
            .find("\n#![cfg_attr(")
            .unwrap_or_else(|| panic!("{file} has no crate-level `#![cfg_attr(..)]`"));
        let attr = &src[start..];
        let attr = &attr[..attr.find(")]").expect("the attribute is closed")];
        let mut lints = vec!["clippy::disallowed_types", "clippy::float_arithmetic"];
        if methods_too {
            lints.push("clippy::disallowed_methods");
        }
        for lint in lints {
            assert!(
                attr.contains("not(test)") && attr.contains(lint),
                "{file} must turn `{lint}` on in its `#![cfg_attr(not(test), warn(..))]`"
            );
        }
    }
}
