//! Shared fixture-tree configuration for the integration tests.

use pfair_audit::config::Config;
use pfair_audit::lints::{CATALOG, NO_FLOAT, PANIC_REACH};

/// A config mirroring the real audit.toml's shape, scoped to the
/// fixture tree: `sched/` plays the scheduling crates, `allowed/` the
/// float-exempt report code, and `passes/` one fixture pair per pass
/// that the float token lint leaves alone, so each pair exercises
/// exactly one pass.
pub fn fixture_config() -> Config {
    let mut cfg = Config::default();
    for (lint, _) in CATALOG {
        cfg.lints.entry((*lint).to_string()).or_default();
    }
    let float = cfg.lints.get_mut(NO_FLOAT).unwrap();
    float.paths.extend(["sched".into(), "allowed".into()]);
    float.allow_paths.push("allowed".into());
    cfg.lints
        .get_mut(PANIC_REACH)
        .unwrap()
        .entry_points
        .extend([
            "Sched::run".into(),
            "SafeSched::run".into(),
            "MacroSched::run".into(),
        ]);
    cfg
}
