//! Shared fixture-tree configuration for the integration tests.

use pfair_audit::config::Config;
use pfair_audit::lints::{CATALOG, PANIC_REACH};

/// A config mirroring the real audit.toml's shape, scoped to the
/// fixture tree: both passes apply everywhere, `sched/` plays the
/// scheduling crates, and `passes/` holds one known-bad / sanctioned
/// pair per pass.
pub fn fixture_config() -> Config {
    let mut cfg = Config::default();
    for (lint, _) in CATALOG {
        cfg.lints.entry((*lint).to_string()).or_default();
    }
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
