//! The `pfair slo` subcommand: run a Whisper scenario under the
//! [`SloMonitor`] probe and report watermarks and exact breach records
//! for the three service-level signals (sliding-window misses, Eqn (5)
//! drift against a rational budget, reweight latency). No signal reads
//! a span, so horizon-scale batched runs pay O(1) per span.

use crate::tracecmd::whisper_probed;
use pfair_core::rational::Rational;
use pfair_json::JsonWriter;
use pfair_obs::{SloConfig, SloMonitor};
use pfair_sched::reweight::Scheme;
use std::fmt::Write as _;

/// Options for an SLO run.
#[derive(Clone, Debug)]
pub struct SloOptions {
    /// Scenario seed (each seed is one speaker-trajectory draw).
    pub seed: u64,
    /// Reweighting scheme, as [`crate::parser::parse_scheme`] reads it.
    pub scheme: Scheme,
    /// Slots to simulate.
    pub horizon: i64,
    /// Sliding-window width for the miss-rate signal, in slots.
    pub window: i64,
    /// Misses tolerated per window; one more is a breach.
    pub max_misses: u64,
    /// Drift budget (`None` disables the signal, watermarks kept).
    pub drift_budget: Option<Rational>,
    /// Initiation→enactment latency threshold in slots.
    pub max_reweight_latency: Option<u64>,
}

impl Default for SloOptions {
    fn default() -> SloOptions {
        SloOptions {
            seed: 0,
            scheme: Scheme::Oi,
            horizon: 1000,
            window: 1000,
            max_misses: 0,
            drift_budget: None,
            max_reweight_latency: None,
        }
    }
}

/// Parses a `--drift-budget` value: an integer (`3`) or an exact
/// rational (`3/4`).
pub fn parse_budget(s: &str) -> Option<Rational> {
    let (num, den) = match s.split_once('/') {
        Some((n, d)) => (n.parse::<i128>().ok()?, d.parse::<i128>().ok()?),
        None => (s.parse::<i128>().ok()?, 1),
    };
    if den <= 0 {
        return None;
    }
    Some(Rational::new(num, den))
}

/// Runs the scenario under the SLO monitor and returns the
/// human-readable report plus the monitor's JSON dump (config,
/// watermarks, breaches) wrapped with the run parameters, pretty
/// printed.
pub fn run_slo(opts: &SloOptions) -> (String, String) {
    let cfg = SloConfig {
        window: opts.window,
        max_misses: opts.max_misses,
        drift_budget: opts.drift_budget,
        max_reweight_latency: opts.max_reweight_latency,
    };
    let (mut out, metrics, slo) =
        whisper_probed(opts.seed, &opts.scheme, opts.horizon, SloMonitor::new(cfg));
    let _ = writeln!(
        out,
        "run summary: {} misses; {:.2}% of ideal",
        metrics.misses, metrics.pct_of_ideal
    );
    out.push('\n');
    out.push_str(&slo.report());

    let mut w = JsonWriter::pretty();
    w.begin_object().key("run");
    w.begin_object()
        .field("seed", &opts.seed)
        .field("scheme", &format!("{:?}", opts.scheme))
        .field("horizon", &opts.horizon)
        .field("misses", &metrics.misses);
    w.end_object();
    w.field("slo", &slo);
    w.end_object();
    (out, w.into_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_json::Json;

    #[test]
    fn slo_report_and_json_on_a_clean_run() {
        let opts = SloOptions {
            horizon: 400,
            ..SloOptions::default()
        };
        let (report, json) = run_slo(&opts);
        assert!(report.contains("SLO report"));
        assert!(report.contains("no SLO breaches"));
        let parsed = Json::parse(&json).unwrap();
        assert!(parsed.get("run").and_then(|r| r.get("horizon")).is_some());
        let slo = parsed.get("slo").expect("slo section");
        for key in ["config", "watermarks", "breaches", "suppressed"] {
            assert!(slo.get(key).is_some(), "slo dump missing `{key}`");
        }
    }

    #[test]
    fn tight_drift_budget_produces_exact_breaches() {
        // Whisper reweights constantly, so a zero drift budget breaches
        // on the first nonzero era-opening sample.
        let opts = SloOptions {
            horizon: 600,
            drift_budget: Some(Rational::ZERO),
            ..SloOptions::default()
        };
        let (report, json) = run_slo(&opts);
        assert!(report.contains("drift_budget"), "report: {report}");
        let parsed = Json::parse(&json).unwrap();
        let Some(Json::Array(breaches)) = parsed.get("slo").and_then(|s| s.get("breaches")) else {
            panic!("breaches must be an array");
        };
        assert!(!breaches.is_empty());
    }

    #[test]
    fn budget_parser_accepts_ints_and_rationals() {
        assert_eq!(parse_budget("3"), Some(Rational::new(3, 1)));
        assert_eq!(parse_budget("3/4"), Some(Rational::new(3, 4)));
        assert_eq!(parse_budget("-1/2"), Some(Rational::new(-1, 2)));
        assert!(parse_budget("x").is_none());
        assert!(parse_budget("1/0").is_none());
    }
}
