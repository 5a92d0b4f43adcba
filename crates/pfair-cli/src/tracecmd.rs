//! The `pfair trace` subcommand: run a Whisper scenario under a probed
//! engine and emit a Chrome trace-event JSON file (loadable in
//! Perfetto / `chrome://tracing`) plus a report with the canonical
//! metrics snapshot and the top-K most expensive reweighting events.
//! With `--flight`, the flight recorder riding the same run dumps its
//! event ring and incidents as a second JSON document.

use pfair_json::ToJson;
use pfair_obs::{Fanout, FlightRecorder, MetricsProbe, Probe, TraceRecorder};
use pfair_sched::reweight::Scheme;
use std::fmt::Write as _;
use whisper_sim::{run_whisper_probed, Scenario, WhisperMetrics, PROCESSORS};

/// Options for a trace run.
#[derive(Clone, Debug)]
pub struct TraceOptions {
    /// Scenario seed (each seed is one speaker-trajectory draw).
    pub seed: u64,
    /// Reweighting scheme, as [`crate::parser::parse_scheme`] reads it.
    pub scheme: Scheme,
    /// Slots to simulate.
    pub horizon: i64,
    /// How many reweighting events the cost report lists.
    pub top: usize,
    /// Dump the flight recorder's ring and incidents too.
    pub flight: bool,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions {
            seed: 0,
            scheme: Scheme::Oi,
            horizon: 1000,
            top: 10,
            flight: false,
        }
    }
}

/// Runs the Whisper scenario `pfair trace` and `pfair slo` share
/// (speed 2.9, radius 0.25, occlusion on) under `probe`, and returns
/// the report's header line beside the run's metrics and the probe.
pub(crate) fn whisper_probed<P: Probe>(
    seed: u64,
    scheme: &Scheme,
    horizon: i64,
    probe: P,
) -> (String, WhisperMetrics, P) {
    let sc = Scenario::new(2.9, 0.25, true, seed);
    let (metrics, probe) = run_whisper_probed(&sc, scheme.clone(), horizon, probe);
    let header = format!(
        "whisper seed {seed}, scheme {scheme:?}, horizon {horizon} on {PROCESSORS} processors\n"
    );
    (header, metrics, probe)
}

/// Runs the scenario and returns the human-readable report, the Chrome
/// trace-event JSON document, and — when `opts.flight` is set — the
/// flight-recorder dump (an explicit end-of-run capture, so the dump
/// always carries at least one incident even on a clean run); both
/// documents pretty printed.
pub fn run_trace(opts: &TraceOptions) -> (String, String, Option<String>) {
    let probe = Fanout(
        TraceRecorder::new(),
        Fanout(MetricsProbe::new(), FlightRecorder::new()),
    );
    let (mut out, metrics, Fanout(rec, Fanout(mp, mut flight))) =
        whisper_probed(opts.seed, &opts.scheme, opts.horizon, probe);
    let _ = writeln!(
        out,
        "misses {}; max drift {:.3}; {:.2}% of ideal",
        metrics.misses, metrics.max_drift, metrics.pct_of_ideal
    );
    let superseded = rec.spans().iter().filter(|s| s.superseded).count();
    let _ = writeln!(
        out,
        "{} events recorded; {} reweighting spans ({} superseded)",
        rec.events().len(),
        rec.spans().len(),
        superseded
    );
    out.push('\n');
    out.push_str("metrics snapshot:\n");
    for line in mp.registry().snapshot_text().lines() {
        let _ = writeln!(out, "  {line}");
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "top {} most expensive reweighting events (cost = queue ops + halts):",
        opts.top
    );
    let _ = writeln!(
        out,
        "  {:<5} {:<6} {:<5} {:>10} {:>9} {:>6} {:>10} {:>6}",
        "rank", "task", "rule", "initiated", "enacted", "halts", "queue ops", "cost"
    );
    for (rank, span) in rec.top_reweights(opts.top).iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<5} {:<6} {:<5} {:>10} {:>9} {:>6} {:>10} {:>6}",
            rank + 1,
            span.task.to_string(),
            span.rule.label(),
            span.initiated_at,
            span.enacted_at
                .map_or_else(|| "-".into(), |e| e.to_string()),
            span.halts,
            span.queue_ops,
            span.total_cost()
        );
    }
    let flight_dump = opts.flight.then(|| {
        flight.capture_now(opts.horizon);
        let _ = writeln!(
            out,
            "\nflight recorder: {} ring events ({} dropped), {} incident(s)",
            flight.recent().count(),
            flight.dropped(),
            flight.incidents().len()
        );
        flight.to_json_pretty()
    });
    (out, rec.chrome_trace(), flight_dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_json::Json;

    #[test]
    fn trace_report_lists_costed_reweights_and_valid_chrome_json() {
        let opts = TraceOptions {
            horizon: 400,
            top: 5,
            ..TraceOptions::default()
        };
        let (report, chrome, flight) = run_trace(&opts);
        assert!(flight.is_none(), "no --flight, no dump");
        assert!(report.contains("whisper seed 0"));
        assert!(report.contains("metrics snapshot:"));
        assert!(report.contains("counter reweight.initiated"));
        assert!(report.contains("top 5 most expensive"));
        // The document must survive a serialize/parse round trip and
        // carry the Chrome trace envelope with reweight spans.
        let parsed = Json::parse(&chrome).unwrap();
        let events = parsed.get("traceEvents").unwrap();
        let Json::Array(items) = events else {
            panic!("traceEvents must be an array")
        };
        assert!(!items.is_empty());
        let has_reweight_span = items.iter().any(|e| {
            matches!(e.get("cat"), Some(Json::Str(c)) if c == "reweight")
                && e.get("args").and_then(|a| a.get("rule")).is_some()
                && e.get("args").and_then(|a| a.get("total_cost")).is_some()
        });
        assert!(has_reweight_span, "reweight spans carry rule + cost");
    }

    #[test]
    fn flight_dump_has_ring_and_incidents() {
        let opts = TraceOptions {
            horizon: 400,
            flight: true,
            ..TraceOptions::default()
        };
        let (report, _, flight) = run_trace(&opts);
        assert!(report.contains("flight recorder:"));
        let dump = flight.expect("--flight produces a dump");
        let parsed = Json::parse(&dump).unwrap();
        for key in ["capacity", "dropped", "suppressed", "events", "incidents"] {
            assert!(parsed.get(key).is_some(), "dump missing `{key}`");
        }
        let Some(Json::Array(incidents)) = parsed.get("incidents") else {
            panic!("incidents must be an array");
        };
        // The end-of-run capture is always present.
        assert!(!incidents.is_empty());
        assert!(incidents
            .iter()
            .any(|i| matches!(i.get("trigger"), Some(Json::Str(s)) if s == "request")));
    }
}
