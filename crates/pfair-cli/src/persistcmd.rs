//! The `pfair snapshot` and `pfair resume` subcommands.
//!
//! `snapshot` parses a workload file, advances the engine to a
//! checkpoint slot, and writes the durable state (plus, optionally,
//! the metrics registry) to disk. `resume` loads that state and either
//! runs to the horizon — printing the same summary `pfair run` would —
//! or advances to another checkpoint, chaining segmented executions
//! across process boundaries. The persistence invariant (see
//! `pfair-persist`) guarantees the chained result is bit-identical to
//! an uninterrupted run.
//!
//! A workload file asks for history (`pfair run` records it), but the
//! history is a probe's and a snapshot carries no probe, so both
//! subcommands drop the request (`record_history = false`).
//! Consequently a resumed result is byte-comparable to another
//! snapshot/resume chain, not to `pfair run --json` output.

use crate::parser;
use pfair_json::{FromJson, Json, ToJson};
use pfair_obs::{MetricsProbe, Registry};
use pfair_persist::{read_snapshot, write_snapshot};
use pfair_sched::engine::Engine;
use pfair_sched::trace::SimResult;

/// Options for `pfair snapshot`.
#[derive(Clone, Debug, Default)]
pub struct SnapshotOptions {
    /// Checkpoint slot; defaults to half the workload's horizon.
    pub at: Option<i64>,
    /// Snapshot file to write (required).
    pub out: String,
    /// Optional metrics-registry JSON to write alongside.
    pub metrics_out: Option<String>,
}

/// Options for `pfair resume`.
#[derive(Clone, Debug, Default)]
pub struct ResumeOptions {
    /// Stop at this slot and write another checkpoint instead of
    /// finishing the run (requires `snapshot_out`).
    pub until: Option<i64>,
    /// Where to write the chained checkpoint when `until` is given.
    pub snapshot_out: Option<String>,
    /// Metrics-registry JSON persisted by the previous segment.
    pub metrics_in: Option<String>,
    /// Where to write the (possibly final) metrics registry.
    pub metrics_out: Option<String>,
    /// Where to write the final `SimResult` JSON.
    pub json_out: Option<String>,
}

/// Runs a workload file up to the checkpoint slot and writes the
/// snapshot (and optionally the metrics registry). Returns the status
/// lines to print.
pub fn snapshot_file(path: &str, opts: &SnapshotOptions) -> Result<String, String> {
    let input = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut spec = parser::parse(&input).map_err(|e| format!("{path}: {e}"))?;
    // A snapshot carries no probe, so no history recorder either.
    spec.config.record_history = false;
    let at = opts.at.unwrap_or(spec.config.horizon / 2);
    let mut engine = Engine::with_probe(spec.config, &spec.workload, MetricsProbe::new());
    let snap = engine.snapshot_at(at)?;
    write_snapshot(std::path::Path::new(&opts.out), &snap).map_err(|e| e.to_string())?;
    let mut out = format!("checkpoint at slot {} -> {}\n", snap.now(), opts.out);
    if let Some(p) = &opts.metrics_out {
        write_registry(p, engine.probe_mut().registry())?;
        out.push_str(&format!("metrics -> {p}\n"));
    }
    Ok(out)
}

/// Restores a snapshot file and either finishes the run or advances to
/// the next checkpoint. Returns the status/summary text and, when the
/// run finished, the result.
pub fn resume_file(
    path: &str,
    opts: &ResumeOptions,
) -> Result<(String, Option<SimResult>), String> {
    let snap = read_snapshot(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let registry = match &opts.metrics_in {
        Some(p) => read_registry(p)?,
        None => Registry::new(),
    };
    let mut engine = Engine::restore(snap, MetricsProbe::from_registry(registry))?;

    if let Some(until) = opts.until.filter(|&u| u < engine.config().horizon) {
        let Some(snapshot_out) = &opts.snapshot_out else {
            return Err("--until needs --snapshot-out to write the checkpoint".into());
        };
        let snap = engine.snapshot_at(until)?;
        write_snapshot(std::path::Path::new(snapshot_out), &snap).map_err(|e| e.to_string())?;
        let mut out = format!("checkpoint at slot {} -> {snapshot_out}\n", snap.now());
        if let Some(p) = &opts.metrics_out {
            write_registry(p, engine.probe_mut().registry())?;
            out.push_str(&format!("metrics -> {p}\n"));
        }
        return Ok((out, None));
    }

    engine.run();
    let mix = engine.driver_mix();
    let (result, probe) = engine.finish_with_probe();
    let mut out = crate::report::summary(&result);
    out.push_str(&crate::report::driver_mix(&mix));
    if let Some(p) = &opts.json_out {
        std::fs::write(p, result.to_json_pretty()).map_err(|e| format!("writing {p}: {e}"))?;
        out.push_str(&format!("wrote {p}\n"));
    }
    if let Some(p) = &opts.metrics_out {
        write_registry(p, probe.registry())?;
        out.push_str(&format!("metrics -> {p}\n"));
    }
    Ok((out, Some(result)))
}

fn write_registry(path: &str, reg: &Registry) -> Result<(), String> {
    let mut text = reg.to_json_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn read_registry(path: &str) -> Result<Registry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Registry::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("pfair-cli-persist-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn workload_file(name: &str) -> String {
        let path = tmp(name);
        std::fs::write(&path, parser::EXAMPLE).unwrap();
        path
    }

    /// Segmented snapshot → resume → resume chain reproduces the
    /// one-shot resume result and metrics byte for byte.
    #[test]
    fn chained_resume_matches_one_shot() {
        let w = workload_file("chain-workload.txt");
        let (s0, mid, last, m0, m_mid, m_last) = (
            tmp("c0.json"),
            tmp("c1.json"),
            tmp("final.json"),
            tmp("m0.json"),
            tmp("m1.json"),
            tmp("m-final.json"),
        );
        // Reference: checkpoint at slot 0, one uninterrupted resume.
        snapshot_file(
            &w,
            &SnapshotOptions {
                at: Some(0),
                out: s0.clone(),
                metrics_out: Some(m0.clone()),
            },
        )
        .unwrap();
        let (_, reference) = resume_file(
            &s0,
            &ResumeOptions {
                metrics_in: Some(m0.clone()),
                metrics_out: Some(m_last.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let reference_metrics = std::fs::read_to_string(&m_last).unwrap();

        // Chained: the same start, interrupted mid-run.
        let (_, none) = resume_file(
            &s0,
            &ResumeOptions {
                until: Some(9),
                snapshot_out: Some(mid.clone()),
                metrics_in: Some(m0.clone()),
                metrics_out: Some(m_mid.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(none.is_none());
        let (_, chained) = resume_file(
            &mid,
            &ResumeOptions {
                metrics_in: Some(m_mid.clone()),
                metrics_out: Some(m_last.clone()),
                json_out: Some(last.clone()),
                ..Default::default()
            },
        )
        .unwrap();

        use pfair_json::ToJson;
        assert_eq!(
            reference.unwrap().to_json_pretty(),
            chained.unwrap().to_json_pretty()
        );
        assert_eq!(reference_metrics, std::fs::read_to_string(&m_last).unwrap());
        assert!(std::fs::read_to_string(&last).unwrap().contains("horizon"));
        for p in [w, s0, mid, last, m0, m_mid, m_last] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn until_requires_snapshot_out() {
        let w = workload_file("lone-workload.txt");
        let s = tmp("lone.json");
        snapshot_file(
            &w,
            &SnapshotOptions {
                at: Some(0),
                out: s.clone(),
                metrics_out: None,
            },
        )
        .unwrap();
        let err = resume_file(
            &s,
            &ResumeOptions {
                until: Some(5),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("--snapshot-out"), "{err}");
        for p in [w, s] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn missing_snapshot_is_an_error() {
        let err = resume_file(&tmp("does-not-exist.json"), &ResumeOptions::default()).unwrap_err();
        assert!(!err.is_empty());
    }
}
