//! Baseline comparison: the Pfair schemes against the companion papers'
//! alternatives (global EDF and partitioned EDF) on the same Whisper
//! workload — the "all three approaches are of value" discussion of the
//! paper's concluding remarks made measurable.

use crate::runner;
use pfair_sched::edf::{run_edf, EdfBaseline, EdfReweightMode};
use pfair_sched::reweight::Scheme;
use whisper_sim::scenario::{generate_workload, HORIZON, PROCESSORS};
use whisper_sim::stats::summarize;
use whisper_sim::{run_whisper, Scenario};

/// One row of the baseline table.
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Scheduler label.
    pub label: String,
    /// Mean % of ideal allocation completed by t = 1000.
    pub pct_of_ideal: f64,
    /// Mean deadline misses per run.
    pub misses: f64,
    /// Mean migrations per run: a task changing processor under PD²,
    /// none counted under global EDF, and the reweight-forced
    /// repartitions under partitioned EDF.
    pub migrations: f64,
}

/// Aggregates per-run `[% of ideal, misses, migrations]` into a row.
fn row(label: &str, runs: &[[f64; 3]]) -> BaselineRow {
    let mean = |k: usize| summarize(&runs.iter().map(|r| r[k]).collect::<Vec<_>>()).mean;
    BaselineRow {
        label: label.into(),
        pct_of_ideal: mean(0),
        misses: mean(1),
        migrations: mean(2),
    }
}

/// Runs every scheduler on the same seeds and aggregates.
pub fn compare(speed: f64, radius: f64, runs: u64) -> Vec<BaselineRow> {
    let seeds: Vec<u64> = (0..runs).collect();
    let scenario = |seed| Scenario::new(speed, radius, true, seed);
    let mut rows = Vec::new();

    for (label, scheme) in [("PD2-OI", Scheme::Oi), ("PD2-LJ", Scheme::LeaveJoin)] {
        let runs = runner::par_map(seeds.clone(), |seed| {
            let m = run_whisper(&scenario(seed), scheme.clone());
            [
                m.pct_of_ideal,
                m.misses as f64,
                m.counters.migrations as f64,
            ]
        });
        rows.push(row(label, &runs));
    }

    for (label, baseline) in [
        (
            "global EDF (boundary)",
            EdfBaseline::Global(EdfReweightMode::AtBoundary),
        ),
        (
            "global EDF (immediate)",
            EdfBaseline::Global(EdfReweightMode::Immediate),
        ),
        ("partitioned EDF", EdfBaseline::Partitioned),
    ] {
        let runs = runner::par_map(seeds.clone(), |seed| {
            let r = run_edf(
                PROCESSORS,
                HORIZON,
                &generate_workload(&scenario(seed)),
                baseline,
            );
            let p = r.pct_of_ideal();
            [
                p.iter().sum::<f64>() / p.len().max(1) as f64,
                r.misses.len() as f64,
                r.migrations as f64,
            ]
        });
        rows.push(row(label, &runs));
    }

    rows
}

/// Prints the comparison table.
pub fn run(runs: u64) {
    println!("\n=== Scheduler baselines on the Whisper workload (speed 2.9, radius 25 cm) ===");
    println!(
        "{:<24} {:>12} {:>10} {:>12}",
        "scheduler", "% of ideal", "misses", "migrations"
    );
    for row in compare(2.9, 0.25, runs) {
        println!(
            "{:<24} {:>12.2} {:>10.2} {:>12.1}",
            row.label, row.pct_of_ideal, row.misses, row.migrations
        );
    }
}
