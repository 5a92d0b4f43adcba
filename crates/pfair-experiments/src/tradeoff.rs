//! The efficiency-versus-accuracy sweep: hybrid schemes between pure
//! PD²-OI and pure PD²-LJ on the Whisper workload.
//!
//! This is the headline experiment of the titled companion paper
//! ("Task Reweighting on Multiprocessors: Efficiency versus Accuracy"):
//! PD²-OI buys accuracy (low drift, high % of ideal) at the cost of
//! extra queue work per reweighting event; PD²-LJ is cheap but
//! inaccurate; hybrids buy accuracy only for the events that matter.
//! For each scheme the table reports both axes — measured overhead
//! (priority-queue operations and halts) and accuracy (max drift and %
//! of ideal) — averaged over seeded runs.

use crate::runner;
use pfair_core::rational::rat;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use whisper_sim::stats::summarize;
use whisper_sim::{run_whisper, Scenario};

/// A point on the efficiency-accuracy frontier.
#[derive(Clone, Debug)]
pub struct TradeoffPoint {
    /// Scheme label.
    pub label: String,
    /// Mean max drift at t = 1000.
    pub max_drift: f64,
    /// Mean % of ideal allocation.
    pub pct_of_ideal: f64,
    /// Mean priority-queue operations per run.
    pub heap_ops: f64,
    /// Mean subtask halts per run (the extra work OI-style handling
    /// performs over LJ's bulk withdrawal).
    pub halts: f64,
    /// Mean enactments per run.
    pub enactments: f64,
}

/// The scheme ladder from pure LJ to pure OI.
pub fn schemes() -> Vec<(String, Scheme)> {
    vec![
        ("PD2-LJ (pure)".into(), Scheme::LeaveJoin),
        (
            "hybrid every-4th".into(),
            Scheme::Hybrid(HybridPolicy::EveryNth(4)),
        ),
        (
            "hybrid every-2nd".into(),
            Scheme::Hybrid(HybridPolicy::EveryNth(2)),
        ),
        (
            "hybrid |Δw| ≥ 50%".into(),
            Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(1, 2))),
        ),
        (
            "hybrid |Δw| ≥ 20%".into(),
            Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(1, 5))),
        ),
        (
            "hybrid budget 2/100".into(),
            Scheme::Hybrid(HybridPolicy::OiBudget {
                budget: 2,
                window: 100,
            }),
        ),
        (
            "hybrid drift-feedback".into(),
            Scheme::Hybrid(HybridPolicy::DriftFeedback(rat(3, 2))),
        ),
        ("PD2-OI (pure)".into(), Scheme::Oi),
    ]
}

/// Sweeps the ladder on the base Whisper scenario.
///
/// The sweep is flattened to one job per (scheme, seed) pair before
/// being fanned across the worker pool, so even a single-scheme sweep
/// with many seeds — or the full 8-scheme ladder with few — keeps every
/// worker busy. Results come back in job order (see [`runner::par_map`])
/// and are regrouped per scheme, so output is identical to the serial
/// nested loop.
pub fn sweep(speed: f64, radius: f64, runs: u64) -> Vec<TradeoffPoint> {
    let ladder = schemes();
    let jobs: Vec<(usize, u64)> = (0..ladder.len())
        .flat_map(|si| (0..runs).map(move |seed| (si, seed)))
        .collect();
    let all_metrics = runner::par_map(jobs, |(si, seed)| {
        let sc = Scenario::new(speed, radius, true, seed);
        run_whisper(&sc, ladder[si].1.clone())
    });
    let chunk = usize::try_from(runs).expect("runs fits in usize").max(1);
    ladder
        .into_iter()
        .zip(all_metrics.chunks(chunk))
        .map(|((label, _scheme), metrics)| {
            for m in metrics {
                assert_eq!(m.misses, 0, "{label}: deadline miss");
            }
            TradeoffPoint {
                label,
                max_drift: summarize(&metrics.iter().map(|m| m.max_drift).collect::<Vec<_>>()).mean,
                pct_of_ideal: summarize(
                    &metrics.iter().map(|m| m.pct_of_ideal).collect::<Vec<_>>(),
                )
                .mean,
                heap_ops: summarize(
                    &metrics
                        .iter()
                        .map(|m| m.counters.heap_ops() as f64)
                        .collect::<Vec<_>>(),
                )
                .mean,
                halts: summarize(
                    &metrics
                        .iter()
                        .map(|m| m.counters.halts as f64)
                        .collect::<Vec<_>>(),
                )
                .mean,
                enactments: summarize(
                    &metrics
                        .iter()
                        .map(|m| m.counters.reweight_enactments as f64)
                        .collect::<Vec<_>>(),
                )
                .mean,
            }
        })
        .collect()
}

/// Prints the frontier table.
pub fn run(runs: u64) {
    println!("\n=== Efficiency vs. accuracy: hybrid ladder (speed 2.9 m/s, radius 25 cm) ===");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>9} {:>11}",
        "scheme", "max drift", "% of ideal", "heap ops", "halts", "enactments"
    );
    for p in sweep(2.9, 0.25, runs) {
        println!(
            "{:<22} {:>10.3} {:>12.2} {:>12.0} {:>9.1} {:>11.1}",
            p.label, p.max_drift, p.pct_of_ideal, p.heap_ops, p.halts, p.enactments
        );
    }
}
