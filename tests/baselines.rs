//! Integration tests of the EDF baselines (global and partitioned)
//! against the Whisper workload — the cross-scheme comparison of the
//! companion papers.

use pfair_repro::sched::edf::{run_edf, EdfBaseline, EdfReweightMode, EdfRun};
use pfair_repro::whisper::{generate_workload, Scenario, HORIZON, PROCESSORS};

const BOUNDARY: EdfBaseline = EdfBaseline::Global(EdfReweightMode::AtBoundary);
const IMMEDIATE: EdfBaseline = EdfBaseline::Global(EdfReweightMode::Immediate);

/// Global EDF with boundary reweighting runs the Whisper workload
/// without deadline misses: the requested total weight never exceeds M,
/// so the system is never over-committed and needs no policing.
#[test]
fn global_edf_boundary_handles_whisper() {
    let w = generate_workload(&Scenario::new(2.0, 0.25, true, 3));
    let run = run_edf(PROCESSORS, HORIZON, &w, BOUNDARY);
    assert!(run.misses.is_empty(), "misses: {:?}", run.misses.len());
    // Every task completed a substantial share of its ideal.
    for pct in run.pct_of_ideal() {
        assert!(pct > 50.0, "pct {pct}");
    }
}

/// Immediate EDF reweighting tracks the ideal at least as well as
/// boundary reweighting on matched seeds (the accuracy side of the
/// companion paper's trade-off).
#[test]
fn global_edf_immediate_is_more_accurate() {
    let mut wins = 0;
    const SEEDS: u64 = 5;
    for seed in 0..SEEDS {
        let w = generate_workload(&Scenario::new(2.9, 0.25, true, seed));
        let imm = run_edf(PROCESSORS, HORIZON, &w, IMMEDIATE);
        let bnd = run_edf(PROCESSORS, HORIZON, &w, BOUNDARY);
        let mean = |r: &EdfRun| {
            let p = r.pct_of_ideal();
            p.iter().sum::<f64>() / p.len() as f64
        };
        if mean(&imm) >= mean(&bnd) - 0.5 {
            wins += 1;
        }
    }
    assert!(wins >= SEEDS - 1, "immediate won only {wins}/{SEEDS}");
}

/// Partitioned EDF on Whisper: the weight swings force repartitioning
/// migrations or clamped grants — the "fine-grained reweighting is
/// provably impossible under partitioning" friction made visible.
#[test]
fn partitioned_edf_pays_migrations_or_clamps() {
    let mut total_friction = 0u64;
    for seed in 0..4 {
        let w = generate_workload(&Scenario::new(2.9, 0.40, true, seed));
        let run = run_edf(PROCESSORS, HORIZON, &w, EdfBaseline::Partitioned);
        total_friction += run.migrations + run.clamped + run.rejected_joins;
    }
    assert!(
        total_friction > 0,
        "the adaptive workload should stress the partitioning"
    );
}

/// Partitioned EDF still schedules the bulk of the ideal work — it is a
/// *trade-off*, not a strawman.
#[test]
fn partitioned_edf_completes_most_work() {
    let w = generate_workload(&Scenario::new(2.0, 0.25, true, 9));
    let run = run_edf(PROCESSORS, HORIZON, &w, EdfBaseline::Partitioned);
    let pcts = run.pct_of_ideal();
    let mean = pcts.iter().sum::<f64>() / pcts.len() as f64;
    assert!(mean > 60.0, "mean pct {mean}");
}

/// A task that leaves and joins again under its id keeps its ideal
/// totals: m = 1, weight 1/2 over slots 0–10 and again over 20–30. Each
/// total counts both stays (Eqn (5)'s `A(·, 0, t)`), so the PD² row
/// reports 100 % of ideal, as both EDF baselines do.
#[test]
fn rejoin_keeps_the_ideal_totals_of_every_stay() {
    use pfair_repro::core::rational::Rational;
    use pfair_repro::core::task::TaskId;
    use pfair_repro::sched::engine::{simulate, SimConfig};
    use pfair_repro::sched::event::Workload;

    let mut w = Workload::new();
    w.join(0, 0, 1, 2).leave(0, 10).join(0, 20, 1, 2);
    let pd2 = simulate(SimConfig::oi(1, 30), &w);
    let task = pd2.task(TaskId(0));
    let ten = Rational::from_int(10);
    assert_eq!(task.scheduled_count, 10);
    assert_eq!(
        (task.ps_total, task.isw_total, task.icsw_total),
        (ten, ten, ten)
    );
    assert_eq!(task.pct_of_ideal(), Some(100.0));
    for baseline in [BOUNDARY, IMMEDIATE, EdfBaseline::Partitioned] {
        let edf = run_edf(1, 30, &w, baseline);
        assert_eq!(edf.ps_totals, [task.ps_total], "{baseline:?}");
        assert_eq!(edf.pct_of_ideal(), [100.0], "{baseline:?}");
    }
}
