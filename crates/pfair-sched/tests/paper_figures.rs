//! Executable reproductions of the paper's worked examples: Fig. 4
//! (one-processor PD² with a rule-O halt), Fig. 6(a)–(d) (the rule O/I
//! walkthroughs with their exact drift values), Fig. 8 (PD²-LJ's
//! unbounded drift, Theorem 3), and Fig. 9 (the EPDF lower bound,
//! Theorem 4). Every asserted number below appears in the paper's text
//! or figure labels.

use pfair_core::rational::rat;
use pfair_core::task::TaskId;
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::{simulate, SimConfig};
use pfair_sched::epdf_ps::run_projected_epdf;
use pfair_sched::event::Workload;
use pfair_sched::priority::TieBreak;
use pfair_sched::trace::SimResult;
use pfair_sched::workloads::{fig6_base, fig8, fig9};

/// Fig. 4: one processor; T of weight 2/5 and U of weight 2/5 that
/// increases to 1/2 at time 3 by halting U_2.
#[test]
fn fig4_one_processor_halt() {
    let mut w = Workload::new();
    w.join(0, 0, 2, 5); // T
    w.join(1, 0, 2, 5); // U
    w.reweight(1, 3, 1, 2);
    let cfg = SimConfig::oi(1, 30)
        .with_tie_break(TieBreak::TaskIdAsc) // T favored, as in the figure
        .with_admission(AdmissionPolicy::Trusting)
        .with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());

    let u = r.task(TaskId(1)).history.as_ref().unwrap();
    // "T_1 completes at time 1 … U_1 does not complete until time 2."
    let t_hist = r.task(TaskId(0)).history.as_ref().unwrap();
    assert_eq!(t_hist.subtasks[0].scheduled_at, Some(0));
    assert_eq!(u.subtasks[0].scheduled_at, Some(1));
    // "U_2 is halted at time 3 … it is complete at time 3 even though it
    // is never scheduled."
    assert_eq!(u.subtasks[1].index, 2);
    assert_eq!(u.subtasks[1].halted_at, Some(3));
    assert_eq!(u.subtasks[1].scheduled_at, None);
    // The weight-1/2 era opens at max(t_c, D(I_SW, U_1) + b(U_1)) = 4.
    let era = u
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .unwrap();
    assert_eq!(era.window.release, 4);
    assert_eq!(era.window.deadline, 6); // fresh 1/2 task: window length 2
}

/// Fig. 6(a): T (3/20) leaves at time 8 (the earliest rule L allows:
/// d(T_1) + b(T_1) = 7 + 1) and a weight-1/2 task U joins at 10.
#[test]
fn fig6a_leave_join() {
    let mut w = fig6_base((3, 20));
    w.leave(0, 7); // initiated before 8; rule L defers the leave to 8
    w.join(20, 10, 1, 2); // U
    let cfg = SimConfig::oi(4, 40)
        .with_tie_break(TieBreak::disfavoring(0, 21))
        .with_admission(AdmissionPolicy::Trusting)
        .with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());
    let t = r.task(TaskId(0)).history.as_ref().unwrap();
    // T_1 ran; T_2 (released at 6) was withdrawn, never scheduled.
    assert!(t.subtasks[0].scheduled_at.is_some());
    assert_eq!(t.subtasks[1].window.release, 6);
    assert_eq!(t.subtasks[1].scheduled_at, None);
    assert!(t.subtasks[1].halted_at.is_some());
    // T received exactly one quantum; U runs from 10 at weight 1/2.
    assert_eq!(r.task(TaskId(0)).scheduled_count, 1);
    let u = r.task(TaskId(20));
    assert!(u.scheduled_count >= 14); // ~1/2 of slots 10..40
}

/// Fig. 6(b): T increases 3/20 → 1/2 at time 10 via rule O (ties are
/// broken in favor of the C tasks, so T_2 is unscheduled and halts).
/// The paper labels T's drift as 1/2 and has the change enacted at 10.
#[test]
fn fig6b_rule_o() {
    let mut w = fig6_base((3, 20));
    w.reweight(0, 10, 1, 2);
    let cfg = SimConfig::oi(4, 40)
        .with_tie_break(TieBreak::disfavoring(0, 20))
        .with_admission(AdmissionPolicy::Trusting)
        .with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());
    let tr = r.task(TaskId(0));
    let t = tr.history.as_ref().unwrap();
    // T_2 halted at t_c = 10, never scheduled.
    let t2 = &t.subtasks[1];
    assert_eq!(t2.index, 2);
    assert_eq!(t2.halted_at, Some(10));
    assert_eq!(t2.scheduled_at, None);
    // The new era opens at 10 (max(t_c, D(I_SW, T_1) + b(T_1)) =
    // max(10, 7 + 1)).
    let era = t
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .unwrap();
    assert_eq!(era.window.release, 10);
    // drift(T, 10) = A(I_PS, T, 0, 10) − A(I_CSW, T, 0, 10)
    //              = 3/2 − 1 = 1/2 (paper text).
    assert_eq!(tr.drift.at(10), rat(1, 2));
    assert_eq!(tr.drift.at(9), rat(0, 1));
}

/// Fig. 6(c): as (b) but ties favor T, so T_2 is scheduled and rule I
/// applies: the increase is enacted immediately at 10, D(I_SW, T_2) =
/// 11, and the next subtask is released at 12 — "two time units earlier
/// than its deadline" (14).
#[test]
fn fig6c_rule_i_increase() {
    let mut w = fig6_base((3, 20));
    w.reweight(0, 10, 1, 2);
    let cfg = SimConfig::oi(4, 40)
        .with_tie_break(TieBreak::favoring(0))
        .with_admission(AdmissionPolicy::Trusting)
        .with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());
    let tr = r.task(TaskId(0));
    let t = tr.history.as_ref().unwrap();
    let t2 = &t.subtasks[1];
    assert_eq!(t2.index, 2);
    assert!(
        t2.scheduled_at.is_some(),
        "T_2 must be scheduled before t_c"
    );
    assert_eq!(t2.halted_at, None);
    assert_eq!(t2.window.deadline, 14);
    // D(I_SW, T_2) = 11 (the immediate enactment accelerates it).
    assert_eq!(t2.isw_completion, Some(11));
    // New subtask released at D + b(T_2) = 11 + 1 = 12.
    let era = t
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .unwrap();
    assert_eq!(era.window.release, 12);
    // drift(T, 12) = 5/2 − 2 = 1/2.
    assert_eq!(tr.drift.at(12), rat(1, 2));
}

/// Fig. 6(d): T of weight 2/5 decreases to 3/20 at time 1 via rule I.
/// The change is enacted at D(I_SW, T_1) + b(T_1) = 3 + 1 = 4 and the
/// resulting drift is −3/20 (paper text).
#[test]
fn fig6d_rule_i_decrease() {
    let mut w = fig6_base((2, 5));
    w.reweight(0, 1, 3, 20);
    let cfg = SimConfig::oi(4, 40)
        .with_tie_break(TieBreak::favoring(0))
        .with_admission(AdmissionPolicy::Trusting)
        .with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());
    let tr = r.task(TaskId(0));
    let t = tr.history.as_ref().unwrap();
    assert_eq!(t.subtasks[0].scheduled_at, Some(0));
    assert_eq!(t.subtasks[0].isw_completion, Some(3));
    let era = t
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .unwrap();
    assert_eq!(era.window.release, 4);
    assert_eq!(tr.drift.at(4), rat(-3, 20));
    assert_eq!(tr.drift.at(100), rat(-3, 20), "drift persists once enacted");
}

/// Fig. 8 / Theorem 3: under PD²-LJ, a weight-1/10 task that asks for
/// 1/2 at time 4 cannot leave before d(T_1) + b(T_1) = 10 and
/// accumulates drift 24/10 — already above the PD²-OI per-event bound
/// of 2.
#[test]
fn fig8_lj_drift_24_10() {
    let w = fig8();
    let cfg = SimConfig::leave_join(4, 40)
        .with_tie_break(TieBreak::favoring(0))
        .with_admission(AdmissionPolicy::Trusting)
        .with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());
    let tr = r.task(TaskId(0));
    let t = tr.history.as_ref().unwrap();
    // T_1 runs in slot 0 (ties favor T); the new era opens only at 10.
    assert_eq!(t.subtasks[0].scheduled_at, Some(0));
    let era = t
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .unwrap();
    assert_eq!(era.window.release, 10);
    assert_eq!(tr.drift.at(10), rat(24, 10));
    assert!(
        tr.drift.max_abs_delta() > rat(2, 1),
        "LJ is not fine-grained"
    );
}

/// The Theorem 3 generalization: decreasing T's initial weight to
/// 1/(2(c+1)) makes the LJ drift grow without bound — with the change
/// initiated at time 1 (the earliest slot after T_1's release) the exact
/// value is `c − 1/2 + 1/(2(c+1))`, which exceeds `c − 1/2` for every
/// `c`. PD²-OI on the *same* workload keeps every per-event delta ≤ 2.
#[test]
fn fig8_generalization_drift_grows_with_inverse_weight() {
    for c in [1i64, 2, 4, 8] {
        let den = 2 * (i128::from(c) + 1);
        let mut w = Workload::new();
        w.join(0, 0, 1, den);
        w.reweight(0, 1, 1, 2);
        let lj = simulate(
            SimConfig::leave_join(1, 4 * den as i64)
                .with_tie_break(TieBreak::favoring(0))
                .with_admission(AdmissionPolicy::Trusting),
            &w,
        );
        let drift = lj.task(TaskId(0)).drift.max_abs();
        let expected = rat(i128::from(c), 1) - rat(1, 2) + rat(1, 2 * (i128::from(c) + 1));
        assert_eq!(drift, expected, "c = {c}: LJ drift mismatch");
        assert!(drift > rat(2 * i128::from(c) - 1, 2));

        let oi = simulate(
            SimConfig::oi(1, 4 * den as i64)
                .with_tie_break(TieBreak::favoring(0))
                .with_admission(AdmissionPolicy::Trusting),
            &w,
        );
        assert!(oi.task(TaskId(0)).drift.max_abs_delta() <= rat(2, 1));
        assert!(oi.is_miss_free());
    }
}

/// Fig. 9 / Theorem 4: the two-processor EPDF counterexample. Sets
/// A (10 × 1/7, leave at 7), B (2 × 1/6, leave at 6), C (2 × 1/14,
/// join at 6), D (5 × 1/21 → 1/3 at 7). A task in D misses at time 9.
#[test]
fn fig9_epdf_projected_deadline_miss() {
    let w = fig9();
    let d_tasks: Vec<TaskId> = (14..19).map(TaskId).collect();
    let run = run_projected_epdf(2, 12, &w);
    // Exactly the D-set tasks can miss, and at the projected deadline 9.
    assert!(!run.misses.is_empty(), "the counterexample must miss");
    for m in &run.misses {
        assert!(d_tasks.contains(&m.task), "only D tasks miss: {m:?}");
        assert_eq!(m.deadline, 9);
    }
    // Four of the five D tasks fit in slots 7–8 on two processors:
    // by time 9 exactly four D quanta have run.
    let run_to_9 = run_projected_epdf(2, 9, &w);
    let scheduled_d: u64 = d_tasks.iter().map(|t| run_to_9.scheduled[t.idx()]).sum();
    assert_eq!(scheduled_d, 4);
    assert!(
        run_to_9.misses.is_empty(),
        "the miss surfaces only at time 9"
    );
}

/// Check that the same Fig. 9 task system is schedulable — no misses —
/// under PD²-OI (it is the EPDF *projection* scheme that fails, not the
/// task system).
#[test]
fn fig9_system_is_feasible_under_pd2_oi() {
    let r = simulate(
        SimConfig::oi(2, 42).with_admission(AdmissionPolicy::Trusting),
        &fig9(),
    );
    assert!(r.is_miss_free(), "misses: {:?}", r.misses);
}

/// Sanity check on a paper-free but canonical scenario: a fully-loaded
/// periodic system (no reweighting) under PD² meets all deadlines and
/// every lag stays strictly inside (−1, 1).
#[test]
fn full_utilization_periodic_system_is_pfair() {
    let mut w = Workload::new();
    for i in 0..8 {
        w.join(i, 0, 1, 2); // 8 × 1/2 on 4 CPUs: total 4.0
    }
    let cfg = SimConfig::oi(4, 64).with_history();
    let r = simulate(cfg, &w);
    assert!(r.is_miss_free());
    for task in &r.tasks {
        let lags = task.history.as_ref().unwrap().lag_vs_icsw(64);
        for (t, lag) in lags.iter().enumerate() {
            assert!(
                rat(-1, 1) < *lag && *lag < rat(1, 1),
                "{} lag {} at {}",
                task.id,
                lag,
                t
            );
        }
    }
}

/// The headline invariants on the Fig. 6 variants: PD²-OI per-event
/// drift never exceeds 2 in absolute value (Theorem 5).
#[test]
fn fig6_variants_respect_theorem5() {
    let check = |r: &SimResult| {
        assert!(r.max_abs_drift_delta() <= rat(2, 1));
        assert!(r.is_miss_free());
    };
    for (weight, target, at) in [
        ((3i128, 20i128), (1i128, 2i128), 10i64),
        ((2, 5), (3, 20), 1),
    ] {
        let mut w = fig6_base(weight);
        w.reweight(0, at, target.0, target.1);
        for tb in [TieBreak::favoring(0), TieBreak::disfavoring(0, 20)] {
            let r = simulate(
                SimConfig::oi(4, 60)
                    .with_tie_break(tb)
                    .with_admission(AdmissionPolicy::Trusting),
                &w,
            );
            check(&r);
        }
    }
}
