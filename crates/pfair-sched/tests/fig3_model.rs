//! Fig. 3 at engine level: the AIS model's central structural claim —
//! after an enacted weight change, a task's subtasks have "similar
//! releases, deadlines, and b-bits as the first subtasks of a task with
//! the new weight" (paper §3.1, comparing Fig. 3(a)'s T_3–T_5 against
//! Fig. 3(c)'s U_1–U_3) — plus differential statistics between the
//! schemes on matched random workloads.

use pfair_core::rational::rat;
use pfair_core::task::TaskId;
use pfair_core::weight::Weight;
use pfair_core::window::periodic_window;
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::{simulate, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::priority::TieBreak;
use pfair_sched::reweight::Scheme;
use pfair_sched::workloads;
use proptest::prelude::*;

/// Fig. 3(a)/(c), rule-O path: the Fig. 6(b) system (T is never
/// favored, so T_2 halts) — after enactment, the era subtasks' windows
/// equal those of a fresh task with the new weight joining at the
/// enactment time (the paper's comparison of Fig. 3(a)'s T_3–T_5 with
/// Fig. 3(c)'s U_1–U_3).
#[test]
fn fig3a_rule_o_era_windows_match_fresh_task() {
    let mut w = workloads::fig6_base((3, 20));
    w.reweight(0, 10, 2, 5);
    let r = simulate(
        SimConfig::oi(4, 40)
            .with_tie_break(TieBreak::disfavoring(0, 20))
            .with_admission(AdmissionPolicy::Trusting)
            .with_history(),
        &w,
    );
    assert!(r.is_miss_free());
    let hist = r.task(TaskId(0)).history.as_ref().unwrap();
    // T_2 halted at t_c (rule O: unscheduled because T loses all ties).
    assert_eq!(hist.subtasks[1].halted_at, Some(10));
    let era_start = hist
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .map(|s| s.window.release)
        .expect("era opened");
    assert_eq!(
        era_start, 10,
        "rule O enacts at max(t_c, D(T_1)+b) = max(10, 8)"
    );
    let fresh = Weight::new(rat(2, 5));
    let era_subs: Vec<_> = hist.subtasks.iter().filter(|s| s.index > 2).collect();
    assert!(era_subs.len() >= 3);
    for (k, sub) in era_subs.iter().take(3).enumerate() {
        let expect = periodic_window(fresh, k as u64 + 1, era_start);
        assert_eq!(
            sub.window,
            expect,
            "era subtask {} (cf. Fig. 3(c) U_{})",
            k + 1,
            k + 1
        );
    }
}

/// Fig. 3(b): the same change via rule I (T_2 scheduled early because T
/// wins ties). The enactment is immediate; the era-opening release waits
/// for D(I_SW, X_2) + b(X_2) = 10 + 1.
#[test]
fn fig3b_rule_i_release_after_completion() {
    let mut w = Workload::new();
    w.join(0, 0, 3, 19);
    w.join(1, 0, 1, 2);
    w.reweight(0, 8, 2, 5);
    let r = simulate(
        SimConfig::oi(1, 40)
            .with_tie_break(TieBreak::TaskIdAsc) // T favored: X_2 runs early
            .with_admission(AdmissionPolicy::Trusting)
            .with_history(),
        &w,
    );
    assert!(r.is_miss_free());
    let hist = r.task(TaskId(0)).history.as_ref().unwrap();
    let x2 = &hist.subtasks[1];
    assert!(x2.scheduled_at.unwrap() < 8, "X_2 scheduled before t_c");
    assert_eq!(x2.halted_at, None);
    // D(I_SW, X_2) = 10 (Fig. 7's table), b(X_2) = 1 → release at 11.
    assert_eq!(x2.isw_completion, Some(10));
    let era = hist
        .subtasks
        .iter()
        .find(|s| s.era_first && s.index > 1)
        .unwrap();
    assert_eq!(era.window.release, 11);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential statistics on matched random sawtooth workloads:
    /// across many seeds, PD²-OI's aggregate drift never falls behind
    /// PD²-LJ's by more than noise, and on average is strictly better.
    #[test]
    fn oi_beats_lj_on_aggregate_drift(seed in 0u64..5000) {
        let w = workloads::random_adaptive(6, 40, 300, seed);
        let oi = simulate(SimConfig::oi(2, 300), &w);
        let lj = simulate(SimConfig::oi(2, 300).with_scheme(Scheme::LeaveJoin), &w);
        prop_assert!(oi.is_miss_free() && lj.is_miss_free());
        let oi_drift = oi.max_abs_drift_at(300).to_f64();
        let lj_drift = lj.max_abs_drift_at(300).to_f64();
        // Per-seed, OI may tie but never loses by more than one quantum
        // (sign conventions can favor either on tiny workloads).
        prop_assert!(
            oi_drift <= lj_drift + 1.0,
            "seed {}: OI {} vs LJ {}",
            seed, oi_drift, lj_drift
        );
    }
}
