//! Property-based tests of the paper's theorems over randomized
//! adaptable task systems:
//!
//! * **Theorem 2** — under PD²-OI with condition-(W) policing, no
//!   subtask ever misses its deadline, no matter the reweighting
//!   pattern.
//! * **Theorem 5** — the per-event drift under PD²-OI is at most 2 in
//!   absolute value.
//! * **Theorem 1** — PD²-LJ (leave/join) also never misses.
//! * The Pfair lag window: the actual schedule stays within one quantum
//!   of `I_CSW` for every task at every time.
//! * **Property (C)** — superseding a pending reweighting event never
//!   delays the task's next enactment (bursts of initiations still
//!   converge, and everything above still holds).

use pfair_core::rational::{rat, Rational};
use pfair_sched::engine::{simulate, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::lag_analysis::system_series;
use pfair_sched::priority::TieBreak;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use pfair_sched::verify::verify;
use proptest::prelude::*;

const HORIZON: i64 = 120;

/// A random light weight `num/den ≤ 1/2` with a modest denominator.
fn arb_weight() -> impl Strategy<Value = (i128, i128)> {
    (2i128..=24).prop_flat_map(|den| (1i128..=(den / 2).max(1), Just(den)))
}

/// A random reweighting plan: per task, a join weight and up to three
/// (time, weight) requests.
#[derive(Debug, Clone)]
struct Plan {
    processors: u32,
    tasks: Vec<TaskPlan>,
}

#[derive(Debug, Clone)]
struct TaskPlan {
    join_weight: (i128, i128),
    join_at: i64,
    reweights: Vec<(i64, (i128, i128))>,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    let task = (
        arb_weight(),
        0i64..=30,
        prop::collection::vec(((1i64..HORIZON - 10), arb_weight()), 0..=3),
    )
        .prop_map(|(join_weight, join_at, reweights)| TaskPlan {
            join_weight,
            join_at,
            reweights,
        });
    (1u32..=4, prop::collection::vec(task, 1..=10))
        .prop_map(|(processors, tasks)| Plan { processors, tasks })
}

fn workload_of(plan: &Plan) -> Workload {
    let mut w = Workload::new();
    for (i, t) in plan.tasks.iter().enumerate() {
        w.join(i as u32, t.join_at, t.join_weight.0, t.join_weight.1);
        for (at, wt) in &t.reweights {
            if *at > t.join_at {
                w.reweight(i as u32, *at, wt.0, wt.1);
            }
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 2 + Theorem 5 under PD²-OI.
    #[test]
    fn oi_never_misses_and_drift_is_fine_grained(plan in arb_plan()) {
        let w = workload_of(&plan);
        let cfg = SimConfig::oi(plan.processors, HORIZON).with_history();
        let r = simulate(cfg, &w);
        prop_assert!(r.is_miss_free(), "misses: {:?}", r.misses);
        prop_assert!(
            r.max_abs_drift_delta() <= rat(2, 1),
            "per-event drift {} exceeds 2",
            r.max_abs_drift_delta()
        );
    }

    /// Full independent verification under PD²-OI: window structure
    /// (Eqns (2)–(4)), schedule sanity, processor capacity, miss
    /// reporting, and the Pfair lag window — re-derived from the trace
    /// by `pfair_sched::verify`, not trusted from the engine.
    #[test]
    fn oi_runs_verify_independently(plan in arb_plan()) {
        let w = workload_of(&plan);
        let cfg = SimConfig::oi(plan.processors, HORIZON).with_history();
        let r = simulate(cfg, &w);
        let violations = verify(&r);
        prop_assert!(
            violations.is_empty(),
            "violations: {:?}",
            violations.iter().map(std::string::ToString::to_string).collect::<Vec<_>>()
        );
    }

    /// The verifier also certifies PD²-LJ and hybrid runs.
    #[test]
    fn lj_and_hybrid_runs_verify_independently(plan in arb_plan()) {
        for scheme in [
            Scheme::LeaveJoin,
            Scheme::Hybrid(HybridPolicy::EveryNth(2)),
        ] {
            let w = workload_of(&plan);
            let cfg = SimConfig::oi(plan.processors, HORIZON)
                .with_scheme(scheme)
                .with_history();
            let r = simulate(cfg, &w);
            let violations = verify(&r);
            prop_assert!(
                violations.is_empty(),
                "violations: {:?}",
                violations.iter().map(std::string::ToString::to_string).collect::<Vec<_>>()
            );
        }
    }

    /// Theorem 1: leave/join reweighting also never misses.
    #[test]
    fn lj_never_misses(plan in arb_plan()) {
        let w = workload_of(&plan);
        let cfg = SimConfig::leave_join(plan.processors, HORIZON);
        let r = simulate(cfg, &w);
        prop_assert!(r.is_miss_free(), "misses: {:?}", r.misses);
    }

    /// Hybrid schemes are also miss-free (each event takes one of two
    /// correct paths) and their accuracy sits between the pure schemes'
    /// worst cases.
    #[test]
    fn hybrids_never_miss(plan in arb_plan(), budget in 1u32..4, nth in 1u32..5) {
        let w = workload_of(&plan);
        for scheme in [
            Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(1, 2))),
            Scheme::Hybrid(HybridPolicy::OiBudget { budget, window: 20 }),
            Scheme::Hybrid(HybridPolicy::EveryNth(nth)),
            Scheme::Hybrid(HybridPolicy::DriftFeedback(rat(1, 1))),
        ] {
            let cfg = SimConfig::oi(plan.processors, HORIZON).with_scheme(scheme.clone());
            let r = simulate(cfg, &w);
            prop_assert!(r.is_miss_free(), "{:?} misses: {:?}", scheme, r.misses);
        }
    }

    /// Property (C): bursts of superseding initiations in consecutive
    /// slots still converge — the engine never deadlocks a task (its
    /// subtask releases resume) and correctness is untouched.
    #[test]
    fn superseding_bursts_converge(
        seedw in arb_weight(),
        burst_start in 1i64..40,
        burst in prop::collection::vec(arb_weight(), 2..=6),
    ) {
        let mut w = Workload::new();
        w.join(0, 0, seedw.0, seedw.1);
        w.join(1, 0, 1, 3);
        for (k, wt) in burst.iter().enumerate() {
            w.reweight(0, burst_start + k as i64, wt.0, wt.1);
        }
        let cfg = SimConfig::oi(2, HORIZON).with_history();
        let r = simulate(cfg, &w);
        prop_assert!(r.is_miss_free(), "misses: {:?}", r.misses);
        prop_assert!(r.max_abs_drift_delta() <= rat(2, 1));
        // Releases resumed after the burst: the task keeps being
        // scheduled through the tail of the run.
        let hist = r.tasks[0].history.as_ref().unwrap();
        let last_scheduled = hist.scheduled_slots.last().copied().unwrap_or(0);
        prop_assert!(
            last_scheduled > burst_start + burst.len() as i64,
            "task starved after burst: last scheduled at {}",
            last_scheduled
        );
    }

    /// Tie-break choice never affects correctness, only which of two
    /// equal-priority subtasks runs first.
    #[test]
    fn tie_breaks_preserve_correctness(plan in arb_plan()) {
        let w = workload_of(&plan);
        for tb in [TieBreak::TaskIdAsc, TieBreak::TaskIdDesc] {
            let cfg = SimConfig::oi(plan.processors, HORIZON).with_tie_break(tb);
            let r = simulate(cfg, &w);
            prop_assert!(r.is_miss_free());
        }
    }

    /// Work conservation: in every slot, the number of scheduled quanta
    /// equals min(M, eligible work) — verified indirectly: total
    /// scheduled quanta never falls below the ideal total minus one
    /// quantum per task (no systematic starvation).
    #[test]
    fn no_systematic_starvation(plan in arb_plan()) {
        let w = workload_of(&plan);
        let cfg = SimConfig::oi(plan.processors, HORIZON);
        let r = simulate(cfg, &w);
        for task in &r.tasks {
            let floor = task.icsw_total - Rational::ONE;
            prop_assert!(
                Rational::from_int(i128::from(task.scheduled_count)) > floor,
                "{} got {} quanta, ideal {}",
                task.id, task.scheduled_count, task.icsw_total
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 4 of the appendix: if LAG(τ, t) < LAG(τ, t+1) — the task
    /// set as a whole fell further behind its clairvoyant ideal across
    /// slot t — then slot t had a hole (an idle processor). Checked
    /// from the recorded history by `lag_analysis::system_series`.
    #[test]
    fn lemma4_lag_increases_only_across_holes(plan in arb_plan()) {
        let w = workload_of(&plan);
        let cfg = SimConfig::oi(plan.processors, HORIZON).with_history();
        let r = simulate(cfg, &w);
        prop_assert!(r.is_miss_free());
        prop_assert!(
            system_series(&r).lemma4_holds(),
            "LAG rose across a slot with no hole"
        );
    }
}
