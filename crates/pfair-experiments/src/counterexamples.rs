//! The paper's counterexample figures as runnable demonstrations:
//! Fig. 6 (rules O and I walkthroughs), Fig. 8 / Theorem 3 (PD²-LJ is
//! coarse-grained), and Fig. 9 / Theorem 4 (every EPDF scheme can incur
//! drift). Each prints the schedule trace and the exact drift values the
//! paper derives.

use pfair_core::rational::rat;
use pfair_core::task::TaskId;
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::{simulate, SimConfig};
use pfair_sched::epdf_ps::run_projected_epdf;
use pfair_sched::priority::TieBreak;
use pfair_sched::render::{render_task, ruler};
use pfair_sched::trace::SimResult;
use pfair_sched::workloads;

fn show_task(r: &SimResult, id: TaskId, label: &str, horizon: i64) {
    println!("{}", ruler(horizon));
    if let Some(h) = &r.tasks[id.idx()].history {
        print!("{}", render_task(label, h, horizon));
    }
    let tr = &r.tasks[id.idx()];
    println!(
        "  drift samples: {:?}",
        tr.drift
            .samples()
            .map(|s| format!("t={} drift={}", s.at, s.drift))
            .collect::<Vec<_>>()
    );
}

/// Fig. 6(b): rule O on the 4-CPU, 19×(3/20)+T system.
pub fn fig6b() {
    println!("\n--- Fig. 6(b): T (3/20 → 1/2 at t=10) via rule O, ties favor C ---");
    let mut w = workloads::fig6_base((3, 20));
    w.reweight(0, 10, 1, 2);
    let r = simulate(
        SimConfig::oi(4, 24)
            .with_tie_break(TieBreak::disfavoring(0, 20))
            .with_admission(AdmissionPolicy::Trusting)
            .with_history(),
        &w,
    );
    show_task(&r, TaskId(0), "T", 24);
    assert_eq!(r.task(TaskId(0)).drift.at(10), rat(1, 2));
    println!("  drift(T, 10) = 1/2  ✓ (paper value)");
}

/// Fig. 6(c): rule I (increase) on the same system, ties favor T.
pub fn fig6c() {
    println!("\n--- Fig. 6(c): T (3/20 → 1/2 at t=10) via rule I, ties favor T ---");
    let mut w = workloads::fig6_base((3, 20));
    w.reweight(0, 10, 1, 2);
    let r = simulate(
        SimConfig::oi(4, 24)
            .with_tie_break(TieBreak::favoring(0))
            .with_admission(AdmissionPolicy::Trusting)
            .with_history(),
        &w,
    );
    show_task(&r, TaskId(0), "T", 24);
    assert_eq!(r.task(TaskId(0)).drift.at(12), rat(1, 2));
    println!("  new subtask released at 12 = D(I_SW,T_2)+b = 11+1, two slots before d(T_2)=14 ✓");
}

/// Fig. 6(d): rule I (decrease).
pub fn fig6d() {
    println!("\n--- Fig. 6(d): T (2/5 → 3/20 at t=1) via rule I, ties favor T ---");
    let mut w = workloads::fig6_base((2, 5));
    w.reweight(0, 1, 3, 20);
    let r = simulate(
        SimConfig::oi(4, 24)
            .with_tie_break(TieBreak::favoring(0))
            .with_admission(AdmissionPolicy::Trusting)
            .with_history(),
        &w,
    );
    show_task(&r, TaskId(0), "T", 24);
    assert_eq!(r.task(TaskId(0)).drift.at(4), rat(-3, 20));
    println!("  drift(T, ≥4) = -3/20  ✓ (paper value)");
}

/// Fig. 8 / Theorem 3: PD²-LJ drift 24/10 on the 35×(1/10)+T system.
pub fn fig8() {
    println!("\n--- Fig. 8: PD2-LJ, T (1/10 → 1/2 at t=4), 4 CPUs, 35 background tasks ---");
    let r = simulate(
        SimConfig::leave_join(4, 24)
            .with_tie_break(TieBreak::favoring(0))
            .with_admission(AdmissionPolicy::Trusting)
            .with_history(),
        &workloads::fig8(),
    );
    show_task(&r, TaskId(0), "T", 24);
    assert_eq!(r.task(TaskId(0)).drift.at(10), rat(24, 10));
    println!("  drift(T, 10) = 24/10 — one event, > the PD2-OI bound of 2 (Theorem 3) ✓");
}

/// Fig. 9 / Theorem 4: the projected-deadline EPDF miss.
pub fn fig9() {
    println!("\n--- Fig. 9: EPDF with I_PS-projected deadlines, 2 CPUs ---");
    let run = run_projected_epdf(2, 12, &workloads::fig9());
    println!(
        "  D-task deadlines project 21 → 9 at the t=7 reweight; misses: {:?}",
        run.misses
    );
    assert!(!run.misses.is_empty());
    assert!(run.misses.iter().all(|m| m.deadline == 9));
    println!("  a deadline is missed at 9 — zero drift is impossible for EPDF (Theorem 4) ✓");
}

/// Runs every counterexample.
pub fn run_all() {
    fig6b();
    fig6c();
    fig6d();
    fig8();
    fig9();
    println!("\nall counterexample values match the paper");
}
