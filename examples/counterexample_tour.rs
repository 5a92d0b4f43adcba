//! A guided tour of the paper's lower-bound counterexamples, executed
//! live against the schedulers:
//!
//! 1. **Theorem 3** (Fig. 8): PD²-LJ's drift per event grows with the
//!    inverse of the task's weight — coarse-grained.
//! 2. **Theorem 4** (Fig. 9): an EPDF scheduler that derives deadlines
//!    from `I_PS` projections misses a deadline, so *zero* drift is
//!    impossible for any EPDF scheme.
//! 3. **Theorem 5** (Fig. 6): PD²-OI holds every per-event drift within
//!    two quanta on the same systems.
//!
//! ```sh
//! cargo run --example counterexample_tour
//! ```

use pfair_repro::prelude::*;
use pfair_repro::sched::epdf_ps::run_projected_epdf;
use pfair_repro::sched::workloads::{fig6_base, fig8, fig9};

fn main() {
    theorem3();
    theorem4();
    theorem5();
    println!("\nall three lower-bound demonstrations behave exactly as the paper proves.");
}

/// Theorem 3: Fig. 8's single event already drifts past 2 under PD²-LJ;
/// sweeping the initial weight down, its drift grows without bound while
/// PD²-OI's stays under 2.
fn theorem3() {
    println!("Theorem 3 — PD2-LJ is coarse-grained (Fig. 8 and its generalization)");
    let fig8_lj = simulate(
        SimConfig::leave_join(4, 24)
            .with_tie_break(TieBreak::favoring(0))
            .with_admission(AdmissionPolicy::Trusting),
        &fig8(),
    );
    let drift = fig8_lj.task(TaskId(0)).drift.at(10);
    println!("  Fig. 8: T (1/10 → 1/2 at t=4) has drift {drift} = 24/10 at t=10 under LJ");
    assert_eq!(drift, rat(24, 10));
    println!("{:>10} {:>14} {:>14}", "weight", "LJ drift", "OI drift");
    for c in [1i128, 2, 4, 9, 19] {
        let den = 2 * (c + 1);
        let mut w = Workload::new();
        w.join(0, 0, 1, den);
        w.reweight(0, 1, 1, 2); // wants half a processor, right away
        let horizon = (4 * den) as i64;
        let lj = simulate(SimConfig::leave_join(1, horizon), &w);
        let oi = simulate(SimConfig::oi(1, horizon), &w);
        println!(
            "{:>10} {:>14} {:>14}",
            format!("1/{}", den),
            format!("{}", lj.task(TaskId(0)).drift.max_abs()),
            format!("{}", oi.task(TaskId(0)).drift.max_abs())
        );
        assert!(oi.task(TaskId(0)).drift.max_abs_delta() <= rat(2, 1));
    }
    println!("  → the LJ column grows without bound; the OI column does not.\n");
}

/// Theorem 4: the Fig. 9 system under projected-deadline EPDF.
fn theorem4() {
    println!("Theorem 4 — every EPDF scheme can incur drift (Fig. 9)");
    let run = run_projected_epdf(2, 12, &fig9());
    for m in &run.misses {
        println!(
            "  task {} quantum {} missed its projected deadline {}",
            m.task, m.quantum, m.deadline
        );
    }
    assert!(!run.misses.is_empty());
    println!("  → to avoid this miss, an EPDF scheme must shift its lag window: drift.\n");
}

/// Theorem 5: PD²-OI on the Fig. 6 systems — per-event drift ≤ 2.
fn theorem5() {
    println!("Theorem 5 — PD2-OI per-event drift is at most 2 (Fig. 6 systems)");
    for (label, initial, target, at) in [
        (
            "increase 3/20 → 1/2",
            (3i128, 20i128),
            (1i128, 2i128),
            10i64,
        ),
        ("decrease 2/5 → 3/20", (2, 5), (3, 20), 1),
    ] {
        let mut w = fig6_base(initial);
        w.reweight(0, at, target.0, target.1);
        let r = simulate(SimConfig::oi(4, 60), &w);
        let delta = r.task(TaskId(0)).drift.max_abs_delta();
        println!("  {label:<22} per-event drift = {delta}");
        assert!(delta <= rat(2, 1));
        assert!(r.is_miss_free());
    }
}
