//! Fig. 1 / Fig. 3 / Fig. 7 regeneration: per-slot ideal-allocation
//! tables for periodic, IS, and adaptable tasks, printed in the same
//! per-subtask layout as the paper's window diagrams.

use pfair_core::ideal::{is_ideal_table, IswTracker, PsTracker};
use pfair_core::rational::{rat, Rational};
use pfair_core::weight::Weight;
use pfair_core::window::b_bit;

fn print_table(title: &str, windows: &[(i64, i64)], rows: &[Vec<Rational>], horizon: i64) {
    println!("\n--- {title} ---");
    print!("{:>10}", "slot");
    for t in 0..horizon {
        print!("{t:>8}");
    }
    println!();
    for (j, row) in rows.iter().enumerate() {
        print!("T_{:<2}[{:>2},{:>2})", j + 1, windows[j].0, windows[j].1);
        for a in row.iter().take(horizon as usize) {
            if a.is_zero() {
                print!("{:>8}", ".");
            } else {
                print!("{:>8}", format!("{}", a));
            }
        }
        println!();
    }
}

/// Fig. 1(a): the periodic weight-5/16 task.
pub fn fig1a() {
    let w = Weight::new(rat(5, 16));
    let table = is_ideal_table(w, &[0; 5], 16);
    print_table(
        "Fig. 1(a): periodic task, weight 5/16",
        &table.windows,
        &table.per_subtask,
        16,
    );
}

/// Fig. 1(b): the IS weight-5/16 task with offsets 0,2,3,3,3.
pub fn fig1b() {
    let w = Weight::new(rat(5, 16));
    let table = is_ideal_table(w, &[0, 2, 3, 3, 3], 20);
    print_table(
        "Fig. 1(b): IS task, weight 5/16, offsets (0,2,3,3,3)",
        &table.windows,
        &table.per_subtask,
        20,
    );
}

/// Fig. 3(b)/Fig. 7: the weight-3/19 task X enacting an increase to 2/5
/// at time 8, shown as per-slot I_SW allocations and the I_PS totals.
pub fn fig7() {
    println!("\n--- Fig. 7: X (3/19 → 2/5 at t=8), I_SW per-slot and I_PS totals ---");
    let w = rat(3, 19);
    let mut isw = IswTracker::new(w, 0);
    let w519 = Weight::new(w);
    isw.add_subtask(1, 0, true, false);
    isw.add_subtask(2, 6, false, b_bit(w519, 1));
    let mut ps = PsTracker::new(w, 0);
    let mut prev = [Rational::ZERO; 2];
    println!(
        "{:>4} {:>10} {:>10} {:>14} {:>14}",
        "t", "A(Isw,X1,t)", "A(Isw,X2,t)", "A(Icsw,X,0,t+1)", "A(Ips,X,0,t+1)"
    );
    for t in 0..12 {
        if t == 8 {
            isw.set_swt(rat(2, 5)); // rule I(i): enacted at initiation
            ps.set_wt(rat(2, 5));
        }
        isw.advance_to(t + 1);
        ps.advance_to(t + 1);
        let c1 = isw.subtask_cum(1).unwrap_or(Rational::ONE);
        let c2 = isw.subtask_cum(2).unwrap_or(Rational::ZERO);
        let d1 = c1 - prev[0];
        let d2 = c2 - prev[1];
        prev = [c1, c2];
        println!(
            "{:>4} {:>10} {:>10} {:>14} {:>14}",
            t,
            format!("{}", d1),
            format!("{}", d2),
            format!("{}", isw.icsw_total()),
            format!("{}", ps.total()),
        );
    }
    // The paper's headline values.
    assert_eq!(isw.completion_of(2), Some(10));
    println!("  D(I_SW, X_2) = 10; X_2's final slot allocation = 32/95 ✓ (paper values)");

    // Cross-check: the event-driven engine path — two closed-form
    // `advance_to` jumps, one per constant-weight interval — lands on
    // exactly the state the per-slot table above accumulated.
    let mut isw_jump = IswTracker::new(w, 0);
    isw_jump.add_subtask(1, 0, true, false);
    isw_jump.add_subtask(2, 6, false, b_bit(w519, 1));
    let mut ps_jump = PsTracker::new(w, 0);
    isw_jump.advance_to(8);
    ps_jump.advance_to(8);
    isw_jump.set_swt(rat(2, 5));
    ps_jump.set_wt(rat(2, 5));
    isw_jump.advance_to(12);
    ps_jump.advance_to(12);
    assert_eq!(isw_jump.icsw_total(), isw.icsw_total());
    assert_eq!(ps_jump.total(), ps.total());
    assert_eq!(isw_jump.completion_of(2), Some(10));
    println!("  two interval jumps (0→8→12) reproduce the per-slot totals ✓");
}

/// Runs all window tables.
pub fn run_all() {
    fig1a();
    fig1b();
    fig7();
}
