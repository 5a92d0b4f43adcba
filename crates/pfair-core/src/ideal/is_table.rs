//! The ideal schedule `I_IS` of a non-adaptive IS task (Fig. 2), as a
//! per-subtask, per-slot allocation table.
//!
//! `I_IS` is the constant-weight special case of `I_SW`: the scheduling
//! weight never changes and nothing halts, so Fig. 5 read slot by slot
//! ([`IswReference`]) gives it directly. This module
//! provides it as a pure function over a task's subtask offsets, which
//! the tests use to check the allocation tables printed in Fig. 1 of the
//! paper, and which downstream visualization code uses to render window
//! diagrams.

use crate::ideal::reference::IswReference;
use crate::rational::Rational;
use crate::time::{index_from_rank, rank_from_index, slot_index, Slot};
use crate::weight::Weight;
use crate::window::{b_bit, window_in_era};

/// Per-subtask, per-slot ideal allocations of an IS task.
#[derive(Clone, Debug)]
pub struct IsIdealTable {
    /// `table[j][t]` is `A(I_IS, T_{j+1}, t)` for `t < horizon`.
    pub per_subtask: Vec<Vec<Rational>>,
    /// `task[t]` is `A(I_IS, T, t)`.
    pub per_task: Vec<Rational>,
    /// The windows `[r, d)` of each subtask.
    pub windows: Vec<(Slot, Slot)>,
}

/// Computes the `I_IS` allocation table for a task of fixed `weight`
/// whose subtask `T_{i}` has offset `offsets[i−1]` (offsets must be
/// non-decreasing; pass all zeros for a periodic task). `n = offsets.len()`
/// subtasks are considered over `[0, horizon)`.
///
/// # Panics
/// Panics if offsets decrease (the IS model requires
/// `k ≥ i ⇒ θ(T_k) ≥ θ(T_i)`).
pub fn is_ideal_table(weight: Weight, offsets: &[i64], horizon: Slot) -> IsIdealTable {
    let n = offsets.len();
    for w in offsets.windows(2) {
        assert!(w[0] <= w[1], "IS offsets must be non-decreasing");
    }
    // Fig. 5 slot by slot: with the weight fixed and nothing halted,
    // `I_SW` is `I_IS`, and a subtask's allocation in a slot is what its
    // cumulative allocation grew by.
    let mut fig5 = IswReference::new(weight.value(), 0);
    // Build the release chain: r(T_{i+1}) = d(T_i) − b(T_i) + (θ_{i+1} − θ_i).
    let mut windows = Vec::with_capacity(n);
    let mut release = *offsets.first().unwrap_or(&0);
    for i in 1..=rank_from_index(n) {
        let win = window_in_era(weight, i, release);
        windows.push((win.release, win.deadline));
        fig5.ref_add(i, win.release, i == 1, i > 1 && b_bit(weight, i - 1));
        let idx = index_from_rank(i);
        if idx < n {
            release = win.next_release() + (offsets[idx] - offsets[idx - 1]);
        }
    }
    let slots = slot_index(horizon);
    let mut per_subtask = vec![Vec::with_capacity(slots); n];
    let mut per_task = Vec::with_capacity(slots);
    let mut before = vec![Rational::ZERO; n];
    for _ in 0..horizon {
        per_task.push(fig5.ref_step(|_, _, _| ()));
        let subs = fig5.ref_subs();
        for ((rows, prev), sub) in per_subtask.iter_mut().zip(&mut before).zip(subs) {
            rows.push(sub.cum - *prev);
            *prev = sub.cum;
        }
    }
    IsIdealTable {
        per_subtask,
        per_task,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    /// Fig. 1(a): periodic task of weight 5/16. Checks the headline value
    /// from §2: A(I, T, 6) = A(I, T_2, 6) + A(I, T_3, 6) = 2/16 + 3/16.
    #[test]
    fn fig1a_slot6_decomposition() {
        let w = Weight::new(rat(5, 16));
        let table = is_ideal_table(w, &[0; 5], 16);
        assert_eq!(table.per_subtask[1][6], rat(2, 16)); // T_2 at slot 6
        assert_eq!(table.per_subtask[2][6], rat(3, 16)); // T_3 at slot 6
        assert_eq!(table.per_task[6], rat(5, 16));
        // Windows match the figure.
        assert_eq!(table.windows[0], (0, 4));
        assert_eq!(table.windows[1], (3, 7));
    }

    /// Every subtask's allocations total exactly one quantum.
    #[test]
    fn each_subtask_totals_one() {
        for (num, den) in [(5i128, 16i128), (2, 5), (3, 19), (1, 2)] {
            let w = Weight::new(rat(num, den));
            let table = is_ideal_table(w, &[0; 4], 4 * den as i64);
            for (j, rows) in table.per_subtask.iter().enumerate() {
                let sum = rows.iter().fold(Rational::ZERO, |a, b| a + *b);
                assert_eq!(
                    sum,
                    Rational::ONE,
                    "weight {}/{} subtask {}",
                    num,
                    den,
                    j + 1
                );
            }
        }
    }

    /// Fig. 1(b): IS task of weight 5/16 with θ(T_1)=0, θ(T_2)=2,
    /// θ(T_i)=3 for i ≥ 3. T_2's window starts at 5... the figure shows
    /// T_1 in [0,4) and the task inactive in slot 4.
    #[test]
    fn fig1b_is_separations() {
        let w = Weight::new(rat(5, 16));
        let table = is_ideal_table(w, &[0, 2, 3, 3, 3], 24);
        // T_1: [0,4) as in the periodic case.
        assert_eq!(table.windows[0], (0, 4));
        // r(T_2) = d(T_1) − b(T_1) + (2 − 0) = 3 + 2 = 5.
        assert_eq!(table.windows[1].0, 5);
        // The task is inactive (zero allocation) in slot 4.
        assert_eq!(table.per_task[4], Rational::ZERO);
        // T_2's release-slot allocation is wt − T_1's final: 5/16 − 1/16.
        assert_eq!(table.per_subtask[1][5], rat(4, 16));
        // Totals still one per subtask.
        for rows in &table.per_subtask {
            let sum = rows.iter().fold(Rational::ZERO, |a, b| a + *b);
            assert_eq!(sum, Rational::ONE);
        }
    }

    /// In every slot the task-level allocation never exceeds its weight
    /// (property AF1 of the appendix, specialized to constant weight).
    #[test]
    fn af1_per_slot_at_most_weight() {
        for (num, den) in [(5i128, 16i128), (2, 5), (3, 20), (1, 7)] {
            let w = Weight::new(rat(num, den));
            let table = is_ideal_table(w, &[0; 6], 6 * den as i64);
            for (t, a) in table.per_task.iter().enumerate() {
                assert!(*a <= rat(num, den), "weight {num}/{den} slot {t}: {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_offsets_panic() {
        let w = Weight::new(rat(1, 2));
        let _ = is_ideal_table(w, &[2, 0], 10);
    }
}
