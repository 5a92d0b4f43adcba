//! Subtask window arithmetic: releases, deadlines, and b-bits.
//!
//! For a periodic/IS task of weight `w`, subtask `T_i` has
//!
//! ```text
//! r(T_i) = θ(T_i) + ⌊(i−1)/w⌋        (pseudo-release)
//! d(T_i) = θ(T_i) + ⌈i/w⌉            (pseudo-deadline)
//! b(T_i) = ⌈i/w⌉ − ⌊i/w⌋             (tie-breaking bit)
//! ```
//!
//! and the *window* `w(T_i) = [r(T_i), d(T_i))` is the interval in which
//! `T_i` must be scheduled to keep each task's allocation error under one
//! quantum (paper §2).
//!
//! In the adaptable (AIS) model, windows are computed relative to the
//! current *era*: when a weight change is enacted, releases/deadlines of
//! subsequent subtasks are those of a fresh task with the new weight
//! joining at the enactment (paper Eqns (2)–(4), with `z = Id(T_j) − 1`).
//! [`window_in_era`] implements exactly that: given the within-era rank
//! `k = j − z ≥ 1`, the era's scheduling weight, and the subtask's actual
//! release slot, it produces the deadline and b-bit; Eqn (4) — the
//! successor's earliest release `d(T_j) − b(T_j)` — falls out via
//! [`SubtaskWindow::next_release`].
//!
//! ```
//! use pfair_core::{rat, Weight};
//! use pfair_core::window::periodic_window;
//!
//! // Fig. 1(a): weight 5/16, T_2's window is [3, 7).
//! let w = Weight::new(rat(5, 16));
//! let t2 = periodic_window(w, 2, 0);
//! assert_eq!((t2.release, t2.deadline, t2.b), (3, 7, true));
//! assert_eq!(t2.next_release(), 6); // r(T_3) = d(T_2) − b(T_2)
//! ```

use crate::rational::Rational;
use crate::time::{slot_from_i128, Slot};
use crate::weight::Weight;

/// A concrete subtask window: release, deadline, and b-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubtaskWindow {
    /// `r(T_i)`: the first slot in which the subtask may be scheduled.
    pub release: Slot,
    /// `d(T_i)`: the subtask must be scheduled in a slot `< deadline`.
    pub deadline: Slot,
    /// `b(T_i)`: 1 iff this subtask's window overlaps its successor's
    /// (in the absence of separations/reweighting). Ties in PD² between
    /// equal deadlines favor `b = 1`.
    pub b: bool,
}

impl pfair_json::ToJson for SubtaskWindow {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object()
            .field("release", &self.release)
            .field("deadline", &self.deadline)
            .field("b", &self.b);
        w.end_object();
    }
}

impl pfair_json::FromJson for SubtaskWindow {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        Ok(SubtaskWindow {
            release: value.field("release")?,
            deadline: value.field("deadline")?,
            b: value.field("b")?,
        })
    }
}

impl SubtaskWindow {
    /// Window length `d − r` in slots (always ≥ 1).
    #[expect(clippy::len_without_is_empty, reason = "a window is never empty")]
    #[inline]
    pub fn len(&self) -> i64 {
        self.deadline - self.release
    }

    /// The earliest release of the successor subtask in the absence of
    /// IS separations and reweighting: `d(T_i) − b(T_i)` (Eqn (4) with
    /// `θ(T_{i+1}) = θ(T_i)`).
    #[inline]
    pub fn next_release(&self) -> Slot {
        self.deadline - if self.b { 1 } else { 0 }
    }
}

/// `b(T)` for the `k`-th subtask of a (virtual) task of weight `w`:
/// `⌈k/w⌉ − ⌊k/w⌋`, i.e. 1 unless `k/w` is an integer.
#[inline]
pub fn b_bit(weight: Weight, k: u64) -> bool {
    let w: Rational = weight.value();
    w.div_ceil_int(i128::from(k)) != w.div_floor_int(i128::from(k))
}

/// Window *length* of the `k`-th subtask of a task of weight `w`:
/// `⌈k/w⌉ − ⌊(k−1)/w⌋` (the bracketed term of Eqn (2)).
#[inline]
pub fn window_len(weight: Weight, k: u64) -> i64 {
    let w: Rational = weight.value();
    slot_from_i128(w.div_ceil_int(i128::from(k)) - w.div_floor_int(i128::from(k) - 1))
}

/// Window of the `k`-th subtask (within-era rank, 1-based) of an era with
/// scheduling weight `weight`, given the subtask's actual release slot.
///
/// This is Eqns (2) and (3) of the paper: the deadline is the release
/// plus the rank-`k` window length, and the b-bit depends only on the
/// rank and the era weight.
#[inline]
pub fn window_in_era(weight: Weight, k: u64, release: Slot) -> SubtaskWindow {
    debug_assert!(k >= 1, "within-era ranks are 1-based");
    let (len, b) = weight.value().rank_window(k);
    SubtaskWindow {
        release,
        deadline: release + slot_from_i128(len),
        b,
    }
}

/// Release of subtask `T_i` of a periodic task of weight `w` that joined
/// at time `join_at` with no separations: `r = join_at + ⌊(i−1)/w⌋`
/// (paper §2). One division, where [`periodic_window`] takes four.
#[inline]
pub fn periodic_release(weight: Weight, i: u64, join_at: Slot) -> Slot {
    join_at + slot_from_i128(weight.value().div_floor_int(i128::from(i) - 1))
}

/// Window of subtask `T_i` of a periodic task of weight `w` that joined
/// at time `join_at` with no separations: `r` is [`periodic_release`],
/// `d = join_at + ⌈i/w⌉` (paper §2).
#[inline]
pub fn periodic_window(weight: Weight, i: u64, join_at: Slot) -> SubtaskWindow {
    SubtaskWindow {
        release: periodic_release(weight, i, join_at),
        deadline: join_at + slot_from_i128(weight.value().div_ceil_int(i128::from(i))),
        b: b_bit(weight, i),
    }
}

/// All windows of the first `n` subtasks of a periodic task (test and
/// visualization helper).
pub fn periodic_windows(weight: Weight, n: u64, join_at: Slot) -> Vec<SubtaskWindow> {
    (1..=n)
        .map(|i| periodic_window(weight, i, join_at))
        .collect()
}

/// The PD² *group deadline* `D(T_i)` of the rank-`k` subtask of an era
/// of (heavy) weight `w > 1/2` whose rank-`k` subtask is released at
/// `release`.
///
/// Successive windows of a heavy task are only 2 or 3 slots long, so
/// scheduling a subtask in its final slot can force a cascade of
/// squeezed successors. The cascade is absorbed at the first length-3
/// window or the first `b = 0` boundary; formally, `D(T_i)` is the
/// earliest time `t ≥ d(T_i)` such that for some `j ≥ i` either
/// `t = d(T_j) − 1` and `T_j`'s window has length 3, or `t = d(T_j)`
/// and `b(T_j) = 0` (Anderson & Srinivasan's PD² tie-break, paper §2's
/// deferred second rule). Among equal-deadline, `b = 1` subtasks, the
/// one with the *later* group deadline is favored.
///
/// For light weights (`w ≤ 1/2`) group deadlines play no role; this
/// function returns the subtask deadline itself, which compares
/// neutrally.
pub fn group_deadline(weight: Weight, k: u64, release: Slot) -> Slot {
    window_and_group_deadline(weight, k, release).1
}

/// `(window_in_era(..), group_deadline(..))` from one evaluation of the
/// window — what the engine computes at every release, with no memo: a
/// light window is two native divisions ([`Rational::rank_window`],
/// about 4 ns for the workloads' operands), less than fetching a per-task
/// memo of them from a row that is not in cache.
///
/// A heavy group deadline is a closed form as well. A task of weight
/// `w > 1/2` idles at rate `1 − w`; the cascade that starts when `T_i`
/// runs in its last slot ends with the next idle slot the task is owed,
/// i.e. at the deadline of a subtask of the *complementary* task of
/// weight `1 − w`. With times relative to the era's origin and
/// `d = ⌈i/w⌉` (Anderson & Srinivasan):
///
/// ```text
/// D(T_i) = ⌈ ⌈d · (1 − w)⌉ / (1 − w) ⌉
/// ```
///
/// which the tests compare against the definition's successor walk for
/// every heavy weight with a denominator below 40.
pub fn window_and_group_deadline(weight: Weight, k: u64, release: Slot) -> (SubtaskWindow, Slot) {
    let win = window_in_era(weight, k, release);
    if weight.is_light() {
        return (win, win.deadline);
    }
    let w: Rational = weight.value();
    let idle = Rational::ONE - w;
    if idle.is_zero() {
        return (win, win.deadline);
    }
    // ⌈k/w⌉: the deadline relative to the era's origin.
    let d = slot_from_i128(w.div_ceil_int(i128::from(k)));
    let owed = idle.mul_int(d).ceil();
    (
        win,
        win.deadline - d + slot_from_i128(idle.div_ceil_int(owed)),
    )
}

/// How far past its release a window at `weight` can put its deadline
/// or its group deadline, whatever its rank: at most `⌈1/w⌉ + 1` for the
/// deadline (the bracketed length of Eqn (2) is `⌈k/w⌉ − ⌊(k − 1)/w⌋ <
/// 1/w + 2`), and for a heavy `w < 1` at most `⌈1/(1 − w)⌉` more for the
/// group deadline (the closed form above exceeds `d` by less than
/// `1/(1 − w) + 1`). Saturates instead of overflowing; what the engine's
/// arithmetic budget adds to the horizon.
pub fn window_reach(weight: Weight) -> Slot {
    let (num, den) = (weight.numer(), weight.denom());
    // `num ≥ 1`, and `den − num ≥ 1` whenever the weight is below one.
    let deadline = (den / num.max(1)).saturating_add(2);
    if weight.is_light() || num == den {
        return deadline;
    }
    deadline
        .saturating_add(den / (den - num).max(1))
        .saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn w(n: i128, d: i128) -> Weight {
        Weight::new(rat(n, d))
    }

    /// Fig. 1(a): periodic task of weight 5/16.
    #[test]
    fn fig1a_periodic_windows_weight_5_16() {
        let wt = w(5, 16);
        // T_1 window [0,4), T_2 window [3,7) (r(T_2)=3, d(T_2)=7).
        let t1 = periodic_window(wt, 1, 0);
        assert_eq!((t1.release, t1.deadline), (0, 4));
        let t2 = periodic_window(wt, 2, 0);
        assert_eq!((t2.release, t2.deadline), (3, 7));
        // b(T_i) = 1 for 1 ≤ i ≤ 4 and b(T_5) = 0.
        for i in 1..=4 {
            assert!(b_bit(wt, i), "b(T_{i}) should be 1");
        }
        assert!(!b_bit(wt, 5));
        // r(T_2) = d(T_1) − b(T_1) = 4 − 1 = 3.
        assert_eq!(t1.next_release(), 3);
        // r(T_6) = d(T_5) − b(T_5) = 16 − 0 = 16.
        let t5 = periodic_window(wt, 5, 0);
        assert_eq!(t5.deadline, 16);
        assert_eq!(t5.next_release(), 16);
        let t6 = periodic_window(wt, 6, 0);
        assert_eq!(t6.release, 16);
    }

    /// Fig. 1(b): IS task of weight 5/16, T_2 delayed by 2, T_3.. by 3.
    /// Releases and deadlines shift by the offsets.
    #[test]
    fn fig1b_is_offsets_shift_windows() {
        let wt = w(5, 16);
        // With θ(T_2)=2: r(T_2) = 2 + ⌊1/(5/16)⌋ = 5, d(T_2) = 2 + ⌈2/(5/16)⌉ = 9.
        let r2 = 2 + rat(5, 16).div_floor_int(1);
        let d2 = 2 + rat(5, 16).div_ceil_int(2);
        assert_eq!((r2, d2), (5, 9));
        // Chain form: T_2's window via window_in_era at rank 2, release 5,
        // must give the same deadline.
        let t2 = window_in_era(wt, 2, 5);
        assert_eq!(t2.deadline, 9);
    }

    /// Era-relative windows equal fresh-task windows (the paper's
    /// observation that after an enactment, T_3–T_5 of Fig. 3(a) look
    /// like U_1–U_3 of a weight-2/5 task, Fig. 3(c)).
    #[test]
    fn era_windows_match_fresh_task() {
        let wt = w(2, 5);
        let join = 10; // era starts at slot 10
        let mut release = join;
        for k in 1..=4u64 {
            let via_era = window_in_era(wt, k, release);
            let fresh = periodic_window(wt, k, join);
            assert_eq!(via_era, fresh, "rank {k}");
            release = via_era.next_release();
        }
    }

    /// Weight 2/5 windows (Fig. 3(c)/Fig. 4 task U): [0,3),[2,5),[5,8)...
    #[test]
    fn weight_2_5_window_sequence() {
        let wt = w(2, 5);
        let ws = periodic_windows(wt, 4, 0);
        assert_eq!((ws[0].release, ws[0].deadline, ws[0].b), (0, 3, true));
        assert_eq!((ws[1].release, ws[1].deadline, ws[1].b), (2, 5, false));
        assert_eq!((ws[2].release, ws[2].deadline, ws[2].b), (5, 8, true));
        assert_eq!((ws[3].release, ws[3].deadline, ws[3].b), (7, 10, false));
    }

    /// Weight 3/19 (task T of Fig. 3(a)): T_1 [0,7) b=1, T_2 [6,13) b=1.
    #[test]
    fn weight_3_19_windows() {
        let wt = w(3, 19);
        let t1 = periodic_window(wt, 1, 0);
        assert_eq!((t1.release, t1.deadline, t1.b), (0, 7, true));
        let t2 = periodic_window(wt, 2, 0);
        assert_eq!((t2.release, t2.deadline, t2.b), (6, 13, true));
    }

    /// Weight 1/10 (Fig. 8 task T): d(T_1) = 10, b(T_1) = 0 — so under
    /// leave/join the task cannot leave before time 10.
    #[test]
    fn weight_1_10_first_window() {
        let wt = w(1, 10);
        let t1 = periodic_window(wt, 1, 0);
        assert_eq!((t1.release, t1.deadline, t1.b), (0, 10, false));
        assert_eq!(t1.next_release(), 10);
    }

    /// A b-bit of 1 forces window length ≥ 3 for weights ≤ 1/2
    /// (used by Lemma 9 in the appendix).
    #[test]
    fn b1_windows_of_light_tasks_are_at_least_3_long() {
        for (n, d) in [
            (1i128, 2i128),
            (2, 5),
            (3, 19),
            (5, 16),
            (3, 20),
            (1, 7),
            (1, 21),
        ] {
            let wt = w(n, d);
            for k in 1..=(2 * d as u64) {
                if b_bit(wt, k) {
                    assert!(
                        window_len(wt, k) >= 3,
                        "weight {}/{} rank {} has b=1 but window length {}",
                        n,
                        d,
                        k,
                        window_len(wt, k)
                    );
                }
            }
        }
    }

    /// Windows of consecutive subtasks overlap by exactly b(T_i) slots.
    #[test]
    fn consecutive_windows_overlap_by_b() {
        for (n, d) in [(1i128, 2i128), (2, 5), (5, 16), (3, 20), (3, 19)] {
            let wt = w(n, d);
            let ws = periodic_windows(wt, 10, 0);
            for i in 0..9 {
                let overlap = ws[i].deadline - ws[i + 1].release;
                assert_eq!(
                    overlap,
                    if ws[i].b { 1 } else { 0 },
                    "weight {}/{} i={}",
                    n,
                    d,
                    i + 1
                );
            }
        }
    }

    /// Within one hyperperiod a weight-e/p task gets exactly e subtask
    /// deadlines at p, and windows tile the hyperperiod.
    #[test]
    fn hyperperiod_window_structure() {
        let wt = w(5, 16);
        let ws = periodic_windows(wt, 5, 0);
        assert_eq!(ws[4].deadline, 16);
        // Next hyperperiod repeats shifted by 16.
        let ws2 = periodic_windows(wt, 10, 0);
        for i in 0..5 {
            assert_eq!(ws2[i + 5].release, ws[i].release + 16);
            assert_eq!(ws2[i + 5].deadline, ws[i].deadline + 16);
            assert_eq!(ws2[i + 5].b, ws[i].b);
        }
    }
}

#[cfg(test)]
mod group_deadline_tests {
    use super::*;
    use crate::rational::rat;

    fn w(n: i128, d: i128) -> Weight {
        Weight::new(rat(n, d))
    }

    /// Weight 8/11: windows have lengths 2,2,3,2,2,3,2,2 and b = 0 only
    /// at rank 8. Group deadlines follow the cascade-absorption rule.
    #[test]
    fn weight_8_11_group_deadlines() {
        let wt = w(8, 11);
        let ws = periodic_windows(wt, 8, 0);
        let lens: Vec<i64> = ws.iter().map(super::SubtaskWindow::len).collect();
        assert_eq!(lens, vec![2, 2, 3, 2, 2, 3, 2, 2]);
        assert!(!ws[7].b);
        // T_1: d = 2; first absorber at or after 2 is d(T_3) − 1 = 4.
        assert_eq!(group_deadline(wt, 1, ws[0].release), 4);
        // T_2: d = 3; same absorber.
        assert_eq!(group_deadline(wt, 2, ws[1].release), 4);
        // T_3: d = 5 (own length-3 window absorbs only *earlier*
        // cascades); next absorber is d(T_6) − 1 = 8.
        assert_eq!(group_deadline(wt, 3, ws[2].release), 8);
        // T_7: d = 10; absorber is the b = 0 boundary d(T_8) = 11.
        assert_eq!(group_deadline(wt, 7, ws[6].release), 11);
    }

    /// Weight 3/4: windows 2,2,2 then b = 0 at rank 3 (3/(3/4) = 4).
    #[test]
    fn weight_3_4_group_deadlines() {
        let wt = w(3, 4);
        let ws = periodic_windows(wt, 3, 0);
        assert_eq!(
            ws.iter().map(super::SubtaskWindow::len).collect::<Vec<_>>(),
            vec![2, 2, 2]
        );
        assert!(!ws[2].b);
        // All of T_1..T_3 cascade to the b = 0 boundary at d(T_3) = 4.
        assert_eq!(group_deadline(wt, 1, ws[0].release), 4);
        assert_eq!(group_deadline(wt, 2, ws[1].release), 4);
        assert_eq!(group_deadline(wt, 3, ws[2].release), 4);
        // The next group repeats one period later.
        let ws2 = periodic_windows(wt, 6, 0);
        assert_eq!(group_deadline(wt, 4, ws2[3].release), 8);
    }

    /// Weight 1 (a full processor): every window has length 1 and b = 0;
    /// each group deadline is the subtask's own deadline.
    #[test]
    fn weight_one_group_deadlines() {
        let wt = w(1, 1);
        for k in 1..=4 {
            let win = periodic_window(wt, k, 0);
            assert_eq!(win.len(), 1);
            assert!(!win.b);
            assert_eq!(group_deadline(wt, k, win.release), win.deadline);
        }
    }

    /// Translation invariance: the same rank at two different releases
    /// yields windows and group deadlines shifted by the difference.
    #[test]
    fn group_deadlines_are_translation_invariant() {
        let wt = w(8, 11);
        let (w0, g0) = window_and_group_deadline(wt, 3, 0);
        let (w9, g9) = window_and_group_deadline(wt, 3, 900);
        assert_eq!(w0, window_in_era(wt, 3, 0));
        assert_eq!(w9.deadline - w0.deadline, 900);
        assert_eq!(g9 - g0, 900);
        assert_eq!(w9.b, w0.b);
    }

    /// Light tasks return their own deadline (neutral in comparisons).
    #[test]
    fn light_tasks_are_neutral() {
        let wt = w(2, 5);
        let win = periodic_window(wt, 1, 0);
        assert_eq!(group_deadline(wt, 1, win.release), win.deadline);
    }

    /// The definition, walked: the earliest absorbing boundary at or
    /// after `d(T_i)` among the successors of the same (virtual, fresh)
    /// heavy task. Terminates within one period (b = 0 at the rank where
    /// k/w is an integer, at the latest).
    fn group_deadline_by_walk(weight: Weight, k: u64, release: Slot) -> Slot {
        let win = window_in_era(weight, k, release);
        let d_i = win.deadline;
        let mut rank = k;
        let mut w = win;
        loop {
            if w.len() >= 3 && w.deadline > d_i {
                return w.deadline - 1;
            }
            if !w.b && w.deadline >= d_i {
                return w.deadline;
            }
            rank += 1;
            w = window_in_era(weight, rank, w.next_release());
        }
    }

    /// The closed form is the definition: every heavy weight with a
    /// denominator below 40 (weight 1 included), three periods of
    /// ranks, two era origins.
    #[test]
    fn closed_form_matches_the_successor_walk() {
        for den in 2i128..40 {
            for num in (den / 2 + 1)..=den {
                let wt = w(num, den);
                for k in 1..=(3 * den as u64 + 1) {
                    for origin in [0, 17] {
                        let release =
                            origin + slot_from_i128(wt.value().div_floor_int(i128::from(k) - 1));
                        assert_eq!(
                            group_deadline(wt, k, release),
                            group_deadline_by_walk(wt, k, release),
                            "weight {num}/{den} rank {k} origin {origin}"
                        );
                    }
                }
            }
        }
    }

    /// The whole table: every weight with a denominator up to 40, three
    /// periods of ranks. The release-path evaluation must agree with
    /// Eqns (2)–(4) read literally (`i128` floors and ceilings), with
    /// the stand-alone window functions, and — for heavy weights — with
    /// the successor walk; and no window reaches past [`window_reach`].
    #[test]
    fn every_small_weight_matches_the_definition() {
        for den in 1i128..=40 {
            for num in 1..=den {
                let wt = w(num, den);
                let ranks = u64::try_from(3 * den).expect("small denominator");
                for k in 1..=ranks {
                    let rank = i128::from(k);
                    let release = slot_from_i128(((rank - 1) * den).div_euclid(num));
                    let deadline = slot_from_i128(-(-rank * den).div_euclid(num));
                    let b = (rank * den) % num != 0;
                    let expected = SubtaskWindow {
                        release,
                        deadline,
                        b,
                    };
                    let case = format!("weight {num}/{den} rank {k}");
                    assert_eq!(periodic_window(wt, k, 0), expected, "{case}");
                    assert_eq!(periodic_release(wt, k, 0), release, "{case}");
                    assert_eq!(periodic_release(wt, k, 7), release + 7, "{case}");
                    assert_eq!(b_bit(wt, k), b, "{case}");
                    assert_eq!(window_len(wt, k), deadline - release, "{case}");
                    let (win, gd) = window_and_group_deadline(wt, k, release);
                    assert_eq!(win, expected, "{case}");
                    if wt.is_light() {
                        assert_eq!(gd, deadline, "{case}");
                    } else {
                        assert_eq!(gd, group_deadline_by_walk(wt, k, release), "{case}");
                    }
                    let reach = deadline.max(gd) - release;
                    assert!(reach <= window_reach(wt), "{case}: reach {reach}");
                }
            }
        }
    }

    /// The reach saturates instead of overflowing at the extremes of
    /// 64-bit weights.
    #[test]
    fn window_reach_saturates_at_the_64_bit_extremes() {
        let max = i128::from(i64::MAX);
        assert_eq!(window_reach(w(1, 2)), 4);
        assert_eq!(window_reach(w(1, 1)), 3);
        assert_eq!(window_reach(w(1, max)), Slot::MAX);
        assert_eq!(window_reach(w(max - 1, max)), Slot::MAX);
    }

    /// Group deadlines are non-decreasing in the subtask index.
    #[test]
    fn group_deadlines_are_monotone() {
        for (n, d) in [(8i128, 11i128), (3, 4), (7, 9), (5, 8), (11, 12)] {
            let wt = w(n, d);
            let mut last = 0;
            let mut release = 0;
            for k in 1..=(2 * d as u64) {
                let win = window_in_era(wt, k, release);
                let gd = group_deadline(wt, k, release);
                assert!(gd >= win.deadline - 1, "gd before own window end");
                assert!(gd >= last, "{n}/{d} rank {k}: gd {gd} < prior {last}");
                last = gd;
                release = win.next_release();
            }
        }
    }
}
