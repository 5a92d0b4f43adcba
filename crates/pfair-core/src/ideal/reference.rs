//! `I_SW` and `I_CSW` of one task, one slot at a time over reduced
//! [`Rational`]s: Fig. 5 transcribed as the paper states it.
//!
//! [`IswReference`] is the independent reading of the figure. The
//! era-unit [`IswTracker`](super::IswTracker) is held to it at every
//! boundary (`tests/reference_tracker.rs`), and every history run
//! records its per-slot `I_SW` series, completions and halted
//! corrections from it (`pfair_sched::history`). It shares nothing with
//! the tracker but [`Rational`]: no era units, no closed-form jumps, no
//! retirement — every subtask is kept and every total is a plain `+=`.
//!
//! The methods carry a `ref_` prefix: the static audit resolves calls
//! by method name, and the tracker's `halt` or `advance` must not be
//! joined to these. Nothing here panics on input it does not expect: a
//! subtask out of index order is not added, an unknown or retired one
//! is not halted, and a missing predecessor leaves the release slot its
//! full scheduling weight.

use crate::rational::Rational;
use crate::time::Slot;

/// One subtask as the reference follows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefSub {
    /// Subtask index `i` of `T_i`.
    pub index: u64,
    /// `r(T_i)`.
    pub release: Slot,
    /// The `b = 1` predecessor whose final slot is this subtask's
    /// release slot (line 7 of Fig. 5).
    pub pred: Option<u64>,
    /// `A(I_SW, T_i, 0, now)`.
    pub cum: Rational,
    /// Allocation in the last slot that gave it any: once complete,
    /// `A(I_SW, T_i, D(I_SW, T_i) − 1)`.
    pub last_alloc: Rational,
    /// Every nonzero per-slot allocation while the subtask is
    /// incomplete, in slot order; dropped when it completes (it can no
    /// longer halt, which is what the breakdown is for).
    pub slots: Vec<(Slot, Rational)>,
    /// `D(I_SW, T_i)`, once reached.
    pub complete_at: Option<Slot>,
    /// `true` once halted.
    pub halted: bool,
}

impl RefSub {
    /// Complete or halted: `I_SW` allocates nothing more to it.
    fn ref_retired(&self) -> bool {
        self.halted || self.complete_at.is_some()
    }
}

/// `I_SW` and `I_CSW` of one task from its join on (see the module
/// docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IswReference {
    swt: Rational,
    /// Index-sorted; nothing is ever dropped.
    subs: Vec<RefSub>,
    /// Position of the first subtask that is neither complete nor
    /// halted: everything before it is retired, so a slot starts there.
    live: usize,
    isw_total: Rational,
    /// Σ `A(I_SW, T_i, 0, H(T_i))` over the halted subtasks.
    lost: Rational,
    now: Slot,
}

impl IswReference {
    /// A task whose first scheduling weight is `swt`, joining at
    /// `join_at`: the first slot [`IswReference::ref_step`] allocates.
    pub fn new(swt: Rational, join_at: Slot) -> IswReference {
        IswReference {
            swt,
            subs: Vec::new(),
            live: 0,
            isw_total: Rational::ZERO,
            lost: Rational::ZERO,
            now: join_at,
        }
    }

    /// The next slot [`IswReference::ref_step`] allocates.
    pub fn ref_now(&self) -> Slot {
        self.now
    }

    /// `swt(T, now)`.
    pub fn ref_swt(&self) -> Rational {
        self.swt
    }

    /// `A(I_SW, T, join, now)`.
    pub fn ref_isw_total(&self) -> Rational {
        self.isw_total
    }

    /// `A(I_CSW, T, join, now)`: the `I_SW` total less what the halted
    /// subtasks had been given.
    pub fn ref_icsw_total(&self) -> Rational {
        self.isw_total - self.lost
    }

    /// Every subtask added so far, in index order.
    pub fn ref_subs(&self) -> &[RefSub] {
        &self.subs
    }

    /// Subtask `T_index`, if it was added.
    pub fn ref_sub(&self, index: u64) -> Option<&RefSub> {
        let pos = self.subs.binary_search_by_key(&index, |s| s.index).ok()?;
        self.subs.get(pos)
    }

    /// Enacts scheduling weight `swt`: slot `now` on allocates at it.
    pub fn ref_set_swt(&mut self, swt: Rational) {
        self.swt = swt;
    }

    /// Adds `T_index`, released at `release`. `era_first` is
    /// `i = Id(T_i)`; otherwise `pred_b` is `b(T_{i−1})` of the most
    /// recent unhalted subtask, whose final slot this release shares
    /// when it is 1. Returns `false`, adding nothing, unless `index`
    /// follows every subtask added before.
    pub fn ref_add(&mut self, index: u64, release: Slot, era_first: bool, pred_b: bool) -> bool {
        if self.subs.last().is_some_and(|s| s.index >= index) {
            return false;
        }
        let pred = if era_first || !pred_b {
            None
        } else {
            self.subs.iter().rev().find(|s| !s.halted).map(|s| s.index)
        };
        self.subs.push(RefSub {
            index,
            release,
            pred,
            cum: Rational::ZERO,
            last_alloc: Rational::ZERO,
            slots: Vec::new(),
            complete_at: None,
            halted: false,
        });
        true
    }

    /// Fig. 5 for slot `now`, in index order: returns the task's
    /// allocation in the slot and hands `completed` the index, the
    /// completion `D(I_SW, T_i)` and the final-slot allocation of every
    /// subtask that reached one quantum in it.
    pub fn ref_step(&mut self, mut completed: impl FnMut(u64, Slot, Rational)) -> Rational {
        let t = self.now;
        let end = t.saturating_add(1);
        while self.subs.get(self.live).is_some_and(RefSub::ref_retired) {
            self.live += 1;
        }
        let mut slot_total = Rational::ZERO;
        for pos in self.live..self.subs.len() {
            let Some(s) = self.subs.get(pos) else {
                break;
            };
            if s.ref_retired() || t < s.release {
                continue;
            }
            let alloc = if t != s.release {
                self.swt.min(Rational::ONE - s.cum)
            } else {
                match s.pred.and_then(|p| self.ref_sub(p)) {
                    Some(pred) => self.swt - pred.last_alloc,
                    None => self.swt,
                }
            };
            let Some(s) = self.subs.get_mut(pos) else {
                break;
            };
            s.cum += alloc;
            s.last_alloc = alloc;
            slot_total += alloc;
            if s.cum == Rational::ONE {
                s.complete_at = Some(end);
                s.slots = Vec::new();
                completed(s.index, end, alloc);
            } else if !alloc.is_zero() {
                s.slots.push((t, alloc));
            }
        }
        self.isw_total += slot_total;
        self.now = end;
        slot_total
    }

    /// Halts `T_index` at `now`: it is allocated nothing more, and
    /// `I_CSW` takes back everything `I_SW` gave it, which the returned
    /// record lists slot by slot. `None`, changing nothing, if the
    /// subtask is unknown, complete or already halted.
    pub fn ref_halt(&mut self, index: u64) -> Option<&RefSub> {
        let pos = self.subs.binary_search_by_key(&index, |s| s.index).ok()?;
        let s = self.subs.get_mut(pos)?;
        if s.ref_retired() {
            return None;
        }
        s.halted = true;
        self.lost += s.cum;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    /// Fig. 3(a): X_2 halted at 8 loses 2/19 + 3/19, listed per slot;
    /// `I_CSW` takes it back and the halted subtask gets nothing more.
    #[test]
    fn halt_lists_what_icsw_takes_back() {
        let mut r = IswReference::new(rat(3, 19), 0);
        r.ref_add(1, 0, true, false);
        r.ref_add(2, 6, false, true);
        for _ in 0..8 {
            r.ref_step(|_, _, _| ());
        }
        let halted = r.ref_halt(2).map(|s| s.slots.clone());
        assert_eq!(halted, Some(vec![(6, rat(2, 19)), (7, rat(3, 19))]));
        assert!(r.ref_halt(2).is_none(), "halted once");
        assert!(r.ref_halt(1).is_none(), "complete");
        assert_eq!(r.ref_isw_total(), Rational::ONE + rat(5, 19));
        assert_eq!(r.ref_icsw_total(), Rational::ONE);
        r.ref_set_swt(rat(2, 5));
        assert_eq!(r.ref_step(|_, _, _| ()), Rational::ZERO);
        assert!(!r.ref_add(2, 9, true, false), "index order");
    }
}
