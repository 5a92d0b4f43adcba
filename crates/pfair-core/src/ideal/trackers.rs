//! The two trackers of one task, as the engine keeps them for a task
//! whose era has not settled, and their closed form for one whose has.

use super::isw::IswTracker;
use super::ps::PsTracker;
use crate::rational::{Accumulator, Rational};
use crate::time::{slots_since, Slot};
use crate::weight::Weight;

/// A task's `I_SW` tracker (which also yields `I_CSW`) and its `I_PS`
/// tracker. Equal when they hold the same values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trackers {
    /// `I_SW` and `I_CSW`.
    pub isw: IswTracker,
    /// `I_PS`.
    pub ps: PsTracker,
}

/// The sums of a task's earlier eras that its closed form reads, taken
/// at `since`, a release of its current era. The sums are kept as the
/// trackers keep them, so settling copies them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bases {
    /// The slot the sums are taken at.
    pub since: Slot,
    /// `A(I_SW, T, 0, since)`.
    pub isw_total: Accumulator,
    /// `A(I_SW) − A(I_CSW)` at `since`: what halted subtasks received.
    pub halted_loss: Accumulator,
    /// `A(I_PS, T, 0, since)`.
    pub ps_total: Accumulator,
}

impl Bases {
    /// The bases of a task joining at `at`: nothing counted yet.
    pub const fn join(at: Slot) -> Bases {
        Bases {
            since: at,
            isw_total: Accumulator::new(),
            halted_loss: Accumulator::new(),
            ps_total: Accumulator::new(),
        }
    }

    /// `(A(I_PS), A(I_SW), A(I_CSW))` over `[0, now)` of the closed form
    /// of weight `w`: each base plus `w · (now − since)`.
    pub fn sums_at(&self, w: Weight, now: Slot) -> (Rational, Rational, Rational) {
        let grown = w.value().mul_int(slots_since(self.since, now));
        let isw = self.isw_total.finish() + grown;
        let icsw = isw - self.halted_loss.finish();
        (self.ps_total.finish() + grown, isw, icsw)
    }
}

impl Trackers {
    /// The pair at `now` of a task to which only releases on one grid
    /// of periodic windows of weight `w` starting at `anchor` happened
    /// since `bases.since` ([`IswTracker::closed_form`]): each total is
    /// its base plus `w · (now − since)`, and `I_PS` runs at `w` with no
    /// suspension. A task that kept `w` since it joined at `anchor` has
    /// `Bases::join(anchor)`.
    ///
    /// # Panics
    /// As [`IswTracker::closed_form`].
    pub fn closed(
        w: Weight,
        bases: &Bases,
        anchor: Slot,
        era_base: u64,
        next_index: u64,
        now: Slot,
    ) -> Trackers {
        Trackers {
            isw: IswTracker::closed_form(w, bases, anchor, era_base, next_index, now),
            ps: PsTracker::closed_form(w, bases.ps_total.clone(), bases.since, now),
        }
    }

    /// Writes [`Trackers::closed`] over this pair where it stands: a
    /// box a settled pair left is filled again without building a pair
    /// and moving it in.
    ///
    /// # Panics
    /// As [`IswTracker::closed_form`].
    pub fn become_closed(
        &mut self,
        w: Weight,
        bases: &Bases,
        anchor: Slot,
        era_base: u64,
        next_index: u64,
        now: Slot,
    ) {
        (self.isw).become_closed_form(w, bases, anchor, era_base, next_index, now);
        self.ps = PsTracker::closed_form(w, bases.ps_total.clone(), bases.since, now);
    }

    /// The pair's own bases if, synchronized at a release on the grid
    /// of [`Trackers::closed`], it is the closed form from them: records
    /// of the era only ([`IswTracker::holds_only_era`], which callers
    /// may test first), `I_PS` at `w` and no suspension, not even one
    /// that ends at this release. The bases are copies of the trackers'
    /// era sums, so the closed form from them holds these sums: the
    /// pair is decided by its weights, its suspensions and its records
    /// alone, against the grid's records as they are computed, and no
    /// closed form is built.
    pub fn settles(&self, w: Weight, anchor: Slot, era_base: u64, next: u64) -> Option<Bases> {
        let since = self.isw.now();
        let closed = self.ps.is_closed_at(w, since) && self.isw.is_grid(w, anchor, era_base, next);
        closed.then(|| Bases {
            since,
            isw_total: self.isw.sum().clone(),
            halted_loss: self.isw.halted_loss().clone(),
            ps_total: self.ps.sum().clone(),
        })
    }

    /// `drift = A(I_PS) − A(I_CSW)` over `[0, now)` (Eqn (5)). Both sums
    /// are refined to every denominator the task's weights have had, so
    /// where neither has folded they count in one unit, or one in a
    /// multiple of the other's: one integer difference and one reduction.
    pub fn drift(&self) -> Rational {
        self.ps.sum().minus(&self.isw.icsw_sum())
    }
}
