//! The two trackers of one task, as the engine keeps them for a task
//! whose era has not settled, and the closed form of the pair for one
//! whose era has.

use super::isw::IswTracker;
use super::ps::PsTracker;
use crate::rational::Rational;
use crate::time::Slot;
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

impl Trackers {
    /// The pair of a task joining at `join` with weight `w`: nothing
    /// counted yet.
    ///
    /// # Panics
    /// As [`IswTracker::new`] and [`PsTracker::new`].
    pub fn new(w: Rational, join: Slot) -> Trackers {
        Trackers {
            isw: IswTracker::new(w, join),
            ps: PsTracker::new(w, join),
        }
    }

    /// The closed form, in place: the pair becomes what it would be at
    /// `now` if nothing but releases happened to the task —
    /// [`IswTracker::closed_form`] on the era's grid, and the `I_PS`
    /// tracker synchronized to `now`. Within such an era all three
    /// ideals grow by `w` a slot, so the drift stays what it was when
    /// the era settled.
    ///
    /// A task that has kept weight `w` since it joined at `join` — no
    /// enactment, halt, IS delay or departure — is the special case of
    /// a pair that starts as `Trackers::new(w, join)`: its totals are
    /// `w · (now − join)` and its drift is zero.
    ///
    /// # Panics
    /// As [`IswTracker::closed_form`].
    pub fn close_to(&mut self, w: Weight, era_base: u64, next_index: u64, now: Slot) {
        self.isw = IswTracker::closed_form(&self.isw, w, era_base, next_index, now);
        self.ps.sync_to(now);
    }

    /// Whether the pair, synchronized at a release of an era of weight
    /// `w` that numbers its subtasks from `era_base + 1` (the next one
    /// gets `next_index`), has settled: no suspension lies ahead of it,
    /// every record it retains is of the era, and it is its own closed
    /// form ([`Trackers::close_to`]) — every record on one grid of
    /// periodic windows, holding what Fig. 5 gives a task that has kept
    /// `w` on that grid. From then on, as long as only releases on that
    /// grid happen, the closed form of this pair is the pair.
    pub fn settles(&self, w: Weight, era_base: u64, next_index: u64) -> bool {
        let now = self.isw.now();
        !self.ps.suspended_after(now)
            && self.isw.holds_only_era(era_base)
            && IswTracker::closed_form(&self.isw, w, era_base, next_index, now) == self.isw
    }
}
