//! The two trackers of one task, as the engine keeps them for a task
//! that has changed since it joined.

use super::isw::IswTracker;
use super::ps::PsTracker;
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
    /// The pair a task holds after keeping weight `w` since it joined at
    /// `join` — no enactment, halt, IS delay or departure — having
    /// released `T_{era_base + 1} … T_{next_index − 1}` and been
    /// synchronized at each release and last at `now`:
    /// [`IswTracker::closed_form`] and [`PsTracker::closed_form`]. All
    /// three ideals give such a task `w · (now − join)`, so its drift is
    /// zero.
    ///
    /// # Panics
    /// As [`IswTracker::closed_form`].
    pub fn closed_form(
        w: Weight,
        join: Slot,
        era_base: u64,
        next_index: u64,
        now: Slot,
    ) -> Trackers {
        Trackers {
            isw: IswTracker::closed_form(w, join, era_base, next_index, now),
            ps: PsTracker::closed_form(w, join, now),
        }
    }
}
