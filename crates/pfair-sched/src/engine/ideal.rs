//! What a task row keeps of its ideal schedules: two slots while the
//! task has not changed since it joined, its trackers once it has.
//!
//! ## The static-row invariant
//!
//! Take a task that has held weight `w` since it joined at `join`, with
//! no IS delay, halt or departure. Fig. 5 gives it exactly `w` per slot,
//! because Eqn (4) releases `T_{i+1}` no later than `T_i` completes; so
//! `A(I_SW) = A(I_CSW) = A(I_PS) = w · (t − join)`, `D(I_SW, T_i) =
//! d(T_i)` (Eqns (2)–(4)), and its drift (Eqn (5)) is zero. Such a row
//! is [`Ideal::Static`]: its trackers would be
//! [`Trackers::closed_form`]`(w, join, era_base, next_index, now)`, and
//! nothing else about them needs keeping. Everything the closed form
//! does not cover starts by building them ([`TaskState::trackers`]): an
//! enactment or an initiation, a halt, an IS delay, a leave. A rejoin
//! finds them built, because the leave did.
//!
//! Equality is by value: a static row equals a tracked row that holds
//! its closed form. A snapshot writes the closed form, so an image does
//! not show which a row is; decoding builds tracked rows.

use super::TaskState;
use pfair_core::ideal::Trackers;
use pfair_core::rational::{Rational, Units};
use pfair_core::time::{slots_since, Slot};
use pfair_core::weight::Weight;
use std::borrow::Cow;

/// A task row's ideal schedules.
#[derive(Debug)]
pub(super) enum Ideal {
    /// The task has not changed since it joined at `join`; `now` is its
    /// last synchronization (module docs).
    Static { join: Slot, now: Slot },
    /// The task has changed: its trackers.
    Tracked(Box<Trackers>),
}

const _: () = assert!(std::mem::size_of::<Ideal>() == 24);

impl Clone for Ideal {
    fn clone(&self) -> Self {
        match self {
            Ideal::Static { join, now } => Ideal::Static {
                join: *join,
                now: *now,
            },
            Ideal::Tracked(trackers) => Ideal::Tracked(trackers.clone()),
        }
    }

    /// Into the box `self` already holds, when both are tracked: a
    /// busy-span arming writes every row over the last arming's.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Ideal::Tracked(mine), Ideal::Tracked(theirs)) => mine.clone_from(theirs),
            _ => *self = source.clone(),
        }
    }
}

impl Ideal {
    /// An id that has not joined: nothing counted, at slot 0.
    pub(super) const BLANK: Ideal = Ideal::Static { join: 0, now: 0 };

    /// The last synchronization.
    #[inline]
    pub(super) fn now(&self) -> Slot {
        match self {
            Ideal::Static { now, .. } => *now,
            Ideal::Tracked(trackers) => trackers.isw.now(),
        }
    }

    /// Starts a stay at weight `w` from `t`: a row that never joined
    /// becomes static, a tracked one (every departed row) carries its
    /// totals into the new stay.
    pub(super) fn rejoin(&mut self, w: Rational, t: Slot) {
        match self {
            Ideal::Static { .. } => *self = Ideal::Static { join: t, now: t },
            Ideal::Tracked(trackers) => {
                trackers.isw.rejoin(w, t);
                trackers.ps.rejoin(w, t);
            }
        }
    }

    /// The `I_SW` era unit at scheduling weight `w`: a static row's is
    /// `w`'s denominator, as a tracker built at the join counts in.
    pub(super) fn unit(&self, w: Weight) -> Units {
        match self {
            Ideal::Static { .. } => Units::new(w.denom()),
            Ideal::Tracked(trackers) => trackers.isw.unit(),
        }
    }

    /// `(A(I_PS), A(I_SW), A(I_CSW))` over `[0, now)`: for a static row
    /// of weight `w` all three are `w · (now − join)`.
    pub(super) fn totals(&self, w: Rational) -> (Rational, Rational, Rational) {
        match self {
            Ideal::Static { join, now } => {
                let total = w.mul_int(slots_since(*join, *now));
                (total, total, total)
            }
            Ideal::Tracked(trackers) => (
                trackers.ps.total(),
                trackers.isw.isw_total(),
                trackers.isw.icsw_total(),
            ),
        }
    }
}

impl TaskState {
    /// The row's trackers at scheduling weight `w`: its own, or its
    /// closed form.
    pub(super) fn ideal_image(&self, w: Weight) -> Cow<'_, Trackers> {
        match &self.ideal {
            Ideal::Static { join, now } => Cow::Owned(Trackers::closed_form(
                w,
                *join,
                self.era_base,
                self.next_index,
                *now,
            )),
            Ideal::Tracked(trackers) => Cow::Borrowed(trackers),
        }
    }

    /// The row's trackers, built from its closed form at scheduling
    /// weight `w` first if it has none.
    pub(super) fn trackers(&mut self, w: Weight) -> &mut Trackers {
        match self.ideal {
            Ideal::Tracked(ref mut trackers) => trackers,
            Ideal::Static { .. } => {
                let closed = self.ideal_image(w).into_owned();
                self.ideal = Ideal::Tracked(Box::new(closed));
                self.trackers(w)
            }
        }
    }

    /// The ideals of two rows of scheduling weight `w` and equal
    /// indices, by value.
    pub(super) fn same_ideals(&self, other: &TaskState, w: Weight) -> bool {
        match (&self.ideal, &other.ideal) {
            (Ideal::Static { join, now }, Ideal::Static { join: j, now: n }) => {
                (join, now) == (j, n)
            }
            (Ideal::Tracked(a), Ideal::Tracked(b)) => a == b,
            _ => self.ideal_image(w) == other.ideal_image(w),
        }
    }
}
