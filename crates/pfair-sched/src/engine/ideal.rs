//! What a task row keeps of its ideal schedules: two slots while the
//! task's era has settled, its trackers while it has not.
//!
//! ## The static-row invariant
//!
//! Take a task that has held weight `w` since it joined at `join`, with
//! no IS delay, halt or departure. Fig. 5 gives it exactly `w` per slot,
//! because Eqn (4) releases `T_{i+1}` no later than `T_i` completes; so
//! `A(I_SW) = A(I_CSW) = A(I_PS) = w · (t − join)`, `D(I_SW, T_i) =
//! d(T_i)` (Eqns (2)–(4)), and its drift (Eqn (5)) is zero. Such a row
//! is [`Ideal::Static`]: its trackers would be the closed form
//! ([`Trackers::close_to`]) of the pair it joined with, and nothing
//! else about them needs keeping.
//!
//! The same holds inside any later era once nothing of an earlier one
//! is left. A row with no pending change or departure settles at the
//! first release after which its trackers retain only records of the
//! current era, all on one grid of periodic windows and holding what
//! Fig. 5 gives a task that kept the era's weight on that grid, with no
//! `I_PS` suspension ahead ([`Trackers::settles`]). From then on, while
//! only releases happen, each ideal grows by `w` a slot and every
//! record completes at its deadline: the row is [`Ideal::Settled`], and
//! its trackers are the closed form of the pair it settled with.
//!
//! Everything the closed form does not cover starts by building the
//! trackers ([`TaskState::trackers`]): an enactment or an initiation, a
//! halt, an IS delay, a leave. A rejoin finds them built, because the
//! leave did.
//!
//! Equality is by value: a static or settled row equals a tracked row
//! that holds its closed form. A snapshot writes the closed form, so an
//! image does not show which a row is; decoding builds tracked rows,
//! which settle again at their next release.

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
    /// The task's era has settled: `settled` is its pair as it stood at
    /// the release it settled at, `now` its last synchronization.
    Settled { now: Slot, settled: Box<Trackers> },
    /// The task's era has not settled: its trackers.
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
            Ideal::Settled { now, settled } => Ideal::Settled {
                now: *now,
                settled: settled.clone(),
            },
            Ideal::Tracked(trackers) => Ideal::Tracked(trackers.clone()),
        }
    }

    /// Into the box `self` already holds, when both hold one: a
    /// busy-span arming writes every row over the last arming's.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Ideal::Tracked(mine), Ideal::Tracked(theirs)) => mine.clone_from(theirs),
            (
                Ideal::Settled { now, settled },
                Ideal::Settled {
                    now: at,
                    settled: theirs,
                },
            ) => {
                *now = *at;
                settled.clone_from(theirs);
            }
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
            Ideal::Static { now, .. } | Ideal::Settled { now, .. } => *now,
            Ideal::Tracked(trackers) => trackers.isw.now(),
        }
    }

    /// The `I_SW` era unit at scheduling weight `w`. A static or settled
    /// row's is `w`'s denominator: its closed form holds records of the
    /// current era only, each a multiple of `1/den(w)`.
    pub(super) fn unit(&self, w: Weight) -> Units {
        match self {
            Ideal::Static { .. } | Ideal::Settled { .. } => Units::new(w.denom()),
            Ideal::Tracked(trackers) => trackers.isw.unit(),
        }
    }

    /// `later` is this ideal `period` slots on with nothing but releases
    /// in between: the same static or settled row, synchronized `period`
    /// slots later. A tracked row never recurs this way: the busy span
    /// shifts closed forms only.
    pub(super) fn recurs_as(&self, later: &Ideal, period: Slot) -> bool {
        match (self, later) {
            (Ideal::Static { join, now }, Ideal::Static { join: j, now: n }) => {
                join == j && now.checked_add(period) == Some(*n)
            }
            (Ideal::Settled { now, settled }, Ideal::Settled { now: n, settled: s }) => {
                now.checked_add(period) == Some(*n) && settled == s
            }
            _ => false,
        }
    }

    /// Starts a stay at weight `g` from `t`: a row that never joined
    /// becomes static, a boxed one carries its totals into the new stay.
    /// Every departed row is tracked: the leave built its trackers, and
    /// no release settles a row while it is away.
    pub(super) fn rejoin(&mut self, g: Rational, t: Slot) {
        match self {
            Ideal::Static { .. } => *self = Ideal::Static { join: t, now: t },
            Ideal::Tracked(pair) | Ideal::Settled { settled: pair, .. } => {
                pair.isw.rejoin(g, t);
                pair.ps.rejoin(g, t);
            }
        }
    }

    /// Moves a static or settled row's synchronization, so its closed
    /// form, `ds` slots on; `None` for a tracked row or on overflow.
    pub(super) fn shift(&mut self, ds: Slot) -> Option<()> {
        match self {
            Ideal::Static { now, .. } | Ideal::Settled { now, .. } => {
                *now = now.checked_add(ds)?;
                Some(())
            }
            Ideal::Tracked(_) => None,
        }
    }
}

impl TaskState {
    /// The row's trackers at scheduling weight `w`: its own, or its
    /// closed form.
    pub(super) fn ideal_image(&self, w: Weight) -> Cow<'_, Trackers> {
        let (mut closed, now) = match &self.ideal {
            Ideal::Static { join, now } => (Trackers::new(w.value(), *join), *now),
            Ideal::Settled { now, settled } => ((**settled).clone(), *now),
            Ideal::Tracked(trackers) => return Cow::Borrowed(trackers),
        };
        closed.close_to(w, self.era_base, self.next_index, now);
        Cow::Owned(closed)
    }

    /// The row's trackers, built from its closed form at scheduling
    /// weight `w` first if it has none — in the box a settled row
    /// already holds.
    pub(super) fn trackers(&mut self, w: Weight) -> &mut Trackers {
        match self.ideal {
            Ideal::Tracked(ref mut trackers) => trackers,
            _ => {
                let (era_base, next_index) = (self.era_base, self.next_index);
                self.ideal = match std::mem::replace(&mut self.ideal, Ideal::BLANK) {
                    Ideal::Settled { now, mut settled } => {
                        settled.close_to(w, era_base, next_index, now);
                        Ideal::Tracked(settled)
                    }
                    Ideal::Static { join, now } => {
                        let mut closed = Trackers::new(w.value(), join);
                        closed.close_to(w, era_base, next_index, now);
                        Ideal::Tracked(Box::new(closed))
                    }
                    tracked => tracked,
                };
                self.trackers(w)
            }
        }
    }

    /// Settles a tracked row whose era has (module docs): called after
    /// its release, `w` its scheduling weight, with no change or
    /// departure pending.
    pub(super) fn settle(&mut self, w: Weight) {
        let Ideal::Tracked(trackers) = &self.ideal else {
            return;
        };
        if trackers.settles(w, self.era_base, self.next_index) {
            let now = trackers.isw.now();
            if let Ideal::Tracked(settled) = std::mem::replace(&mut self.ideal, Ideal::BLANK) {
                self.ideal = Ideal::Settled { now, settled };
            }
        }
    }

    /// `(A(I_PS), A(I_SW), A(I_CSW))` over `[0, now)` at scheduling
    /// weight `w` (`None` for an id that never joined): for a static row
    /// all three are `w · (now − join)`.
    pub(super) fn totals(&self, w: Option<Weight>) -> (Rational, Rational, Rational) {
        if let Ideal::Static { join, now } = self.ideal {
            let total = Weight::share(w).mul_int(slots_since(join, now));
            return (total, total, total);
        }
        let trackers = self.ideal_image(w.unwrap_or(Weight::ONE));
        (
            trackers.ps.total(),
            trackers.isw.isw_total(),
            trackers.isw.icsw_total(),
        )
    }

    /// The ideals of two rows of scheduling weight `w` and equal
    /// indices, by value; alike closed forms compare without being built.
    pub(super) fn same_ideals(&self, other: &TaskState, w: Weight) -> bool {
        match (&self.ideal, &other.ideal) {
            (Ideal::Tracked(a), Ideal::Tracked(b)) => a == b,
            (a, b) => a.recurs_as(b, 0) || self.ideal_image(w) == other.ideal_image(w),
        }
    }
}
