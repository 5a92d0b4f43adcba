//! What a task row keeps of its ideal schedules: a few sums while the
//! task's era has settled, its trackers while it has not.
//!
//! ## The static-row invariant
//!
//! Take a task that has held weight `w` since it joined at `join`, with
//! no IS delay, halt or departure. Fig. 5 gives it exactly `w` per slot,
//! because Eqn (4) releases `T_{i+1}` no later than `T_i` completes; so
//! `A(I_SW) = A(I_CSW) = A(I_PS) = w · (t − join)`, `D(I_SW, T_i) =
//! d(T_i)` (Eqns (2)–(4)), and its drift (Eqn (5)) is zero. Such a row
//! is [`Ideal::Closed`] with no bases: its trackers would be the closed
//! form ([`Trackers::closed`]) from [`Bases::join`], and nothing else
//! about them needs keeping.
//!
//! The same holds inside any later era once nothing of an earlier one
//! is left. A row with no pending change or departure settles at the
//! first release after which its trackers retain only records of the
//! current era, all on one grid of periodic windows and holding what
//! Fig. 5 gives a task that kept the era's weight on that grid, with no
//! `I_PS` suspension left ([`Trackers::settles`]). From then on, while
//! only releases happen, each ideal grows by `w` a slot and every
//! record completes at its deadline: the row is [`Ideal::Closed`] with
//! the [`Bases`] it settled with, and its trackers are their closed
//! form on the grid read off its last record ([`TaskState::anchor`]).
//!
//! Everything the closed form does not cover starts by building the
//! trackers ([`TaskState::trackers`]): an enactment or an initiation, a
//! halt, an IS delay, a leave. A rejoin finds them built, because the
//! leave did.
//!
//! Equality is by value: a closed row equals a tracked row that holds
//! its closed form. A snapshot writes the closed form, so an image does
//! not show which a row is; decoding builds a static row where the image
//! is the static closed form ([`TaskState::unbox_static`]) and tracked
//! rows elsewhere, which settle again at their next release. It refuses
//! a tracked row whose image contradicts its records
//! ([`TaskState::check_isw`]).

use super::TaskState;
use pfair_core::ideal::{Bases, Trackers};
use pfair_core::rational::{Rational, Units};
use pfair_core::time::{Slot, NEVER};
use pfair_core::weight::Weight;
use pfair_core::window::periodic_release;
use std::borrow::Cow;

/// A task row's ideal schedules.
#[derive(Debug)]
pub(super) enum Ideal {
    /// The task's era has settled, or it is unchanged since its join
    /// (`bases` `None`); `now` is its last synchronization (module docs).
    Closed {
        now: Slot,
        bases: Option<Box<Bases>>,
    },
    /// The task's era has not settled: its trackers.
    Tracked(Box<Trackers>),
}

const _: () = assert!(std::mem::size_of::<Ideal>() == 24);

/// A box a row gave back at a transition ([`Spares`]).
#[derive(Clone, Debug)]
struct Spare<T>(Box<T>);

/// Boxes rows gave back at a transition, for the next transition the
/// other way to fill in place: the trackers' boxes of rows that settled,
/// the bases' boxes of settled rows that built trackers again. A slot's
/// settlings and the next slots' changes trade a few dozen at most, so
/// each list keeps at most [`Spares::MOST`], and the engine lets them go
/// once its run reaches the horizon
/// ([`super::slab::TaskSlab::drop_spares`]): what it holds then is the
/// rows' own. A run driven in segments keeps them from one to the next.
#[derive(Clone, Debug, Default)]
pub(super) struct Spares {
    pairs: Vec<Spare<Trackers>>,
    bases: Vec<Spare<Bases>>,
}

impl Spares {
    const MOST: usize = 64;

    /// Keeps `boxed` in `list` if it is not full.
    fn keep<T>(list: &mut Vec<Spare<T>>, boxed: Box<T>) {
        if list.len() < Spares::MOST {
            list.push(Spare(boxed));
        }
    }
}

impl Clone for Ideal {
    fn clone(&self) -> Self {
        match self {
            Ideal::Closed { now, bases } => Ideal::Closed {
                now: *now,
                bases: bases.clone(),
            },
            Ideal::Tracked(trackers) => Ideal::Tracked(trackers.clone()),
        }
    }

    /// Into the box `self` already holds, when both hold one of a kind:
    /// a busy-span arming writes every row over the last arming's.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Ideal::Tracked(mine), Ideal::Tracked(theirs)) => mine.clone_from(theirs),
            (Ideal::Closed { now, bases }, Ideal::Closed { now: n, bases: b }) => {
                *now = *n;
                bases.clone_from(b);
            }
            _ => *self = source.clone(),
        }
    }
}

impl Ideal {
    /// An id that has not joined: nothing counted, at slot 0.
    pub(super) const BLANK: Ideal = Ideal::Closed {
        now: 0,
        bases: None,
    };

    /// The last synchronization.
    #[inline]
    pub(super) fn now(&self) -> Slot {
        match self {
            Ideal::Closed { now, .. } => *now,
            Ideal::Tracked(trackers) => trackers.isw.now(),
        }
    }

    /// The `I_SW` era unit at scheduling weight `w`. A closed row's is
    /// `w`'s denominator: its closed form holds records of the current
    /// era only, each a multiple of `1/den(w)`.
    pub(super) fn unit(&self, w: Weight) -> Units {
        match self {
            Ideal::Closed { .. } => Units::new(w.denom()),
            Ideal::Tracked(trackers) => trackers.isw.unit(),
        }
    }

    /// `later` is this ideal `period` slots on with nothing but releases
    /// in between: the same closed row, synchronized `period` slots
    /// later. A tracked row never recurs this way: the busy span shifts
    /// closed forms only.
    pub(super) fn recurs_as(&self, later: &Ideal, period: Slot) -> bool {
        matches!((self, later), (Ideal::Closed { now, bases }, Ideal::Closed { now: n, bases: b })
            if now.checked_add(period) == Some(*n) && bases == b)
    }

    /// Starts a stay at weight `g` from `t`: a row that never joined
    /// becomes static, a tracked one carries its totals into the new
    /// stay. Every departed row is tracked: the leave built its
    /// trackers, and no release settles a row while it is away.
    pub(super) fn rejoin(&mut self, g: Rational, t: Slot) {
        match self {
            Ideal::Closed { now, bases } => (*now, *bases) = (t, None),
            Ideal::Tracked(pair) => {
                pair.isw.rejoin(g, t);
                pair.ps.rejoin(g, t);
            }
        }
    }

    /// Moves a closed row's synchronization, so its closed form, `ds`
    /// slots on; `None` for a tracked row or on overflow.
    pub(super) fn shift(&mut self, ds: Slot) -> Option<()> {
        let Ideal::Closed { now, .. } = self else {
            return None;
        };
        *now = now.checked_add(ds)?;
        Some(())
    }
}

impl TaskState {
    /// Where the era's grid of windows at scheduling weight `w` starts,
    /// read off the last record; before the era's first release (in a
    /// join's slot), the last synchronization.
    pub(super) fn anchor(&self, w: Weight) -> Slot {
        self.subs.back().map_or(self.ideal.now(), |last| {
            let rank = last.index.saturating_sub(self.era_base);
            last.release - periodic_release(w, rank, 0)
        })
    }

    /// The row's trackers at scheduling weight `w`: its own, or its
    /// closed form.
    pub(super) fn ideal_image(&self, w: Weight) -> Cow<'_, Trackers> {
        match &self.ideal {
            Ideal::Closed { now, bases } => {
                let anchor = self.anchor(w);
                let join = Bases::join(anchor);
                let b = bases.as_deref().unwrap_or(&join);
                let (era_base, next) = (self.era_base, self.next_index);
                Cow::Owned(Trackers::closed(w, b, anchor, era_base, next, *now))
            }
            Ideal::Tracked(trackers) => Cow::Borrowed(trackers),
        }
    }

    /// The row's trackers, built from its closed form at scheduling
    /// weight `w` first if it has none: written in place into a box a
    /// settled row gave back, if `spares` holds one, and the row's box
    /// of bases given back in turn.
    pub(super) fn trackers(&mut self, w: Weight, spares: &mut Spares) -> &mut Trackers {
        if let Ideal::Closed { now, bases } = &mut self.ideal {
            let (now, bases) = (*now, bases.take());
            let anchor = self.anchor(w);
            let join = Bases::join(anchor);
            let b = bases.as_deref().unwrap_or(&join);
            let (era_base, next) = (self.era_base, self.next_index);
            let pair = match spares.pairs.pop() {
                Some(Spare(mut pair)) => {
                    pair.become_closed(w, b, anchor, era_base, next, now);
                    pair
                }
                None => Box::new(Trackers::closed(w, b, anchor, era_base, next, now)),
            };
            if let Some(bases) = bases {
                Spares::keep(&mut spares.bases, bases);
            }
            self.ideal = Ideal::Tracked(pair);
        }
        match self.ideal {
            Ideal::Tracked(ref mut trackers) => trackers,
            Ideal::Closed { .. } => self.trackers(w, spares),
        }
    }

    /// Settles a tracked row whose era has (module docs), after a release
    /// at scheduling weight `w` with nothing parked: its bases go into a
    /// box from `spares` if it holds one, and its trackers' box to them.
    pub(super) fn settle(&mut self, w: Weight, spares: &mut Spares) {
        let trackers = match &self.ideal {
            Ideal::Tracked(trackers) if trackers.isw.holds_only_era(self.era_base) => trackers,
            _ => return,
        };
        let Some(b) = trackers.settles(w, self.anchor(w), self.era_base, self.next_index) else {
            return;
        };
        let now = b.since;
        let bases = match spares.bases.pop() {
            Some(Spare(mut reused)) => {
                *reused = b;
                reused
            }
            None => Box::new(b),
        };
        let bases = Some(bases);
        if let Ideal::Tracked(pair) =
            std::mem::replace(&mut self.ideal, Ideal::Closed { now, bases })
        {
            Spares::keep(&mut spares.pairs, pair);
        }
    }

    /// Refuses an `I_SW` image that contradicts the row's records. The
    /// two lists need not match: the image may still hold a completed
    /// record the row has pruned, and the row older records the image
    /// has retired. But a record both hold agrees on its release, halt
    /// slot and completion, and the image holds every record `I_SW`
    /// still allocates to (no completion, not halted) and the
    /// predecessor the next release reads: the last unhalted record,
    /// when its `b` is 1, the row opens no era first and `reads_pred`
    /// (a present task with nothing parked).
    pub(super) fn check_isw(&self, reads_pred: bool) -> Result<(), String> {
        let Ideal::Tracked(trackers) = &self.ideal else {
            return Ok(());
        };
        let reads_pred = reads_pred && !self.era_open_pending;
        let pred = self.subs.iter().rev().find(|s| s.halted_at == NEVER);
        let pred = pred.filter(|p| p.b && reads_pred).map(|p| p.index);
        for s in &self.subs {
            let row = (s.index, s.release, s.isw_completion, s.halted_at);
            let fault = match trackers.isw.records().find(|r| r.0 == s.index) {
                Some(image) if image != row => "disagrees with the row on",
                None if s.isw_completion == NEVER && s.halted_at == NEVER => "lacks open record",
                None if pred == Some(s.index) => "lacks the predecessor",
                _ => continue,
            };
            return Err(format!("I_SW image {fault} T_{}", s.index));
        }
        Ok(())
    }

    /// A decoded row of a present task with nothing parked, at scheduling
    /// weight `w`, whose trackers are the closed form from its join's
    /// bases is static, as the row it was imaged from.
    pub(super) fn unbox_static(&mut self, w: Weight) {
        let (anchor, now) = (self.anchor(w), self.ideal.now());
        let join = Bases::join(anchor);
        let form = Trackers::closed(w, &join, anchor, self.era_base, self.next_index, now);
        if matches!(&self.ideal, Ideal::Tracked(pair) if **pair == form) {
            let bases = None;
            self.ideal = Ideal::Closed { now, bases };
        }
    }

    /// `(A(I_PS), A(I_SW), A(I_CSW))` over `[0, now)` at scheduling
    /// weight `w` (`None` for an id that never joined): for a closed
    /// row, its bases plus `w · (now − since)` each.
    pub(super) fn totals(&self, w: Option<Weight>) -> (Rational, Rational, Rational) {
        match &self.ideal {
            Ideal::Closed { now, bases } => {
                let w = w.unwrap_or(Weight::ONE);
                match bases.as_deref() {
                    Some(b) => b.sums_at(w, *now),
                    None => Bases::join(self.anchor(w)).sums_at(w, *now),
                }
            }
            Ideal::Tracked(t) => (t.ps.total(), t.isw.isw_total(), t.isw.icsw_total()),
        }
    }
}
