//! The ideal processor-sharing schedule `I_PS`.
//!
//! Under `I_PS` each task continuously receives a share equal to its
//! *actual* weight `wt(T, t)` — weight changes take effect the instant
//! they are **initiated**, with no enactment delay whatsoever (paper
//! §4.1). `I_PS` is the yardstick against which drift is measured: it is
//! what an unimplementable, infinitely-preemptive scheduler would give
//! each task.
//!
//! Because weight changes are initiated at slot boundaries (all times in
//! the paper are integral numbers of quanta), the integral
//! `A(I_PS, T, t1, t2) = ∫ wt(T, u) du` reduces to a per-slot sum of the
//! current weight, which this tracker accumulates exactly.

use crate::arena::ThinVec;
use crate::rational::{Accumulator, Rational, Units};
use crate::time::{slots_since, Slot};
use crate::weight::Weight;

/// Incremental `I_PS` allocation of a single task.
///
/// The running total is an [`Accumulator`] refined to every weight's
/// denominator: [`PsTracker::sync_to`] adds `wt`'s count of `1/den(wt)`s
/// per active slot, one multiply into the total's unit, and no gcd runs
/// until the total is read. Two trackers are equal when they hold the
/// same values, however each counts its total.
#[derive(Clone, Debug)]
pub struct PsTracker {
    wt: Weight,
    /// `A(I_PS, T, 0, now)`.
    total: Accumulator,
    /// `total`'s units per `1/den(wt)` ([`Accumulator::per`]), kept so
    /// a synchronization divides nothing.
    per: i64,
    now: Slot,
    /// Slot intervals `[from, until)` during which allocation is zero —
    /// the "zero between active subtasks" case that intra-sporadic
    /// separations create when the early-release assumption is dropped.
    /// Empty for a task that is never delayed, hence thin.
    suspensions: ThinVec<(Slot, Slot)>,
}

impl PartialEq for PsTracker {
    fn eq(&self, other: &PsTracker) -> bool {
        self.wt == other.wt
            && self.now == other.now
            && self.suspensions == other.suspensions
            && self.total == other.total
    }
}

impl Eq for PsTracker {}

const _: () = assert!(core::mem::size_of::<PsTracker>() <= 64);

impl pfair_json::ToJson for PsTracker {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object()
            .field("wt", &self.wt)
            .field("total", &self.total())
            .field("now", &self.now)
            .field("suspensions", &*self.suspensions);
        w.end_object();
    }
}

impl pfair_json::FromJson for PsTracker {
    /// Re-validates the interval invariant `suspend_between` enforces:
    /// every suspension is non-empty (`from < until`).
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let suspensions: Vec<(Slot, Slot)> = value.field("suspensions")?;
        if suspensions.iter().any(|(from, until)| from >= until) {
            return Err(pfair_json::JsonError::new("empty I_PS suspension interval"));
        }
        let now = value.field("now")?;
        let total = Accumulator::from(value.field::<Rational>("total")?);
        Ok(PsTracker {
            suspensions: suspensions.into(),
            ..PsTracker::closed_form(value.field("wt")?, total, now, now)
        })
    }
}

impl PsTracker {
    /// A task of initial weight `wt` joining at `join_at`.
    ///
    /// # Panics
    /// Panics if `wt` is not a [`Weight`].
    pub fn new(wt: Rational, join_at: Slot) -> PsTracker {
        PsTracker::closed_form(Weight::new(wt), Accumulator::new(), join_at, join_at)
    }

    /// The tracker at `now` of a task that had `total` at `since` and
    /// has run at weight `wt` with no suspension since.
    pub(super) fn closed_form(wt: Weight, total: Accumulator, since: Slot, now: Slot) -> PsTracker {
        let mut ps = PsTracker {
            wt,
            total,
            per: 1,
            now,
            suspensions: ThinVec::new(),
        };
        ps.per = ps.total.per(Units::new(wt.denom()));
        ps.count(slots_since(since, now));
        ps
    }

    /// Whether this is the closed form at `since` from its own total:
    /// weight `w`, synchronized at `since`, and no suspension left, not
    /// even one that ends there.
    pub(super) fn is_closed_at(&self, w: Weight, since: Slot) -> bool {
        self.wt == w && self.now == since && self.suspensions.is_empty()
    }

    /// `A(I_PS, T, 0, now)` as the sum it is kept in.
    pub(super) fn sum(&self) -> &Accumulator {
        &self.total
    }

    /// Counts `slots` active slots at `wt` into the total.
    #[inline]
    fn count(&mut self, slots: i64) {
        let (rate, den) = (Units::new(self.wt.numer()), Units::new(self.wt.denom()));
        self.total.add_units_per(rate.times(slots), den, self.per);
    }

    /// Starts the next stay of a task that left, at weight `wt` from
    /// `join_at` on: the total carries over (Eqn (5)'s `A(I_PS, T, 0,
    /// t)` counts every stay) and the last stay's suspensions go. On a
    /// tracker that has counted nothing this is [`PsTracker::new`].
    ///
    /// # Panics
    /// Panics if `wt` is not a [`Weight`].
    pub fn rejoin(&mut self, wt: Rational, join_at: Slot) {
        let total = core::mem::take(&mut self.total);
        *self = PsTracker::closed_form(Weight::new(wt), total, join_at, join_at);
    }

    /// Suspends allocation for slots in `[from, until)` (IS separation:
    /// the task is between active subtasks there, so the instantaneous
    /// ideal owes it nothing). Intervals may lie in the future and may
    /// overlap; empty intervals are ignored.
    pub fn suspend_between(&mut self, from: Slot, until: Slot) {
        if from < until {
            self.suspensions.vec_mut().push((from, until));
        }
    }

    /// The current actual weight `wt(T, now)`.
    pub fn wt(&self) -> Rational {
        self.wt.value()
    }

    /// `A(I_PS, T, 0, now)`.
    #[inline]
    pub fn total(&self) -> Rational {
        self.total.finish()
    }

    /// The boundary the tracker has been synchronized to.
    #[inline]
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Initiates a weight change: slot allocations from the current slot
    /// onward use `wt`. (Under `I_PS`, initiation *is* enactment.)
    ///
    /// # Panics
    /// Panics if `wt` is not a [`Weight`].
    #[inline]
    pub fn set_wt(&mut self, wt: Rational) {
        self.wt = Weight::new(wt);
        self.per = self.total.per(Units::new(self.wt.denom()));
    }

    /// Slots of `[from, t)` that at least one suspension covers. The
    /// intervals are stored as they were requested — unordered, maybe
    /// overlapping — so their union is walked left to right in place:
    /// each round finds the first covered slot at or after the cursor
    /// and the furthest end among the intervals covering it.
    fn suspended_slots(&self, from: Slot, t: Slot) -> i64 {
        let mut suspended = 0;
        let mut cursor = from;
        while cursor < t {
            let first = self
                .suspensions
                .iter()
                .filter(|&&(_, until)| until > cursor)
                .map(|&(a, _)| a.max(cursor))
                .min();
            let Some(a) = first.filter(|&a| a < t) else {
                break;
            };
            let b = self
                .suspensions
                .iter()
                .filter(|&&(lo, hi)| lo <= a && a < hi)
                .map(|&(_, hi)| hi)
                .max()
                .map_or(t, |hi| hi.min(t));
            suspended += b - a;
            cursor = b;
        }
        suspended
    }

    /// Moves the tracker to boundary `t` and returns how many of the
    /// slots in `[now, t)` were active: O(suspensions) work instead of
    /// O(slots), and no arithmetic beyond counting. Callers change the
    /// weight only at synchronization boundaries (`set_wt` after
    /// advancing to the initiation slot), so `wt` is constant over the
    /// interval and the count is all either public form needs.
    #[inline]
    fn count_to(&mut self, t: Slot) -> i64 {
        assert!(t >= self.now, "cannot advance a tracker backwards"); // audit: allow(panic-reach, fluid trackers advance monotonically by construction, a violation is a tracker bug)
        if t == self.now {
            return 0;
        }
        let from = self.now;
        self.now = t;
        if self.suspensions.is_empty() {
            return t - from;
        }
        let suspended = self.suspended_slots(from, t);
        // Intervals entirely in the past can never matter again.
        if let Some(intervals) = self.suspensions.allocated_mut() {
            intervals.retain(|&(_, until)| until >= t);
        }
        (t - from) - suspended
    }

    /// Accrues all slots up to (but excluding) boundary `t` in one step
    /// without computing what they amount to — the form the scheduler
    /// engine synchronizes with: the slots are counted into the era sum
    /// and multiplied out when the weight changes or the total is read.
    ///
    /// # Panics
    /// Panics if `t` is behind the tracker's current slot.
    #[inline]
    pub fn sync_to(&mut self, t: Slot) {
        let slots = self.count_to(t);
        self.count(slots);
    }

    /// Accrues all slots up to (but excluding) boundary `t` in one step
    /// and returns the allocation added,
    /// `A(I_PS, T, now, t) = wt · |active slots in [now, t)|` — exactly
    /// the sum of one-slot jumps over the interval, which the
    /// equivalence proptests assert. The product is in hand here, so it
    /// goes straight into the total.
    ///
    /// # Panics
    /// Panics if `t` is behind the tracker's current slot.
    #[inline]
    pub fn advance_to(&mut self, t: Slot) -> Rational {
        let slots = self.count_to(t);
        self.count(slots);
        self.wt.value().mul_int(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    /// Fig. 7(b): X has weight 3/19 until time 8, then 2/5. Over [9, 11)
    /// it receives 4/5; over [0, 8) it receives 24/19.
    #[test]
    fn fig7_ps_allocations() {
        let mut ps = PsTracker::new(rat(3, 19), 0);
        for t in 0..8 {
            ps.advance_to(t + 1);
        }
        assert_eq!(ps.total(), rat(24, 19));
        ps.set_wt(rat(2, 5));
        let before_9 = {
            ps.advance_to(9);
            ps.total()
        };
        ps.advance_to(10);
        ps.advance_to(11);
        assert_eq!(ps.total() - before_9, rat(4, 5));
    }

    /// Fig. 8: T has weight 1/10 until time 4, then 1/2. By time 10 the
    /// I_PS total is 4·(1/10) + 6·(1/2) = 17/5, so with I_CSW = 1 the
    /// drift reaches 24/10.
    #[test]
    fn fig8_ps_total_at_10() {
        let mut ps = PsTracker::new(rat(1, 10), 0);
        for t in 0..4 {
            ps.advance_to(t + 1);
        }
        ps.set_wt(rat(1, 2));
        for t in 4..10 {
            ps.advance_to(t + 1);
        }
        assert_eq!(ps.total(), rat(17, 5));
        assert_eq!(ps.total() - Rational::ONE, rat(24, 10));
    }

    /// A late joiner accrues nothing before its join slot.
    #[test]
    fn late_join() {
        let mut ps = PsTracker::new(rat(1, 2), 10);
        assert_eq!(ps.now(), 10);
        ps.advance_to(11);
        assert_eq!(ps.total(), rat(1, 2));
    }
}

#[cfg(test)]
mod suspension_tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn suspension_zeroes_allocation() {
        let mut ps = PsTracker::new(rat(1, 2), 0);
        ps.advance_to(1);
        ps.suspend_between(1, 3);
        assert_eq!(ps.advance_to(2), Rational::ZERO);
        assert_eq!(ps.advance_to(3), Rational::ZERO);
        assert_eq!(ps.advance_to(4), rat(1, 2));
        assert_eq!(ps.total(), rat(1, 1));
    }

    #[test]
    fn suspensions_do_not_shorten() {
        let mut ps = PsTracker::new(rat(1, 2), 0);
        ps.suspend_between(0, 5);
        ps.suspend_between(0, 2); // no effect
        for t in 0..5 {
            assert_eq!(ps.advance_to(t + 1), Rational::ZERO);
        }
        assert_eq!(ps.advance_to(6), rat(1, 2));
    }
}

#[cfg(test)]
mod advance_to_tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn interval_jump_matches_per_slot() {
        // Fig. 7(b)'s schedule, advanced in two closed-form jumps.
        let mut batch = PsTracker::new(rat(3, 19), 0);
        assert_eq!(batch.advance_to(8), rat(24, 19));
        batch.set_wt(rat(2, 5));
        batch.advance_to(11);

        let mut oracle = PsTracker::new(rat(3, 19), 0);
        for t in 0..8 {
            oracle.advance_to(t + 1);
        }
        oracle.set_wt(rat(2, 5));
        for t in 8..11 {
            oracle.advance_to(t + 1);
        }
        assert_eq!(batch.total(), oracle.total());
        assert_eq!(batch.now(), oracle.now());
    }

    #[test]
    fn overlapping_suspensions_counted_once() {
        let mut batch = PsTracker::new(rat(1, 2), 0);
        batch.suspend_between(2, 6);
        batch.suspend_between(4, 8);
        batch.suspend_between(20, 25); // entirely beyond the jump
        assert_eq!(batch.advance_to(10), rat(2, 1)); // 4 active slots

        let mut oracle = PsTracker::new(rat(1, 2), 0);
        oracle.suspend_between(2, 6);
        oracle.suspend_between(4, 8);
        oracle.suspend_between(20, 25);
        for t in 0..10 {
            oracle.advance_to(t + 1);
        }
        assert_eq!(batch.total(), oracle.total());
        // The future interval must still suspend slots 20..25.
        batch.advance_to(25);
        for t in 10..25 {
            oracle.advance_to(t + 1);
        }
        assert_eq!(batch.total(), oracle.total());
    }

    #[test]
    fn empty_jump_is_a_no_op() {
        let mut ps = PsTracker::new(rat(1, 3), 7);
        assert_eq!(ps.advance_to(7), Rational::ZERO);
        assert_eq!(ps.total(), Rational::ZERO);
        assert_eq!(ps.now(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot advance a tracker backwards")]
    fn backwards_jump_panics() {
        let mut ps = PsTracker::new(rat(1, 3), 7);
        ps.advance_to(3);
    }

    /// Equality and the interchange form agree whether the era sum's base
    /// is zero or not: a decoded tracker equals the original and
    /// re-renders to the same bytes, and equals one that reached the
    /// same total along another split.
    #[test]
    fn era_sum_base_agrees_across_json_zero_or_not() {
        use pfair_json::{FromJson, Json, ToJson};
        let round_trip = |ps: &PsTracker| {
            let text = ps.to_json_compact();
            let back = PsTracker::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, ps);
            assert_eq!(back.to_json_compact(), text);
        };
        let mut ps = PsTracker::new(rat(3, 19), 0);
        round_trip(&ps);
        ps.sync_to(8);
        // All of it counted in nineteenths.
        assert_eq!((ps.total.unit(), ps.total()), (Units::new(19), rat(24, 19)));
        round_trip(&ps);
        ps.set_wt(rat(2, 5));
        // Counting in 95ths now: 24/19 recounted, nothing folded.
        assert_eq!((ps.total.unit(), ps.total()), (Units::new(95), rat(24, 19)));
        assert!(!ps.total.is_folded());
        ps.sync_to(10);
        round_trip(&ps);
        let mut stepped = PsTracker::new(rat(3, 19), 0);
        stepped.advance_to(8);
        stepped.set_wt(rat(2, 5));
        stepped.advance_to(10);
        assert_eq!(stepped, ps);
    }
}
