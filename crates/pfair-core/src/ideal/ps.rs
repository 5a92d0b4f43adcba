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
use crate::rational::Rational;
use crate::time::Slot;

/// Incremental `I_PS` allocation of a single task.
///
/// The running total is an *era sum*: a canonical base plus a count of
/// active slots accrued at the current weight and not yet multiplied
/// out. [`PsTracker::sync_to`] only counts slots; the one multiply and
/// the gcds of an exact add happen when the weight changes
/// ([`PsTracker::set_wt`]) and where the total is read. Two trackers are
/// equal when they hold the same values, however each splits its total.
#[derive(Clone, Debug)]
pub struct PsTracker {
    wt: Rational,
    /// `A(I_PS, T, 0, now)` less the slots counted in `active`.
    base: Rational,
    /// Active (unsuspended) slots accrued at `wt` and not yet in `base`.
    active: i64,
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
            && self.total() == other.total()
    }
}

impl Eq for PsTracker {}

impl pfair_json::ToJson for PsTracker {
    fn to_json(&self) -> pfair_json::Json {
        pfair_json::obj([
            ("wt", self.wt.to_json()),
            ("total", self.total().to_json()),
            ("now", self.now.to_json()),
            ("suspensions", self.suspensions.to_vec().to_json()),
        ])
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
        Ok(PsTracker {
            wt: value.field("wt")?,
            base: value.field("total")?,
            active: 0,
            now: value.field("now")?,
            suspensions: suspensions.into(),
        })
    }
}

impl PsTracker {
    /// A task of initial weight `wt` joining at `join_at`.
    pub fn new(wt: Rational, join_at: Slot) -> PsTracker {
        PsTracker {
            wt,
            base: Rational::ZERO,
            active: 0,
            now: join_at,
            suspensions: ThinVec::new(),
        }
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
        self.wt
    }

    /// `A(I_PS, T, 0, now)`.
    pub fn total(&self) -> Rational {
        if self.active == 0 {
            return self.base;
        }
        self.base + self.wt.mul_int(self.active)
    }

    /// The next slot `advance` will process.
    #[inline]
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Initiates a weight change: slot allocations from the current slot
    /// onward use `wt`. (Under `I_PS`, initiation *is* enactment.)
    #[inline]
    pub fn set_wt(&mut self, wt: Rational) {
        if self.active != 0 {
            self.base = self.total();
            self.active = 0;
        }
        self.wt = wt;
    }

    /// Accrues slot `t`'s allocation (`wt(T, t) · 1`, or zero while
    /// suspended).
    pub fn advance(&mut self, t: Slot) -> Rational {
        assert_eq!(t, self.now, "slots must be advanced in order"); // audit: allow(panic-reach, fluid trackers advance monotonically by construction, a violation is a tracker bug)
        self.advance_to(t + 1)
    }

    /// The steady busy-span question: is `later` this tracker one period
    /// on — `now` and every suspension bound `ds` later, the weight and
    /// the total's base as they were? If so, returns how many active
    /// slots the era sum gained; `None` on any other difference.
    /// Compares in place and builds nothing.
    pub fn gain_over_shift(&self, later: &PsTracker, ds: Slot) -> Option<i64> {
        let on = |(a, b): (Slot, Slot)| Some((a.checked_add(ds)?, b.checked_add(ds)?));
        let same = self.wt == later.wt
            && self.base == later.base
            && self.now.checked_add(ds) == Some(later.now)
            && self.suspensions.len() == later.suspensions.len()
            && (self.suspensions.iter().zip(later.suspensions.iter()))
                .all(|(&a, &b)| on(a) == Some(b));
        later.active.checked_sub(self.active).filter(|_| same)
    }

    /// Whether [`PsTracker::shift`] by these amounts stays in range.
    pub fn shift_fits(&self, ds: Slot, gain: i64) -> bool {
        self.now.checked_add(ds).is_some()
            && self.active.checked_add(gain).is_some()
            && (self.suspensions.iter()).all(|&(_, until)| until.checked_add(ds).is_some())
    }

    /// Moves the tracker `ds` slots and `gain` active slots on, in
    /// place: `k` steady periods at once, given `k` times what
    /// [`PsTracker::gain_over_shift`] reported for one. Returns `false`,
    /// having changed nothing, if a shifted field would overflow
    /// ([`PsTracker::shift_fits`]).
    #[must_use]
    pub fn shift(&mut self, ds: Slot, gain: i64) -> bool {
        if !self.shift_fits(ds, gain) {
            return false;
        }
        self.now += ds;
        self.active += gain;
        for (from, until) in self.suspensions.iter_mut() {
            *from += ds;
            *until += ds;
        }
        true
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
        self.active += self.count_to(t);
    }

    /// Accrues all slots up to (but excluding) boundary `t` in one step
    /// and returns the allocation added,
    /// `A(I_PS, T, now, t) = wt · |active slots in [now, t)|` — exactly
    /// the sum of [`PsTracker::advance`] called once per slot, which the
    /// equivalence proptests assert. The product is in hand here, so it
    /// goes straight into the total.
    ///
    /// # Panics
    /// Panics if `t` is behind the tracker's current slot.
    #[inline]
    pub fn advance_to(&mut self, t: Slot) -> Rational {
        let added = self.wt.mul_int(self.count_to(t));
        self.base += added;
        added
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
            ps.advance(t);
        }
        assert_eq!(ps.total(), rat(24, 19));
        ps.set_wt(rat(2, 5));
        let before_9 = {
            ps.advance(8);
            ps.total()
        };
        ps.advance(9);
        ps.advance(10);
        assert_eq!(ps.total() - before_9, rat(4, 5));
    }

    /// Fig. 8: T has weight 1/10 until time 4, then 1/2. By time 10 the
    /// I_PS total is 4·(1/10) + 6·(1/2) = 17/5, so with I_CSW = 1 the
    /// drift reaches 24/10.
    #[test]
    fn fig8_ps_total_at_10() {
        let mut ps = PsTracker::new(rat(1, 10), 0);
        for t in 0..4 {
            ps.advance(t);
        }
        ps.set_wt(rat(1, 2));
        for t in 4..10 {
            ps.advance(t);
        }
        assert_eq!(ps.total(), rat(17, 5));
        assert_eq!(ps.total() - Rational::ONE, rat(24, 10));
    }

    /// A late joiner accrues nothing before its join slot.
    #[test]
    fn late_join() {
        let mut ps = PsTracker::new(rat(1, 2), 10);
        assert_eq!(ps.now(), 10);
        ps.advance(10);
        assert_eq!(ps.total(), rat(1, 2));
    }

    #[test]
    #[should_panic(expected = "slots must be advanced in order")]
    fn out_of_order_panics() {
        let mut ps = PsTracker::new(rat(1, 2), 0);
        ps.advance(1);
    }
}

#[cfg(test)]
mod suspension_tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn suspension_zeroes_allocation() {
        let mut ps = PsTracker::new(rat(1, 2), 0);
        ps.advance(0);
        ps.suspend_between(1, 3);
        assert_eq!(ps.advance(1), Rational::ZERO);
        assert_eq!(ps.advance(2), Rational::ZERO);
        assert_eq!(ps.advance(3), rat(1, 2));
        assert_eq!(ps.total(), rat(1, 1));
    }

    #[test]
    fn suspensions_do_not_shorten() {
        let mut ps = PsTracker::new(rat(1, 2), 0);
        ps.suspend_between(0, 5);
        ps.suspend_between(0, 2); // no effect
        for t in 0..5 {
            assert_eq!(ps.advance(t), Rational::ZERO);
        }
        assert_eq!(ps.advance(5), rat(1, 2));
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
            oracle.advance(t);
        }
        oracle.set_wt(rat(2, 5));
        for t in 8..11 {
            oracle.advance(t);
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
            oracle.advance(t);
        }
        assert_eq!(batch.total(), oracle.total());
        // The future interval must still suspend slots 20..25.
        batch.advance_to(25);
        for t in 10..25 {
            oracle.advance(t);
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
}

/// The busy-span pair: [`PsTracker::shift`] builds the image of a
/// tracker under `(ds, gain)` in place and
/// [`PsTracker::gain_over_shift`] recognizes exactly that image.
#[cfg(test)]
mod shift_tests {
    use super::*;
    use crate::rational::rat;
    use proptest::prelude::*;

    /// A tracker some way into a run: suspensions past and future (some
    /// overlapping), a weight change, a few slots counted at the new
    /// weight.
    fn arb_tracker() -> impl Strategy<Value = PsTracker> {
        (
            (1i128..=5, 2i128..=12),
            prop::collection::vec((0i64..60, 1i64..20), 0..4),
            (0i64..40, 0i64..10),
        )
            .prop_map(|((num, den), suspensions, (first, then))| {
                let mut ps = PsTracker::new(rat(num.min(den), den), 3);
                for (from, len) in suspensions {
                    ps.suspend_between(3 + from, 3 + from + len);
                }
                ps.sync_to(3 + first);
                ps.set_wt(rat(1, den + 1));
                ps.sync_to(3 + first + then);
                ps
            })
    }

    proptest! {
        #[test]
        fn shift_then_predicate_returns_the_gain(
            ps in arb_tracker(),
            ds in 0i64..5_000,
            gain in 0i64..1_000_000,
        ) {
            let mut image = ps.clone();
            prop_assert!(image.shift(ds, gain));
            prop_assert_eq!(ps.gain_over_shift(&image, ds), Some(gain));
            prop_assert_eq!(image.total(), ps.total() + ps.wt().mul_int(gain));
            prop_assert_eq!(ps.gain_over_shift(&image, ds + 1), None);
            let mut wrong: Vec<(&str, PsTracker)> = Vec::new();
            let mut with = |what, edit: &dyn Fn(&mut PsTracker)| {
                let mut t = image.clone();
                edit(&mut t);
                wrong.push((what, t));
            };
            with("wt", &|t| t.wt += rat(1, 64));
            with("base", &|t| t.base += rat(1, 64));
            with("now", &|t| t.now += 1);
            with("a suspension more", &|t| t.suspend_between(t.now + 5, t.now + 6));
            for i in 0..image.suspensions.len() {
                with("suspension start", &|t| t.suspensions[i].0 -= 1);
                with("suspension end", &|t| t.suspensions[i].1 += 1);
            }
            for (what, wrong) in wrong {
                prop_assert_eq!(ps.gain_over_shift(&wrong, ds), None, "perturbed {}", what);
            }
            // An overflowing shift is refused whole.
            let mut stays = ps.clone();
            prop_assert!(!stays.shift(Slot::MAX, 0));
            prop_assert!(ps.active == 0 || !stays.shift(0, i64::MAX));
            prop_assert_eq!(ps.gain_over_shift(&stays, 0), Some(0));
        }
    }
}
