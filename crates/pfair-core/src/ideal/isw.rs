//! Incremental computation of the `I_SW` ideal schedule (Fig. 5) for one
//! task, with the bookkeeping needed to derive `I_CSW` from it.
//!
//! The pseudo-code of Fig. 5 defines the per-slot allocation to subtask
//! `T_i` at slot `t`:
//!
//! ```text
//! if t < r(T_i) or t ≥ D(I_SW, T_i):            0
//! else if t = r(T_i):
//!     if i = Id(T_i) or b(T_{i−1}) = 0:          swt(T, t)
//!     else:                                      swt(T, t) − A(I_SW, T_{i−1}, D(T_{i−1}) − 1)
//! else:                                          min(swt(T, t), 1 − A(I_SW, T_i, 0, t))
//! ```
//!
//! `D(I_SW, T_i)` — the completion time — is *discovered*, not
//! predicted: it is the first slot boundary at which the subtask's
//! cumulative allocation reaches one quantum, or the halt time for a
//! halted subtask. The reweighting rules only consult it after the fact
//! (paper §3.2), which is exactly what this incremental tracker
//! provides: [`IswTracker::advance_to`] processes any run of slots in
//! one closed-form jump and reports completions in the order they
//! happen.
//!
//! `I_CSW` (the clairvoyant variant) equals `I_SW` minus every
//! allocation made to a subtask that is halted before `I_SW` completes
//! it. A rule-O reweight halts the last-released subtask; a leave and
//! an LJ reweight halt every subtask PD² has not scheduled, and of a
//! tardy task some of those `I_SW` has already completed. Such a
//! subtask has nothing left to halt: its quantum stays in `I_CSW`, and
//! [`IswTracker::halt`] takes back zero (DESIGN.md, "Halting a tardy
//! subtask"). At an era boundary `u` every subtask of the earlier eras
//! is complete or halted in `I_SW` (the rules enact no earlier), so no
//! later halt changes `A(I_CSW, T, 0, u)` — the tracker simply
//! maintains the running total of "lost" allocations. The per-slot
//! breakdown a history run reports is read off the independent
//! [`IswReference`](super::reference::IswReference) instead.

use super::Bases;
use crate::arena::InlineVec;
use crate::rational::{Accumulator, Rational, Units};
use crate::time::{ever, slot_from_i128, slots_since, Slot, NEVER};
use crate::weight::Weight;
use crate::window::{b_bit, periodic_release, periodic_window, window_in_era};

/// Emitted by [`IswTracker::advance_to`] when a subtask's cumulative
/// `I_SW` allocation reaches one quantum during the processed slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletionEvent {
    /// Subtask index `i` of `T_i`.
    pub index: u64,
    /// `D(I_SW, T_i)`: the slot boundary at which the subtask completed
    /// (one past the slot in which its allocation reached 1).
    pub complete_at: Slot,
    /// The allocation the subtask received in its final slot
    /// `D(I_SW, T_i) − 1` — the quantity line 7 of Fig. 5 subtracts from
    /// the successor's release-slot allocation.
    pub final_slot_alloc: Rational,
}

/// One subtask as `I_SW` follows it: six words, three to a tracker
/// inline. `const`-asserted below, so a new field cannot silently
/// outgrow it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct IswSub {
    index: u64,
    release: Slot,
    /// How the release-slot allocation is computed (line 4 of Fig. 5).
    /// `0`: the subtask opens an era or follows a `b = 0` predecessor and
    /// gets the full `swt`. Otherwise it shares its release slot with the
    /// final slot of the `b = 1` predecessor `T_{index − pred_gap}` and
    /// gets `swt` minus that predecessor's final-slot allocation, which
    /// is known by then: the predecessor completes no later than the
    /// successor's release slot.
    pred_gap: u64,
    /// In the tracker's era units: `A(I_SW, T_i, 0, now)` until the
    /// subtask completes; from then on that is exactly one quantum and
    /// this holds the allocation of the final slot `D(I_SW, T_i) − 1`
    /// instead (the two are never needed together).
    alloc: Units,
    /// `D(I_SW, T_i)`; [`NEVER`] while incomplete.
    complete_at: Slot,
    /// `H(T_i)`; [`NEVER`] if not halted.
    halted_at: Slot,
}

const _: () = assert!(core::mem::size_of::<IswSub>() <= 48);

impl IswSub {
    fn is_complete(&self) -> bool {
        self.complete_at != NEVER
    }

    /// Complete or halted: `I_SW` allocates nothing more to it.
    fn is_retired(&self) -> bool {
        self.is_complete() || self.halted_at != NEVER
    }

    /// `A(I_SW, T_i, 0, now)`, for `alloc` counted in `unit`s.
    fn cum(&self, unit: Units) -> Rational {
        if self.is_complete() {
            Rational::ONE
        } else {
            self.alloc.over(unit)
        }
    }
}

/// The era unit of a tracker whose weight has the reduced denominator
/// `swt` and whose retained allocations have the reduced denominators
/// `allocs`: their least common multiple (DESIGN.md, "The era-unit
/// invariant"), so a function of the values alone. `None` if a
/// denominator or the unit does not fit `i64`.
fn era_unit(swt: Option<Units>, allocs: impl IntoIterator<Item = Option<Units>>) -> Option<Units> {
    (allocs.into_iter()).try_fold(swt?, |unit, den| unit.checked_lcm(den?))
}

/// The interchange form of one subtask, whatever the record in memory
/// looks like. Allocations travel as rationals; the decoded record's
/// `alloc` is filled in once the tracker's unit is known.
struct SubImage {
    sub: IswSub,
    /// `sub.alloc` as a value: cumulative, or final-slot once complete.
    alloc: Rational,
}

impl pfair_json::ToJson for SubImage {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        let sub = &self.sub;
        let pred = (sub.pred_gap != 0).then(|| sub.index - sub.pred_gap);
        let (cum, final_slot_alloc) = if sub.is_complete() {
            (Rational::ONE, self.alloc)
        } else {
            (self.alloc, Rational::ZERO)
        };
        w.begin_object()
            .field("index", &sub.index)
            .field("release", &sub.release)
            .field("pred", &pred)
            .field("cum", &cum)
            .field("complete_at", &ever(sub.complete_at))
            .field("final_slot_alloc", &final_slot_alloc)
            .field("halted_at", &sub.halted_at);
        w.end_object();
    }
}

impl pfair_json::FromJson for SubImage {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let index: u64 = value.field("index")?;
        let pred: Option<u64> = value.field("pred")?;
        let pred_gap = match pred {
            None => 0,
            Some(p) if p < index => index - p,
            Some(_) => {
                return Err(pfair_json::JsonError::new(
                    "I_SW predecessor index must precede the subtask",
                ))
            }
        };
        let in_a_quantum = |r: Rational| !r.is_negative() && r <= Rational::ONE;
        let cum: Rational = value.field("cum")?;
        if !in_a_quantum(cum) {
            return Err(pfair_json::JsonError::new(
                "I_SW cumulative allocation outside [0, 1]",
            ));
        }
        let complete_at: Option<Slot> = value.field("complete_at")?;
        if complete_at.is_some() && cum != Rational::ONE {
            return Err(pfair_json::JsonError::new(
                "completed I_SW subtask must hold exactly one quantum",
            ));
        }
        let final_slot_alloc: Rational = value.field("final_slot_alloc")?;
        if complete_at.is_none() && !final_slot_alloc.is_zero() {
            return Err(pfair_json::JsonError::new(
                "incomplete I_SW subtask with a final-slot allocation",
            ));
        }
        if !in_a_quantum(final_slot_alloc) {
            return Err(pfair_json::JsonError::new(
                "I_SW final-slot allocation outside [0, 1]",
            ));
        }
        Ok(SubImage {
            sub: IswSub {
                index,
                release: value.field("release")?,
                pred_gap,
                alloc: Units::ZERO,
                complete_at: complete_at.unwrap_or(NEVER),
                halted_at: value.field("halted_at")?,
            },
            alloc: if complete_at.is_some() {
                final_slot_alloc
            } else {
                cum
            },
        })
    }
}

impl pfair_json::ToJson for IswTracker {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        let unit = self.unit();
        w.begin_object().field("swt", &self.swt()).key("subs");
        w.begin_array();
        for &sub in &self.subs {
            SubImage {
                sub,
                alloc: sub.alloc.over(unit),
            }
            .write_json(w);
        }
        w.end_array();
        w.field("total", &self.isw_total())
            .field("halted_loss", &self.lost.finish())
            .field("now", &self.now);
        w.end_object();
    }
}

impl pfair_json::FromJson for IswTracker {
    /// Re-validates the tracker invariants the methods rely on: subtasks
    /// strictly index-sorted, allocations inside `[0, 1]` (checked per
    /// subtask), completion implying a full quantum — and derives the
    /// era unit from the decoded values as the live tracker does, so a
    /// unit or a count beyond `i64` is a decoding error.
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let images: Vec<SubImage> = value.field("subs")?;
        if images.windows(2).any(|w| w[0].sub.index >= w[1].sub.index) {
            return Err(pfair_json::JsonError::new(
                "I_SW subtasks out of index order",
            ));
        }
        let swt: Rational = value.field("swt")?;
        let allocs = images.iter().map(|i| Units::checked_denom(i.alloc));
        let unit = era_unit(Units::checked_denom(swt), allocs)
            .ok_or_else(|| pfair_json::JsonError::new("I_SW era unit exceeds the i64 range"))?;
        let count = |r: Rational| {
            Units::checked_of(r, unit)
                .ok_or_else(|| pfair_json::JsonError::new("I_SW quantity exceeds the i64 range"))
        };
        let mut total = Accumulator::from(value.field::<Rational>("total")?);
        let per = total.per(unit);
        let mut lost = Accumulator::from(value.field::<Rational>("halted_loss")?);
        lost.refine(total.unit());
        Ok(IswTracker {
            rate: count(swt)?,
            subs: images
                .iter()
                .map(|i| {
                    Ok(IswSub {
                        alloc: count(i.alloc)?,
                        ..i.sub
                    })
                })
                .collect::<Result<_, pfair_json::JsonError>>()?,
            total,
            lost,
            unit,
            per,
            now: value.field("now")?,
        })
    }
}

/// Incremental `I_SW` schedule of a single task.
///
/// Usage protocol (driven by the scheduler engine):
/// 1. [`IswTracker::set_swt`] whenever a weight change is *enacted*;
/// 2. [`IswTracker::add_subtask`] at (or before) each subtask release;
/// 3. [`IswTracker::halt`] when a reweighting rule or a leave halts an
///    unscheduled subtask;
/// 4. [`IswTracker::sync_to`] / [`IswTracker::advance_to`] across any
///    run of slots between two of the calls above, in slot order.
///
/// The tracker computes in **era units** (DESIGN.md, "The era-unit
/// invariant"): it counts in the least positive `unit` such that the
/// scheduling weight and every retained per-subtask allocation is an
/// integer number of `1/unit`s, which every Fig. 5 allocation until the
/// next `set_swt` then is too. Allocations are [`Units`] counts, and a
/// [`Rational`] is built only where a value is read. The unit is a
/// function of the values, so two trackers holding the same values
/// count alike, and equality is equality of values. The running total
/// and the halted loss are [`Accumulator`]s, refined to every era unit
/// the tracker counts in: they count in a multiple of the unit, and
/// stay that fine when the unit sheds.
///
/// A task that has kept one weight since it joined, or since its
/// current era settled, needs no tracker at all: from the sums of its
/// earlier eras, [`IswTracker::closed_form`] is the one it would hold.
#[derive(Clone, Debug)]
pub struct IswTracker {
    /// `swt(T, now)` in era units.
    rate: Units,
    /// Index-sorted. `retire` keeps two retired subtasks plus the live
    /// ones — three in steady state — so the records stay inline.
    subs: InlineVec<IswSub, 3>,
    /// `A(I_SW, T, 0, now)`.
    total: Accumulator,
    /// Σ over halted subtasks of their lost allocation, refined along
    /// with `total`, so the two count in one unit until a fold.
    lost: Accumulator,
    /// The era unit.
    unit: Units,
    /// `total`'s units per era unit ([`Accumulator::per`]), kept so a
    /// jump's add divides nothing.
    per: i64,
    /// The boundary the tracker has been synchronized to: every slot
    /// before it is processed.
    now: Slot,
}

const _: () = assert!(core::mem::size_of::<IswTracker>() <= 256);

impl PartialEq for IswTracker {
    /// By value: `per` follows from how the sums came to count as they
    /// do, which two equal trackers need not share.
    fn eq(&self, other: &IswTracker) -> bool {
        (self.rate, self.unit, self.now) == (other.rate, other.unit, other.now)
            && self.subs == other.subs
            && self.total == other.total
            && self.lost == other.lost
    }
}

impl Eq for IswTracker {}

impl IswTracker {
    /// Creates a tracker for a task whose first enacted weight is `swt`
    /// and which joins at slot `join_at` (no slots before `join_at` are
    /// processed).
    ///
    /// # Panics
    /// Panics if `swt`'s denominator does not fit `i64` (the documented
    /// `Rational` overflow contract).
    pub fn new(swt: Rational, join_at: Slot) -> IswTracker {
        let unit = Units::denom(swt);
        let mut total = Accumulator::new();
        total.refine(unit);
        IswTracker {
            rate: Units::of(swt, unit),
            subs: InlineVec::new(),
            lost: total.clone(),
            total,
            unit,
            per: 1,
            now: join_at,
        }
    }

    /// Starts the next stay of a task that left: the last stay's
    /// subtasks go, allocation resumes at `join_at` under `swt`, and the
    /// `I_SW` total and the halted loss carry over, so the totals are
    /// Eqn (5)'s `A(·, T, 0, t)` across every stay. On a tracker that has
    /// counted nothing this is [`IswTracker::new`].
    ///
    /// # Panics
    /// As [`IswTracker::set_swt`].
    pub fn rejoin(&mut self, swt: Rational, join_at: Slot) {
        self.subs = InlineVec::new();
        self.now = join_at;
        self.set_swt(swt);
    }

    /// The tracker at `now` of a task to which nothing but releases
    /// happened since the release at `bases.since`: weight `w`, its era
    /// numbering subtasks from `era_base + 1`, `T_{era_base + 1} …
    /// T_{next_index − 1}` released on the periodic windows of a task of
    /// weight `w` joining at `anchor`, synchronized at each release the
    /// way the engine does and last at `now`. The total and the halted
    /// loss carry over from `bases`; the unit is `w`'s denominator.
    ///
    /// On such a grid Fig. 5 gives exactly `w` per slot, because Eqn (4)
    /// releases the rank-`(k + 1)` subtask no later than the rank-`k`
    /// one completes: that one collects its quantum over `[anchor + (k −
    /// 1)/w, anchor + k/w)` and completes at `D(I_SW) = anchor +
    /// ⌈k/w⌉`, its deadline `d`. So a record released before `now` is
    /// complete iff `d ≤ now`, keeping its final slot's `k − w · (d − 1
    /// − anchor)`, or holds `w · (now − anchor) − (k − 1)`; one released
    /// at `now` holds nothing yet; and the total grows by `w · (now −
    /// bases.since)`. Which records `retire` keeps does not depend on
    /// where the syncs between releases fell: each drops a prefix of
    /// what the last one drops.
    ///
    /// # Panics
    /// If a count overflows `i64` (the engine's arithmetic budget bounds
    /// every one of them), or `now` is before `bases.since`.
    pub fn closed_form(
        w: Weight,
        bases: &Bases,
        anchor: Slot,
        era_base: u64,
        next_index: u64,
        now: Slot,
    ) -> IswTracker {
        let mut tr = IswTracker {
            rate: Units::ZERO,
            subs: InlineVec::new(),
            total: Accumulator::new(),
            lost: Accumulator::new(),
            unit: Units::new(1),
            per: 1,
            now,
        };
        tr.become_closed_form(w, bases, anchor, era_base, next_index, now);
        tr
    }

    /// Writes [`IswTracker::closed_form`] over this tracker where it
    /// stands: each field in place, no tracker built and moved.
    ///
    /// # Panics
    /// As [`IswTracker::closed_form`].
    pub(super) fn become_closed_form(
        &mut self,
        w: Weight,
        bases: &Bases,
        anchor: Slot,
        era_base: u64,
        next_index: u64,
        now: Slot,
    ) {
        let (unit, rate) = (Units::new(w.denom()), Units::new(w.numer()));
        self.total.clone_from(&bases.isw_total);
        self.per = self.total.per(unit);
        let grown = rate.times(slots_since(bases.since, now));
        self.total.add_units_per(grown, unit, self.per);
        self.lost.clone_from(&bases.halted_loss);
        self.rate = rate;
        self.unit = unit;
        self.now = now;
        self.subs.drop_front(self.subs.len());
        for sub in grid_records(w, anchor, era_base, next_index, now) {
            self.subs.push_back(sub);
        }
    }

    /// Whether, synchronized at a release on the grid of
    /// [`IswTracker::closed_form`], the tracker holds what the closed form
    /// from its own sums would: weight `w` counted in `w`'s denominator,
    /// and the grid's records and nothing else. The sums are the
    /// closed form's by construction, so nothing is reduced and no
    /// tracker is built: the records are compared as the grid yields
    /// them.
    pub(super) fn is_grid(&self, w: Weight, anchor: Slot, era_base: u64, next_index: u64) -> bool {
        if self.unit() != Units::new(w.denom()) || self.rate != Units::new(w.numer()) {
            return false;
        }
        let mut mine = self.subs.iter();
        grid_records(w, anchor, era_base, next_index, self.now).all(|r| mine.next() == Some(&r))
            && mine.next().is_none()
    }

    /// `A(I_SW, T, 0, now)` as the sum it is kept in.
    pub(super) fn sum(&self) -> &Accumulator {
        &self.total
    }

    /// What halted subtasks were allocated, `A(I_SW) − A(I_CSW)`, as the
    /// sum it is kept in.
    pub(super) fn halted_loss(&self) -> &Accumulator {
        &self.lost
    }

    /// `A(I_CSW, T, 0, now)` as a sum: the total less the halted loss,
    /// one integer difference while the loss counts in a divisor of the
    /// total's unit and neither has folded.
    pub(super) fn icsw_sum(&self) -> Accumulator {
        let mut icsw = self.total.clone();
        match self.lost.counted() {
            Some((lost, _)) if lost.is_zero() => {}
            Some((lost, unit)) => icsw.add_units(Units::ZERO - lost, unit),
            None => icsw = Accumulator::from(self.icsw_total()),
        }
        icsw
    }

    /// Whether no record of an era before `era_base + 1`'s is retained.
    pub fn holds_only_era(&self, era_base: u64) -> bool {
        self.subs.iter().all(|s| s.index > era_base)
    }

    /// The era unit: the least common multiple of `den(swt)` and the
    /// reduced denominators of the retained allocations, so every
    /// allocation the tracker holds or hands out before the next
    /// [`IswTracker::set_swt`] is a multiple of `1/unit`. The unit that
    /// enactment derives divides `lcm(den(swt), unit)`, which is what the
    /// engine's arithmetic budget bounds.
    pub fn unit(&self) -> Units {
        self.unit
    }

    /// The current scheduling weight `swt(T, now)`.
    pub fn swt(&self) -> Rational {
        self.rate.over(self.unit())
    }

    /// The boundary the tracker has been synchronized to.
    #[inline]
    pub fn now(&self) -> Slot {
        self.now
    }

    /// `A(I_SW, T, 0, now)`.
    #[inline]
    pub fn isw_total(&self) -> Rational {
        self.total.finish()
    }

    /// `A(I_CSW, T, 0, now)`: the `I_SW` total minus everything granted
    /// to subtasks that have (so far) halted. Exact at era boundaries —
    /// see the module docs for why no later halt can invalidate it.
    #[inline]
    pub fn icsw_total(&self) -> Rational {
        self.total.minus(&self.lost)
    }

    /// Enacts a weight change: allocations from the current slot onward
    /// use `swt`.
    ///
    /// The era unit is re-derived here for the new weight, and again at
    /// the end of every synchronization that drops records
    /// ([`IswTracker::unit`]), so whatever an earlier era contributed is
    /// shed as soon as no retained record carries it.
    ///
    /// Every value counts whole in `lcm(unit, den(swt))`, so the tracker
    /// recounts into that (one multiply a value) and then sheds what the
    /// new values do not need, as a synchronization does; only when
    /// that lcm passes `i64` are the values' denominators taken one by
    /// one.
    ///
    /// # Panics
    /// Panics if the unit overflows `i64` (the documented `Rational`
    /// overflow contract).
    pub fn set_swt(&mut self, swt: Rational) {
        let old = self.unit();
        let fine = Units::checked_denom(swt).and_then(|den| old.checked_lcm(den));
        let fine = fine.or_else(|| {
            let allocs = self.subs.iter().map(|s| Some(s.alloc.denom_over(old)));
            era_unit(Units::checked_denom(swt), allocs)
        });
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let unit = fine.expect("Rational mul overflow");
        self.total.refine(unit);
        self.lost.refine(self.total.unit());
        self.recount(unit);
        self.rate = Units::of(swt, unit);
        self.shed();
    }

    /// Counts the retained allocations in `unit`, a multiple of every
    /// allocation's reduced denominator and a divisor of the sums' unit,
    /// which stays a multiple of every unit the tracker has counted in.
    fn recount(&mut self, unit: Units) {
        let old = self.unit;
        for s in &mut self.subs {
            s.alloc = s.alloc.rescaled(old, unit);
        }
        self.unit = unit;
        self.per = self.total.per(unit);
    }

    /// Registers subtask `T_index` with the given release slot.
    ///
    /// `era_first` is `i = Id(T_i)` — true when this is the first subtask
    /// released after an enacted weight change (including the join).
    /// `pred_b` is `b(T_{i−1})` of its (non-halted) predecessor, ignored
    /// when `era_first`.
    ///
    /// # Panics
    /// Panics if subtasks are added out of index order or with a release
    /// before an already-processed slot.
    // `always`: with the hint alone the release path keeps this out of
    // line in `Engine<P>::step_slot` (DESIGN.md "One quantum").
    #[inline(always)]
    pub fn add_subtask(&mut self, index: u64, release: Slot, era_first: bool, pred_b: bool) {
        // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        assert!(
            release >= self.now,
            "subtask {} released at {} but slot {} already processed",
            index,
            release,
            self.now
        );
        let pred_gap = if era_first || !pred_b {
            0
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "predecessor is recorded at release and retained until its successor retires"
            )]
            let pred = self
                .subs
                .iter()
                .rev()
                .find(|s| s.index < index && s.halted_at == NEVER)
                .map(|s| s.index)
                .expect("non-era-first subtask with b=1 predecessor must have a live predecessor");
            index - pred
        };
        if let Some(last) = self.subs.back() {
            // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
            assert!(last.index < index, "subtasks must be added in index order");
        }
        self.subs.push_back(IswSub {
            index,
            release,
            pred_gap,
            alloc: Units::ZERO,
            complete_at: NEVER,
            halted_at: NEVER,
        });
    }

    /// Halts subtask `T_index` at time `t` (the current slot boundary).
    /// Returns what `I_SW` had granted it and still allocates, which
    /// `I_CSW` treats as never allocated: `A(I_SW, T_index, 0, t)` for
    /// an incomplete subtask, zero for one `I_SW` has completed — a
    /// tardy subtask's quantum stays in `I_CSW`. A retained record is
    /// marked halted either way; one `retire` has dropped is complete.
    ///
    /// # Panics
    /// Panics if the subtask is already halted — the engine halts a
    /// subtask at most once.
    pub fn halt(&mut self, index: u64, t: Slot) -> Rational {
        let unit = self.unit();
        let Some(sub) = self.subs.iter_mut().find(|s| s.index == index) else {
            return Rational::ZERO;
        };
        assert!(sub.halted_at == NEVER, "halting a halted subtask"); // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        sub.halted_at = t;
        if sub.is_complete() {
            return Rational::ZERO;
        }
        let lost = sub.alloc;
        self.lost.add_units(lost, unit);
        lost.over(unit)
    }

    /// Each retained record as `(index, release, D(I_SW, T_i), H(T_i))`,
    /// [`NEVER`] for a completion or halt still to come.
    pub fn records(&self) -> impl Iterator<Item = (u64, Slot, Slot, Slot)> + '_ {
        (self.subs.iter()).map(|s| (s.index, s.release, s.complete_at, s.halted_at))
    }

    /// `D(I_SW, T_index)` if the subtask has completed.
    pub fn completion_of(&self, index: u64) -> Option<Slot> {
        self.subs
            .iter()
            .find(|s| s.index == index)
            .and_then(|s| ever(s.complete_at))
    }

    /// Cumulative allocation `A(I_SW, T_index, 0, now)` of a tracked
    /// subtask (`None` if unknown/retired).
    pub fn subtask_cum(&self, index: u64) -> Option<Rational> {
        let unit = self.unit();
        self.subs
            .iter()
            .find(|s| s.index == index)
            .map(|s| s.cum(unit))
    }

    /// Fig. 5 over the slots `[now, t)`, `now < t`, in one closed-form
    /// pass — the only copy of the allocation rule; every public way of
    /// advancing the tracker is this pass plus what it materializes.
    /// Work is O(subtasks released before `t`), not O(slots): within
    /// the interval the scheduling weight is constant (the usage
    /// protocol synchronizes before every `set_swt`/`halt`), so per
    /// subtask the figure collapses to a release-slot allocation, `rate`
    /// per interior slot, and the remainder `unit − cum − rate·(k−1)` in
    /// the final slot, with the final-slot position `k = ⌈(unit −
    /// cum)/rate⌉` computed directly — integers throughout, by the
    /// era-unit invariant.
    ///
    /// `touched` sees every subtask that was allocated anything, after
    /// the fact, with the amount: a completed one reads
    /// `is_complete()`, with `alloc` its final-slot allocation. Returns
    /// the total allocated over the interval, already added to the
    /// running total. Both count in the unit the tracker had when the
    /// jump began: the unit is re-derived only once the pass is done.
    ///
    /// Index order matters: a successor's release-slot allocation reads
    /// the predecessor's final-slot allocation, which this very call
    /// may compute. Index order is completion order too (a predecessor
    /// always completes strictly before its successor), so `touched`
    /// reports completions in the order a per-slot walk discovers them.
    fn jump(&mut self, t: Slot, mut touched: impl FnMut(&IswSub, Units)) -> Units {
        debug_assert!(self.now < t, "empty jump");
        let from = self.now;
        self.now = t;
        let unit = self.unit();
        let rate = self.rate;
        let mut added = Units::ZERO;
        let subs = self.subs.as_mut_slice();
        for i in 0..subs.len() {
            // A predecessor has a smaller index, so it is in `earlier`.
            let (earlier, rest) = subs.split_at_mut(i);
            let Some(sub) = rest.first_mut() else { break };
            if sub.is_retired() || sub.release >= t {
                continue;
            }
            let before = sub.alloc;
            let mut cum = before;
            // First slot of this subtask not yet folded into `cum`.
            let mut start = from;
            if sub.release >= from {
                // The release slot lies inside the jump: Fig. 5 line 4
                // (nothing was allocated before it, so `cum` was zero).
                debug_assert!(cum.is_zero());
                cum = if sub.pred_gap == 0 {
                    rate
                } else {
                    rate - pred_final_alloc(earlier, sub)
                };
                debug_assert!(!cum.is_negative(), "negative I_SW allocation");
                start = sub.release + 1;
            }
            debug_assert!(cum <= unit);
            let remaining = unit - cum;
            // Slots still needed at `rate` apiece: none if the release
            // slot alone filled the quantum (a weight-1 era).
            let k = remaining.slots_at(rate);
            let given = if k <= t - start {
                // Completes inside the jump: k − 1 full slots, then the
                // remainder in slot start + k − 1.
                sub.complete_at = start + k;
                sub.alloc = if k == 0 {
                    cum
                } else {
                    remaining - rate.times(k - 1)
                };
                unit - before
            } else {
                // Still incomplete at t: every slot allocates `rate`.
                sub.alloc = cum + rate.times(t - start);
                sub.alloc - before
            };
            added += given;
            touched(sub, given);
        }
        self.total.add_units_per(added, unit, self.per);
        if self.retire() {
            self.shed();
        }
        added
    }

    /// Re-derives the unit once `retire` has dropped records (one may
    /// have held an earlier era's last denominator) or `set_swt` has
    /// refined it. Nothing else in a jump can lower the unit: an
    /// allocation adds a multiple of `swt` to what a record held, which
    /// leaves the record's lcm with `den(swt)` as it was.
    ///
    /// A value `n/unit` has the reduced denominator `unit / gcd(n,
    /// unit)`, so the lcm of the rate's and the allocations' is `unit /
    /// g` with `g` the gcd of the unit and all their counts: the gcds
    /// stop at the first `g` of 1, which is the rate's own for a unit
    /// that is its weight's denominator.
    fn shed(&mut self) {
        let (unit, rate) = (self.unit(), self.rate);
        let mut g = rate.gcd(unit);
        let mut subs = self.subs.iter();
        while g != Units::new(1) {
            match subs.next() {
                Some(s) => g = s.alloc.gcd(g),
                None => {
                    // `g` divides `unit` and is at least 1.
                    let least = Units::new(unit.get() / g.get().max(1));
                    self.rate = rate.rescaled(unit, least);
                    self.recount(least);
                    return;
                }
            }
        }
    }

    /// [`IswTracker::jump`] to any `t ≥ now`.
    fn run_to(&mut self, t: Slot, touched: impl FnMut(&IswSub, Units)) -> Units {
        assert!(t >= self.now, "cannot advance a tracker backwards"); // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        if self.now == t {
            return Units::ZERO;
        }
        self.jump(t, touched)
    }

    /// Processes every slot in `[now, t)` and reports each completion
    /// as `(index, D(I_SW, T_index))`, in completion order — all the
    /// scheduler engine needs at a synchronization boundary, and the
    /// form that builds no [`Rational`] at all: see
    /// [`IswTracker::advance_to`] for the same jump with the interval's
    /// allocation and the final-slot allocations materialized.
    ///
    /// # Panics
    /// Panics if `t` is behind the tracker's current slot.
    pub fn sync_to(&mut self, t: Slot, mut completed: impl FnMut(u64, Slot)) {
        self.run_to(t, |sub, _| {
            if sub.is_complete() {
                completed(sub.index, sub.complete_at);
            }
        });
    }

    /// Processes every slot in `[now, t)` in one closed-form jump,
    /// returning the total allocation over the interval and all
    /// completions that occurred in it (in completion order).
    ///
    /// Bit-identical to jumping one slot at a time — exact arithmetic is
    /// associative, and each closed-form quantity equals the per-slot
    /// recurrence's value at the same slot (asserted by the equivalence
    /// proptests, and against an independent pure-`Rational` reading of
    /// Fig. 5 in `tests/reference_tracker.rs`).
    ///
    /// # Panics
    /// Panics if `t` is behind the tracker's current slot.
    pub fn advance_to(&mut self, t: Slot) -> (Rational, Vec<CompletionEvent>) {
        let unit = self.unit();
        let mut completions = Vec::new();
        let added = self.run_to(t, |sub, _| {
            if sub.is_complete() {
                completions.push(CompletionEvent {
                    index: sub.index,
                    complete_at: sub.complete_at,
                    final_slot_alloc: sub.alloc.over(unit),
                });
            }
        });
        (added.over(unit), completions)
    }

    /// `D(I_SW, T_index)`, discovered or projected: the recorded
    /// completion if known, otherwise the closed-form projection for a
    /// live, already-released subtask assuming `swt` stays constant.
    /// Exact within an era — any event that changes the weight both
    /// resynchronizes the tracker and supersedes decisions derived from
    /// this value, which is what lets the engine resolve
    /// "enact after `D(I_SW, T_i) + b`" waits eagerly instead of
    /// rediscovering the completion slot by slot. `None` for
    /// unknown/halted/not-yet-released subtasks or a non-positive
    /// weight.
    pub fn projected_completion(&self, index: u64) -> Option<Slot> {
        let sub = self.subs.iter().find(|s| s.index == index)?;
        if sub.is_complete() {
            return Some(sub.complete_at);
        }
        if sub.halted_at != NEVER || sub.release >= self.now || !self.rate.is_positive() {
            return None;
        }
        // Slots still needed at `rate` apiece; the last one is now+k−1,
        // so the completion boundary is now+k.
        let k = (self.unit() - sub.alloc).slots_at(self.rate);
        self.now.checked_add(k)
    }

    /// Drops subtasks that can no longer influence anything: completed or
    /// halted subtasks other than the last two entries (the release rule
    /// of the next subtask may still reference the most recent completed
    /// predecessor). Returns whether it dropped any.
    #[inline]
    fn retire(&mut self) -> bool {
        // One front drop instead of repeated `pop_front`: a closed-form
        // era jump can retire thousands of subtasks in a single call,
        // and front-removals would make that quadratic.
        let max_drop = self.subs.len().saturating_sub(2);
        let n = self
            .subs
            .iter()
            .take(max_drop)
            .take_while(|s| s.is_retired())
            .count();
        if n > 0 {
            self.subs.drop_front(n);
        }
        n > 0
    }
}

/// The records [`IswTracker::closed_form`] retains, in index order:
/// those `retire` keeps of `T_{era_base + 1} … T_{next_index − 1}`
/// released on the periodic windows of weight `w` from `anchor`, as a
/// tracker synchronized at each release and last at `now` holds them.
fn grid_records(
    w: Weight,
    anchor: Slot,
    era_base: u64,
    next_index: u64,
    now: Slot,
) -> impl Iterator<Item = IswSub> {
    let (unit, rate) = (Units::new(w.denom()), Units::new(w.numer()));
    let elapsed = slots_since(anchor, now);
    let window = move |rank: u64| periodic_window(w, rank, anchor);
    let released = next_index.saturating_sub(era_base).saturating_sub(1);
    // The last jump, to `now`, covered every record released before.
    let covered =
        released - u64::from(released > 0 && periodic_release(w, released, anchor) >= now);
    // A covered record is complete iff its deadline has passed, so
    // the incomplete ones are a suffix of the covered ranks: `retire`
    // keeps them and the last two records.
    let mut first = covered.saturating_sub(2) + 1;
    while first > 1 && window(first - 1).deadline > now {
        first -= 1;
    }
    let units = move |n: u64| unit.times(slot_from_i128(i128::from(n)));
    let mut pred_b = first > 1 && b_bit(w, first - 1);
    let mut win = window(first);
    (first..=released).map(move |rank| {
        if rank > first {
            // Eqn (4) with no separation: each window opens where the
            // last one's successor is released.
            win = window_in_era(w, rank, win.next_release());
        }
        let (alloc, complete_at) = if rank > covered {
            (Units::ZERO, NEVER)
        } else if win.deadline <= now {
            // The quantum less all but the final slot's `w`.
            let before_final = rate.times(slots_since(anchor, win.deadline)) - rate;
            (units(rank) - before_final, win.deadline)
        } else {
            (rate.times(elapsed) - units(rank - 1), NEVER)
        };
        let sub = IswSub {
            index: era_base + rank,
            release: win.release,
            pred_gap: u64::from(pred_b),
            alloc,
            complete_at,
            halted_at: NEVER,
        };
        pred_b = win.b;
        sub
    })
}

/// Final-slot allocation of the predecessor `pred_gap` indices before
/// `sub`, among the `earlier` records — the quantity line 7 of Fig. 5
/// subtracts from the successor's release-slot allocation. The records
/// are index-sorted (asserted in `add_subtask`), so the lookup is
/// logarithmic — an era jump may process many thousands of subtasks in
/// one call, and a linear scan would make the jump quadratic.
fn pred_final_alloc(earlier: &[IswSub], sub: &IswSub) -> Units {
    let p = sub.index - sub.pred_gap;
    #[expect(
        clippy::disallowed_methods,
        reason = "predecessor is recorded at release and retained until its successor retires"
    )]
    let pred = earlier
        .binary_search_by_key(&p, |s| s.index)
        .ok()
        .and_then(|j| earlier.get(j))
        .expect("predecessor retired too early");
    // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
    assert!(
        pred.is_complete(),
        "predecessor T_{p} not complete at successor release"
    );
    pred.alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;
    use crate::weight::Weight;
    use crate::window::{b_bit, periodic_window};

    /// Drives a constant-weight periodic task through the tracker and
    /// collects the per-slot task allocations.
    fn run_periodic(num: i128, den: i128, n_subs: u64, horizon: Slot) -> Vec<Rational> {
        let w = Weight::new(rat(num, den));
        let mut tr = IswTracker::new(w.value(), 0);
        for i in 1..=n_subs {
            let win = periodic_window(w, i, 0);
            let pred_b = if i > 1 { b_bit(w, i - 1) } else { false };
            tr.add_subtask(i, win.release, i == 1, pred_b);
        }
        (0..horizon).map(|t| tr.advance_to(t + 1).0).collect()
    }

    /// Fig. 1(a): weight 5/16. A(I, T, 6) = 2/16 + 3/16 = 5/16, and the
    /// task receives exactly its weight in every slot of the first
    /// hyperperiod (windows tile perfectly for a periodic task).
    #[test]
    fn fig1a_periodic_5_16_per_slot_allocations() {
        let allocs = run_periodic(5, 16, 5, 16);
        for (t, a) in allocs.iter().enumerate() {
            assert_eq!(*a, rat(5, 16), "slot {t}");
        }
    }

    /// Subtask-level values from Fig. 1(a): T_1 gets 5/16 in slots 0–2
    /// and 1/16 in slot 3; T_2 gets 4/16 in slot 3 (= 5/16 − 1/16).
    #[test]
    fn fig1a_subtask_boundary_allocations() {
        let w = Weight::new(rat(5, 16));
        let mut tr = IswTracker::new(w.value(), 0);
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 3, false, b_bit(w, 1));
        for t in 0..3 {
            assert_eq!(tr.advance_to(t + 1).0, rat(5, 16));
        }
        // Slot 3: T_1 completes with 1/16, T_2 opens with 4/16.
        let (total, completions) = tr.advance_to(4);
        assert_eq!(total, rat(5, 16));
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].index, 1);
        assert_eq!(completions[0].complete_at, 4);
        assert_eq!(completions[0].final_slot_alloc, rat(1, 16));
        assert_eq!(tr.subtask_cum(2), Some(rat(4, 16)));
    }

    /// Fig. 3(b)/Fig. 7: task X of weight 3/19 enacting an increase to
    /// 2/5 at time 8. X_2 must receive 2/19 at slot 6, 3/19 at slot 7,
    /// 2/5 at slot 8, and 32/95 at slot 9, completing at time 10.
    #[test]
    fn fig7_weight_increase_mid_window() {
        let w = rat(3, 19);
        let mut tr = IswTracker::new(w, 0);
        tr.add_subtask(1, 0, true, false);
        // r(X_2) = d(X_1) − b(X_1) = 7 − 1 = 6.
        tr.add_subtask(2, 6, false, true);
        for t in 0..6 {
            tr.advance_to(t + 1);
        }
        // Slot 6: X_1 completes with 1/19, X_2 opens with 3/19 − 1/19 = 2/19.
        let (_, completions) = tr.advance_to(7);
        assert_eq!(completions[0].index, 1);
        assert_eq!(completions[0].complete_at, 7);
        assert_eq!(tr.subtask_cum(2), Some(rat(2, 19)));
        tr.advance_to(8); // X_2: +3/19 → 5/19
        assert_eq!(tr.subtask_cum(2), Some(rat(5, 19)));
        // Weight change to 2/5 enacted at time 8 (rule I(i): immediate).
        tr.set_swt(rat(2, 5));
        tr.advance_to(9); // +2/5 → 63/95
        assert_eq!(tr.subtask_cum(2), Some(rat(63, 95)));
        let (slot9, completions) = tr.advance_to(10); // +32/95 → 1
        assert_eq!(slot9, rat(32, 95));
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].index, 2);
        assert_eq!(completions[0].complete_at, 10);
        assert_eq!(completions[0].final_slot_alloc, rat(32, 95));
    }

    /// Fig. 3(a): same task but T_2 is halted at time 8 (rule O). I_SW
    /// granted it 2/19 + 3/19 = 5/19 by then; I_CSW takes that back.
    #[test]
    fn fig3a_halt_and_icsw_loss() {
        let w = rat(3, 19);
        let mut tr = IswTracker::new(w, 0);
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        for t in 0..8 {
            tr.advance_to(t + 1);
        }
        assert_eq!(tr.subtask_cum(2), Some(rat(5, 19)));
        assert_eq!(tr.halt(2, 8), rat(5, 19));
        // I_SW total counts the lost allocation; I_CSW does not.
        assert_eq!(tr.isw_total(), Rational::ONE + rat(5, 19));
        assert_eq!(tr.icsw_total(), Rational::ONE);
        // The halted subtask receives nothing afterwards.
        tr.set_swt(rat(2, 5));
        let (slot8, _) = tr.advance_to(9);
        assert_eq!(slot8, Rational::ZERO);
    }

    /// A leave halts a tardy task's unscheduled subtasks, some of which
    /// `I_SW` completed long ago: those take nothing back, whether the
    /// tracker retains their record or has retired it.
    #[test]
    fn halting_a_completed_subtask_takes_nothing_back() {
        let w = Weight::new(rat(1, 2));
        let mut tr = IswTracker::new(w.value(), 0);
        for i in 1..=4 {
            let win = periodic_window(w, i, 0);
            tr.add_subtask(i, win.release, i == 1, i > 1 && b_bit(w, i - 1));
        }
        tr.advance_to(7);
        assert_eq!(tr.completion_of(2), None, "retired");
        assert_eq!(tr.completion_of(3), Some(6));
        assert_eq!(tr.halt(2, 7), Rational::ZERO);
        assert_eq!(tr.halt(3, 7), Rational::ZERO);
        assert_eq!(tr.halt(4, 7), rat(1, 2));
        assert_eq!(tr.icsw_total(), Rational::from_int(3));
        let halted: Vec<_> = tr.records().map(|r| (r.0, r.3)).collect();
        assert_eq!(halted, [(3, 7), (4, 7)]);
    }

    /// Completed subtasks total exactly one quantum each: after a long
    /// run, the I_SW total equals the number of completed subtasks.
    #[test]
    fn totals_equal_completed_subtasks() {
        let w = Weight::new(rat(2, 5));
        let mut tr = IswTracker::new(w.value(), 0);
        let mut release = 0;
        for i in 1..=8u64 {
            let win = periodic_window(w, i, 0);
            tr.add_subtask(i, win.release, i == 1, i > 1 && b_bit(w, i - 1));
            release = win.next_release();
        }
        let _ = release;
        let mut done = 0;
        for t in 0..20 {
            done += tr.advance_to(t + 1).1.len();
        }
        assert_eq!(done, 8);
        assert_eq!(tr.isw_total(), Rational::from_int(8));
    }

    /// A task that joins late processes no early slots.
    #[test]
    fn late_join_starts_at_join_slot() {
        let mut tr = IswTracker::new(rat(1, 2), 10);
        tr.add_subtask(1, 10, true, false);
        assert_eq!(tr.now(), 10);
        let (a, _) = tr.advance_to(11);
        assert_eq!(a, rat(1, 2));
    }

    #[test]
    #[should_panic(expected = "index order")]
    fn out_of_order_subtasks_panic() {
        let mut tr = IswTracker::new(rat(1, 2), 0);
        tr.add_subtask(2, 0, true, false);
        tr.add_subtask(1, 1, true, false);
    }
}

#[cfg(test)]
mod advance_to_tests {
    use super::*;
    use crate::ideal::reference::IswReference;
    use crate::rational::rat;
    use crate::weight::Weight;
    use crate::window::{b_bit, periodic_window};

    /// Two trackers with identical subtask schedules: one driven per
    /// slot, one in a single jump; compares totals, the completion-event
    /// streams, and per-subtask state against an [`IswReference`].
    fn assert_jump_matches_oracle(num: i128, den: i128, n_subs: u64, horizon: Slot) {
        let (mut batch, mut oracle, mut reference) = paired(Weight::new(rat(num, den)), n_subs);
        let (batch_total, batch_events) = batch.advance_to(horizon);
        let oracle_events = per_slot(&mut oracle, &mut reference, horizon);
        assert_eq!(batch_total, oracle.isw_total(), "interval total");
        assert_eq!(batch_events, oracle_events, "completion events");
        assert_held_subtasks(&batch, &reference);
        assert_held_subtasks(&oracle, &reference);
    }

    /// The jumped tracker, its per-slot oracle and a reference, each
    /// given `T_1 ..= T_n_subs` of a periodic task of weight `w`.
    fn paired(w: Weight, n_subs: u64) -> (IswTracker, IswTracker, IswReference) {
        let mut pair = (IswTracker::new(w.value(), 0), IswTracker::new(w.value(), 0));
        let mut reference = IswReference::new(w.value(), 0);
        for i in 1..=n_subs {
            let (release, pred_b) = (periodic_window(w, i, 0).release, i > 1 && b_bit(w, i - 1));
            pair.0.add_subtask(i, release, i == 1, pred_b);
            pair.1.add_subtask(i, release, i == 1, pred_b);
            assert!(reference.ref_add(i, release, i == 1, pred_b));
        }
        (pair.0, pair.1, reference)
    }

    /// Steps `tr` and the reference `fig5` one slot at a time up to
    /// `t`; returns the tracker's completion events, which must be the
    /// reference's: every subtask's completion slot and final-slot
    /// allocation, whether or not the tracker still holds it.
    fn per_slot(tr: &mut IswTracker, fig5: &mut IswReference, t: Slot) -> Vec<CompletionEvent> {
        let (mut events, mut expected) = (Vec::new(), Vec::new());
        for slot in tr.now()..t {
            events.append(&mut tr.advance_to(slot + 1).1);
            fig5.ref_step(|index, complete_at, final_slot_alloc| {
                expected.push(CompletionEvent {
                    index,
                    complete_at,
                    final_slot_alloc,
                });
            });
        }
        assert_eq!(events, expected, "completions against the reference");
        events
    }

    /// `tr` agrees with the reference on the totals, and on the
    /// cumulative and completion of each subtask it still holds; each
    /// one it has dropped is complete.
    fn assert_held_subtasks(tr: &IswTracker, reference: &IswReference) {
        assert_eq!(
            (tr.isw_total(), tr.now()),
            (reference.ref_isw_total(), reference.ref_now())
        );
        for s in reference.ref_subs() {
            match tr.subtask_cum(s.index) {
                Some(cum) => assert_eq!((cum, tr.completion_of(s.index)), (s.cum, s.complete_at)),
                None => assert!(s.complete_at.is_some(), "T_{} dropped incomplete", s.index),
            }
        }
    }

    #[test]
    fn single_jump_matches_per_slot_for_paper_weights() {
        assert_jump_matches_oracle(5, 16, 5, 16); // Fig. 1(a)
        assert_jump_matches_oracle(3, 19, 3, 19); // Fig. 3/7 task X
        assert_jump_matches_oracle(2, 5, 8, 20); // heavy-ish, b=1 chains
        assert_jump_matches_oracle(1, 1, 6, 6); // weight one: one per slot
        assert_jump_matches_oracle(1, 7, 3, 21); // light, b=0 everywhere
    }

    /// A jump that stops mid-window leaves the same partial cumulative
    /// state as the per-slot oracle, and the follow-up jump finishes
    /// identically — the era-boundary cadence the engine uses.
    #[test]
    fn split_jumps_preserve_partial_state() {
        for split in 0..=10 {
            let (mut batch, mut oracle, mut reference) = paired(Weight::new(rat(5, 16)), 4);
            let (_, mut batch_events) = batch.advance_to(split);
            batch_events.append(&mut batch.advance_to(10).1);
            let oracle_events = per_slot(&mut oracle, &mut reference, 10);
            assert_eq!(batch_events, oracle_events, "split at {split}");
            assert_held_subtasks(&batch, &reference);
            assert_held_subtasks(&oracle, &reference);
        }
    }

    /// Fig. 7's era change, driven by jumps: advance to the enactment
    /// boundary, change the weight, jump again. X_2 must complete at 10
    /// with a 32/95 final slot, exactly as the per-slot test observes.
    #[test]
    fn era_change_between_jumps_matches_fig7() {
        let mut tr = IswTracker::new(rat(3, 19), 0);
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        let (_, first) = tr.advance_to(8);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].index, 1);
        assert_eq!(first[0].complete_at, 7);
        assert_eq!(tr.subtask_cum(2), Some(rat(5, 19)));
        tr.set_swt(rat(2, 5));
        let (added, second) = tr.advance_to(12);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].index, 2);
        assert_eq!(second[0].complete_at, 10);
        assert_eq!(second[0].final_slot_alloc, rat(32, 95));
        // Slots 8 and 9 allocate 2/5 and 32/95; 10 and 11 nothing.
        assert_eq!(added, rat(2, 5) + rat(32, 95));
    }

    /// Projection agrees with discovery: before the completion is
    /// reached, `projected_completion` names the slot the per-slot
    /// oracle will eventually report.
    #[test]
    fn projection_matches_discovery() {
        let mut tr = IswTracker::new(rat(3, 19), 0);
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        tr.advance_to(8);
        tr.set_swt(rat(2, 5));
        // X_2 holds 5/19; at 2/5 per slot it needs ⌈(14/19)/(2/5)⌉ = 2
        // more slots, completing at boundary 10.
        assert_eq!(tr.projected_completion(2), Some(10));
        let (_, events) = tr.advance_to(10);
        assert_eq!(events[0].complete_at, 10);
        // After discovery the projection reports the recorded value.
        assert_eq!(tr.projected_completion(2), Some(10));
        // Unknown and unreleased subtasks project to nothing.
        assert_eq!(tr.projected_completion(99), None);
        tr.add_subtask(3, 15, true, false);
        assert_eq!(tr.projected_completion(3), None);
    }

    /// The interchange form: a completed subtask reports `cum = 1`
    /// beside its final-slot allocation. Decoding gives back a tracker
    /// that is equal, re-renders to the same bytes and halts with the
    /// same record.
    #[test]
    fn json_image_keeps_its_fields() {
        use pfair_json::{FromJson, Json, ToJson};
        let mut tr = IswTracker::new(rat(3, 19), 0);
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        tr.sync_to(8, |_, _| ());
        let text = tr.to_json_compact();
        assert_eq!(
            text,
            concat!(
                r#"{"swt":{"num":3,"den":19},"subs":["#,
                r#"{"index":1,"release":0,"pred":null,"cum":{"num":1,"den":1},"complete_at":7,"#,
                r#""final_slot_alloc":{"num":1,"den":19},"halted_at":9223372036854775807},"#,
                r#"{"index":2,"release":6,"pred":1,"cum":{"num":5,"den":19},"complete_at":null,"#,
                r#""final_slot_alloc":{"num":0,"den":1},"halted_at":9223372036854775807}],"#,
                r#""total":{"num":24,"den":19},"halted_loss":{"num":0,"den":1},"now":8}"#
            )
        );
        let mut back = IswTracker::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, tr);
        assert_eq!(back.to_json_compact(), text);
        assert_eq!(back.halt(2, 8), rat(5, 19));
        assert_eq!(tr.halt(2, 8), rat(5, 19));
        assert_eq!(back.to_json_compact(), tr.to_json_compact());

        let odd = text.replace(
            r#""final_slot_alloc":{"num":0,"den":1}"#,
            r#""final_slot_alloc":{"num":1,"den":19}"#,
        );
        assert!(IswTracker::from_json(&Json::parse(&odd).unwrap()).is_err());
    }

    /// Equality and the interchange form agree whether the era sums are
    /// zero or not: a tracker decoded from its image equals it
    /// and re-renders to the same bytes, before and after a halt and a
    /// weight change make the halted loss and the total's base nonzero.
    #[test]
    fn era_sums_agree_across_json_zero_or_not() {
        use pfair_json::{FromJson, Json, ToJson};
        let round_trip = |tr: &IswTracker| {
            let text = tr.to_json_compact();
            let back = IswTracker::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, tr);
            assert_eq!(back.to_json_compact(), text);
        };
        let mut tr = IswTracker::new(rat(3, 19), 0);
        round_trip(&tr);
        assert_eq!(tr.lost.finish(), Rational::ZERO);
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        tr.sync_to(8, |_, _| {});
        tr.halt(2, 8);
        tr.set_swt(rat(2, 5));
        assert_eq!(tr.lost.finish(), rat(5, 19));
        assert_ne!(tr, IswTracker::new(rat(2, 5), 8));
        round_trip(&tr);
        assert_eq!(tr.icsw_total(), Rational::ONE);
    }

    #[test]
    #[should_panic(expected = "cannot advance a tracker backwards")]
    fn backwards_jump_panics() {
        let mut tr = IswTracker::new(rat(1, 2), 5);
        tr.advance_to(3);
    }
}

/// The era unit itself, which nothing outside the tracker can see.
#[cfg(test)]
mod era_unit_tests {
    use super::*;
    use crate::rational::rat;

    /// 10⁴ eras alternating between two coprime denominators, every
    /// change enacted under a subtask that holds one slot of the old
    /// weight: the unit carries both denominators for the straddle and
    /// never more, whatever the run has seen before; once the last
    /// straddler has left the records, the weight's alone.
    #[test]
    fn unit_stays_within_the_lcm_over_alternating_straddles() {
        let weights = [rat(3, 19), rat(2, 5)];
        let mut tr = IswTracker::new(weights[0], 0);
        let mut t = 0;
        let mut completed = 0u64;
        for era in 0..10_000usize {
            let index = era as u64 + 1;
            tr.add_subtask(index, t, true, false);
            tr.sync_to(t + 1, |_, _| completed += 1);
            tr.set_swt(weights[(era + 1) % 2]);
            assert!(tr.unit() <= Units::new(95), "unit {:?}", tr.unit());
            assert_eq!(tr.subtask_cum(index), Some(weights[era % 2]));
            t = tr.projected_completion(index).expect("a live subtask");
            tr.sync_to(t, |_, _| completed += 1);
        }
        for index in 10_001..=10_002 {
            tr.add_subtask(index, t, true, false);
            tr.sync_to(t + 1, |_, _| completed += 1);
            t = tr.projected_completion(index).expect("a live subtask");
            tr.sync_to(t, |_, _| completed += 1);
        }
        assert_eq!(tr.subtask_cum(10_000), None);
        assert_eq!(tr.unit(), Units::denom(tr.swt()));
        assert_eq!(completed, 10_002);
        assert_eq!(tr.isw_total(), Rational::from_int(10_002));
    }

    /// The unit is re-derived from the values at every enactment and at
    /// the end of every synchronization: it holds a closed era's
    /// denominator exactly as long as a retained record does, and falls
    /// at the synchronization that drops the last such record, without
    /// waiting for the next enactment.
    #[test]
    fn unit_falls_back_once_no_record_carries_the_old_denominator() {
        let mut tr = IswTracker::new(rat(3, 19), 0);
        assert_eq!(tr.unit(), Units::new(19));
        tr.add_subtask(1, 0, true, false);
        tr.sync_to(2, |_, _| ());
        tr.set_swt(rat(2, 5)); // T_1 holds 6/19
        assert_eq!(tr.unit(), Units::new(95));
        assert_eq!(tr.swt(), rat(2, 5));
        // Subtasks of the 2/5 era push T_1 out of the records; the sync
        // that drops it drops 19 from the unit.
        let mut t = tr.projected_completion(1).expect("a live subtask");
        for index in 2..=4 {
            tr.add_subtask(index, t, true, false);
            t += 3;
            tr.sync_to(t, |_, _| ());
            let held = tr.subtask_cum(1).is_some();
            assert_eq!(held, index < 3);
            assert_eq!(tr.unit(), Units::new(if held { 95 } else { 5 }));
        }
        tr.set_swt(rat(1, 3));
        assert_eq!(tr.unit(), Units::new(15)); // final-slot allocations in fifths
        for index in 5..=6 {
            tr.add_subtask(index, t, true, false);
            t += 3;
            tr.sync_to(t, |_, _| ());
            assert_eq!(tr.unit(), Units::new(if index < 6 { 15 } else { 3 }));
        }
        tr.set_swt(rat(1, 3));
        assert_eq!(tr.unit(), Units::new(3));
        assert_eq!(tr.isw_total(), Rational::from_int(6));
    }
}
