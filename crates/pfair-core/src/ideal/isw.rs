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
//! provides: [`IswTracker::advance`] processes one slot and reports
//! completions as they happen.
//!
//! `I_CSW` (the clairvoyant variant) equals `I_SW` minus every
//! allocation made to a subtask that is eventually halted. Halting only
//! ever strikes the task's most recently released subtask, so by the
//! time anything downstream needs `A(I_CSW, T, 0, u)` at an era boundary
//! `u`, all halts affecting the prefix `[0, u)` are known — the tracker
//! simply maintains the running total of "lost" allocations and reports
//! the per-slot breakdown in a [`HaltRecord`] for post-hoc per-slot
//! analyses.

use crate::arena::InlineVec;
use crate::rational::{Accumulator, Rational, Units};
use crate::time::{ever, shift_ever, Slot, NEVER};
use std::collections::BTreeMap;

/// Emitted by [`IswTracker::advance`] when a subtask's cumulative `I_SW`
/// allocation reaches one quantum during the processed slot.
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

/// Emitted by [`IswTracker::halt`]: everything `I_SW` had granted the
/// halted subtask, so `I_CSW` can retroactively zero it out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HaltRecord {
    /// Subtask index `i` of the halted `T_i`.
    pub index: u64,
    /// `H(T_i)`, the halt time.
    pub halted_at: Slot,
    /// `A(I_SW, T_i, 0, H(T_i))`: total allocation lost to the halt.
    pub lost: Rational,
    /// Per-slot breakdown of `lost` (slot, allocation), for analyses that
    /// need the per-slot `I_CSW` series. Populated only when the tracker
    /// was built with [`IswTracker::with_slot_history`]; empty otherwise,
    /// so long-horizon simulations carry just the running `lost` total
    /// instead of O(horizon) entries per slow subtask.
    pub slot_allocs: Vec<(Slot, Rational)>,
}

/// One subtask as `I_SW` follows it: 56 bytes of fields in a 64-byte
/// record ([`Units`] is 16-aligned), three to a tracker inline.
/// `const`-asserted below, so a new field cannot silently outgrow it.
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
    /// successor's release slot. A distance, not an index, so a
    /// translated tracker carries it unchanged.
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

const _: () = assert!(core::mem::size_of::<IswSub>() <= 64);

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

    /// The record `ds` slots and `di` indices on; `None` on overflow.
    fn shifted(&self, ds: Slot, di: u64) -> Option<IswSub> {
        Some(IswSub {
            index: self.index.checked_add(di)?,
            release: self.release.checked_add(ds)?,
            complete_at: shift_ever(self.complete_at, ds)?,
            halted_at: shift_ever(self.halted_at, ds)?,
            ..*self
        })
    }

    /// The same record, whichever units the two allocations count in.
    fn same_as(&self, unit: Units, other: &IswSub, other_unit: Units) -> bool {
        let rest = |s: &IswSub| (s.index, s.release, s.pred_gap, s.complete_at, s.halted_at);
        rest(self) == rest(other) && self.alloc.over(unit) == other.alloc.over(other_unit)
    }
}

/// Per-slot allocations of the incomplete subtasks, keyed by (subtask
/// index, slot): what [`HaltRecord::slot_allocs`] reports. A subtask's
/// entries go when it completes (it can no longer halt) or halts.
type SlotHistory = BTreeMap<(u64, Slot), Rational>;

/// The interchange form of one subtask: the record plus its per-slot
/// breakdown, as the field set the format has always had — whatever the
/// record in memory looks like. Allocations travel as rationals; the
/// decoded record's `alloc` is filled in once the tracker's unit is
/// known.
struct SubImage {
    sub: IswSub,
    /// `sub.alloc` as a value: cumulative, or final-slot once complete.
    alloc: Rational,
    slot_allocs: Vec<(Slot, Rational)>,
}

impl pfair_json::ToJson for SubImage {
    fn to_json(&self) -> pfair_json::Json {
        let sub = &self.sub;
        let pred = (sub.pred_gap != 0).then(|| sub.index - sub.pred_gap);
        let (cum, final_slot_alloc) = if sub.is_complete() {
            (Rational::ONE, self.alloc)
        } else {
            (self.alloc, Rational::ZERO)
        };
        pfair_json::obj([
            ("index", sub.index.to_json()),
            ("release", sub.release.to_json()),
            ("pred", pred.to_json()),
            ("cum", cum.to_json()),
            ("complete_at", ever(sub.complete_at).to_json()),
            ("final_slot_alloc", final_slot_alloc.to_json()),
            ("halted_at", sub.halted_at.to_json()),
            ("slot_allocs", self.slot_allocs.to_json()),
        ])
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
            slot_allocs: value.field("slot_allocs")?,
        })
    }
}

impl pfair_json::ToJson for IswTracker {
    fn to_json(&self) -> pfair_json::Json {
        let unit = self.unit();
        let subs: Vec<SubImage> = self
            .subs
            .iter()
            .map(|&sub| SubImage {
                sub,
                alloc: sub.alloc.over(unit),
                slot_allocs: self.slot_allocs_of(sub.index),
            })
            .collect();
        pfair_json::obj([
            ("swt", self.swt().to_json()),
            ("subs", subs.to_json()),
            ("total", self.isw_total().to_json()),
            ("halted_loss", self.halted_loss.to_json()),
            ("now", self.now.to_json()),
            ("keep_retired", self.keep_retired().to_json()),
            (
                "record_slot_allocs",
                self.slot_history().is_some().to_json(),
            ),
        ])
    }
}

impl pfair_json::FromJson for IswTracker {
    /// Re-validates the tracker invariants the methods rely on: subtasks
    /// strictly index-sorted, allocations inside `[0, 1]` (checked per
    /// subtask), completion implying a full quantum — and re-derives the
    /// era unit from the decoded values the way
    /// [`IswTracker::set_swt`] does, so a unit too large to represent is
    /// a decoding error.
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let images: Vec<SubImage> = value.field("subs")?;
        if images.windows(2).any(|w| w[0].sub.index >= w[1].sub.index) {
            return Err(pfair_json::JsonError::new(
                "I_SW subtasks out of index order",
            ));
        }
        let record_slot_allocs: bool = value.field("record_slot_allocs")?;
        if !record_slot_allocs && images.iter().any(|i| !i.slot_allocs.is_empty()) {
            return Err(pfair_json::JsonError::new(
                "per-slot I_SW breakdown on a tracker that records none",
            ));
        }
        let slot_history = record_slot_allocs.then(|| {
            let entries = images.iter().flat_map(|i| {
                let index = i.sub.index;
                i.slot_allocs.iter().map(move |&(t, a)| ((index, t), a))
            });
            entries.collect::<SlotHistory>()
        });
        let keep_retired: bool = value.field("keep_retired")?;
        let swt: Rational = value.field("swt")?;
        let unit = images
            .iter()
            .try_fold(Units::new(swt.denom()), |unit, i| {
                unit.checked_lcm(Units::new(i.alloc.denom()))
            })
            .ok_or_else(|| pfair_json::JsonError::new("I_SW era unit exceeds the i128 range"))?;
        let count = |r: Rational| {
            Units::checked_of(r, unit)
                .ok_or_else(|| pfair_json::JsonError::new("I_SW quantity exceeds the i128 range"))
        };
        let mut total = Accumulator::from(value.field::<Rational>("total")?);
        total.rebase(unit);
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
            halted_loss: value.field("halted_loss")?,
            now: value.field("now")?,
            retention: (keep_retired || slot_history.is_some()).then(|| {
                Box::new(Retention {
                    keep_retired,
                    slot_history,
                })
            }),
        })
    }
}

/// Incremental `I_SW` schedule of a single task.
///
/// Usage protocol (driven by the scheduler engine):
/// 1. [`IswTracker::set_swt`] whenever a weight change is *enacted*;
/// 2. [`IswTracker::add_subtask`] at (or before) each subtask release;
/// 3. [`IswTracker::halt`] when a reweighting rule halts the
///    last-released subtask;
/// 4. [`IswTracker::advance`] once per slot, in slot order — or
///    [`IswTracker::sync_to`] / [`IswTracker::advance_to`] across any
///    run of slots between two of the calls above.
///
/// The tracker computes in **era units** (DESIGN.md, "The era-unit
/// invariant"): it keeps one positive `unit` such that the scheduling
/// weight and every retained per-subtask allocation is an integer
/// number of `1/unit`s, which every Fig. 5 allocation until the next
/// `set_swt` then is too. Allocations are [`Units`] counts, the running
/// total is an [`Accumulator`] counting in the same unit, and a
/// [`Rational`] is built only where a value is read. Two trackers are
/// equal when they hold the same values, whatever unit each counts in.
#[derive(Clone, Debug)]
pub struct IswTracker {
    /// `swt(T, now)` in era units.
    rate: Units,
    /// Index-sorted. `retire` keeps two retired subtasks plus the live
    /// ones — three in steady state — so the records stay inline.
    subs: InlineVec<IswSub, 3>,
    /// `A(I_SW, T, 0, now)`; the unit it counts in is the era unit.
    total: Accumulator,
    /// Σ over halted subtasks of their lost allocation.
    halted_loss: Rational,
    /// Next slot to be processed by `advance`.
    now: Slot,
    /// What table builders and history runs opt into; `None` on the
    /// trackers a long simulation keeps by the million.
    retention: Option<Box<Retention>>,
}

/// The opt-in memory of an [`IswTracker`]. Equality and the interchange
/// form see the two settings, not whether a box holds them.
#[derive(Clone, Debug, Default)]
struct Retention {
    /// When true, completed/halted subtasks are never dropped — needed by
    /// table builders that read back per-subtask cumulative values.
    keep_retired: bool,
    /// `Some` when incomplete subtasks keep a per-slot allocation
    /// breakdown for [`HaltRecord::slot_allocs`]. Opt-in: the breakdown
    /// grows with the horizon for slow subtasks.
    slot_history: Option<SlotHistory>,
}

impl PartialEq for IswTracker {
    fn eq(&self, other: &IswTracker) -> bool {
        let (unit, other_unit) = (self.unit(), other.unit());
        self.now == other.now
            && self.keep_retired() == other.keep_retired()
            && self.halted_loss == other.halted_loss
            && self.subs.len() == other.subs.len()
            && if unit == other_unit {
                self.rate == other.rate && self.subs == other.subs
            } else {
                self.swt() == other.swt()
                    && self
                        .subs
                        .iter()
                        .zip(other.subs.iter())
                        .all(|(a, b)| a.same_as(unit, b, other_unit))
            }
            && self.total == other.total
            && self.slot_history() == other.slot_history()
    }
}

impl Eq for IswTracker {}

impl IswTracker {
    /// Creates a tracker for a task whose first enacted weight is `swt`
    /// and which joins at slot `join_at` (no slots before `join_at` are
    /// processed).
    pub fn new(swt: Rational, join_at: Slot) -> IswTracker {
        let mut total = Accumulator::new();
        total.rebase(Units::new(swt.denom()));
        IswTracker {
            rate: Units::new(swt.numer()),
            subs: InlineVec::new(),
            total,
            halted_loss: Rational::ZERO,
            now: join_at,
            retention: None,
        }
    }

    /// Like [`IswTracker::new`], but retains all subtasks so callers can
    /// read back `subtask_cum`/`completion_of` for the whole history.
    /// Memory grows with the number of subtasks; meant for table builders
    /// and tests, not long-running simulations.
    pub fn new_keeping_history(swt: Rational, join_at: Slot) -> IswTracker {
        let mut t = IswTracker::new(swt, join_at);
        t.retention.get_or_insert_default().keep_retired = true;
        t
    }

    /// Builder-style switch: record the per-slot allocation breakdown of
    /// incomplete subtasks so [`IswTracker::halt`] can report
    /// [`HaltRecord::slot_allocs`] for per-slot `I_CSW` analyses. Off by
    /// default because the breakdown is O(horizon) memory for a subtask
    /// that never completes; without it a halt reports only the running
    /// `lost` total, which is all the drift accounting needs. While
    /// enabled, [`IswTracker::advance_to`] walks the interval slot by
    /// slot (a multi-slot jump has no per-slot story to record).
    #[must_use]
    pub fn with_slot_history(mut self) -> IswTracker {
        let retention = self.retention.get_or_insert_default();
        retention.slot_history.get_or_insert_default();
        self
    }

    fn keep_retired(&self) -> bool {
        self.retention.as_deref().is_some_and(|r| r.keep_retired)
    }

    fn slot_history(&self) -> Option<&SlotHistory> {
        self.retention.as_deref()?.slot_history.as_ref()
    }

    fn slot_history_mut(&mut self) -> Option<&mut SlotHistory> {
        self.retention.as_deref_mut()?.slot_history.as_mut()
    }

    /// The era unit: every allocation the tracker holds or hands out
    /// before the next [`IswTracker::set_swt`] is a multiple of `1/unit`.
    fn unit(&self) -> Units {
        self.total.unit()
    }

    /// The current scheduling weight `swt(T, now)`.
    pub fn swt(&self) -> Rational {
        self.rate.over(self.unit())
    }

    /// The next slot `advance` will process.
    #[inline]
    pub fn now(&self) -> Slot {
        self.now
    }

    /// `A(I_SW, T, 0, now)`.
    pub fn isw_total(&self) -> Rational {
        self.total.finish()
    }

    /// `A(I_CSW, T, 0, now)`: the `I_SW` total minus everything granted
    /// to subtasks that have (so far) halted. Exact at era boundaries —
    /// see the module docs for why no later halt can invalidate it.
    pub fn icsw_total(&self) -> Rational {
        self.isw_total() - self.halted_loss
    }

    /// Enacts a weight change: allocations from the current slot onward
    /// use `swt`.
    ///
    /// This is the one place the era unit is re-derived: canonically,
    /// as the least common multiple of the new weight's denominator and
    /// the reduced denominators of the retained per-subtask allocations
    /// (rescaled here), so it is a function of the values alone and
    /// whatever an earlier era contributed is shed as soon as no
    /// retained record carries it.
    ///
    /// # Panics
    /// Panics if the unit overflows `i128` (the documented `Rational`
    /// overflow contract).
    pub fn set_swt(&mut self, swt: Rational) {
        let old = self.unit();
        let unit = self.subs.iter().fold(Units::new(swt.denom()), |unit, s| {
            unit.lcm(s.alloc.denom_over(old))
        });
        if unit != old {
            for s in &mut self.subs {
                s.alloc = s.alloc.rescaled(old, unit);
            }
            self.total.rebase(unit);
        }
        self.rate = Units::of(swt, unit);
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
            let pred = self // audit: allow(panic-reach, predecessor is recorded at release and retained until its successor retires)
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
    /// Returns the record of everything `I_SW` had granted it, which
    /// `I_CSW` treats as never allocated.
    ///
    /// # Panics
    /// Panics if the subtask is unknown, already complete, or already
    /// halted — the reweighting rules only halt incomplete, unscheduled
    /// subtasks.
    pub fn halt(&mut self, index: u64, t: Slot) -> HaltRecord {
        let unit = self.unit();
        let sub = self // audit: allow(panic-reach, predecessor is recorded at release and retained until its successor retires)
            .subs
            .iter_mut()
            .find(|s| s.index == index)
            .expect("halting unknown subtask");
        assert!(!sub.is_complete(), "halting a complete subtask"); // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        assert!(sub.halted_at == NEVER, "halting a halted subtask"); // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        sub.halted_at = t;
        let lost = sub.alloc.over(unit);
        self.halted_loss += lost;
        let slot_allocs = self.slot_allocs_of(index);
        if let Some(h) = self.slot_history_mut() {
            forget_slot_allocs(h, index); // reported exactly once
        }
        HaltRecord {
            index,
            halted_at: t,
            lost,
            slot_allocs,
        }
    }

    /// The recorded per-slot allocations of subtask `index`, in slot
    /// order (empty unless [`IswTracker::with_slot_history`] is on).
    fn slot_allocs_of(&self, index: u64) -> Vec<(Slot, Rational)> {
        self.slot_history().map_or_else(Vec::new, |h| {
            h.range((index, Slot::MIN)..=(index, Slot::MAX))
                .map(|(&(_, t), &a)| (t, a))
                .collect()
        })
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
    /// running total.
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
        self.total.add_units(added);
        self.retire();
        added
    }

    /// [`IswTracker::jump`] to any `t ≥ now`, one slot at a time while
    /// the per-slot breakdown is being recorded.
    fn run_to(&mut self, t: Slot, mut touched: impl FnMut(&IswSub, Units)) -> Units {
        assert!(t >= self.now, "cannot advance a tracker backwards"); // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        if self.now == t {
            return Units::ZERO;
        }
        // Taken out for the walk: `jump` borrows the whole tracker.
        let Some(mut history) = self
            .retention
            .as_deref_mut()
            .and_then(|r| r.slot_history.take())
        else {
            return self.jump(t, touched);
        };
        let unit = self.unit();
        let mut added = Units::ZERO;
        while self.now < t {
            let slot = self.now;
            added += self.jump(slot + 1, |sub, given| {
                if sub.is_complete() {
                    forget_slot_allocs(&mut history, sub.index); // it can no longer halt
                } else if !given.is_zero() {
                    history.insert((sub.index, slot), given.over(unit));
                }
                touched(sub, given);
            });
        }
        if let Some(retention) = self.retention.as_deref_mut() {
            retention.slot_history = Some(history);
        }
        added
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
    /// Bit-identical to calling [`IswTracker::advance`] once per slot —
    /// exact arithmetic is associative, and each closed-form quantity
    /// equals the per-slot recurrence's value at the same slot (asserted
    /// by the equivalence proptests, and against an independent
    /// pure-`Rational` reading of Fig. 5 in `tests/reference_tracker.rs`).
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

    /// Processes slot `t` (which must be the tracker's `now`): every
    /// live subtask's allocation per Fig. 5, in index order. Returns the
    /// task's total allocation in the slot and any completions that
    /// occurred.
    pub fn advance(&mut self, t: Slot) -> (Rational, Vec<CompletionEvent>) {
        assert_eq!(t, self.now, "slots must be advanced in order"); // audit: allow(panic-reach, Fig. 5 bookkeeping invariant of the ideal tracker, a violation is a tracker bug)
        self.advance_to(t + 1)
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

    /// The steady busy-span question: is `later` this tracker one period
    /// on — every slot-valued field `ds` later (`NEVER` sentinels stay
    /// put), every subtask index `di` higher (predecessor
    /// back-references are distances and do not move), and the rate,
    /// the era unit, the total's base, the per-subtask allocations, the
    /// halted loss and the retention settings as they were? If so,
    /// returns how many era units the total grew by; `None` on any other
    /// difference. Compares in place: nothing is built.
    pub fn gain_over_shift(&self, later: &IswTracker, ds: Slot, di: u64) -> Option<Units> {
        let (was, is) = (self.slot_history(), later.slot_history());
        let same = self.now.checked_add(ds) == Some(later.now)
            && self.rate == later.rate
            && self.halted_loss == later.halted_loss
            && self.keep_retired() == later.keep_retired()
            && self.subs.len() == later.subs.len()
            && (self.subs.iter().zip(later.subs.iter()))
                .all(|(a, b)| a.shifted(ds, di) == Some(*b))
            && was.map(BTreeMap::len) == is.map(BTreeMap::len)
            // The shift is monotone, so a shifted history keeps its order.
            && (was.into_iter().flatten().zip(is.into_iter().flatten()))
                .all(|((key, a), (on, b))| key_on(key, ds, di) == Some(*on) && a == b);
        later.total.units_since(&self.total).filter(|_| same)
    }

    /// Whether [`IswTracker::shift`] by these amounts stays in range.
    pub fn shift_fits(&self, ds: Slot, di: u64, gain: Units) -> bool {
        self.now.checked_add(ds).is_some()
            && self.subs.iter().all(|s| s.shifted(ds, di).is_some())
            && (self.slot_history().into_iter().flatten())
                .all(|(key, _)| key_on(key, ds, di).is_some())
            && self.total.counted().get().checked_add(gain.get()).is_some()
    }

    /// Moves the tracker `ds` slots, `di` subtask indices and `gain` era
    /// units of total on, in place: `k` steady periods at once, given `k`
    /// times what [`IswTracker::gain_over_shift`] reported for one.
    /// Returns `false`, having changed nothing, if a shifted field would
    /// overflow ([`IswTracker::shift_fits`]).
    #[must_use]
    pub fn shift(&mut self, ds: Slot, di: u64, gain: Units) -> bool {
        if !self.shift_fits(ds, di, gain) {
            return false;
        }
        self.now += ds;
        for s in &mut self.subs {
            *s = s.shifted(ds, di).unwrap_or(*s);
        }
        if let Some(h) = self.slot_history_mut() {
            let entries = std::mem::take(h).into_iter();
            *h = (entries.filter_map(|(key, a)| Some((key_on(&key, ds, di)?, a)))).collect();
        }
        self.total.add_units(gain);
        true
    }

    /// Number of per-slot breakdown entries currently retained across all
    /// incomplete subtasks. Always 0 unless
    /// [`IswTracker::with_slot_history`] was used — the bounded-memory
    /// regression test pins that.
    pub fn slot_history_len(&self) -> usize {
        self.slot_history().map_or(0, BTreeMap::len)
    }

    /// Drops subtasks that can no longer influence anything: completed or
    /// halted subtasks other than the last two entries (the release rule
    /// of the next subtask may still reference the most recent completed
    /// predecessor).
    #[inline]
    fn retire(&mut self) {
        if self.keep_retired() {
            return;
        }
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
    }
}

/// Final-slot allocation of the predecessor `pred_gap` indices before
/// `sub`, among the `earlier` records — the quantity line 7 of Fig. 5
/// subtracts from the successor's release-slot allocation. The records
/// are index-sorted (asserted in `add_subtask`), so the lookup is
/// logarithmic — an era jump may process many thousands of subtasks in
/// one call, and a linear scan would make the jump quadratic.
fn pred_final_alloc(earlier: &[IswSub], sub: &IswSub) -> Units {
    let p = sub.index - sub.pred_gap;
    // audit: allow(panic-reach, predecessor is recorded at release and retained until its successor retires)
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

/// The key of a per-slot allocation `ds` slots and `di` indices on.
fn key_on(&(index, slot): &(u64, Slot), ds: Slot, di: u64) -> Option<(u64, Slot)> {
    Some((index.checked_add(di)?, slot.checked_add(ds)?))
}

/// Drops the per-slot allocations of a subtask that completed (it can
/// no longer halt) or halted (they are reported exactly once).
fn forget_slot_allocs(history: &mut SlotHistory, index: u64) {
    history.retain(|&(i, _), _| i != index);
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
        (0..horizon).map(|t| tr.advance(t).0).collect()
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
            assert_eq!(tr.advance(t).0, rat(5, 16));
        }
        // Slot 3: T_1 completes with 1/16, T_2 opens with 4/16.
        let (total, completions) = tr.advance(3);
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
            tr.advance(t);
        }
        // Slot 6: X_1 completes with 1/19, X_2 opens with 3/19 − 1/19 = 2/19.
        let (_, completions) = tr.advance(6);
        assert_eq!(completions[0].index, 1);
        assert_eq!(completions[0].complete_at, 7);
        assert_eq!(tr.subtask_cum(2), Some(rat(2, 19)));
        tr.advance(7); // X_2: +3/19 → 5/19
        assert_eq!(tr.subtask_cum(2), Some(rat(5, 19)));
        // Weight change to 2/5 enacted at time 8 (rule I(i): immediate).
        tr.set_swt(rat(2, 5));
        tr.advance(8); // +2/5 → 63/95
        assert_eq!(tr.subtask_cum(2), Some(rat(63, 95)));
        let (slot9, completions) = tr.advance(9); // +32/95 → 1
        assert_eq!(slot9, rat(32, 95));
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].index, 2);
        assert_eq!(completions[0].complete_at, 10);
        assert_eq!(completions[0].final_slot_alloc, rat(32, 95));
    }

    /// Fig. 3(a): same task but T_2 is halted at time 8 (rule O). I_SW
    /// granted it 2/19 + 3/19 = 5/19 by then; I_CSW takes that back.
    /// Slot history is enabled so the halt record carries the per-slot
    /// breakdown.
    #[test]
    fn fig3a_halt_and_icsw_loss() {
        let w = rat(3, 19);
        let mut tr = IswTracker::new(w, 0).with_slot_history();
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        for t in 0..8 {
            tr.advance(t);
        }
        assert_eq!(tr.subtask_cum(2), Some(rat(5, 19)));
        let rec = tr.halt(2, 8);
        assert_eq!(rec.lost, rat(5, 19));
        assert_eq!(rec.halted_at, 8);
        assert_eq!(rec.slot_allocs, vec![(6, rat(2, 19)), (7, rat(3, 19))]);
        // I_SW total counts the lost allocation; I_CSW does not.
        assert_eq!(tr.isw_total(), Rational::ONE + rat(5, 19));
        assert_eq!(tr.icsw_total(), Rational::ONE);
        // The halted subtask receives nothing afterwards.
        tr.set_swt(rat(2, 5));
        let (slot8, _) = tr.advance(8);
        assert_eq!(slot8, Rational::ZERO);
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
            done += tr.advance(t).1.len();
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
        let (a, _) = tr.advance(10);
        assert_eq!(a, rat(1, 2));
    }

    #[test]
    #[should_panic(expected = "slots must be advanced in order")]
    fn advancing_out_of_order_panics() {
        let mut tr = IswTracker::new(rat(1, 2), 0);
        tr.advance(0);
        tr.advance(2);
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
    use crate::rational::rat;
    use crate::weight::Weight;
    use crate::window::{b_bit, periodic_window};

    /// Two trackers with identical subtask schedules: one driven per
    /// slot, one in a single jump; compares totals, per-subtask state,
    /// and the completion-event streams.
    fn assert_jump_matches_oracle(num: i128, den: i128, n_subs: u64, horizon: Slot) {
        let w = Weight::new(rat(num, den));
        let mut batch = IswTracker::new_keeping_history(w.value(), 0);
        let mut oracle = IswTracker::new_keeping_history(w.value(), 0);
        for i in 1..=n_subs {
            let win = periodic_window(w, i, 0);
            let pred_b = i > 1 && b_bit(w, i - 1);
            batch.add_subtask(i, win.release, i == 1, pred_b);
            oracle.add_subtask(i, win.release, i == 1, pred_b);
        }
        let (batch_total, batch_events) = batch.advance_to(horizon);
        let mut oracle_total = Rational::ZERO;
        let mut oracle_events = Vec::new();
        for t in 0..horizon {
            let (a, mut e) = oracle.advance(t);
            oracle_total += a;
            oracle_events.append(&mut e);
        }
        assert_eq!(batch_total, oracle_total, "interval total");
        assert_eq!(batch_events, oracle_events, "completion events");
        assert_eq!(batch.isw_total(), oracle.isw_total());
        assert_eq!(batch.now(), oracle.now());
        for i in 1..=n_subs {
            assert_eq!(batch.subtask_cum(i), oracle.subtask_cum(i), "cum of T_{i}");
            assert_eq!(batch.completion_of(i), oracle.completion_of(i));
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
        let w = Weight::new(rat(5, 16));
        for split in 0..=10 {
            let mut batch = IswTracker::new_keeping_history(w.value(), 0);
            let mut oracle = IswTracker::new_keeping_history(w.value(), 0);
            for i in 1..=4u64 {
                let win = periodic_window(w, i, 0);
                let pred_b = i > 1 && b_bit(w, i - 1);
                batch.add_subtask(i, win.release, i == 1, pred_b);
                oracle.add_subtask(i, win.release, i == 1, pred_b);
            }
            batch.advance_to(split);
            batch.advance_to(10);
            for t in 0..10 {
                oracle.advance(t);
            }
            assert_eq!(batch.isw_total(), oracle.isw_total(), "split at {split}");
            for i in 1..=4u64 {
                assert_eq!(batch.subtask_cum(i), oracle.subtask_cum(i));
                assert_eq!(batch.completion_of(i), oracle.completion_of(i));
            }
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

    /// Without `with_slot_history` no per-slot breakdown is retained
    /// (bounded memory over long horizons) and halts report an empty
    /// breakdown but the exact `lost` total; with it, both survive.
    #[test]
    fn slot_history_is_opt_in_and_memory_stays_bounded() {
        // A never-completing subtask: weight tiny, horizon long.
        let mut lean = IswTracker::new(rat(1, 1_000_000), 0);
        lean.add_subtask(1, 0, true, false);
        lean.advance_to(100_000);
        assert_eq!(
            lean.slot_history_len(),
            0,
            "lean tracker retains no breakdown"
        );
        let rec = lean.halt(1, 100_000);
        assert_eq!(rec.lost, rat(100_000, 1_000_000));
        assert!(rec.slot_allocs.is_empty());

        let mut rich = IswTracker::new(rat(3, 19), 0).with_slot_history();
        rich.add_subtask(1, 0, true, false);
        rich.add_subtask(2, 6, false, true);
        for t in 0..8 {
            rich.advance(t);
        }
        assert_eq!(rich.slot_history_len(), 2); // X_2's slots 6 and 7
        let rec = rich.halt(2, 8);
        assert_eq!(rec.slot_allocs, vec![(6, rat(2, 19)), (7, rat(3, 19))]);
    }

    /// The interchange form does not know where the per-slot breakdown
    /// lives: a tracker with slot history renders each incomplete
    /// subtask's breakdown under that subtask, a completed subtask
    /// reports `cum = 1` beside its final-slot allocation, and decoding
    /// the text gives back a tracker that is equal, re-renders to the
    /// same bytes and halts with the same record.
    #[test]
    fn slot_history_round_trips_through_json() {
        use pfair_json::{FromJson, Json, ToJson};
        let mut tr = IswTracker::new(rat(3, 19), 0).with_slot_history();
        tr.add_subtask(1, 0, true, false);
        tr.add_subtask(2, 6, false, true);
        for t in 0..8 {
            tr.advance(t);
        }
        let text = tr.to_json().to_string();
        assert_eq!(
            text,
            concat!(
                r#"{"swt":{"num":3,"den":19},"subs":["#,
                r#"{"index":1,"release":0,"pred":null,"cum":{"num":1,"den":1},"complete_at":7,"#,
                r#""final_slot_alloc":{"num":1,"den":19},"halted_at":9223372036854775807,"slot_allocs":[]},"#,
                r#"{"index":2,"release":6,"pred":1,"cum":{"num":5,"den":19},"complete_at":null,"#,
                r#""final_slot_alloc":{"num":0,"den":1},"halted_at":9223372036854775807,"#,
                r#""slot_allocs":[[6,{"num":2,"den":19}],[7,{"num":3,"den":19}]]}],"#,
                r#""total":{"num":24,"den":19},"halted_loss":{"num":0,"den":1},"now":8,"#,
                r#""keep_retired":false,"record_slot_allocs":true}"#
            )
        );
        let mut back = IswTracker::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, tr);
        assert_eq!(back.to_json().to_string(), text);
        let rec = back.halt(2, 8);
        assert_eq!(rec, tr.halt(2, 8));
        assert_eq!(rec.slot_allocs, vec![(6, rat(2, 19)), (7, rat(3, 19))]);
        assert_eq!(back.slot_history_len(), 0);
        assert_eq!(back.to_json().to_string(), tr.to_json().to_string());

        // A breakdown on a tracker that records none, or a final-slot
        // allocation on an incomplete subtask, is not a state the
        // tracker can be in.
        let lean = text.replace(
            "\"record_slot_allocs\":true",
            "\"record_slot_allocs\":false",
        );
        assert!(IswTracker::from_json(&Json::parse(&lean).unwrap()).is_err());
        let odd = text.replace(
            r#""final_slot_alloc":{"num":0,"den":1}"#,
            r#""final_slot_alloc":{"num":1,"den":19}"#,
        );
        assert!(IswTracker::from_json(&Json::parse(&odd).unwrap()).is_err());
    }

    /// The with-history fallback still jumps correctly (delegating to
    /// the per-slot path) so callers need not branch.
    #[test]
    fn with_history_fallback_is_equivalent() {
        let mut jump = IswTracker::new(rat(5, 16), 0).with_slot_history();
        let mut oracle = IswTracker::new(rat(5, 16), 0).with_slot_history();
        for tr in [&mut jump, &mut oracle] {
            tr.add_subtask(1, 0, true, false);
            tr.add_subtask(2, 3, false, true);
        }
        let (jump_total, jump_events) = jump.advance_to(5);
        let mut oracle_total = Rational::ZERO;
        let mut oracle_events = Vec::new();
        for t in 0..5 {
            let (a, mut e) = oracle.advance(t);
            oracle_total += a;
            oracle_events.append(&mut e);
        }
        assert_eq!(jump_total, oracle_total);
        assert_eq!(jump_events, oracle_events);
        assert_eq!(jump.slot_history_len(), oracle.slot_history_len());
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
    /// never more, whatever the run has seen before.
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
        assert_eq!(completed, 10_000);
        assert_eq!(tr.isw_total(), Rational::from_int(10_000));
    }

    /// The unit is re-derived from the values at every enactment: it
    /// holds a closed era's denominator exactly as long as a retained
    /// record does.
    #[test]
    fn unit_falls_back_once_no_record_carries_the_old_denominator() {
        let mut tr = IswTracker::new(rat(3, 19), 0);
        assert_eq!(tr.unit(), Units::new(19));
        tr.add_subtask(1, 0, true, false);
        tr.sync_to(2, |_, _| ());
        tr.set_swt(rat(2, 5)); // T_1 holds 6/19
        assert_eq!(tr.unit(), Units::new(95));
        assert_eq!(tr.swt(), rat(2, 5));
        // Three subtasks of the 2/5 era push T_1 out of the records...
        let mut t = tr.projected_completion(1).expect("a live subtask");
        for index in 2..=4 {
            tr.add_subtask(index, t, true, false);
            t += 3;
            tr.sync_to(t, |_, _| ());
        }
        assert_eq!(tr.subtask_cum(1), None);
        assert_eq!(tr.unit(), Units::new(95)); // ...but only an enactment looks
        tr.set_swt(rat(1, 3));
        assert_eq!(tr.unit(), Units::new(15)); // final-slot allocations in fifths
        for index in 5..=6 {
            tr.add_subtask(index, t, true, false);
            t += 3;
            tr.sync_to(t, |_, _| ());
        }
        tr.set_swt(rat(1, 3));
        assert_eq!(tr.unit(), Units::new(3));
        assert_eq!(tr.isw_total(), Rational::from_int(6));
    }
}

/// The busy-span pair: [`IswTracker::shift`] builds the image of a
/// tracker under `(ds, di, gain)` in place and
/// [`IswTracker::gain_over_shift`] recognizes exactly that image — any
/// single field off and it refuses. Field access is what makes the
/// perturbations possible, hence a unit test.
#[cfg(test)]
mod shift_tests {
    use super::*;
    use crate::rational::rat;
    use crate::weight::Weight;
    use crate::window::{b_bit, periodic_window};
    use proptest::prelude::*;

    /// A tracker some way into a run: `subs` periodic subtasks of weight
    /// `num/den` released (possibly none), advanced to `extra` slots
    /// past the last release, optionally with the last subtask halted
    /// if it is still incomplete, a weight change enacted after that (so
    /// the unit carries two denominators) and either retention setting
    /// on.
    fn arb_tracker() -> impl Strategy<Value = IswTracker> {
        (
            (1i128..=5, 2i128..=12),
            (0u64..=6, 1i64..=5),
            (0u8..4, 0u8..4),
            (1i128..=3, 4i128..=9),
        )
            .prop_map(
                |((num, den), (subs, extra), (retention, ending), (n1, d1))| {
                    let w = Weight::new(rat(num.min(den - 1), den));
                    let mut tr = match retention {
                        0 => IswTracker::new(w.value(), 0),
                        1 => IswTracker::new_keeping_history(w.value(), 0),
                        _ => IswTracker::new(w.value(), 0).with_slot_history(),
                    };
                    let mut last = (0, 0);
                    for i in 1..=subs {
                        let win = periodic_window(w, i, 0);
                        tr.add_subtask(i, win.release, i == 1, i > 1 && b_bit(w, i - 1));
                        last = (i, win.release);
                    }
                    let stop = last.1 + extra;
                    tr.sync_to(stop, |_, _| ());
                    if ending >= 2 && subs > 0 && tr.completion_of(last.0).is_none() {
                        let _ = tr.halt(last.0, stop);
                    }
                    if ending == 3 {
                        tr.set_swt(rat(n1, d1));
                        tr.sync_to(stop + 2, |_, _| ());
                    }
                    tr
                },
            )
    }

    /// Every way of getting one field of `image` wrong.
    fn perturbations(image: &IswTracker) -> Vec<(&'static str, IswTracker)> {
        let mut out: Vec<(&'static str, IswTracker)> = Vec::new();
        let mut with = |what, edit: &dyn Fn(&mut IswTracker)| {
            let mut t = image.clone();
            edit(&mut t);
            out.push((what, t));
        };
        with("now", &|t| t.now += 1);
        with("rate", &|t| t.rate += Units::new(1));
        with("halted loss", &|t| t.halted_loss += rat(1, 7));
        with("unit", &|t| t.total.rebase(t.unit().times(2)));
        with("total base", &|t| t.total = t.total.plus(rat(1, 3)));
        with("keep_retired", &|t| {
            let r = t.retention.get_or_insert_default();
            r.keep_retired = !r.keep_retired;
        });
        with("a record more", &|t| {
            let index = t.subs.back().map_or(1, |s| s.index + 1);
            t.subs.push_back(IswSub {
                index,
                ..IswSub::default()
            });
        });
        for i in 0..image.subs.len() {
            let bump = |slot: &mut Slot| *slot = if *slot == NEVER { 0 } else { *slot + 1 };
            with("index", &|t| t.subs.as_mut_slice()[i].index += 1);
            with("release", &|t| t.subs.as_mut_slice()[i].release += 1);
            with("pred_gap", &|t| t.subs.as_mut_slice()[i].pred_gap += 1);
            with("alloc", &|t| {
                t.subs.as_mut_slice()[i].alloc += Units::new(1);
            });
            with("complete_at", &|t| {
                bump(&mut t.subs.as_mut_slice()[i].complete_at);
            });
            with("halted_at", &|t| {
                bump(&mut t.subs.as_mut_slice()[i].halted_at);
            });
        }
        if let Some((&(index, slot), &alloc)) = image.slot_history().and_then(|h| h.iter().next()) {
            fn history(t: &mut IswTracker) -> &mut SlotHistory {
                t.slot_history_mut().expect("cloned with its history")
            }
            with("history slot", &|t| {
                history(t).remove(&(index, slot));
                history(t).insert((index, slot + 1_000), alloc);
            });
            with("history alloc", &|t| {
                history(t).insert((index, slot), alloc + rat(1, 5));
            });
            with("history entry", &|t| {
                history(t).remove(&(index, slot));
            });
        }
        out
    }

    proptest! {
        #[test]
        fn shift_then_predicate_returns_the_gain(
            tr in arb_tracker(),
            ds in 0i64..5_000,
            di in 0u64..5_000,
            gain in 0i128..1_000_000,
        ) {
            let gain = Units::new(gain);
            let mut image = tr.clone();
            prop_assert!(image.shift_fits(ds, di, gain));
            prop_assert!(image.shift(ds, di, gain));
            prop_assert_eq!(tr.gain_over_shift(&image, ds, di), Some(gain));
            // Same values, one period on: totals differ by the gain.
            prop_assert_eq!(image.isw_total(), tr.isw_total() + gain.over(tr.unit()));
            prop_assert_eq!(image.swt(), tr.swt());
            prop_assert_eq!(image.slot_history_len(), tr.slot_history_len());
            // The wrong shift is not the image either.
            prop_assert_eq!(tr.gain_over_shift(&image, ds + 1, di), None);
            if !tr.subs.is_empty() {
                prop_assert_eq!(tr.gain_over_shift(&image, ds, di + 1), None);
            }
            for (what, wrong) in perturbations(&image) {
                prop_assert_eq!(tr.gain_over_shift(&wrong, ds, di), None, "perturbed {}", what);
            }
        }

        /// A shift that would overflow any field is refused whole.
        #[test]
        fn overflowing_shift_changes_nothing(tr in arb_tracker(), which in 0u8..3) {
            let (ds, di, gain) = match which {
                0 => (Slot::MAX, 0, Units::ZERO),
                1 => (0, u64::MAX, Units::ZERO),
                _ => (0, 0, Units::new(i128::MAX)),
            };
            let fits = tr.shift_fits(ds, di, gain);
            // An index shift only overflows if there is a record to
            // shift; a tracker that has counted nothing takes any gain.
            prop_assert_eq!(fits, (which == 1 && tr.subs.is_empty())
                || (which == 2 && tr.total.counted().is_zero()));
            let mut image = tr.clone();
            prop_assert_eq!(image.shift(ds, di, gain), fits);
            if !fits {
                prop_assert_eq!(tr.gain_over_shift(&image, 0, 0), Some(Units::ZERO));
            }
        }
    }
}
