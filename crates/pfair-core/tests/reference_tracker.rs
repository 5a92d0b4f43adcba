//! The era-unit trackers against an independent reading of Fig. 5.
//!
//! [`IswTracker`] and [`PsTracker`] compute in integer era units and
//! materialize rationals on demand; stepping them one slot at a time is
//! a one-slot jump, so comparing it with a longer jump checks the code
//! against itself. [`IswReference`] (the library's pure-`Rational`
//! Fig. 5, which history runs record from) is the check that shares
//! nothing with them but [`Rational`]; [`Reference`] below adds the
//! `I_PS` sum, transcribed slot by slot with every total a plain `+=`.
//!
//! One scripted task is driven through both — eras of pairwise-coprime
//! and weight-1 denominators, ended by a wait for `D(I_SW) + b`, by an
//! increase enacted mid-window (the straddle: the one case where the
//! tracker's unit must carry two denominators) or by a halt, with IS
//! separations and overlapping suspensions, or by a leave and a rejoin
//! — and compared at every boundary: totals, `icsw_total`, every
//! retained `subtask_cum`, completions with their final-slot
//! allocations, projected completions, halt records (whose loss the
//! reference's per-slot breakdown must sum to), and the tracker's JSON
//! image decoded back (which re-derives its unit from the values
//! alone).
//!
//! A task that never changes needs no trackers: the engine reads its
//! pair off the closed form ([`Trackers::closed`] from the join's
//! [`Bases`]) instead, which is held here to a pair synchronized at
//! every release the engine's way and to the reference's completions.
//! So does a task whose current era has settled ([`Trackers::settles`]):
//! the scripted task is checked at every boundary against the closed
//! form from the bases it settled with, after every way an era can
//! open, including an opening release that an IS delay moved (its
//! `I_PS` suspension ends exactly there).
//!
//! `PROPTEST_CASES` raises the case count (CI runs this file in release
//! mode with more). The helpers are named `model_*` / `*_both` because
//! the static audit resolves calls by method name and reads this
//! directory too: a `halt` or `advance` here — or a `ref_step`, which
//! the history recorder calls on the library reference — would be
//! wired into the engine's call graph.

use pfair_core::ideal::{Bases, IswReference, IswTracker, PsTracker, RefSub, Trackers};
use pfair_core::rational::{rat, Accumulator, Rational};
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, periodic_window, window_in_era};
use pfair_json::{FromJson, Json, ToJson};
use proptest::prelude::*;

/// The library's `I_SW`/`I_CSW` reference plus `I_PS` of one task, one
/// slot at a time. The reference follows one stay; the totals of the
/// stays before it are carried beside it.
#[derive(Clone, Debug)]
struct Reference {
    isw: IswReference,
    wt: Rational,
    ps_total: Rational,
    suspended: Vec<(Slot, Slot)>,
    /// `A(I_SW)` and `A(I_CSW)` of the earlier stays.
    carried: (Rational, Rational),
}

impl Reference {
    fn new(w: Rational) -> Reference {
        Reference {
            isw: IswReference::new(w, 0),
            wt: w,
            ps_total: Rational::ZERO,
            suspended: Vec::new(),
            carried: (Rational::ZERO, Rational::ZERO),
        }
    }

    fn model_now(&self) -> Slot {
        self.isw.ref_now()
    }

    fn model_isw_total(&self) -> Rational {
        self.carried.0 + self.isw.ref_isw_total()
    }

    fn model_icsw_total(&self) -> Rational {
        self.carried.1 + self.isw.ref_icsw_total()
    }

    /// A new stay at weight `v` from `t`: the totals carry over.
    fn model_rejoin(&mut self, v: Rational, t: Slot) {
        self.carried = (self.model_isw_total(), self.model_icsw_total());
        self.isw = IswReference::new(v, t);
        self.wt = v;
        self.suspended.clear();
    }

    fn model_add(&mut self, index: u64, release: Slot, era_first: bool, pred_b: bool) {
        assert!(self.isw.ref_add(index, release, era_first, pred_b));
        let shares_a_slot = self.model_sub(index).pred.is_some();
        assert_eq!(
            shares_a_slot,
            pred_b && !era_first,
            "T_{index}'s predecessor"
        );
    }

    /// Fig. 5 for slot `now`, in index order, and the slot's `I_PS`
    /// share. Returns `(index, D(I_SW, T_index), final-slot allocation)`
    /// of the subtasks that completed.
    fn model_step(&mut self) -> Vec<(u64, Slot, Rational)> {
        let t = self.model_now();
        let mut done = Vec::new();
        self.isw.ref_step(|i, at, a| done.push((i, at, a)));
        for s in self.isw.ref_subs() {
            assert!(!s.cum.is_negative() && s.cum <= Rational::ONE);
            if let Some(p) = s.pred.filter(|_| s.release == t) {
                let pred = self.model_sub(p);
                assert!(pred.complete_at.is_some(), "T_{p} incomplete at {t}");
            }
        }
        if !self.suspended.iter().any(|&(a, b)| a <= t && t < b) {
            self.ps_total += self.wt;
        }
        done
    }

    fn model_halt(&mut self, index: u64) -> RefSub {
        self.isw.ref_halt(index).expect("a live subtask").clone()
    }

    fn model_sub(&self, index: u64) -> &RefSub {
        self.isw.ref_sub(index).expect("a released subtask")
    }

    /// `D(I_SW, T_index)` if the weight stays what it is: found by
    /// walking a copy forward.
    fn model_completion(&self, index: u64) -> Slot {
        let mut ahead = self.clone();
        loop {
            if let Some(d) = ahead.model_sub(index).complete_at {
                return d;
            }
            assert!(
                ahead.model_now() < self.model_now() + 100_000,
                "T_{index} never completes"
            );
            ahead.model_step();
        }
    }
}

/// The reference and the trackers under test, advanced in lock step.
struct Pair {
    reference: Reference,
    isw: IswTracker,
    ps: PsTracker,
    /// Jump lengths, cycled; the position also picks how the trackers
    /// are advanced.
    chunks: Vec<i64>,
    cursor: usize,
    /// The current era: its weight, the index before its first
    /// subtask, and the index the next release gets.
    era: (Weight, u64, u64),
    /// Index and release of the last released subtask.
    last: (u64, Slot),
    /// The bases the pair settled with, while nothing but releases has
    /// happened since.
    settled: Option<Bases>,
}

impl Pair {
    fn new(w: Rational, chunks: Vec<i64>) -> Pair {
        Pair {
            reference: Reference::new(w),
            isw: IswTracker::new(w, 0),
            ps: PsTracker::new(w, 0),
            chunks,
            cursor: 0,
            era: (Weight::new(w), 0, 1),
            last: (0, 0),
            settled: None,
        }
    }

    fn both(&self) -> Trackers {
        Trackers {
            isw: self.isw.clone(),
            ps: self.ps.clone(),
        }
    }

    /// Where the era's grid starts, read off the last released subtask
    /// the way the engine reads it off its last record.
    fn anchor(&self) -> Slot {
        let (w, era_base, _) = self.era;
        let (index, release) = self.last;
        release - periodic_window(w, index - era_base, 0).release
    }

    /// Settles the pair if its era has: the engine asks after every
    /// release of a row with no change pending. Returns whether it is
    /// settled.
    fn settle_both(&mut self) -> bool {
        let (w, era_base, next_index) = self.era;
        if self.settled.is_none() {
            self.settled = self.both().settles(w, self.anchor(), era_base, next_index);
        }
        self.check_settled();
        self.settled.is_some()
    }

    /// The closed form from the settled bases is the pair, by value and
    /// by the bytes of both images; the pair's `I_PS` runs at the era's
    /// weight; and the reference completes every subtask of the era at
    /// its deadline.
    fn check_settled(&self) {
        let Some(bases) = &self.settled else { return };
        let (w, era_base, next_index) = self.era;
        let now = self.reference.model_now();
        let closed = Trackers::closed(w, bases, self.anchor(), era_base, next_index, now);
        assert_eq!(self.ps.wt(), w.value(), "I_PS weight at {now}");
        assert_eq!(closed, self.both(), "closed form at {now}");
        assert_eq!(closed.isw.to_json_compact(), self.isw.to_json_compact());
        assert_eq!(closed.ps.to_json_compact(), self.ps.to_json_compact());
        for s in (self.reference.isw.ref_subs().iter()).filter(|s| s.index > era_base) {
            let d = window_in_era(w, s.index - era_base, s.release).deadline;
            assert!(
                s.complete_at.is_none_or(|at| at == d),
                "D(I_SW, T_{})",
                s.index
            );
        }
    }

    /// Advances everything to `to`, in chunks, comparing at each
    /// boundary.
    fn advance_both(&mut self, to: Slot) {
        while self.reference.model_now() < to {
            let from = self.reference.model_now();
            let b = (from + self.chunks[self.cursor % self.chunks.len()]).min(to);
            self.cursor += 1;
            let (isw_before, ps_before) =
                (self.reference.isw.ref_isw_total(), self.reference.ps_total);
            let mut expected = Vec::new();
            while self.reference.model_now() < b {
                expected.extend(self.reference.model_step());
            }
            let flat = |e: pfair_core::ideal::CompletionEvent| {
                (e.index, e.complete_at, e.final_slot_alloc)
            };
            match self.cursor % 3 {
                0 => {
                    // The engine's form: completions without allocations.
                    let mut got = Vec::new();
                    self.isw.sync_to(b, |index, at| got.push((index, at)));
                    let slots: Vec<_> = expected.iter().map(|&(i, at, _)| (i, at)).collect();
                    assert_eq!(got, slots);
                    self.ps.sync_to(b);
                }
                1 => {
                    let (added, events) = self.isw.advance_to(b);
                    assert_eq!(added, self.reference.isw.ref_isw_total() - isw_before);
                    assert_eq!(events.into_iter().map(flat).collect::<Vec<_>>(), expected);
                    assert_eq!(self.ps.advance_to(b), self.reference.ps_total - ps_before);
                }
                _ => {
                    let mut got = Vec::new();
                    for t in from..b {
                        got.extend(self.isw.advance_to(t + 1).1.into_iter().map(flat));
                        self.ps.advance_to(t + 1);
                    }
                    assert_eq!(got, expected);
                }
            }
            self.check_both();
            self.check_settled();
        }
    }

    fn check_both(&mut self) {
        let r = &self.reference;
        let now = r.model_now();
        assert_eq!(self.isw.now(), now);
        assert_eq!(self.ps.now(), now);
        assert_eq!(self.isw.swt(), r.isw.ref_swt());
        assert_eq!(self.isw.isw_total(), r.model_isw_total(), "I_SW at {now}");
        assert_eq!(self.isw.icsw_total(), r.model_icsw_total());
        assert_eq!(self.ps.total(), r.ps_total, "I_PS at {now}");
        for s in r.isw.ref_subs() {
            let live = !s.halted && s.complete_at.is_none();
            match self.isw.subtask_cum(s.index) {
                Some(cum) => {
                    assert_eq!(cum, s.cum, "cum of T_{} at {now}", s.index);
                    assert_eq!(self.isw.completion_of(s.index), s.complete_at);
                }
                None => assert!(!live, "live T_{} dropped", s.index),
            }
            if live && s.release < now {
                let d = r.model_completion(s.index);
                assert_eq!(self.isw.projected_completion(s.index), Some(d));
            }
        }
        // The interchange image holds values only: decoding derives the
        // unit from them, and the result is the same tracker, counting in
        // the same unit.
        let text = self.isw.to_json_compact();
        let back = IswTracker::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, self.isw);
        assert_eq!(back.unit(), self.isw.unit(), "unit at {now}");
        assert_eq!(back.to_json_compact(), text);
        let ps_text = self.ps.to_json_compact();
        let ps_back = PsTracker::from_json(&Json::parse(&ps_text).unwrap()).unwrap();
        assert_eq!(ps_back, self.ps);
        if self.cursor.is_multiple_of(4) {
            self.isw = back;
            self.ps = ps_back;
        }
    }

    fn add_both(&mut self, index: u64, release: Slot, era_first: bool, pred_b: bool) {
        self.reference.model_add(index, release, era_first, pred_b);
        self.isw.add_subtask(index, release, era_first, pred_b);
        self.era.2 = index + 1;
        self.last = (index, release);
    }

    fn initiate_both(&mut self, v: Rational) {
        self.settled = None;
        self.reference.wt = v;
        self.ps.set_wt(v);
    }

    /// Enacts `v`: the era numbering subtasks after the last released
    /// one opens.
    fn enact_both(&mut self, v: Rational) {
        self.settled = None;
        self.reference.isw.ref_set_swt(v);
        self.isw.set_swt(v);
        self.era = (Weight::new(v), self.era.2 - 1, self.era.2);
        self.check_both();
    }

    /// A new stay at weight `v` from `t`, after the trackers stood
    /// still since the departure.
    fn rejoin_both(&mut self, v: Rational, t: Slot) {
        self.settled = None;
        self.reference.model_rejoin(v, t);
        self.isw.rejoin(v, t);
        self.ps.rejoin(v, t);
        self.era = (Weight::new(v), self.era.2 - 1, self.era.2);
        self.check_both();
    }

    fn suspend_both(&mut self, from: Slot, until: Slot) {
        if from < until {
            self.reference.suspended.push((from, until));
        }
        self.ps.suspend_between(from, until);
    }

    fn halt_both(&mut self, index: u64) {
        self.settled = None;
        let now = self.reference.model_now();
        let expected = self.reference.model_halt(index);
        let lost = self.isw.halt(index, now);
        assert_eq!(lost, expected.cum);
        // What `I_CSW` takes back, slot by slot, is what it lost.
        let per_slot = (expected.slots.iter()).fold(Rational::ZERO, |sum, &(_, a)| sum + a);
        assert_eq!(per_slot, lost);
        assert!(expected.slots.iter().all(|&(t, _)| t < now));
        self.check_both();
    }
}

/// How an era hands over to the next weight.
#[derive(Clone, Copy, Debug)]
enum EraEnd {
    /// Initiated inside the last window, enacted at `D(I_SW) + b` (a
    /// decrease under rule I, or rule O's case with the deadline past).
    Wait,
    /// Enacted at initiation while the last subtask is incomplete (an
    /// increase under rule I; a decrease waits instead): the straddle.
    Straddle,
    /// The last subtask is halted at initiation and the change enacted
    /// at `max(t_c, D(I_SW, T_{j−1}) + b(T_{j−1}))`, `T_{j−1}` the last
    /// subtask not halted before it (rule O).
    Halt,
    /// The task leaves: the last subtask is halted if incomplete, the
    /// rest complete, and the task rejoins at the next weight `offset`
    /// slots later (rules L and J).
    Rejoin,
}

#[derive(Clone, Debug)]
struct Era {
    weight: (i128, i128),
    subs: u64,
    seps: Vec<i64>,
    end: EraEnd,
    offset: i64,
    /// An IS delay of the era's opening release: `I_PS` is suspended
    /// from the opening slot until the release.
    open_delay: i64,
}

/// Pairwise-coprime denominators, and 1 for the weight-1 era.
const DENS: [i128; 12] = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];

fn arb_era() -> impl Strategy<Value = Era> {
    (
        (0usize..DENS.len(), 1i128..=31),
        1u64..=5,
        prop::collection::vec(0i64..3, 5),
        (0u8..4, 0i64..8, 0i64..3),
    )
        .prop_map(|((d, n), subs, seps, (end, offset, open_delay))| Era {
            weight: (1 + (n - 1) % DENS[d], DENS[d]),
            subs,
            seps,
            end: [EraEnd::Wait, EraEnd::Straddle, EraEnd::Halt, EraEnd::Rejoin][usize::from(end)],
            offset,
            open_delay,
        })
}

/// Drives the scripted task through `plan`, comparing the trackers with
/// the reference at every boundary. At every release it also holds the
/// settling of eras to their *quiet* releases (none delayed, none with
/// an `I_PS` suspension still ahead): three in a row push out the
/// records of any other era or grid, so the pair has settled; and a
/// pair never settles on a release that is not quiet. A join or rejoin
/// whose opening release was delayed holds nothing but the era's
/// records there, all on the grid, and a suspension that ends exactly
/// at that release: the pair settles at the next quiet release, not at
/// that one.
fn run_plan(plan: &[Era], chunks: Vec<i64>) {
    let value = |era: &Era| rat(era.weight.0, era.weight.1);
    let mut pair = Pair::new(value(&plan[0]), chunks);
    let mut index = 0u64;
    let mut open_at: Slot = 0;
    // Index and window of every released subtask not halted.
    let mut held = Vec::new();
    for (e, era) in plan.iter().enumerate() {
        let w = Weight::new(value(era));
        // Nothing but this era's records: the join, or a rejoin.
        let fresh = e == 0 || matches!(plan[e - 1].end, EraEnd::Rejoin);
        pair.suspend_both(open_at, open_at + era.open_delay);
        let mut release = open_at + era.open_delay;
        let mut last = window_in_era(w, 1, release);
        let (mut quiet, mut delayed) = (0, era.open_delay > 0);
        for rank in 1..=era.subs {
            pair.advance_both(release);
            index += 1;
            pair.add_both(index, release, rank == 1, rank > 1 && b_bit(w, rank - 1));
            let settled = pair.settle_both();
            let suspended = (pair.reference.suspended.iter()).any(|&(_, until)| until > release);
            quiet = if delayed || suspended { 0 } else { quiet + 1 };
            assert!(quiet < 3 || settled, "T_{index}: {quiet} quiet releases");
            assert!(
                quiet > 0 || !settled,
                "T_{index}: settled on a release not quiet"
            );
            if fresh && era.open_delay > 0 && rank == 1 {
                // The records are the closed form's; the suspension that
                // ends here is not, so the pair does not settle yet.
                let (_, era_base, next_index) = pair.era;
                let bases = Bases {
                    since: release,
                    isw_total: Accumulator::from(pair.isw.isw_total()),
                    halted_loss: Accumulator::from(pair.isw.isw_total() - pair.isw.icsw_total()),
                    ps_total: Accumulator::from(pair.ps.total()),
                };
                let closed =
                    Trackers::closed(w, &bases, pair.anchor(), era_base, next_index, release);
                assert_eq!(closed.isw, pair.isw, "T_{index}: delayed opening");
                assert_ne!(closed.ps, pair.ps, "T_{index}: delayed opening");
            }
            if fresh && era.open_delay > 0 && rank == 2 && quiet == 1 {
                assert!(settled, "T_{index}: the release after a delayed opening");
            }
            last = window_in_era(w, rank, release);
            held.push((index, last));
            let sep = era.seps[(rank % 5) as usize];
            delayed = sep > 0;
            if delayed {
                // An IS delay: the engine rebuilds the trackers of a
                // settled row before it moves the release.
                pair.settled = None;
            }
            // An IS separation: `I_PS` owes nothing between the deadline
            // and the delayed release (twice over, now and then: the
            // intervals may overlap).
            pair.suspend_both(last.deadline, last.next_release() + sep);
            if sep == 2 {
                pair.suspend_both(last.deadline + 1, last.next_release() + sep + 1);
            }
            release = last.next_release() + sep;
        }
        let Some(next) = plan.get(e + 1) else { break };
        let v = value(next);
        let inside = |t: Slot| t.clamp(last.release, (last.deadline - 1).max(last.release));
        let tc = inside(last.release + era.offset);
        pair.advance_both(tc);
        pair.initiate_both(v);
        let complete = pair.reference.model_sub(index).complete_at.is_some();
        let b = Slot::from(last.b);
        open_at = match era.end {
            EraEnd::Halt if !complete => {
                pair.halt_both(index);
                held.pop();
                let at = held.last().map_or(tc, |&(p, win)| {
                    (pair.reference.model_completion(p) + Slot::from(win.b)).max(tc)
                });
                pair.advance_both(at);
                pair.enact_both(v);
                at
            }
            // Only an increase may be enacted on the spot: the subtask
            // sharing its final slot with the last release still fills
            // its quantum there, as that release's allocation assumes.
            EraEnd::Straddle if v > pair.reference.isw.ref_swt() => {
                pair.enact_both(v);
                (pair.reference.model_completion(index) + b).max(tc)
            }
            EraEnd::Rejoin => {
                if !complete {
                    pair.halt_both(index);
                    held.pop();
                }
                let at = held.last().map_or(tc, |&(p, win)| {
                    (pair.reference.model_completion(p) + Slot::from(win.b)).max(tc)
                });
                pair.advance_both(at);
                held.clear();
                pair.rejoin_both(v, at + era.offset);
                at + era.offset
            }
            _ => {
                let at = (pair.reference.model_completion(index) + b).max(tc);
                pair.advance_both(at);
                pair.enact_both(v);
                at
            }
        };
    }
    // The last era releases nothing more. In the engine only a parked
    // change or a leave stops a task's releases, and either rebuilds
    // the trackers of a settled row.
    pair.settled = None;
    let end = pair.reference.model_now() + 70;
    pair.advance_both(end);
}

/// An era of 3 to 8 subtasks of one of the [`DENS`] weights, with IS
/// separations after few of its ranks, ended by any way an era can
/// end.
fn arb_settling_era() -> impl Strategy<Value = Era> {
    (arb_era(), 3u64..=8, 0usize..=5).prop_map(|(mut era, subs, separated)| {
        era.subs = subs;
        for (rank, sep) in era.seps.iter_mut().enumerate() {
            if rank > separated {
                *sep = 0;
            }
        }
        era
    })
}

proptest! {
    /// After every way an era opens — the join, a rule-O wait, a rule-O
    /// halt, a rule-I increase enacted mid-window, a leave and rejoin,
    /// and IS separations that have ended — the pair settles once its
    /// records are all of the era and on one grid, and from then on it
    /// is the closed form of the pair it settled with at every boundary
    /// (`settle_both` and `check_settled`): by value, by image bytes,
    /// and with the reference's completions, each at its deadline.
    #[test]
    fn settled_form_is_the_release_synced_pair_after_every_opening(
        plan in prop::collection::vec(arb_settling_era(), 2..7),
        chunks in prop::collection::vec(1i64..12, 1..6),
    ) {
        run_plan(&plan, chunks);
    }

    #[test]
    fn trackers_match_the_reference_at_every_boundary(
        plan in prop::collection::vec(arb_era(), 2..7),
        chunks in prop::collection::vec(1i64..12, 1..6),
    ) {
        run_plan(&plan, chunks);
    }
}

/// A task of weight `w` that joined at `join` and never changed, at
/// `now`, its subtasks numbered from `base + 1`: its pair as the engine
/// would have kept it — synchronized at every release, at every
/// `stride`-th slot besides when `stride` is given, and last at `now`,
/// each subtask added at its release — and the library reference
/// stepped slot by slot beside it, every completion of which must be
/// the subtask's deadline `d(T_i)`. Returns the pair, the index the
/// next release would get, and the reference.
fn synced_static_pair(
    w: Weight,
    join: Slot,
    base: u64,
    now: Slot,
    stride: Option<i64>,
) -> (Trackers, u64, IswReference) {
    let mut pair = Trackers {
        isw: IswTracker::new(w.value(), join),
        ps: PsTracker::new(w.value(), join),
    };
    let mut reference = IswReference::new(w.value(), join);
    let mut rank = 1;
    let mut release = join;
    for t in join..=now {
        let sync_here = t == release || t == now || stride.is_some_and(|k| (t - join) % k == 0);
        if sync_here && pair.isw.now() < t {
            pair.isw.sync_to(t, |_, _| ());
            pair.ps.sync_to(t);
        }
        if t == release {
            let pred_b = rank > 1 && b_bit(w, rank - 1);
            pair.isw.add_subtask(base + rank, t, rank == 1, pred_b);
            assert!(reference.ref_add(base + rank, t, rank == 1, pred_b));
            rank += 1;
            release = periodic_window(w, rank, join).release;
        }
        if t < now {
            reference.ref_step(|i, at, _| {
                let d = periodic_window(w, i - base, join).deadline;
                assert_eq!(at, d, "D(I_SW, T_{i})");
            });
        }
    }
    (pair, base + rank, reference)
}

proptest! {
    /// The closed form from the join's bases is the release-synced pair,
    /// by equality and by the bytes of both images, for light, heavy and
    /// unit weights with denominators up to 64, whatever the first index;
    /// its totals are `w · (now − join)`, every retained record is the
    /// reference's, and the anchor read off the last release is the join.
    #[test]
    fn closed_form_is_the_release_synced_pair(
        (num, den) in (1i128..=64, 1i128..=64),
        join in 0i64..300,
        span in 0i64..300,
        stride in 0i64..40,
        base in 0u64..3,
    ) {
        let w = Weight::new(rat(num.min(den), den));
        let now = join + span;
        let stride = (stride > 0).then_some(stride);
        let (synced, next_index, reference) = synced_static_pair(w, join, base, now, stride);
        // The engine reads the anchor off the last released record.
        let rank = next_index - 1 - base;
        let release = periodic_window(w, rank, join).release;
        prop_assert_eq!(release - periodic_window(w, rank, 0).release, join);
        let closed = Trackers::closed(w, &Bases::join(join), join, base, next_index, now);
        prop_assert_eq!(&closed, &synced);
        prop_assert_eq!(closed.isw.to_json_compact(), synced.isw.to_json_compact());
        prop_assert_eq!(closed.ps.to_json_compact(), synced.ps.to_json_compact());
        let total = w.value().mul_int(span);
        prop_assert_eq!(closed.isw.isw_total(), total);
        prop_assert_eq!(closed.isw.icsw_total(), total);
        prop_assert_eq!(closed.ps.total(), total);
        prop_assert_eq!(reference.ref_isw_total(), total);
        for s in reference.ref_subs() {
            if let Some(cum) = closed.isw.subtask_cum(s.index) {
                prop_assert_eq!(cum, s.cum, "cum of T_{}", s.index);
                prop_assert_eq!(closed.isw.completion_of(s.index), s.complete_at);
            }
        }
    }
}

/// The figures the paper works through, as a fixed plan: Fig. 7's task
/// X (3/19, increase to 2/5 enacted at 8 inside X_2's window).
#[test]
fn reference_reproduces_fig7() {
    let mut r = Reference::new(rat(3, 19));
    r.model_add(1, 0, true, false);
    r.model_add(2, 6, false, true);
    for _ in 0..8 {
        r.model_step();
    }
    assert_eq!(r.model_sub(2).cum, rat(5, 19));
    r.isw.ref_set_swt(rat(2, 5));
    r.wt = rat(2, 5);
    assert_eq!(r.model_completion(2), 10);
    r.model_step();
    assert_eq!(r.model_step(), vec![(2, 10, rat(32, 95))]);
    assert_eq!(r.ps_total, rat(24, 19) + rat(4, 5));
}

/// Denominators near the top of what the 64-bit era units hold, across
/// a straddle: the unit is their 58-bit product, every count of the run
/// (a dozen quanta of it) fits, and everything stays exact.
#[test]
fn denominators_near_the_gate_stay_exact_across_a_straddle() {
    let (q1, q2) = (536_870_879, 536_870_909);
    let era = |weight, end| Era {
        weight,
        subs: 3,
        seps: vec![0, 1, 0, 2, 0],
        end,
        offset: 1,
        open_delay: 0,
    };
    for end in [EraEnd::Straddle, EraEnd::Wait, EraEnd::Halt] {
        let plan = [
            era((178_956_959, q1), end),
            era((357_913_939, q2), end),
            era((1, 3), end),
            era((268_435_439, q1), end),
        ];
        run_plan(&plan, vec![1, 3, 2]);
    }
}

/// What does not fit panics with the documented `Rational` overflow
/// message instead of wrapping: two coprime 64-bit denominators have no
/// 64-bit common unit. The engine never gets here: its arithmetic budget
/// refuses such a reweight at initiation, before any tracker sees it.
#[test]
#[should_panic(expected = "overflow")]
fn an_unrepresentable_unit_panics() {
    let (q1, q2) = ((1i128 << 64) - 59, (1i128 << 64) - 83);
    let mut isw = IswTracker::new(rat(q1 / 3, q1), 0);
    isw.add_subtask(1, 0, true, false);
    isw.advance_to(2);
    isw.set_swt(rat(q2 / 2, q2));
}
