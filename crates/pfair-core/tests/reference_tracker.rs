//! The era-unit trackers against an independent reading of Fig. 5.
//!
//! [`IswTracker`] and [`PsTracker`] compute in integer era units and
//! materialize rationals on demand; their per-slot `advance` is a
//! one-slot jump, so comparing it with `advance_to` checks the code
//! against itself. [`IswReference`] (the library's pure-`Rational`
//! Fig. 5, which history runs record from) is the check that shares
//! nothing with them but [`Rational`]; [`Reference`] below adds the
//! `I_PS` sum, transcribed slot by slot with every total a plain `+=`.
//!
//! One scripted task is driven through both — eras of pairwise-coprime
//! and weight-1 denominators, ended by a wait for `D(I_SW) + b`, by an
//! increase enacted mid-window (the straddle: the one case where the
//! tracker's unit must carry two denominators) or by a halt, with IS
//! separations and overlapping suspensions — and compared at every
//! boundary: totals, `icsw_total`, every retained `subtask_cum`,
//! completions with their final-slot allocations, projected
//! completions, halt records (whose loss the reference's per-slot
//! breakdown must sum to), and the tracker's JSON image decoded back
//! (which re-derives its unit from the values alone).
//!
//! A task that never changes needs no trackers: the engine reads its
//! pair off [`Trackers::closed_form`] instead, which is held here to a
//! pair synchronized at every release the engine's way and to the
//! reference's completions.
//!
//! `PROPTEST_CASES` raises the case count (CI runs this file in release
//! mode with more). The helpers are named `model_*` / `*_both` because
//! the static audit resolves calls by method name and reads this
//! directory too: a `halt` or `advance` here — or a `ref_step`, which
//! the history recorder calls on the library reference — would be
//! wired into the engine's call graph.

use pfair_core::ideal::{IswReference, IswTracker, PsTracker, RefSub, Trackers};
use pfair_core::rational::{rat, Rational};
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, periodic_window, window_in_era};
use pfair_json::{FromJson, Json, ToJson};
use proptest::prelude::*;

/// The library's `I_SW`/`I_CSW` reference plus `I_PS` of one task, one
/// slot at a time.
#[derive(Clone, Debug)]
struct Reference {
    isw: IswReference,
    wt: Rational,
    ps_total: Rational,
    suspended: Vec<(Slot, Slot)>,
}

impl Reference {
    fn new(w: Rational) -> Reference {
        Reference {
            isw: IswReference::new(w, 0),
            wt: w,
            ps_total: Rational::ZERO,
            suspended: Vec::new(),
        }
    }

    fn model_now(&self) -> Slot {
        self.isw.ref_now()
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
}

impl Pair {
    fn new(w: Rational, chunks: Vec<i64>) -> Pair {
        Pair {
            reference: Reference::new(w),
            isw: IswTracker::new(w, 0),
            ps: PsTracker::new(w, 0),
            chunks,
            cursor: 0,
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
                        got.extend(self.isw.advance(t).1.into_iter().map(flat));
                        self.ps.advance(t);
                    }
                    assert_eq!(got, expected);
                }
            }
            self.check_both();
        }
    }

    fn check_both(&mut self) {
        let r = &self.reference;
        let now = r.model_now();
        assert_eq!(self.isw.now(), now);
        assert_eq!(self.ps.now(), now);
        assert_eq!(self.isw.swt(), r.isw.ref_swt());
        assert_eq!(self.isw.isw_total(), r.isw.ref_isw_total(), "I_SW at {now}");
        assert_eq!(self.isw.icsw_total(), r.isw.ref_icsw_total());
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
        // The interchange image holds values only: decoding re-derives
        // the unit, and the result is the same tracker.
        let text = self.isw.to_json_compact();
        let back = IswTracker::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, self.isw);
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
    }

    fn initiate_both(&mut self, v: Rational) {
        self.reference.wt = v;
        self.ps.set_wt(v);
    }

    fn enact_both(&mut self, v: Rational) {
        self.reference.isw.ref_set_swt(v);
        self.isw.set_swt(v);
        self.check_both();
    }

    fn suspend_both(&mut self, from: Slot, until: Slot) {
        if from < until {
            self.reference.suspended.push((from, until));
        }
        self.ps.suspend_between(from, until);
    }

    fn halt_both(&mut self, index: u64) {
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
}

#[derive(Clone, Debug)]
struct Era {
    weight: (i128, i128),
    subs: u64,
    seps: Vec<i64>,
    end: EraEnd,
    offset: i64,
}

/// Pairwise-coprime denominators, and 1 for the weight-1 era.
const DENS: [i128; 12] = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];

fn arb_era() -> impl Strategy<Value = Era> {
    (
        (0usize..DENS.len(), 1i128..=31),
        1u64..=5,
        prop::collection::vec(0i64..3, 5),
        0u8..3,
        0i64..8,
    )
        .prop_map(|((d, n), subs, seps, end, offset)| Era {
            weight: (1 + (n - 1) % DENS[d], DENS[d]),
            subs,
            seps,
            end: [EraEnd::Wait, EraEnd::Straddle, EraEnd::Halt][usize::from(end)],
            offset,
        })
}

fn run_plan(plan: &[Era], chunks: Vec<i64>) {
    let value = |era: &Era| rat(era.weight.0, era.weight.1);
    let mut pair = Pair::new(value(&plan[0]), chunks);
    let mut index = 0u64;
    let mut open_at: Slot = 0;
    // Index and window of every released subtask not halted.
    let mut held = Vec::new();
    for (e, era) in plan.iter().enumerate() {
        let w = Weight::new(value(era));
        let mut release = open_at;
        let mut last = window_in_era(w, 1, release);
        for rank in 1..=era.subs {
            pair.advance_both(release);
            index += 1;
            pair.add_both(index, release, rank == 1, rank > 1 && b_bit(w, rank - 1));
            last = window_in_era(w, rank, release);
            held.push((index, last));
            let sep = era.seps[(rank % 5) as usize];
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
            _ => {
                let at = (pair.reference.model_completion(index) + b).max(tc);
                pair.advance_both(at);
                pair.enact_both(v);
                at
            }
        };
    }
    let end = pair.reference.model_now() + 70;
    pair.advance_both(end);
}

proptest! {
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
    /// `closed_form` is the release-synced pair, by equality and by the
    /// bytes of both images, for light, heavy and unit weights with
    /// denominators up to 64, whatever the first index; its totals are
    /// `w · (now − join)` and every retained record is the reference's.
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
        let closed = Trackers::closed_form(w, join, base, next_index, now);
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
