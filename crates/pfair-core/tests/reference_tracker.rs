//! The era-unit trackers against an independent reading of Fig. 5.
//!
//! [`IswTracker`] and [`PsTracker`] compute in integer era units and
//! materialize rationals on demand; their per-slot `advance` is a
//! one-slot jump, so comparing it with `advance_to` checks the code
//! against itself. [`Reference`] below is the check that shares nothing
//! with them but [`Rational`]: Fig. 5 and the `I_PS` sum transcribed
//! slot by slot over reduced fractions, every total a plain `+=`.
//!
//! One scripted task is driven through both — eras of pairwise-coprime
//! and weight-1 denominators, ended by a wait for `D(I_SW) + b`, by an
//! increase enacted mid-window (the straddle: the one case where the
//! tracker's unit must carry two denominators) or by a halt, with IS
//! separations and overlapping suspensions — and compared at every
//! boundary: totals, `icsw_total`, every retained `subtask_cum`,
//! completions with their final-slot allocations, projected
//! completions, halt records (with the per-slot breakdown on every
//! other plan), and the tracker's JSON image decoded back
//! (which re-derives its unit from the values alone).
//!
//! `PROPTEST_CASES` raises the case count (CI runs this file in release
//! mode with more). The helpers are named `ref_*` / `*_both` because
//! the static audit resolves calls by method name and reads this
//! directory too: a `halt` or `advance` here would be wired into the
//! engine's call graph.

use pfair_core::ideal::{IswTracker, PsTracker};
use pfair_core::rational::{rat, Rational};
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, window_in_era};
use pfair_json::{FromJson, ToJson};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct RefSub {
    index: u64,
    release: Slot,
    /// The `b = 1` predecessor sharing this subtask's release slot.
    pred: Option<u64>,
    cum: Rational,
    /// Allocation in the last slot that gave it any: once complete,
    /// `A(I_SW, T_i, D(T_i) − 1)`.
    last_alloc: Rational,
    /// Every nonzero per-slot allocation so far.
    slots: Vec<(Slot, Rational)>,
    complete_at: Option<Slot>,
    halted: bool,
}

/// `I_SW`, `I_CSW` and `I_PS` of one task, one slot at a time.
#[derive(Clone, Debug)]
struct Reference {
    swt: Rational,
    wt: Rational,
    subs: Vec<RefSub>,
    isw_total: Rational,
    lost: Rational,
    ps_total: Rational,
    suspended: Vec<(Slot, Slot)>,
    now: Slot,
}

impl Reference {
    fn new(w: Rational) -> Reference {
        Reference {
            swt: w,
            wt: w,
            subs: Vec::new(),
            isw_total: Rational::ZERO,
            lost: Rational::ZERO,
            ps_total: Rational::ZERO,
            suspended: Vec::new(),
            now: 0,
        }
    }

    fn ref_add(&mut self, index: u64, release: Slot, era_first: bool, pred_b: bool) {
        let pred = (!era_first && pred_b).then(|| {
            let p = self.subs.iter().rev().find(|s| !s.halted);
            p.expect("a b = 1 predecessor").index
        });
        self.subs.push(RefSub {
            index,
            release,
            pred,
            cum: Rational::ZERO,
            last_alloc: Rational::ZERO,
            slots: Vec::new(),
            complete_at: None,
            halted: false,
        });
    }

    /// Fig. 5 for slot `now`, in index order, and the slot's `I_PS`
    /// share. Returns `(index, D(I_SW, T_index), final-slot allocation)`
    /// of the subtasks that completed.
    fn ref_step(&mut self) -> Vec<(u64, Slot, Rational)> {
        let t = self.now;
        let mut done = Vec::new();
        for i in 0..self.subs.len() {
            let s = &self.subs[i];
            if s.halted || s.complete_at.is_some() || t < s.release {
                continue;
            }
            let alloc = if t != s.release {
                self.swt.min(Rational::ONE - s.cum)
            } else if let Some(p) = s.pred {
                let pred = self.subs.iter().find(|x| x.index == p).unwrap();
                assert!(pred.complete_at.is_some(), "T_{p} incomplete at {t}");
                self.swt - pred.last_alloc
            } else {
                self.swt
            };
            assert!(!alloc.is_negative());
            let s = &mut self.subs[i];
            s.cum += alloc;
            s.last_alloc = alloc;
            if !alloc.is_zero() {
                s.slots.push((t, alloc));
            }
            self.isw_total += alloc;
            assert!(s.cum <= Rational::ONE);
            if s.cum == Rational::ONE {
                s.complete_at = Some(t + 1);
                done.push((s.index, t + 1, alloc));
            }
        }
        if !self.suspended.iter().any(|&(a, b)| a <= t && t < b) {
            self.ps_total += self.wt;
        }
        self.now = t + 1;
        done
    }

    fn ref_halt(&mut self, index: u64) -> &RefSub {
        let s = self.subs.iter_mut().find(|s| s.index == index).unwrap();
        assert!(!s.halted && s.complete_at.is_none());
        s.halted = true;
        self.lost += s.cum;
        s
    }

    fn ref_sub(&self, index: u64) -> &RefSub {
        self.subs.iter().find(|s| s.index == index).unwrap()
    }

    /// `D(I_SW, T_index)` if the weight stays what it is: found by
    /// walking a copy forward.
    fn ref_completion(&self, index: u64) -> Slot {
        let mut ahead = self.clone();
        loop {
            if let Some(d) = ahead.ref_sub(index).complete_at {
                return d;
            }
            assert!(ahead.now < self.now + 100_000, "T_{index} never completes");
            ahead.ref_step();
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
    /// Every other plan keeps the per-slot breakdown, which makes the
    /// tracker walk its jumps slot by slot and report it at a halt.
    fn new(w: Rational, chunks: Vec<i64>) -> Pair {
        let isw = IswTracker::new(w, 0);
        Pair {
            reference: Reference::new(w),
            isw: if chunks.len().is_multiple_of(2) {
                isw.with_slot_history()
            } else {
                isw
            },
            ps: PsTracker::new(w, 0),
            chunks,
            cursor: 0,
        }
    }

    /// Advances everything to `to`, in chunks, comparing at each
    /// boundary.
    fn advance_both(&mut self, to: Slot) {
        while self.reference.now < to {
            let from = self.reference.now;
            let b = (from + self.chunks[self.cursor % self.chunks.len()]).min(to);
            self.cursor += 1;
            let (isw_before, ps_before) = (self.reference.isw_total, self.reference.ps_total);
            let mut expected = Vec::new();
            while self.reference.now < b {
                expected.extend(self.reference.ref_step());
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
                    assert_eq!(added, self.reference.isw_total - isw_before);
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
        assert_eq!(self.isw.now(), r.now);
        assert_eq!(self.ps.now(), r.now);
        assert_eq!(self.isw.swt(), r.swt);
        assert_eq!(self.isw.isw_total(), r.isw_total, "I_SW at {}", r.now);
        assert_eq!(self.isw.icsw_total(), r.isw_total - r.lost);
        assert_eq!(self.ps.total(), r.ps_total, "I_PS at {}", r.now);
        for s in &r.subs {
            let live = !s.halted && s.complete_at.is_none();
            match self.isw.subtask_cum(s.index) {
                Some(cum) => {
                    assert_eq!(cum, s.cum, "cum of T_{} at {}", s.index, r.now);
                    assert_eq!(self.isw.completion_of(s.index), s.complete_at);
                }
                None => assert!(!live, "live T_{} dropped", s.index),
            }
            if live && s.release < r.now {
                let d = r.ref_completion(s.index);
                assert_eq!(self.isw.projected_completion(s.index), Some(d));
            }
        }
        // The interchange image holds values only: decoding re-derives
        // the unit, and the result is the same tracker.
        let back = IswTracker::from_json(&self.isw.to_json()).unwrap();
        assert_eq!(back, self.isw);
        assert_eq!(back.to_json().to_string(), self.isw.to_json().to_string());
        let ps_back = PsTracker::from_json(&self.ps.to_json()).unwrap();
        assert_eq!(ps_back, self.ps);
        if self.cursor.is_multiple_of(4) {
            self.isw = back;
            self.ps = ps_back;
        }
    }

    fn add_both(&mut self, index: u64, release: Slot, era_first: bool, pred_b: bool) {
        self.reference.ref_add(index, release, era_first, pred_b);
        self.isw.add_subtask(index, release, era_first, pred_b);
    }

    fn initiate_both(&mut self, v: Rational) {
        self.reference.wt = v;
        self.ps.set_wt(v);
    }

    fn enact_both(&mut self, v: Rational) {
        self.reference.swt = v;
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
        let now = self.reference.now;
        let expected = self.reference.ref_halt(index);
        let record = self.isw.halt(index, now);
        assert_eq!(record.lost, expected.cum);
        assert_eq!((record.index, record.halted_at), (index, now));
        if self.chunks.len().is_multiple_of(2) {
            assert_eq!(record.slot_allocs, expected.slots);
        } else {
            assert!(record.slot_allocs.is_empty());
        }
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
    /// The last subtask is halted at initiation (rule O).
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
    for (e, era) in plan.iter().enumerate() {
        let w = Weight::new(value(era));
        let mut release = open_at;
        let mut last = window_in_era(w, 1, release);
        for rank in 1..=era.subs {
            pair.advance_both(release);
            index += 1;
            pair.add_both(index, release, rank == 1, rank > 1 && b_bit(w, rank - 1));
            last = window_in_era(w, rank, release);
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
        let complete = pair.reference.ref_sub(index).complete_at.is_some();
        let b = Slot::from(last.b);
        open_at = match era.end {
            EraEnd::Halt if !complete => {
                pair.halt_both(index);
                pair.enact_both(v);
                tc
            }
            // Only an increase may be enacted on the spot: the subtask
            // sharing its final slot with the last release still fills
            // its quantum there, as that release's allocation assumes.
            EraEnd::Straddle if v > pair.reference.swt => {
                pair.enact_both(v);
                (pair.reference.ref_completion(index) + b).max(tc)
            }
            _ => {
                let at = (pair.reference.ref_completion(index) + b).max(tc);
                pair.advance_both(at);
                pair.enact_both(v);
                at
            }
        };
    }
    let end = pair.reference.now + 70;
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

/// The figures the paper works through, as a fixed plan: Fig. 7's task
/// X (3/19, increase to 2/5 enacted at 8 inside X_2's window).
#[test]
fn reference_reproduces_fig7() {
    let mut r = Reference::new(rat(3, 19));
    r.ref_add(1, 0, true, false);
    r.ref_add(2, 6, false, true);
    for _ in 0..8 {
        r.ref_step();
    }
    assert_eq!(r.ref_sub(2).cum, rat(5, 19));
    r.swt = rat(2, 5);
    r.wt = rat(2, 5);
    assert_eq!(r.ref_completion(2), 10);
    r.ref_step();
    assert_eq!(r.ref_step(), vec![(2, 10, rat(32, 95))]);
    assert_eq!(r.ps_total, rat(24, 19) + rat(4, 5));
}

/// Denominators at the edge of the native-`i64` gate, across a straddle:
/// the unit is their 62-bit product and everything stays exact.
#[test]
fn denominators_near_the_gate_stay_exact_across_a_straddle() {
    let (q1, q2) = (2_147_483_629, 2_147_483_647);
    let era = |weight, end| Era {
        weight,
        subs: 3,
        seps: vec![0, 1, 0, 2, 0],
        end,
        offset: 1,
    };
    for end in [EraEnd::Straddle, EraEnd::Wait, EraEnd::Halt] {
        let plan = [
            era((715_827_883, q1), end),
            era((1_431_655_765, q2), end),
            era((1, 3), end),
            era((1_073_741_827, q1), end),
        ];
        run_plan(&plan, vec![1, 3, 2]);
    }
}

/// What does not fit panics with the documented `Rational` overflow
/// message instead of wrapping: two coprime 64-bit denominators have no
/// 127-bit common unit.
#[test]
#[should_panic(expected = "overflow")]
fn an_unrepresentable_unit_panics() {
    let (q1, q2) = ((1i128 << 64) - 59, (1i128 << 64) - 83);
    let mut isw = IswTracker::new(rat(q1 / 3, q1), 0);
    isw.add_subtask(1, 0, true, false);
    isw.advance_to(2);
    isw.set_swt(rat(q2 / 2, q2));
}
