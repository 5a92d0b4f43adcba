//! Steady busy-span batching: closed-form advance over saturated spans.
//!
//! The driver loop ([`Engine::run_to`]) already jumps *quiet*
//! spans — empty ready queue, no event due. Saturated systems never
//! have a quiet slot, yet between scheduling-relevant events their
//! trajectory is exactly periodic: every in-system task's subtask
//! windows recur with the period structure of Eqns (2)–(4) (a weight
//! `num/den` advances `num` subtask ranks every `den` slots, shifting
//! every window by `den`), so the whole engine state repeats up to a
//! uniform translation. This module exploits that:
//!
//! 1. **Arm** — when no enactment, departure, or stream event is due
//!    before a far boundary, snapshot the full scheduling state at
//!    `t0` and compute the candidate period `P` = lcm of the
//!    scheduling-weight denominators of every task releasing inside
//!    the span (capped; computed with the overflow-checked
//!    [`checked_lcm`]).
//! 2. **Verify** — keep stepping the per-slot oracle for exactly `P`
//!    slots. At `t1 = t0 + P`, check that the live state equals the
//!    snapshot translated by one period (`Φ`): every window, tracker,
//!    queue entry, calendar hint, and counter delta must match the
//!    closed-form image *bit for bit*, and each advancing task's rank
//!    delta must equal the analytic `(P / den) · num`. Any deviation
//!    aborts the attempt (with exponential backoff) and the run simply
//!    continues per-slot — batching is a pure optimization, never a
//!    semantic change.
//! 3. **Jump** — the engine is deterministic and, in the absence of
//!    events, its slot pipeline commutes with time translation, so
//!    `F^P(A) = Φ(A)` implies `F^(kP)(A) = Φ^k(A)`. The remaining
//!    `k = ⌊(end − t1) / P⌋` whole periods are enacted in one step by
//!    applying `Φ^k`: ranks advance `k · ΔI`, slots shift `k · P`,
//!    trackers translate via their `translated` constructors, counters
//!    accumulate `k` copies of the verified per-period delta.
//!
//! The attached probe follows a jump through two hooks —
//! [`Probe::on_span_armed`] at the snapshot slot and
//! [`Probe::on_busy_span_jump`] carrying the verified per-period
//! [`SpanDigest`] — and can stay exact across it: the verified period's
//! hook stream repeats `k` times shifted, so multiplying one period's
//! deltas by `k` is exact integer arithmetic, not sampling. The
//! equivalence proptests assert the rendered results, counters,
//! metrics snapshots, and engine snapshots of batched and per-slot
//! runs are byte-identical.

use super::slab::TaskSlab;
use super::{Engine, SubRec, TaskState};
use crate::calendar::CalendarRing;
use crate::overhead::Counters;
use crate::priority::Priority;
use crate::queue::{QueueEntry, ReadyQueue};
use crate::reweight::RuleSelector;
use pfair_core::analysis::checked_lcm;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{shift_ever, Slot, NEVER};
use pfair_core::window::SubtaskWindow;
use pfair_obs::{Probe, SpanDigest, TaskSpanDelta};

/// Longest candidate period the batcher will verify. Spans with larger
/// hyperperiods fall back to per-slot stepping: the verification cost
/// (one full period of oracle slots plus a state diff) must stay small
/// against the jump it buys.
const MAX_SPAN_PERIOD: Slot = 4096;

/// Slots at or beyond this bound never batch. Well inside the packed-
/// priority exact band (`±2^46`, see [`crate::priority`]), so every
/// deadline/group-deadline field of a translated queue entry round-trips
/// through [`Priority::pack`] exactly.
const SLOT_SAFE_BOUND: Slot = 1 << 44;

/// Mismatch backoff cap: after `n` failed verifications the next
/// attempt waits `period << min(n, MAX_BACKOFF)` slots.
const MAX_BACKOFF: u32 = 4;

/// Cap on the processor-rotation probe extension, in base periods. The
/// sticky processor assignment ([`Engine::assign_processors`]) maps
/// each period's assignment vector to the next through a fixed
/// function, so in a steady schedule it settles into a cycle of some
/// length `q` base periods. `q` is *not* bounded by the order of a
/// processor permutation — the map acts on whole assignment vectors,
/// and cycles of length 6 arise already at `M = 4` — so rotation-only
/// verification failures keep the armed snapshot and extend the
/// verification slot one base period at a time until the multiple
/// covers the cycle. Cycles longer than this cap are abandoned to the
/// ordinary backoff.
const MAX_CPU_ROTATION: Slot = 8;

/// Busy-span batching state machine. Not persisted: a restored engine
/// re-arms from scratch, which cannot change its trajectory (jumps are
/// verified no-ops over per-slot stepping).
#[derive(Clone, Debug, Default)]
pub(super) struct BusySpanState {
    /// Armed snapshot awaiting its verification slot.
    probe: Option<SpanProbe>,
    /// Consecutive failed verifications (drives the backoff).
    fails: u32,
    /// Do not arm again before this slot.
    next_attempt: Slot,
}

/// Outcome of a verification attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpanVerdict {
    /// Verified and jumped.
    Jumped,
    /// Everything scheduling-visible matched, but at least one task sat
    /// on a different processor: the sticky assignment is rotating with
    /// a longer cycle than the armed period.
    CpuRotation,
    /// The state is not (yet) periodic at the armed period.
    Mismatch,
}

/// Why [`task_delta`] rejected a task pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeltaError {
    /// Only the processor placement differs.
    CpuRotation,
    /// A scheduling-visible field differs.
    Mismatch,
}

/// Everything [`Engine::busy_span_tick`] needs to recognize `Φ(A)` one
/// period later: the scheduling-relevant state at `t0`, with the
/// calendar rings projected to canonical `(slot, task)` lists (ring
/// *base* and per-slot insertion order are representation details —
/// consumers sort-and-dedup every due set — so equality is compared on
/// content, not encoding).
#[derive(Clone, Debug)]
struct SpanProbe {
    t0: Slot,
    /// Base span period (the lcm of the releasing denominators).
    base: Slot,
    /// Verified period: `base` at arm time, grown one `base` step per
    /// [`SpanVerdict::CpuRotation`] until it covers the sticky
    /// assignment's cycle.
    period: Slot,
    /// Jump ceiling fixed at arm time: `min(next_boundary, run limit)`.
    end: Slot,
    tasks: TaskSlab,
    queue: Vec<QueueEntry>,
    release_ring: Vec<(Slot, TaskId)>,
    enact_ring: Vec<(Slot, TaskId)>,
    leave_ring: Vec<(Slot, TaskId)>,
    counters: Counters,
    misses_len: usize,
    next_event: usize,
    selector: RuleSelector,
    committed: Vec<Rational>,
}

/// Verified per-period deltas of one task, used to extrapolate `Φ^k`.
#[derive(Clone, Copy, Debug)]
struct TaskDelta {
    /// Subtask ranks gained per period (`0` for a fixed task).
    d_index: u64,
    /// `scheduled_count` gained per period.
    sched: u64,
    /// `I_SW` allocation gained per period.
    isw_dt: Rational,
    /// `I_PS` allocation gained per period.
    ps_dt: Rational,
}

impl TaskDelta {
    /// Delta of a task the span does not move at all.
    fn fixed() -> TaskDelta {
        TaskDelta {
            d_index: 0,
            sched: 0,
            isw_dt: Rational::ZERO,
            ps_dt: Rational::ZERO,
        }
    }
}

impl<P: Probe> Engine<P> {
    /// One busy-span state-machine transition, called by the driver
    /// loop after every full per-slot step and every quiet-span skip.
    /// Either advances an armed probe toward its verification slot,
    /// verifies-and-jumps at that slot, or considers arming a fresh
    /// probe. O(1) when nothing is armed and arming is not due.
    pub(super) fn busy_span_tick(&mut self) {
        if !self.config.busy_span {
            return;
        }
        if let Some(probe) = self.busy.probe.take() {
            let verify_at = probe.t0 + probe.period;
            if self.now < verify_at {
                self.busy.probe = Some(probe);
                return;
            }
            if self.now == verify_at {
                match self.verify_and_apply(&probe) {
                    SpanVerdict::Jumped => {
                        self.busy_span_jumps += 1;
                        self.busy.fails = 0;
                    }
                    SpanVerdict::CpuRotation => {
                        // Every scheduling-visible task field matched;
                        // only the sticky assignment rotates with a
                        // cycle the current multiple does not cover.
                        // Keep the same snapshot and push the
                        // verification slot out one base period — this
                        // discovers the cycle length `q` in `q` cheap
                        // comparisons, where re-arming would restart a
                        // fresh two-period wait per candidate.
                        let next = probe.period.saturating_add(probe.base);
                        if probe.period / probe.base.max(1) < MAX_CPU_ROTATION
                            && next <= MAX_SPAN_PERIOD
                            && probe.t0 + 2 * next <= probe.end
                        {
                            let mut p = probe;
                            p.period = next;
                            self.busy.probe = Some(p);
                        } else {
                            self.busy.fails = (self.busy.fails + 1).min(MAX_BACKOFF);
                            self.busy.next_attempt =
                                self.now.saturating_add(probe.base << self.busy.fails);
                        }
                    }
                    SpanVerdict::Mismatch => {
                        self.busy.fails = (self.busy.fails + 1).min(MAX_BACKOFF);
                        self.busy.next_attempt =
                            self.now.saturating_add(probe.period << self.busy.fails);
                    }
                }
                return;
            }
            // A quiet-span jump overshot the verification slot; the
            // snapshot no longer describes one-period-ago state. Drop
            // it and fall through to re-arming.
        }
        self.try_arm();
    }

    /// Number of verified busy-span jumps enacted so far (diagnostic;
    /// deliberately not a [`Counters`] field — the per-slot oracle
    /// never increments it, and counters must stay bit-identical).
    pub fn busy_span_jumps(&self) -> u64 {
        self.busy_span_jumps
    }

    /// Arms a probe when the span ahead looks periodic and is long
    /// enough to pay for its verification period.
    fn try_arm(&mut self) {
        let now = self.now;
        if now < self.busy.next_attempt || self.queue.is_empty() || !self.injected.is_empty() {
            return;
        }
        // Clamp to the current run segment: a jump must never carry
        // `now` past a `run_to` boundary.
        let end = self.next_boundary(now).min(self.run_limit);
        if end >= SLOT_SAFE_BOUND {
            return;
        }
        let Some(period) = self.span_period(end) else {
            return;
        };
        // One period is spent verifying; the jump must buy at least one
        // more whole period to be worth arming.
        if now + 2 * period > end {
            return;
        }
        self.busy.probe = Some(SpanProbe {
            t0: now,
            base: period,
            period,
            end,
            tasks: self.tasks.clone(),
            queue: self.queue.entries_sorted(),
            release_ring: ring_canonical(&self.release_at),
            enact_ring: ring_canonical(&self.enact_at),
            leave_ring: ring_canonical(&self.leave_at),
            counters: self.counters,
            misses_len: self.misses.len(),
            next_event: self.next_event,
            selector: self.selector.clone(),
            committed: self.admission.committed_parts().to_vec(),
        });
        self.probe.on_span_armed(now);
    }

    /// Candidate period: lcm of the scheduling-weight denominators of
    /// every in-system task releasing before `end`. Tasks with no
    /// release due in the span contribute nothing (they must stay
    /// entirely fixed, which verification enforces). `None` when no
    /// task releases, the lcm overflows, or it exceeds the cap.
    fn span_period(&self, end: Slot) -> Option<Slot> {
        let mut acc: i128 = 1;
        let mut any = false;
        // A pure hot-column scan: presence bitmap word-walk, then the
        // next_release and swt columns — the cold rows stay untouched.
        for id in self.tasks.present_iter() {
            if let Some(r) = self.tasks.next_release(id) {
                if r < end {
                    acc = checked_lcm(acc, self.tasks.swt(id).denom())?;
                    if acc > i128::from(MAX_SPAN_PERIOD) {
                        return None;
                    }
                    any = true;
                }
            }
        }
        if !any {
            return None;
        }
        Slot::try_from(acc).ok()
    }

    /// At `t1 = t0 + P`: checks that the live state is the snapshot's
    /// image under one period of translation, and if so applies the
    /// remaining whole periods in one step. Returns whether a jump was
    /// enacted; `false` leaves the engine exactly as the per-slot
    /// oracle left it.
    fn verify_and_apply(&mut self, probe: &SpanProbe) -> SpanVerdict {
        let period = probe.period;
        let t1 = probe.t0 + period;
        if self.now != t1
            || self.next_event != probe.next_event
            || !self.injected.is_empty()
            || self.misses.len() != probe.misses_len
            || self.tasks.len() != probe.tasks.len()
            || self.selector != probe.selector
            || self.admission.committed_parts() != probe.committed.as_slice()
        {
            return SpanVerdict::Mismatch;
        }
        // Per-task: classify as advancing (Φ shifts it) or fixed
        // (Φ is the identity on it), and harvest per-period deltas.
        // `task_delta` checks the processor placement last, so a
        // rotation verdict means every scheduling-visible task field
        // already matched — widening the span is worth trying.
        let mut rotating = false;
        let mut deltas: Vec<TaskDelta> = Vec::with_capacity(self.tasks.len());
        for i in 0..self.tasks.len() {
            // audit: allow(lossy-cast, slab ids stay within u32 by construction)
            let id = TaskId(i as u32);
            match task_delta(&probe.tasks, &self.tasks, id, period, probe.end) {
                Ok(d) => deltas.push(d),
                Err(DeltaError::CpuRotation) => {
                    rotating = true;
                    deltas.push(TaskDelta::fixed());
                }
                Err(DeltaError::Mismatch) => return SpanVerdict::Mismatch,
            }
        }
        if rotating {
            return SpanVerdict::CpuRotation;
        }
        // Ready queue: the live queue must be the snapshot queue with
        // every entry translated, and every entry must belong to an
        // advancing task — a fixed task with a live queue entry would
        // be schedulable inside the span, contradicting its stasis.
        let mut shifted: Vec<QueueEntry> = Vec::with_capacity(probe.queue.len());
        for e in &probe.queue {
            let Some(d) = deltas.get(e.task.idx()) else {
                return SpanVerdict::Mismatch;
            };
            if d.d_index == 0 {
                return SpanVerdict::Mismatch;
            }
            let (Some(priority), Some(index)) = (
                translate_priority(e.priority, period),
                e.index.checked_add(d.d_index),
            ) else {
                return SpanVerdict::Mismatch;
            };
            shifted.push(QueueEntry {
                priority,
                task: e.task,
                index,
            });
        }
        shifted.sort_unstable();
        if shifted != self.queue.entries_sorted() {
            return SpanVerdict::Mismatch;
        }
        // Calendar rings. Enactment/departure hints cannot move inside
        // the span (an advancing task has no pending or leave, and the
        // span boundary precedes every such hint), so Φ is the identity
        // on those rings. Release hints shift with their owner.
        if ring_canonical(&self.enact_at) != probe.enact_ring
            || ring_canonical(&self.leave_at) != probe.leave_ring
        {
            return SpanVerdict::Mismatch;
        }
        let Some(release_shifted) = shift_release_ring(&probe.release_ring, &deltas, period) else {
            return SpanVerdict::Mismatch;
        };
        if release_shifted != ring_canonical(&self.release_at) {
            return SpanVerdict::Mismatch;
        }
        // Counter deltas must be non-negative, and event-driven
        // counters cannot move in an event-free span.
        let Some(delta) = counters_sub(&self.counters, &probe.counters) else {
            return SpanVerdict::Mismatch;
        };
        if delta.reweight_initiations != 0
            || delta.reweight_enactments != 0
            || delta.halts != 0
            || delta.rejected_heavy_reweights != 0
        {
            return SpanVerdict::Mismatch;
        }
        // Re-derive the ceiling defensively (verification above already
        // implies it has not moved) and jump whole periods only. The
        // run-segment limit subsumes the horizon clamp (`run_to` never
        // sets it above the horizon).
        let end = probe.end.min(self.next_boundary(t1)).min(self.run_limit);
        let k = (end - t1) / period; // audit: allow(panic-reach, span_period returns a positive lcm, so the armed period is >= 1)
        if k < 1 {
            return SpanVerdict::Mismatch;
        }
        if self.apply_jump(k, period, &deltas, &delta) {
            // Tell the probe the jump happened. The digest is the exact
            // per-period aggregate just verified bit-for-bit; skip its
            // construction under the no-op probe (which discards it).
            if !P::IS_NOOP {
                let digest = span_digest(period, &deltas, &delta);
                self.probe
                    .on_busy_span_jump(probe.t0, t1, u64::try_from(k).unwrap_or(0), &digest);
            }
            SpanVerdict::Jumped
        } else {
            SpanVerdict::Mismatch
        }
    }

    /// Applies `Φ^k`. Build-then-commit: every piece of post-jump state
    /// is constructed first, so a failed (overflowing) translation
    /// leaves the engine untouched and the run continues per-slot.
    fn apply_jump(
        &mut self,
        k: Slot,
        period: Slot,
        deltas: &[TaskDelta],
        delta: &Counters,
    ) -> bool {
        let Some((tasks, queue, release_at, counters, now)) =
            self.build_jump(k, period, deltas, delta)
        else {
            return false;
        };
        self.tasks = tasks;
        self.queue = queue;
        self.release_at = release_at;
        self.counters = counters;
        self.now = now;
        // Last slot's chosen set survives Φ as the `ran` bitmap (only
        // membership is ever read — `sweep_ran_flags` treats it as a
        // set and reports preemptions in ascending id order anyway).
        self.last_chosen = self.tasks.ran_ids();
        true
    }

    /// Constructs the `Φ^k` image of the whole engine state: tasks and
    /// queue entries translated by `k` periods, the release ring
    /// rebuilt at the jump target, counters grown by `k` verified
    /// per-period deltas. `None` on any arithmetic overflow.
    #[allow(clippy::type_complexity)]
    fn build_jump(
        &self,
        k: Slot,
        period: Slot,
        deltas: &[TaskDelta],
        delta: &Counters,
    ) -> Option<(TaskSlab, ReadyQueue, CalendarRing, Counters, Slot)> {
        let ki = u64::try_from(k).ok()?;
        let ds = period.checked_mul(k)?;
        let now = self.now.checked_add(ds)?;
        // Fixed tasks keep their rows and columns verbatim (Φ is the
        // identity on them), so start from a clone of the whole slab
        // and overwrite only the advancing tasks: cold row via
        // `translate_task`, next-release column shifted by k·P. The
        // present/ran/swt columns are translation-invariant.
        let mut tasks = self.tasks.clone();
        for (i, d) in deltas.iter().enumerate() {
            if d.d_index == 0 {
                continue;
            }
            // audit: allow(lossy-cast, slab ids stay within u32 by construction)
            let id = TaskId(i as u32);
            *tasks.get_mut(id)? = translate_task(self.tasks.get(id)?, ds, k, ki, d)?;
            // Advancing tasks always carry a release (task_delta
            // requires one), so a missing column value bails the jump.
            let r = self.tasks.next_release(id)?;
            tasks.set_next_release(id, Some(r.checked_add(ds)?));
        }
        let mut entries = self.queue.entries_sorted();
        for e in &mut entries {
            let d = deltas.get(e.task.idx())?;
            e.priority = translate_priority(e.priority, ds)?;
            e.index = e.index.checked_add(d.d_index.checked_mul(ki)?)?;
        }
        entries.sort_unstable();
        let queue = ReadyQueue::from_entries(entries);
        // Rebuild the release ring at the jump target: hints owned by
        // advancing tasks shift with them; hints owned by fixed tasks
        // keep their slot while still ahead of the target and are
        // dropped when the jump passes them — such a hint is
        // necessarily stale (a fixed task releasing inside the span
        // fails verification), and firing a stale hint is a no-op: the
        // release path validates every hint against the task's current
        // `next_release` and skips mismatches without touching state.
        // The enactment/departure rings carry no entry below the span
        // boundary (it is their minimum by construction), so they need
        // no rebuild: their bases stay behind, which only means their
        // windows rotate a little later.
        let mut release_at = CalendarRing::new(now);
        let (_, buckets, overflow) = self.release_at.persist_parts();
        for (slot, ids) in buckets {
            for id in ids {
                insert_release(&mut release_at, slot, id, deltas, ds, now)?;
            }
        }
        for (slot, id) in overflow {
            insert_release(&mut release_at, slot, id, deltas, ds, now)?;
        }
        let counters = counters_scaled_add(&self.counters, delta, ki)?;
        Some((tasks, queue, release_at, counters, now))
    }
}

/// Decides how one task moved over the verified period: `Ok(fixed)` if
/// Φ is the identity on it, `Ok(advancing)` if every field is the
/// one-period translation of the snapshot *and* the rank advance
/// matches the analytic `(P / den) · num`. The processor placement is
/// checked last, so [`DeltaError::CpuRotation`] certifies that every
/// scheduling-visible field already matched and only the sticky
/// assignment's cycle outruns the period.
fn task_delta(
    a: &TaskSlab,
    b: &TaskSlab,
    id: TaskId,
    period: Slot,
    end: Slot,
) -> Result<TaskDelta, DeltaError> {
    let fail = DeltaError::Mismatch;
    if a.in_system(id) != b.in_system(id) {
        return Err(fail);
    }
    if !b.in_system(id) {
        // Departed or not-yet-joined tasks must be entirely untouched.
        return task_fixed_equal(a, b, id)
            .then(TaskDelta::fixed)
            .ok_or(fail);
    }
    let (ta, tb) = (a.get(id).ok_or(fail)?, b.get(id).ok_or(fail)?);
    let d_index = tb.next_index.checked_sub(ta.next_index).ok_or(fail)?;
    if d_index == 0 {
        if !task_fixed_equal(a, b, id) {
            return Err(fail);
        }
        // A task fixed over one period must stay fixed over the whole
        // extrapolated span: no release scheduled before its end.
        return match a.next_release(id) {
            Some(r) if r < end => Err(fail),
            _ => Ok(TaskDelta::fixed()),
        };
    }
    // Advancing task: reweighting state must be quiescent and
    // era-stable (drift samples only appear at era boundaries, so
    // equality of the tracks is implied but checked anyway).
    if ta.pending.is_some() || tb.pending.is_some() || ta.leaving != NEVER || tb.leaving != NEVER {
        return Err(fail);
    }
    if ta.era_base != tb.era_base || ta.era_open_pending || tb.era_open_pending {
        return Err(fail);
    }
    if a.swt(id) != b.swt(id) || ta.drift != tb.drift {
        return Err(fail);
    }
    if a.ran_last_slot(id) != b.ran_last_slot(id) {
        return Err(fail);
    }
    // Analytic periodicity (Eqns (2)–(4)): weight `num/den` advances
    // exactly `num` ranks per `den` slots, and every window shifts by
    // `den`. The period must be a whole multiple of `den` and the
    // observed rank delta must match — this pins the extrapolation to
    // the closed-form window math, not just to one lucky period.
    let swt = a.swt(id);
    let den = swt.denom();
    let num = swt.numer();
    if den <= 0 || num <= 0 {
        return Err(fail);
    }
    let rank_gain = i128::from(period) / den; // audit: allow(panic-reach, den is checked positive just above)
    if i128::from(period) % den != 0
        || i128::from(d_index) != rank_gain.checked_mul(num).ok_or(fail)?
    {
        return Err(fail);
    }
    match (a.next_release(id), b.next_release(id)) {
        (Some(ra), Some(rb)) if ra.checked_add(period) == Some(rb) => {}
        _ => return Err(fail),
    }
    match (ta.last_scheduled, tb.last_scheduled) {
        (None, None) => {}
        (Some(wa), Some(wb)) if shift_window(wa, period) == Some(wb) => {}
        _ => return Err(fail),
    }
    if ta.subs.len() != tb.subs.len() {
        return Err(fail);
    }
    for (sa, sb) in ta.subs.iter().zip(tb.subs.iter()) {
        if shift_sub(sa, period, d_index) != Some(*sb) {
            return Err(fail);
        }
    }
    let isw_dt = tb.isw.isw_total() - ta.isw.isw_total();
    if ta.isw.translated(period, d_index, isw_dt).ok_or(fail)? != tb.isw {
        return Err(fail);
    }
    let ps_dt = tb.ps.total() - ta.ps.total();
    if ta.ps.translated(period, ps_dt).ok_or(fail)? != tb.ps {
        return Err(fail);
    }
    let sched = tb
        .scheduled_count
        .checked_sub(ta.scheduled_count)
        .ok_or(fail)?;
    // Everything scheduling-visible matches; the placement check comes
    // last so its failure is unambiguous.
    if ta.last_cpu != tb.last_cpu {
        return Err(DeltaError::CpuRotation);
    }
    Ok(TaskDelta {
        d_index,
        sched,
        isw_dt,
        ps_dt,
    })
}

/// Field-by-field equality for a task Φ must not move: all four hot
/// columns plus the cold row. The history accumulators are excluded:
/// busy spans only run with history recording off, so there are none on
/// either side.
fn task_fixed_equal(a: &TaskSlab, b: &TaskSlab, id: TaskId) -> bool {
    let (Some(ta), Some(tb)) = (a.get(id), b.get(id)) else {
        return false;
    };
    a.in_system(id) == b.in_system(id)
        && a.swt(id) == b.swt(id)
        && a.next_release(id) == b.next_release(id)
        && a.ran_last_slot(id) == b.ran_last_slot(id)
        && ta.era_base == tb.era_base
        && ta.next_index == tb.next_index
        && ta.era_open_pending == tb.era_open_pending
        && ta.subs == tb.subs
        && ta.pending == tb.pending
        && ta.leaving == tb.leaving
        && ta.last_scheduled == tb.last_scheduled
        && ta.isw == tb.isw
        && ta.ps == tb.ps
        && ta.drift == tb.drift
        && ta.scheduled_count == tb.scheduled_count
        && ta.last_cpu == tb.last_cpu
}

/// The Φ-image of an advancing task's cold row under `k` periods
/// (`ds = k · P`, rank advance `ki · ΔI`). The hot next-release column
/// is shifted separately by [`Engine::build_jump`].
fn translate_task(
    task: &TaskState,
    ds: Slot,
    k: Slot,
    ki: u64,
    d: &TaskDelta,
) -> Option<TaskState> {
    let di = d.d_index.checked_mul(ki)?;
    let mut t = task.clone();
    t.next_index = task.next_index.checked_add(di)?;
    t.scheduled_count = task.scheduled_count.checked_add(d.sched.checked_mul(ki)?)?;
    t.last_scheduled = match task.last_scheduled {
        None => None,
        Some(w) => Some(shift_window(w, ds)?),
    };
    for s in &mut t.subs {
        *s = shift_sub(s, ds, di)?;
    }
    t.isw = task.isw.translated(ds, di, d.isw_dt.mul_int(k))?;
    t.ps = task.ps.translated(ds, d.ps_dt.mul_int(k))?;
    Some(t)
}

/// A subtask record translated by `ds` slots and `di` ranks.
fn shift_sub(s: &SubRec, ds: Slot, di: u64) -> Option<SubRec> {
    Some(SubRec {
        index: s.index.checked_add(di)?,
        release: s.release.checked_add(ds)?,
        deadline: s.deadline.checked_add(ds)?,
        group_deadline: s.group_deadline.checked_add(ds)?,
        scheduled_at: shift_ever(s.scheduled_at, ds)?,
        halted_at: shift_ever(s.halted_at, ds)?,
        isw_completion: shift_ever(s.isw_completion, ds)?,
        ..*s
    })
}

fn shift_window(w: SubtaskWindow, ds: Slot) -> Option<SubtaskWindow> {
    Some(SubtaskWindow {
        release: w.release.checked_add(ds)?,
        deadline: w.deadline.checked_add(ds)?,
        b: w.b,
    })
}

/// A packed priority translated by `ds` slots: both deadline fields
/// shift, the b-bit and tie rank are translation-invariant. Exact
/// because batching is confined to slots below [`SLOT_SAFE_BOUND`],
/// well inside the pack's exact band; the guard re-checks anyway.
fn translate_priority(p: Priority, ds: Slot) -> Option<Priority> {
    let deadline = p.deadline().checked_add(ds)?;
    let gd = p.group_deadline().checked_add(ds)?;
    if deadline >= 2 * SLOT_SAFE_BOUND || gd >= 2 * SLOT_SAFE_BOUND {
        return None;
    }
    Some(Priority::pack(deadline, p.b(), gd, p.tie_rank()))
}

/// A calendar ring projected to its canonical content: `(slot, task)`
/// pairs sorted by slot then id. Ring base and per-slot insertion
/// order are representation details — every consumer sorts and dedups
/// the due set before acting on it.
fn ring_canonical(ring: &CalendarRing) -> Vec<(Slot, TaskId)> {
    let (_, buckets, overflow) = ring.persist_parts();
    let mut out: Vec<(Slot, TaskId)> = buckets
        .into_iter()
        .flat_map(|(s, ids)| ids.into_iter().map(move |id| (s, id)))
        .collect();
    out.extend(overflow);
    out.sort_unstable_by_key(|&(s, id)| (s, id.0));
    out
}

/// Φ on the release ring's canonical content: hints owned by advancing
/// tasks shift one period, hints owned by fixed tasks stay. A hint
/// consumed inside the verified period therefore shows up as a
/// mismatch (its image is absent from the live ring) unless the
/// steady state re-created its successor exactly one period later —
/// which is precisely the condition under which extrapolation is
/// sound.
fn shift_release_ring(
    ring: &[(Slot, TaskId)],
    deltas: &[TaskDelta],
    ds: Slot,
) -> Option<Vec<(Slot, TaskId)>> {
    let mut out = Vec::with_capacity(ring.len());
    for &(slot, id) in ring {
        let d = deltas.get(id.idx())?;
        let slot = if d.d_index > 0 {
            slot.checked_add(ds)?
        } else {
            slot
        };
        out.push((slot, id));
    }
    out.sort_unstable_by_key(|&(s, id)| (s, id.0));
    Some(out)
}

/// Inserts one release hint into the rebuilt ring (see
/// [`Engine::build_jump`] for the shift/keep/drop policy).
fn insert_release(
    ring: &mut CalendarRing,
    slot: Slot,
    id: TaskId,
    deltas: &[TaskDelta],
    ds: Slot,
    now: Slot,
) -> Option<()> {
    let d = deltas.get(id.idx())?;
    if d.d_index > 0 {
        ring.insert(slot.checked_add(ds)?, id);
    } else if slot >= now {
        ring.insert(slot, id);
    }
    Some(())
}

/// The exact per-period aggregate handed to [`Probe::on_busy_span_jump`]:
/// the verified counter delta plus each moving task's per-period rank
/// (= release) and schedule gains. Everything here was checked bit-for-
/// bit by [`Engine::verify_and_apply`] before the digest is built, so a
/// probe may multiply any field by the jump count and stay exact.
fn span_digest(period: Slot, deltas: &[TaskDelta], delta: &Counters) -> SpanDigest {
    let per_task: Vec<TaskSpanDelta> = deltas
        .iter()
        .enumerate()
        .filter(|(_, d)| d.d_index > 0 || d.sched > 0)
        .map(|(i, d)| TaskSpanDelta {
            // audit: allow(lossy-cast, slab ids stay within u32 by construction)
            task: TaskId(i as u32),
            releases: d.d_index,
            schedules: d.sched,
        })
        .collect();
    SpanDigest {
        period,
        queue_pushes: delta.heap_pushes,
        queue_pops: delta.heap_pops,
        stale_pops: delta.stale_pops,
        stale_drops: delta.compacted_stale,
        preemptions: delta.preemptions,
        halts: delta.halts,
        scheduled_quanta: delta.scheduled_quanta,
        holes: delta.slots_with_holes,
        migrations: delta.migrations,
        per_task,
    }
}

/// Per-field `b − a`; `None` if any counter went backwards (it cannot —
/// counters are monotone — but the batcher bails rather than trusts).
fn counters_sub(b: &Counters, a: &Counters) -> Option<Counters> {
    Some(Counters {
        heap_pushes: b.heap_pushes.checked_sub(a.heap_pushes)?,
        heap_pops: b.heap_pops.checked_sub(a.heap_pops)?,
        stale_pops: b.stale_pops.checked_sub(a.stale_pops)?,
        reweight_initiations: b.reweight_initiations.checked_sub(a.reweight_initiations)?,
        reweight_enactments: b.reweight_enactments.checked_sub(a.reweight_enactments)?,
        halts: b.halts.checked_sub(a.halts)?,
        scheduled_quanta: b.scheduled_quanta.checked_sub(a.scheduled_quanta)?,
        slots_with_holes: b.slots_with_holes.checked_sub(a.slots_with_holes)?,
        migrations: b.migrations.checked_sub(a.migrations)?,
        preemptions: b.preemptions.checked_sub(a.preemptions)?,
        rejected_heavy_reweights: b
            .rejected_heavy_reweights
            .checked_sub(a.rejected_heavy_reweights)?,
        compactions: b.compactions.checked_sub(a.compactions)?,
        compacted_stale: b.compacted_stale.checked_sub(a.compacted_stale)?,
    })
}

/// Per-field `base + k · delta`, overflow-checked.
fn counters_scaled_add(base: &Counters, delta: &Counters, k: u64) -> Option<Counters> {
    fn acc(b: u64, d: u64, k: u64) -> Option<u64> {
        b.checked_add(d.checked_mul(k)?)
    }
    Some(Counters {
        heap_pushes: acc(base.heap_pushes, delta.heap_pushes, k)?,
        heap_pops: acc(base.heap_pops, delta.heap_pops, k)?,
        stale_pops: acc(base.stale_pops, delta.stale_pops, k)?,
        reweight_initiations: acc(base.reweight_initiations, delta.reweight_initiations, k)?,
        reweight_enactments: acc(base.reweight_enactments, delta.reweight_enactments, k)?,
        halts: acc(base.halts, delta.halts, k)?,
        scheduled_quanta: acc(base.scheduled_quanta, delta.scheduled_quanta, k)?,
        slots_with_holes: acc(base.slots_with_holes, delta.slots_with_holes, k)?,
        migrations: acc(base.migrations, delta.migrations, k)?,
        preemptions: acc(base.preemptions, delta.preemptions, k)?,
        rejected_heavy_reweights: acc(
            base.rejected_heavy_reweights,
            delta.rejected_heavy_reweights,
            k,
        )?,
        compactions: acc(base.compactions, delta.compactions, k)?,
        compacted_stale: acc(base.compacted_stale, delta.compacted_stale, k)?,
    })
}
