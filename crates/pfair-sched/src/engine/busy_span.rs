//! Steady busy-span batching: closed-form advance over saturated spans.
//!
//! The driver loop ([`Engine::run_to`]) already jumps *quiet*
//! spans — empty ready queue, no event due. Saturated systems never
//! have a quiet slot, yet between scheduling-relevant events their
//! trajectory is exactly periodic: every in-system task's subtask
//! windows recur with the period structure of Eqns (2)–(4) (a weight
//! `num/den` advances `num` subtask ranks every `den` slots, shifting
//! every window by `den`), so the whole engine state repeats up to a
//! uniform translation `Φ`. This module exploits that on the live
//! engine — `Φ` is never applied to a copy:
//!
//! 1. **Arm** — when no enactment, departure, or stream event is due
//!    before a far boundary, copy what verification will read at `t0`
//!    into buffers kept from one arming to the next ([`SpanProbe`]) and
//!    compute the candidate period `P` = lcm of the scheduling-weight
//!    denominators of every task releasing inside the span (capped;
//!    computed with the overflow-checked [`checked_lcm`]). A span that
//!    cannot arm is not looked at again before its far boundary.
//! 2. **Verify** — keep stepping the per-slot oracle for exactly `P`
//!    slots. At `t1 = t0 + P`, ask of every field the slot pipeline
//!    reads whether the live value is the armed one shifted by `Φ`,
//!    cheapest question first: cursors and counter deltas, the hot
//!    columns, each task row — through shift-and-compare predicates
//!    that build nothing and hand back the per-period gains as the
//!    integers the ideal trackers keep — then the ready queue and the
//!    calendar rings, entry by entry. Each advancing task's rank delta
//!    must also equal the analytic `(P / den) · num`. Any deviation
//!    aborts the attempt and the run simply continues per-slot —
//!    batching is a pure optimization, never a semantic change.
//! 3. **Jump** — the engine is deterministic and, in the absence of
//!    events, its slot pipeline commutes with time translation, so
//!    `F^P(A) = Φ(A)` implies `F^(kP)(A) = Φ^k(A)`. The remaining
//!    `k = ⌊(end − t1) / P⌋` whole periods are enacted by translating
//!    rows, queue entries and release hints where they stand, after a
//!    pre-flight that proves no shifted field overflows: a refused jump
//!    has touched nothing ([`Engine::apply_jump`]).
//!
//! The attached probe follows a jump as two events through
//! [`Probe::on_event`] like any other observation: an
//! [`ObsEvent::SpanArmed`] at the snapshot slot, and — if verification
//! succeeds — an [`ObsEvent::BusySpanJump`] carrying the period and the
//! per-period sums verification already holds. A probe stays exact
//! across the jump by scaling what it accumulated between the two: the
//! verified period's stream repeats `k` times shifted, so `k` times one
//! period's deltas is exact integer arithmetic, not sampling. The
//! equivalence proptests hold batched and per-slot runs to identical
//! rendered results, counters and metrics snapshots.

use super::slab::TaskSlab;
use super::{Engine, SubRec, TaskState};
use crate::calendar::CalendarRing;
use crate::overhead::Counters;
use crate::priority::Priority;
use crate::queue::QueueEntry;
use crate::reweight::RuleSelector;
use pfair_core::analysis::checked_lcm;
use pfair_core::drift::DriftTrack;
use pfair_core::rational::{Rational, Units};
use pfair_core::task::TaskId;
use pfair_core::time::{shift_ever, Slot, NEVER};
use pfair_core::window::SubtaskWindow;
use pfair_obs::{ObsEvent, Probe};

/// Longest candidate period the batcher will verify. Spans with larger
/// hyperperiods fall back to per-slot stepping: the verification cost
/// (one full period of oracle slots plus a state diff) must stay small
/// against the jump it buys. Not swept: the benchmark arms at 12.
const MAX_SPAN_PERIOD: Slot = 4096;

/// Slots at or beyond this bound never batch. Well inside the packed-
/// priority exact band (`±2^46`, see [`crate::priority`]), so every
/// deadline/group-deadline field of a translated queue entry round-trips
/// through [`Priority::pack`] exactly.
const SLOT_SAFE_BOUND: Slot = 1 << 44;

/// Cap on the processor-rotation probe extension, in base periods. The
/// sticky processor assignment ([`Engine::assign_processors`]) maps each
/// period's assignment vector to the next through a fixed function, so
/// in a steady schedule the vectors run down a tail into a cycle of some
/// length `q` base periods — not bounded by the order of a processor
/// permutation: the map acts on whole vectors, and `q = 6` arises at
/// `M = 4`. A rotation-only failure therefore keeps its snapshot and
/// looks again one base period later; but a snapshot taken on the tail
/// never recurs, so the window one snapshot gets doubles with each
/// failure in a row — 1, 2, 4, 8 periods, Brent's cycle search — up to
/// this cap. Per-slot slots of `steady_spans`' saturated 2 000 000 (seed
/// 1 / held-out): a fixed window of 4 steps 55 928 / 55 784 at best and
/// never finds `q > 4`, 6: 57 764 / 52 808, 8: 61 004 / 55 016, 12:
/// 68 036 / 60 080; doubling to 8: 50 384 / 47 180, to 16: within 0.6 %
/// (DESIGN.md "One re-arm" has every point).
const MAX_CPU_ROTATION: Slot = 8;

/// Failures in a row that re-arm at once: as many as the window takes
/// to open fully. A verification costs less than one stepped slot and
/// the slots are stepped either way, so waiting buys nothing (1 free
/// retry steps 63 188 / 59 276 slots, 2: 51 632 / 48 356, 3: 50 384 /
/// 47 180, every retry free: 50 288 / 46 808).
const PATIENCE: u32 = MAX_CPU_ROTATION.trailing_zeros();

/// Backoff cap once patience is spent: failure `PATIENCE + n` waits
/// `period << min(n, MAX_BACKOFF)` slots, so a system that is never
/// periodic at its armed period pays for a snapshot once in sixteen
/// periods, not every period. The sweep cannot tell 2, 4 and 6 apart
/// (50 360 / 50 384 / 51 176 slots on seed 1); 4 is what it was.
const MAX_BACKOFF: u32 = 4;

/// Busy-span batching state machine. Not persisted: a restored engine
/// re-arms from scratch, which cannot change its trajectory (jumps are
/// verified no-ops over per-slot stepping).
#[derive(Clone, Debug, Default)]
pub(super) struct BusySpanState {
    /// The snapshot of the latest arming, awaiting its verification
    /// slot while `armed`; its buffers serve the next arming.
    probe: SpanProbe,
    armed: bool,
    /// Consecutive failed verifications (drives window and backoff).
    fails: u32,
    /// Do not arm again before this slot.
    next_attempt: Slot,
    /// The far boundary of a span [`Engine::try_arm`] found unarmable.
    /// Until the clock reaches it only releases can happen — the
    /// boundary stands, the set of tasks releasing before it only
    /// shrinks — so no slot before it looks again.
    refused_until: Slot,
}

impl BusySpanState {
    /// The span ahead may have changed in a way the clock does not show
    /// (a new run segment, an online injection): look again.
    pub(super) fn forget_refusal(&mut self) {
        self.refused_until = 0;
    }
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

/// Everything [`Engine::busy_span_tick`] needs to recognize `Φ(A)` one
/// period later: what verification reads of the state at `t0`, and
/// nothing else. Queue and rings are held as sorted lists (ring *base*
/// and per-slot insertion order are representation details — consumers
/// sort-and-dedup every due set — so content is compared, not encoding).
#[derive(Clone, Debug, Default)]
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
    tasks: Vec<ArmedTask>,
    queue: Vec<QueueEntry>,
    release_ring: Vec<(Slot, TaskId)>,
    enact_ring: Vec<(Slot, TaskId)>,
    leave_ring: Vec<(Slot, TaskId)>,
    counters: Counters,
    misses_len: usize,
    next_event: usize,
    selector: Option<RuleSelector>,
    committed: Vec<Rational>,
    /// Verification's working memory: per-task deltas, ring contents
    /// under comparison.
    deltas: Vec<TaskDelta>,
    hints: [Vec<(Slot, TaskId)>; 2],
}

/// One task as armed: its four hot columns and its cold row. The row's
/// drift track is left empty in favour of its length — the track only
/// ever grows, so the live one equals the armed one iff it is no longer
/// — and history runs never batch, so there is no history to keep.
#[derive(Clone, Debug)]
struct ArmedTask {
    present: bool,
    ran: bool,
    swt: Rational,
    next_release: Option<Slot>,
    drift_len: usize,
    row: TaskState,
}

/// Verified per-period deltas of one task, used to extrapolate `Φ^k`:
/// integers all, as the engine and the ideal trackers count them.
#[derive(Clone, Copy, Debug, Default)]
struct TaskDelta {
    /// Subtask ranks gained per period (`0` for a fixed task).
    d_index: u64,
    /// `scheduled_count` gained per period.
    sched: u64,
    /// `I_SW` allocation gained per period, in the tracker's era units.
    isw_gain: Units,
    /// `I_PS` active slots gained per period.
    ps_gain: i64,
}

impl TaskDelta {
    /// `k` periods' worth; `None` on overflow.
    fn times(&self, k: u64) -> Option<TaskDelta> {
        Some(TaskDelta {
            d_index: self.d_index.checked_mul(k)?,
            sched: self.sched.checked_mul(k)?,
            isw_gain: Units::new(self.isw_gain.get().checked_mul(i128::from(k))?),
            ps_gain: self.ps_gain.checked_mul(i64::try_from(k).ok()?)?,
        })
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
        if self.busy.armed {
            let verify_at = self.busy.probe.t0 + self.busy.probe.period;
            if self.now < verify_at {
                return;
            }
            self.busy.armed = false;
            if self.now == verify_at {
                let mut probe = std::mem::take(&mut self.busy.probe);
                let verdict = self.verify_and_apply(&mut probe);
                self.busy.probe = probe;
                self.after_verdict(verdict);
                return;
            }
            // A quiet-span jump overshot the verification slot; the
            // snapshot no longer describes one-period-ago state. Drop
            // it and fall through to re-arming.
        }
        self.try_arm();
    }

    /// Books a verification's outcome and decides when to look next.
    fn after_verdict(&mut self, verdict: SpanVerdict) {
        let probe = &mut self.busy.probe;
        let wait = match verdict {
            SpanVerdict::Jumped => {
                self.mix.jumps += 1;
                self.busy.fails = 0;
                return;
            }
            SpanVerdict::CpuRotation => {
                self.mix.cpu_rotations += 1;
                // Only the sticky assignment rotates, with a cycle the
                // current multiple does not cover: keep the snapshot and
                // look again one base period on, window permitting.
                let next = probe.period.saturating_add(probe.base);
                let multiple = next / probe.base.max(1);
                if multiple <= 1 << self.busy.fails.min(PATIENCE)
                    && next <= MAX_SPAN_PERIOD
                    && probe.t0 + 2 * next <= probe.end
                {
                    probe.period = next;
                    self.busy.armed = true;
                    let multiple = u64::try_from(multiple).unwrap_or(0);
                    self.mix.longest_rotation = self.mix.longest_rotation.max(multiple);
                    return;
                }
                probe.base
            }
            SpanVerdict::Mismatch => {
                self.mix.mismatches += 1;
                probe.period
            }
        };
        self.busy.fails = (self.busy.fails + 1).min(PATIENCE + MAX_BACKOFF);
        let wait = match self.busy.fails.saturating_sub(PATIENCE) {
            0 => 0,
            n => wait << n,
        };
        self.busy.next_attempt = self.now.saturating_add(wait);
        let wait = u64::try_from(wait).unwrap_or(0);
        self.mix.longest_backoff = self.mix.longest_backoff.max(wait);
    }

    /// Number of verified busy-span jumps enacted so far.
    pub fn busy_span_jumps(&self) -> u64 {
        self.mix.jumps
    }

    /// Arms a probe when the span ahead looks periodic and is long
    /// enough to pay for its verification period.
    fn try_arm(&mut self) {
        let now = self.now;
        if now < self.busy.next_attempt.max(self.busy.refused_until)
            || self.queue.is_empty()
            || !self.injected.is_empty()
        {
            return;
        }
        // Clamp to the current run segment: a jump must never carry
        // `now` past a `run_to` boundary.
        let end = self.next_boundary(now).min(self.run_limit);
        // One period is spent verifying and the jump must buy at least
        // one more, so a span shorter than two slots is refused before
        // any task is looked at.
        let period = if end >= SLOT_SAFE_BOUND || end - now < 2 {
            None
        } else {
            self.mix.period_scans += 1;
            self.span_period(end).filter(|p| now + 2 * p <= end)
        };
        let Some(period) = period else {
            self.busy.refused_until = end;
            return;
        };
        self.mix.arms += 1;
        let tasks = &self.tasks;
        let probe = &mut self.busy.probe;
        (probe.t0, probe.base, probe.period, probe.end) = (now, period, period, end);
        probe.tasks.clear();
        probe.tasks.extend((0u32..).map(TaskId).map_while(|id| {
            let task = tasks.get(id)?;
            Some(ArmedTask {
                present: tasks.in_system(id),
                ran: tasks.ran_last_slot(id),
                swt: tasks.swt(id),
                next_release: tasks.next_release(id),
                drift_len: task.drift.samples().len(),
                row: TaskState {
                    subs: task.subs.clone(),
                    isw: task.isw.clone(),
                    ps: task.ps.clone(),
                    drift: DriftTrack::new(),
                    history: None,
                    ..*task
                },
            })
        }));
        probe.queue.clear();
        self.queue.walk_sorted(|e| {
            probe.queue.push(*e);
            true
        });
        ring_content(&self.release_at, &mut probe.release_ring);
        ring_content(&self.enact_at, &mut probe.enact_ring);
        ring_content(&self.leave_at, &mut probe.leave_ring);
        probe.counters = self.counters;
        probe.misses_len = self.misses.len();
        probe.next_event = self.next_event;
        probe.selector = Some(self.selector.clone());
        (self.admission.committed_parts()).clone_into(&mut probe.committed);
        self.busy.armed = true;
        self.probe.on_event(ObsEvent::SpanArmed { t0: now });
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
        Slot::try_from(acc).ok().filter(|_| any)
    }

    /// At `t1 = t0 + P`: checks that the live state is the snapshot's
    /// image under one period of translation, and if so applies the
    /// remaining whole periods in one step. Cheapest checks first:
    /// cursors, counter deltas and lengths (O(1) each), the per-task
    /// tables and hot columns (one cache-linear pass each), the task
    /// rows, and only then the contents of the ready queue and the
    /// calendar rings. Any verdict but [`SpanVerdict::Jumped`] leaves
    /// the engine exactly as the per-slot oracle left it.
    fn verify_and_apply(&mut self, probe: &mut SpanProbe) -> SpanVerdict {
        let period = probe.period;
        let t1 = probe.t0 + period;
        // Counter deltas must be non-negative, and event-driven
        // counters cannot move in an event-free span.
        let Some(delta) = self.counters.checked_sub(&probe.counters) else {
            return SpanVerdict::Mismatch;
        };
        if self.now != t1
            || self.next_event != probe.next_event
            || !self.injected.is_empty()
            || self.misses.len() != probe.misses_len
            || self.tasks.len() != probe.tasks.len()
            || delta.reweight_initiations != 0
            || delta.reweight_enactments != 0
            || delta.halts != 0
            || delta.rejected_heavy_reweights != 0
            || self.queue.len() != probe.queue.len()
            || self.release_at.len() != probe.release_ring.len()
            || self.enact_at.len() != probe.enact_ring.len()
            || self.leave_at.len() != probe.leave_ring.len()
            || probe.selector.as_ref() != Some(&self.selector)
            || self.admission.committed_parts() != probe.committed.as_slice()
            || !columns_match(&probe.tasks, &self.tasks, period)
        {
            return SpanVerdict::Mismatch;
        }
        // Per-task: classify as advancing (Φ shifts it) or fixed
        // (Φ is the identity on it), and harvest per-period deltas.
        // `task_delta` checks the processor placement last, so a
        // rotation verdict means every scheduling-visible task field
        // already matched — widening the span is worth trying.
        let deltas = &mut probe.deltas;
        let mut rotating = false;
        deltas.clear();
        for (armed, i) in probe.tasks.iter().zip(0u32..) {
            match task_delta(armed, &self.tasks, TaskId(i), period, probe.end) {
                Ok(d) => deltas.push(d),
                Err(SpanVerdict::CpuRotation) => {
                    rotating = true;
                    deltas.push(TaskDelta::default());
                }
                Err(verdict) => return verdict,
            }
        }
        if rotating {
            return SpanVerdict::CpuRotation;
        }
        let advancing = |id: TaskId| deltas.get(id.idx()).map(|d| d.d_index).filter(|&d| d > 0);
        // Ready queue: the live queue must be the armed queue with every
        // entry translated, and every entry must belong to an advancing
        // task — a fixed task with a live queue entry would be
        // schedulable inside the span, contradicting its stasis. Φ keeps
        // the order of entries, so the two sorted walks run in step.
        let mut armed = probe.queue.iter();
        let queue_shifted = self.queue.walk_sorted(|live| {
            armed.next().is_some_and(|e| {
                e.task == live.task
                    && advancing(e.task).and_then(|d| e.index.checked_add(d)) == Some(live.index)
                    && translate_priority(e.priority, period) == Some(live.priority)
            })
        });
        // Calendar rings. Enactment/departure hints cannot move inside
        // the span (an advancing task has no pending or leave, and the
        // span boundary precedes every such hint), so Φ is the identity
        // on those rings. Release hints shift with their owner: one
        // consumed inside the period is missed in the live ring unless
        // the steady state re-created its successor exactly one period
        // later — the very condition under which extrapolation is sound.
        let [live, image] = &mut probe.hints;
        let mut ring_is = |ring: &CalendarRing, expected: &[(Slot, TaskId)]| {
            ring_content(ring, live);
            live.as_slice() == expected
        };
        image.clear();
        image.extend(probe.release_ring.iter().map(|&(slot, id)| {
            let by = if advancing(id).is_some() { period } else { 0 };
            (slot.saturating_add(by), id)
        }));
        image.sort_unstable_by_key(|&(s, id)| (s, id.0));
        if !queue_shifted
            || !ring_is(&self.enact_at, &probe.enact_ring)
            || !ring_is(&self.leave_at, &probe.leave_ring)
            || !ring_is(&self.release_at, image)
        {
            return SpanVerdict::Mismatch;
        }
        // Re-derive the ceiling defensively (verification above already
        // implies it has not moved) and jump whole periods only. The
        // run-segment limit subsumes the horizon clamp (`run_to` never
        // sets it above the horizon).
        let end = probe.end.min(self.next_boundary(t1)).min(self.run_limit);
        // audit: allow(panic-reach, span_period returns a positive lcm, so the armed period is >= 1)
        let k = (end - t1) / period;
        // Per-period sums, read before `apply_jump` leaves `deltas`
        // holding `k` periods' worth; the no-op probe would discard the
        // event unread.
        let jump = (!P::IS_NOOP).then(|| ObsEvent::BusySpanJump {
            t0: probe.t0,
            t1,
            periods: u64::try_from(k).unwrap_or(0),
            period,
            releases: (deltas.iter()).fold(0, |sum, d| sum.saturating_add(d.d_index)),
            schedules: delta.scheduled_quanta,
            queue_ops: delta.heap_pushes.saturating_add(delta.heap_pops),
        });
        if k < 1 || !self.apply_jump(k, period, deltas, &delta, live) {
            return SpanVerdict::Mismatch;
        }
        if let Some(jump) = jump {
            self.probe.on_event(jump);
        }
        SpanVerdict::Jumped
    }

    /// Applies `Φ^k` to the live engine. Check-then-commit: the
    /// pre-flight walks everything the jump will shift — every slot,
    /// index, count and era-unit sum of every advancing row, every queue
    /// entry, every release hint, the counters, the clock — and proves
    /// each shifted value representable (slots that become priorities,
    /// inside the packed-key band), so a refused jump returns `false`
    /// with the engine exactly as the per-slot oracle left it, and the
    /// commit that follows cannot fail half-way. `deltas` come in per
    /// period and are left holding `k` periods' worth.
    fn apply_jump(
        &mut self,
        k: Slot,
        period: Slot,
        deltas: &mut [TaskDelta],
        delta: &Counters,
        scratch: &mut Vec<(Slot, TaskId)>,
    ) -> bool {
        let (Ok(ki), Some(ds)) = (u64::try_from(k), period.checked_mul(k)) else {
            return false;
        };
        let (Some(now), Some(counters)) = (
            self.now.checked_add(ds),
            self.counters.checked_add_scaled(delta, ki),
        ) else {
            return false;
        };
        let mut fits = true;
        for (d, i) in deltas.iter_mut().zip(0u32..) {
            // Fixed tasks keep their rows and columns verbatim (Φ is
            // the identity on them); advancing ones always carry a
            // release (`task_delta` requires one).
            let id = TaskId(i);
            fits &= match (d.times(ki), self.tasks.get(id), self.tasks.next_release(id)) {
                (Some(s), _, _) if s.d_index == 0 => true,
                (Some(s), Some(task), Some(r)) => {
                    *d = s;
                    r.checked_add(ds).is_some() && row_fits(task, ds, &s)
                }
                _ => false,
            };
        }
        // Index gain of the task an entry or hint names (`0`: fixed).
        let gain = |id: TaskId| deltas.get(id.idx()).map(|d| d.d_index);
        self.queue.for_each_due(Slot::MAX, |e| {
            fits &= translate_priority(e.priority, ds).is_some()
                && gain(e.task).is_some_and(|di| e.index.checked_add(di).is_some());
        });
        self.release_at.for_each(|slot, id| {
            fits &= gain(id).is_some_and(|di| di == 0 || slot.checked_add(ds).is_some());
        });
        if !fits {
            return false;
        }
        for (d, i) in deltas.iter().zip(0u32..) {
            if let (true, Some(r)) = (d.d_index > 0, self.tasks.next_release(TaskId(i))) {
                self.tasks.set_next_release(TaskId(i), Some(r + ds));
                row_shift(self.tasks.task_mut(TaskId(i)), ds, d);
            }
        }
        self.queue.shift_deadlines(ds, |e| {
            e.priority = translate_priority(e.priority, ds).unwrap_or(e.priority);
            e.index += gain(e.task).unwrap_or(0);
        });
        // The release ring moves to the jump target: hints owned by
        // advancing tasks shift with them; hints owned by fixed tasks
        // keep their slot while still ahead of the target and are
        // dropped when the jump passes them — such a hint is stale (a
        // fixed task releasing inside the span fails verification), and
        // firing a stale hint is a no-op: the release path checks every
        // hint against the task's current `next_release`. The
        // enactment/departure rings carry no entry below the span
        // boundary (their minimum by construction) and stay as they
        // are; their windows just rotate a little later.
        self.release_at.remap(now, scratch, |slot, id| {
            if gain(id).is_some_and(|di| di > 0) {
                Some(slot + ds)
            } else {
                (slot >= now).then_some(slot)
            }
        });
        self.counters = counters;
        self.now = now;
        self.mix.busy_span_slots += u64::try_from(ds).unwrap_or(0);
        // `last_chosen` stays: the `ran` column is translation-invariant
        // (verified per task), and the slot before the target chose the
        // tasks the slot before `t1` chose, in the same order.
        true
    }
}

/// The hot columns of every task: presence, ran flag and scheduling
/// weight as armed, the next release as armed or one period on.
fn columns_match(armed: &[ArmedTask], live: &TaskSlab, period: Slot) -> bool {
    armed.iter().zip(0u32..).all(|(a, i)| {
        let id = TaskId(i);
        let release = live.next_release(id);
        a.present == live.in_system(id)
            && a.ran == live.ran_last_slot(id)
            && a.swt == live.swt(id)
            && (release == a.next_release
                || release == a.next_release.and_then(|r| r.checked_add(period)))
    })
}

/// Decides how one task moved over the verified period: `Ok(fixed)` if
/// Φ is the identity on it, `Ok(advancing)` if every field is the
/// one-period translation of the snapshot *and* the rank advance
/// matches the analytic `(P / den) · num`. The presence, ran and weight
/// columns were compared by [`columns_match`]. The processor placement
/// is checked last, so `Err(CpuRotation)` certifies that every
/// scheduling-visible field already matched and only the sticky
/// assignment's cycle outruns the period.
fn task_delta(
    armed: &ArmedTask,
    live: &TaskSlab,
    id: TaskId,
    period: Slot,
    end: Slot,
) -> Result<TaskDelta, SpanVerdict> {
    let fail = SpanVerdict::Mismatch;
    let (ta, tb) = (&armed.row, live.get(id).ok_or(fail)?);
    let d_index = tb.next_index.checked_sub(ta.next_index).ok_or(fail)?;
    if !armed.present || d_index == 0 {
        // Departed, not-yet-joined and idle tasks must be entirely
        // untouched — and stay so over the whole extrapolated span: no
        // release scheduled before its end.
        let fixed = task_fixed_equal(armed, tb, live.next_release(id))
            && !(armed.present && armed.next_release.is_some_and(|r| r < end));
        return fixed.then(TaskDelta::default).ok_or(fail);
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
    // Analytic periodicity (Eqns (2)–(4)): weight `num/den` advances
    // exactly `num` ranks per `den` slots, and every window shifts by
    // `den`. The period must be a whole multiple of `den` and the
    // observed rank delta must match — this pins the extrapolation to
    // the closed-form window math, not just to one lucky period.
    let den = armed.swt.denom();
    let num = armed.swt.numer();
    if den <= 0 || num <= 0 || armed.drift_len != tb.drift.samples().len() {
        return Err(fail);
    }
    let rank_gain = i128::from(period) / den; // audit: allow(panic-reach, den is checked positive just above)
    if i128::from(period) % den != 0
        || i128::from(d_index) != rank_gain.checked_mul(num).ok_or(fail)?
    {
        return Err(fail);
    }
    match (armed.next_release, live.next_release(id)) {
        (Some(ra), Some(rb)) if ra.checked_add(period) == Some(rb) => {}
        _ => return Err(fail),
    }
    match (ta.last_scheduled, tb.last_scheduled) {
        (None, None) => {}
        (Some(wa), Some(wb)) if shift_window(wa, period) == Some(wb) => {}
        _ => return Err(fail),
    }
    let subs_shifted = ta.subs.len() == tb.subs.len()
        && (ta.subs.iter().zip(tb.subs.iter()))
            .all(|(sa, sb)| shift_sub(sa, period, d_index) == Some(*sb));
    if !subs_shifted {
        return Err(fail);
    }
    let delta = TaskDelta {
        d_index,
        sched: tb
            .scheduled_count
            .checked_sub(ta.scheduled_count)
            .ok_or(fail)?,
        isw_gain: ta
            .isw
            .gain_over_shift(&tb.isw, period, d_index)
            .ok_or(fail)?,
        ps_gain: ta.ps.gain_over_shift(&tb.ps, period).ok_or(fail)?,
    };
    // Everything scheduling-visible matches; the placement check comes
    // last so its failure is unambiguous.
    if ta.last_cpu != tb.last_cpu {
        return Err(SpanVerdict::CpuRotation);
    }
    Ok(delta)
}

/// Field-by-field equality for a task Φ must not move: the next-release
/// column plus the cold row ([`columns_match`] compared the other three
/// columns). The history accumulators are excluded: busy spans only run
/// with history recording off, so there are none on either side.
fn task_fixed_equal(armed: &ArmedTask, tb: &TaskState, next_release: Option<Slot>) -> bool {
    let ta = &armed.row;
    armed.next_release == next_release
        && ta.era_base == tb.era_base
        && ta.next_index == tb.next_index
        && ta.era_open_pending == tb.era_open_pending
        && ta.subs == tb.subs
        && ta.pending == tb.pending
        && ta.leaving == tb.leaving
        && ta.last_scheduled == tb.last_scheduled
        && ta.isw == tb.isw
        && ta.ps == tb.ps
        && armed.drift_len == tb.drift.samples().len()
        && ta.scheduled_count == tb.scheduled_count
        && ta.last_cpu == tb.last_cpu
}

/// Whether [`row_shift`] by `ds` slots and the `k`-period amounts `s`
/// keeps every field of an advancing task's cold row representable.
fn row_fits(task: &TaskState, ds: Slot, s: &TaskDelta) -> bool {
    task.next_index.checked_add(s.d_index).is_some()
        && task.scheduled_count.checked_add(s.sched).is_some()
        && (task.last_scheduled).is_none_or(|w| shift_window(w, ds).is_some())
        && (task.subs.iter()).all(|r| shift_sub(r, ds, s.d_index).is_some())
        && task.isw.shift_fits(ds, s.d_index, s.isw_gain)
        && task.ps.shift_fits(ds, s.ps_gain)
}

/// `Φ^k` on an advancing task's cold row, in place (`ds = k · P`, `s`
/// the `k`-period amounts). The hot next-release column is shifted by
/// [`Engine::apply_jump`], which has established [`row_fits`].
fn row_shift(task: &mut TaskState, ds: Slot, s: &TaskDelta) {
    task.next_index += s.d_index;
    task.scheduled_count += s.sched;
    task.last_scheduled = task.last_scheduled.and_then(|w| shift_window(w, ds));
    for r in &mut task.subs {
        *r = shift_sub(r, ds, s.d_index).unwrap_or(*r);
    }
    let moved = task.isw.shift(ds, s.d_index, s.isw_gain) && task.ps.shift(ds, s.ps_gain);
    debug_assert!(moved, "the pre-flight admitted an overflowing shift");
}

/// A subtask record translated by `ds` slots and `di` ranks (a 64-byte
/// value: comparing against it, asking whether it exists and storing it
/// are the record's predicate, pre-flight and shift).
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

/// A calendar ring's content written over `out` in canonical order:
/// `(slot, task)` pairs sorted by slot then id. Ring base and per-slot
/// insertion order are representation details — every consumer sorts
/// and dedups the due set before acting on it.
fn ring_content(ring: &CalendarRing, out: &mut Vec<(Slot, TaskId)>) {
    out.clear();
    ring.for_each(|slot, id| out.push((slot, id)));
    out.sort_unstable_by_key(|&(s, id)| (s, id.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::event::Workload;
    use pfair_json::{Json, ToJson};
    use pfair_obs::MetricsProbe;

    /// Everything an engine snapshot holds, in two parts: the rendered
    /// image less the configuration (the twins below differ in it by
    /// design) and the three rings, and the rings as content — their
    /// window anchors, and with them the split between buckets and
    /// overflow list, differ between a ring that was stepped and one
    /// that jumped (see [`ring_content`]).
    fn state_of<P: Probe>(e: &Engine<P>) -> (String, [Vec<(Slot, TaskId)>; 3]) {
        let image = e.snapshot().expect("not a history run").to_json();
        let Json::Object(fields) = image else {
            panic!("a snapshot renders as an object");
        };
        let rendered: Vec<(String, Json)> = fields
            .into_iter()
            .filter(|(key, _)| key != "config" && !key.ends_with("_at"))
            .collect();
        assert_eq!(
            rendered.len(),
            10,
            "three rings and the configuration left out"
        );
        let mut rings = [Vec::new(), Vec::new(), Vec::new()];
        for (ring, out) in [&e.release_at, &e.enact_at, &e.leave_at]
            .into_iter()
            .zip(&mut rings)
        {
            ring_content(ring, out);
        }
        (Json::Object(rendered).to_string(), rings)
    }

    /// Eight weight-1/2 tasks on four processors: saturated from slot
    /// `from` on, period 2.
    fn halves(from: Slot) -> Workload {
        let mut w = Workload::new();
        for t in 0..8 {
            w.join(t, from, 1, 2);
        }
        w
    }

    /// A jump that cannot be represented is refused whole. Every task's
    /// indices start 64 below `u64::MAX` (a pure relabelling: only
    /// `index − era_base` enters a window), and the horizon is far enough
    /// for each verified span to want some 2³⁹ periods more: the one
    /// verified period fits, the jump does not. The engine must read
    /// exactly as before each refusal and go on stepping, equal to the
    /// per-slot oracle slot for slot.
    #[test]
    fn busy_span_refused_jump_is_a_no_op() {
        let cfg = SimConfig::oi(4, 1 << 40);
        let mut fast = Engine::new(cfg.clone(), &halves(0));
        let mut oracle = Engine::new(cfg.per_slot(), &halves(0));
        for e in [&mut fast, &mut oracle] {
            for id in 0..8 {
                e.tasks.task_mut(TaskId(id)).next_index = u64::MAX - 64;
            }
        }
        for _ in 0..100 {
            fast.step_slot();
            oracle.step_slot();
            let before = state_of(&fast);
            fast.busy_span_tick();
            assert_eq!(state_of(&fast), before, "slot {}", fast.now);
            assert_eq!(before, state_of(&oracle), "slot {}", fast.now);
        }
        let mix = fast.driver_mix();
        assert_eq!(
            (mix.jumps, mix.busy_span_slots, mix.per_slot_slots),
            (0, 0, 100)
        );
        assert!(mix.arms > 2 && mix.mismatches > 2, "{mix:?}");
        assert_eq!(mix.cpu_rotations + mix.mismatches, mix.arms, "{mix:?}");
        // The same system with room to jump does jump.
        let mut roomy = Engine::new(SimConfig::oi(4, 1 << 40), &halves(0));
        roomy.run_to(100);
        assert!(roomy.busy_span_jumps() > 0);
    }

    /// No span reaches past `SLOT_SAFE_BOUND`: with the horizon beyond
    /// it a system that comes alive 48 slots short of the bound never
    /// arms and is stepped; with the horizon just inside, it jumps right
    /// up to it. Either way the run equals the tickless driver's (the
    /// per-slot oracle would need 2⁴⁴ steps to get there).
    #[test]
    fn busy_span_stops_at_the_slot_safe_bound() {
        let w = halves(SLOT_SAFE_BOUND - 48);
        for (horizon, jumps) in [(SLOT_SAFE_BOUND + 48, false), (SLOT_SAFE_BOUND - 1, true)] {
            let cfg = SimConfig::oi(4, horizon);
            let mut fast = Engine::new(cfg.clone(), &w);
            fast.run();
            let mut stepped = Engine::new(cfg.without_busy_span(), &w);
            stepped.run();
            let mix = fast.driver_mix();
            assert_eq!(mix.jumps > 0, jumps, "{mix:?}");
            assert_eq!(mix.arms > 0, jumps, "{mix:?}");
            assert_eq!(fast.now, horizon);
            assert_eq!(state_of(&fast), state_of(&stepped));
            assert_eq!(
                fast.finish().to_json().to_string(),
                stepped.finish().to_json().to_string()
            );
        }
    }

    /// With an event in every slot no span is ever two slots long, and
    /// `try_arm` says so before it looks at a single task.
    #[test]
    fn busy_span_never_scans_under_an_event_storm() {
        let mut w = Workload::new();
        for t in 0..16 {
            w.join(t, 0, 1, 8);
        }
        for t in 1..600 {
            let id = u32::try_from(t % 16).unwrap_or(0);
            // Toggle 1/8 ↔ 3/16, one task per slot, round-robin.
            let (num, den) = if (t / 16) % 2 == 0 { (3, 16) } else { (1, 8) };
            w.reweight(id, t, num, den);
        }
        let mut e = Engine::new(SimConfig::oi(2, 600), &w);
        e.run();
        let mix = e.driver_mix();
        assert_eq!(
            (mix.period_scans, mix.arms, mix.jumps),
            (0, 0, 0),
            "{mix:?}"
        );
        assert_eq!(mix.per_slot_slots + mix.quiet_span_slots, 600);
        assert!(e.counters().reweight_initiations > 500);
    }

    /// `steady_spans`' saturated leg in small: 50 tasks filling 16
    /// processors exactly (12/2 + 18/3 + 8/4 + 12/6), and every 2 000
    /// slots one of them drops to a lighter weight or returns to its
    /// own. The default driver and the per-slot oracle must agree on
    /// the result, the counters, a `MetricsProbe`'s registry and the
    /// final engine state — and the run prints its driver mix, so a
    /// policy change that stops jumping shows as a number in the log.
    #[test]
    fn busy_span_saturated_twin() {
        let horizon: Slot = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let dens: Vec<i128> = [(12, 2), (18, 3), (8, 4), (12, 6)]
            .into_iter()
            .flat_map(|(count, den)| (0..count).map(move |_| den))
            .collect();
        let mut w = Workload::new();
        for (id, &den) in (0u32..).zip(&dens) {
            w.join(id, 0, 1, den);
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut away: Option<u32> = None;
        for t in (2_000..horizon).step_by(2_000) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match away.take() {
                Some(id) => {
                    w.reweight(id, t, 1, dens[id as usize]);
                }
                None => {
                    let id = u32::try_from(state % 50).unwrap_or(0);
                    let lighter: Vec<i128> = [3, 4, 6, 12]
                        .into_iter()
                        .filter(|&d| d > dens[id as usize])
                        .collect();
                    w.reweight(id, t, 1, lighter[(state >> 32) as usize % lighter.len()]);
                    away = Some(id);
                }
            };
        }
        let cfg = SimConfig::oi(16, horizon);
        let mut fast = Engine::with_probe(cfg.clone(), &w, MetricsProbe::new());
        fast.run();
        let mut oracle = Engine::with_probe(cfg.per_slot(), &w, MetricsProbe::new());
        oracle.run();
        let mix = fast.driver_mix();
        println!("busy_span_saturated_twin: {horizon} slots, {mix:?}");
        let events = u64::try_from(horizon / 2_000).unwrap_or(0) - 1;
        assert!(
            mix.jumps >= events,
            "a span between two events never jumped: {mix:?}"
        );
        assert!(mix.busy_span_slots > 3 * mix.per_slot_slots, "{mix:?}");
        assert_eq!(
            mix.per_slot_slots + mix.quiet_span_slots + mix.busy_span_slots,
            u64::try_from(horizon).unwrap_or(0)
        );
        assert_eq!(
            oracle.driver_mix().per_slot_slots,
            u64::try_from(horizon).unwrap_or(0)
        );
        assert_eq!(fast.counters(), oracle.counters());
        assert_eq!(state_of(&fast), state_of(&oracle));
        let (fast, fast_metrics) = fast.finish_with_probe();
        let (oracle, oracle_metrics) = oracle.finish_with_probe();
        assert_eq!(fast.to_json().to_string(), oracle.to_json().to_string());
        assert_eq!(
            fast_metrics.registry().snapshot_text(),
            oracle_metrics.registry().snapshot_text()
        );
    }
}
