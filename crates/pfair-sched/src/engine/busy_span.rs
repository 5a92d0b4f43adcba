//! Steady busy-span batching: closed-form advance over saturated spans.
//!
//! The driver loop ([`Engine::run_to`]) already jumps *quiet*
//! spans — empty ready queue, no event due. Saturated systems never
//! have a quiet slot, yet between scheduling-relevant events their
//! trajectory is exactly periodic: every in-system task's subtask
//! windows recur with the period structure of Eqns (2)–(4) (a weight
//! `num/den` advances `num` subtask ranks every `den` slots, shifting
//! every window by `den`), so the whole engine state repeats up to a
//! uniform translation `Φ`. This module exploits that with the
//! engine's own snapshot image: a jump applies `Φ` to the armed image
//! and loads it, as a restore does.
//!
//! 1. **Arm** — when no enactment, departure, or stream event is due
//!    before a far boundary, write the engine's [`EngineSnapshot`] at
//!    `t0` over the last arming's ([`Engine::snapshot_into`]: its
//!    buffers, era sums and drift tracks included, are reused) and
//!    compute the candidate period `P` = lcm of the scheduling-weight
//!    denominators of every task releasing inside the span, given up at
//!    the first denominator or partial lcm longer than the span can
//!    verify and jump ([`Units::checked_lcm`]). A span that cannot arm
//!    is not looked at again before its far boundary.
//! 2. **Verify** — keep stepping the per-slot oracle for exactly `P`
//!    slots. At `t1 = t0 + P`, ask of every field the slot pipeline
//!    reads whether the live value is the imaged one shifted by `Φ`,
//!    cheapest question first: cursors and counter deltas, the hot
//!    columns, each task row — through shift-and-compare predicates
//!    that build nothing — then the ready queue, entry by entry (the
//!    calendar rings only index verified columns). Each advancing
//!    task's rank delta must also equal the analytic `(P / den) · num`,
//!    and its ideals must be a closed form — static or settled (see
//!    `engine/ideal.rs`) — whose only change over the period is its
//!    synchronization slot: a span shifts closed forms only, so a row
//!    whose trackers are still tracked fails verification like any
//!    other difference. Any deviation aborts the attempt and the run
//!    simply continues per-slot — batching is a pure optimization,
//!    never a semantic change.
//! 3. **Jump** — the engine is deterministic and, in the absence of
//!    events, its slot pipeline commutes with time translation, so
//!    `F^P(A) = Φ(A)` implies `F^(kP)(A) = Φ^k(A)`. With
//!    `k = ⌊(end − t1) / P⌋` whole periods left, the image at `t0` is
//!    shifted by `k + 1` periods — advancing rows (their records, and
//!    their ideals by the synchronization slot alone), their next
//!    releases, the queue entries, the counters and the clock — and
//!    loaded by [`Engine::load`], the loader [`Engine::restore`] calls;
//!    it re-files both rings from the loaded columns, which drops every
//!    stale hint.
//!    A shift that would overflow discards the image before anything is
//!    loaded: a refused jump has touched nothing.
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

use super::persist::TaskSnap;
use super::slab::TaskSlab;
use super::{Engine, EngineSnapshot, SubRec, TaskState};
use crate::overhead::Counters;
use crate::priority::Priority;
use pfair_core::rational::Units;
use pfair_core::task::TaskId;
use pfair_core::time::{shift_ever, Slot};
use pfair_core::weight::Weight;
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
/// sticky processor assignment (`Engine::assign_processors`) maps each
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
pub const MAX_CPU_ROTATION: Slot = 8;

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
    /// The latest arming, awaiting its verification slot while `armed`;
    /// its image's buffers serve the next arming.
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

/// One arming: the engine's snapshot image at `t0` — what
/// [`Engine::busy_span_tick`] recognizes `Φ(A)` by one period later, and
/// what a jump shifts and loads — and the span's bounds.
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
    /// The engine at `t0`; `None` until the first arming.
    image: Option<EngineSnapshot>,
    /// Verification's working memory: per-task deltas.
    deltas: Vec<TaskDelta>,
}

/// Verified per-period deltas of one task, used to extrapolate `Φ^k`.
#[derive(Clone, Copy, Debug, Default)]
struct TaskDelta {
    /// Subtask ranks gained per period (`0` for a fixed task).
    d_index: u64,
    /// `scheduled_count` gained per period.
    sched: u64,
}

impl TaskDelta {
    /// `k` periods' worth; `None` on overflow.
    fn times(&self, k: u64) -> Option<TaskDelta> {
        Some(TaskDelta {
            d_index: self.d_index.checked_mul(k)?,
            sched: self.sched.checked_mul(k)?,
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
            self.span_period(end, ((end - now) / 2).min(MAX_SPAN_PERIOD))
        };
        let Some(period) = period else {
            self.busy.refused_until = end;
            return;
        };
        self.mix.arms += 1;
        let mut image = (self.busy.probe.image.take()).unwrap_or_else(EngineSnapshot::blank);
        self.snapshot_into(&mut image);
        let probe = &mut self.busy.probe;
        (probe.t0, probe.base, probe.period, probe.end) = (now, period, period, end);
        probe.image = Some(image);
        self.busy.armed = true;
        self.probe.on_event(ObsEvent::SpanArmed { t0: now });
    }

    /// Candidate period: lcm of the scheduling-weight denominators of
    /// every in-system task releasing before `end`. Tasks with no
    /// release due in the span contribute nothing (they must stay
    /// entirely fixed, which verification enforces). `None` when no
    /// task releases, or at the first releasing task whose denominator,
    /// or the lcm so far, exceeds `most` — the longest period the span
    /// can verify and jump, which no lcm comes back below.
    fn span_period(&self, end: Slot, most: Slot) -> Option<Slot> {
        let mut acc = Units::new(1);
        let mut any = false;
        // A pure hot-column scan: presence bitmap word-walk, then the
        // next_release and swt columns — the cold rows stay untouched.
        for id in self.tasks.present_iter() {
            if let Some(r) = self.tasks.next_release(id) {
                if r < end {
                    let den = self.tasks.swt(id).map_or(1, Weight::denom);
                    if den > most {
                        return None;
                    }
                    acc = acc.checked_lcm(Units::new(den))?;
                    if acc.get() > most {
                        return None;
                    }
                    any = true;
                }
            }
        }
        any.then_some(acc.get())
    }

    /// At `t1 = t0 + P`: checks that the live state is the image's
    /// under one period of translation, and if so loads the image
    /// shifted to the last whole period before the span's end. Cheapest
    /// checks first: cursors, counter deltas and lengths (O(1) each),
    /// the per-task tables and hot columns (one cache-linear pass each),
    /// the task rows, and only then the contents of the ready queue.
    /// Any verdict but [`SpanVerdict::Jumped`] leaves the engine exactly
    /// as the per-slot oracle left it.
    fn verify_and_apply(&mut self, probe: &mut SpanProbe) -> SpanVerdict {
        let SpanProbe {
            t0,
            period,
            end,
            image: Some(image),
            deltas,
            ..
        } = probe
        else {
            return SpanVerdict::Mismatch;
        };
        let (period, t1) = (*period, *t0 + *period);
        // Counter deltas must be non-negative, and event-driven
        // counters cannot move in an event-free span.
        let Some(delta) = self.counters.checked_sub(&image.counters) else {
            return SpanVerdict::Mismatch;
        };
        if self.now != t1
            || self.next_event != image.next_event
            || !self.injected.is_empty()
            || self.misses.len() != image.misses.len()
            || self.tasks.len() != image.tasks.len()
            || delta.reweight_initiations != 0
            || delta.reweight_enactments != 0
            || delta.halts != 0
            || delta.rejected_heavy_reweights != 0
            || self.queue.len() != image.queue.len()
            || image.selector != self.selector
            || self.admission.committed_parts() != image.committed.as_slice()
            || !columns_match(&image.tasks, &self.tasks, period)
        {
            return SpanVerdict::Mismatch;
        }
        // Per-task: classify as advancing (Φ shifts it) or fixed
        // (Φ is the identity on it), and harvest per-period deltas.
        // `task_delta` checks the processor placement last, so a
        // rotation verdict means every scheduling-visible task field
        // already matched — widening the span is worth trying.
        let mut rotating = false;
        deltas.clear();
        for snap in &image.tasks {
            match task_delta(snap, &self.tasks, period, *end) {
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
        // Ready queue: the live queue must be the imaged queue with every
        // entry translated, and every entry must belong to an advancing
        // task — a fixed task with a live queue entry would be
        // schedulable inside the span, contradicting its stasis. Φ keeps
        // the order of entries, so the two sorted walks run in step.
        let mut imaged = image.queue.iter();
        let queue_shifted = self.queue.walk_sorted(|live| {
            imaged.next().is_some_and(|e| {
                e.task == live.task
                    && advancing(e.task).and_then(|d| e.index.checked_add(d)) == Some(live.index)
                    && translate_priority(e.priority, period) == Some(live.priority)
            })
        });
        if !queue_shifted {
            return SpanVerdict::Mismatch;
        }
        // Re-derive the ceiling defensively (verification above already
        // implies it has not moved) and jump whole periods only. The
        // run-segment limit subsumes the horizon clamp (`run_to` never
        // sets it above the horizon).
        let end = (*end).min(self.next_boundary(t1)).min(self.run_limit);
        // audit: allow(panic-reach, span_period returns a positive lcm, so the armed period is >= 1)
        let k = (end - t1) / period;
        // The image is at `t0`, one period behind the engine: the target
        // is `k + 1` periods on from it. An overflow anywhere discards
        // the image before the engine is written.
        let shifted = k >= 1 && shift_image(image, k + 1, period, deltas, &delta).is_some();
        if !shifted || self.load(image).is_err() {
            return SpanVerdict::Mismatch;
        }
        self.mix.busy_span_slots += u64::try_from(k * period).unwrap_or(0);
        // The no-op probe would discard the event unread.
        if !P::IS_NOOP {
            self.probe.on_event(ObsEvent::BusySpanJump {
                t0: *t0,
                t1,
                periods: u64::try_from(k).unwrap_or(0),
                period,
                releases: (deltas.iter()).fold(0, |sum, d| sum.saturating_add(d.d_index)),
                schedules: delta.scheduled_quanta,
                queue_ops: delta.heap_pushes.saturating_add(delta.heap_pops),
            });
        }
        SpanVerdict::Jumped
    }
}

/// `Φ^n` on the image, `n` periods of `period` slots: every advancing
/// row and its next release, every queue entry, the counters (`n`
/// times the per-period `delta`) and the clock move on; fixed tasks
/// stay as they are. `None` if a shifted value would overflow (a slot
/// that becomes a priority must stay inside the packed-key band); the
/// image is then part-shifted, fit only to be discarded.
fn shift_image(
    image: &mut EngineSnapshot,
    n: Slot,
    period: Slot,
    deltas: &[TaskDelta],
    delta: &Counters,
) -> Option<()> {
    let (n, ds) = (u64::try_from(n).ok()?, period.checked_mul(n)?);
    image.now = image.now.checked_add(ds)?;
    image.counters = image.counters.checked_add_scaled(delta, n)?;
    for (snap, d) in image.tasks.iter_mut().zip(deltas) {
        // Fixed tasks keep their rows and columns verbatim (Φ is the
        // identity on them); advancing ones always carry a release
        // (`task_delta` requires one).
        if d.d_index > 0 {
            snap.next_release = Some(snap.next_release?.checked_add(ds)?);
            row_shift(&mut snap.state, ds, &d.times(n)?)?;
        }
    }
    for e in &mut image.queue {
        let gain = deltas.get(e.task.idx())?.d_index.checked_mul(n)?;
        e.index = e.index.checked_add(gain)?;
        e.priority = translate_priority(e.priority, ds)?;
    }
    Some(())
}

/// The hot columns of every task: presence, ran flag and scheduling
/// weight as imaged, the next release as imaged or one period on.
fn columns_match(image: &[TaskSnap], live: &TaskSlab, period: Slot) -> bool {
    image.iter().all(|a| {
        let id = a.id;
        let release = live.next_release(id);
        a.in_system == live.in_system(id)
            && a.ran_last_slot == live.ran_last_slot(id)
            && a.swt == live.swt(id)
            && (release == a.next_release
                || release == a.next_release.and_then(|r| r.checked_add(period)))
    })
}

/// Decides how one task moved over the verified period: `Ok(fixed)` if
/// Φ is the identity on it, `Ok(advancing)` if every field is the
/// one-period translation of the image *and* the rank advance matches
/// the analytic `(P / den) · num`. The presence, ran and weight columns
/// were compared by [`columns_match`]. The processor placement is
/// checked last, so `Err(CpuRotation)` certifies that every
/// scheduling-visible field already matched and only the sticky
/// assignment's cycle outruns the period.
fn task_delta(
    snap: &TaskSnap,
    live: &TaskSlab,
    period: Slot,
    end: Slot,
) -> Result<TaskDelta, SpanVerdict> {
    let fail = SpanVerdict::Mismatch;
    let id = snap.id;
    let (ta, tb) = (&snap.state, live.get(id).ok_or(fail)?);
    let d_index = tb.next_index.checked_sub(ta.next_index).ok_or(fail)?;
    if !snap.in_system || d_index == 0 {
        // Departed, not-yet-joined and idle tasks must be entirely
        // untouched — row, parked state and next release — and stay so
        // over the whole extrapolated span: no release scheduled before
        // its end.
        let fixed = ta.same_as(tb, snap.swt.unwrap_or(Weight::ONE))
            && snap.parked == *live.parked(id)
            && snap.next_release == live.next_release(id)
            && !(snap.in_system && snap.next_release.is_some_and(|r| r < end));
        return fixed.then(TaskDelta::default).ok_or(fail);
    }
    // Advancing task: reweighting state must be quiescent and
    // era-stable (drift samples only appear at era boundaries, so
    // equality of the tracks is implied but checked anyway — by length,
    // as a track only ever grows).
    if !snap.parked.is_nothing() || !live.parked(id).is_nothing() {
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
    let Some(swt) = snap.swt else {
        return Err(fail);
    };
    if ta.drift.len() != tb.drift.len() {
        return Err(fail);
    }
    // A weight's denominator is positive; `.max(1)` is that fact in the
    // form the panic-reach pass reads as nonzero.
    let rank_gain = i128::from(period / swt.denom().max(1)) * i128::from(swt.numer());
    if period % swt.denom().max(1) != 0 || i128::from(d_index) != rank_gain {
        return Err(fail);
    }
    match (snap.next_release, live.next_release(id)) {
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
    // A closed form a period on is the closed form of the same pair
    // synchronized a period later (a period is a whole number of the
    // weight's windows); a tracked row is not shifted, so it fails here.
    if !subs_shifted || !ta.ideal.recurs_as(&tb.ideal, period) {
        return Err(fail);
    }
    let delta = TaskDelta {
        d_index,
        sched: tb
            .scheduled_count
            .checked_sub(ta.scheduled_count)
            .ok_or(fail)?,
    };
    // Everything scheduling-visible matches; the placement check comes
    // last so its failure is unambiguous.
    if ta.last_cpu != tb.last_cpu {
        return Err(SpanVerdict::CpuRotation);
    }
    Ok(delta)
}

/// `Φ^k` on an advancing task's row, in place (`ds = k · P`, `s` the
/// `k`-period amounts); `None` if a shifted field would overflow.
fn row_shift(task: &mut TaskState, ds: Slot, s: &TaskDelta) -> Option<()> {
    task.next_index = task.next_index.checked_add(s.d_index)?;
    task.scheduled_count = task.scheduled_count.checked_add(s.sched)?;
    if let Some(w) = task.last_scheduled {
        task.last_scheduled = Some(shift_window(w, ds)?);
    }
    for r in &mut task.subs {
        *r = shift_sub(r, ds, s.d_index)?;
    }
    task.ideal.shift(ds)
}

/// A subtask record translated by `ds` slots and `di` ranks (a 64-byte
/// value: comparing against it and storing it are the record's
/// predicate and shift).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ideal::Ideal;
    use crate::engine::SimConfig;
    use crate::event::Workload;
    use crate::overhead::DriverMix;
    use pfair_json::{FromJson, Json, ToJson};
    use pfair_obs::{MetricsProbe, NoopProbe};

    /// Everything an engine holds, in two parts: the rendered snapshot
    /// less the configuration (the twins below differ in it by design),
    /// and the hints of the two rings a firing path would act on. A
    /// ring that was stepped may hold stale hints that one re-filed at a
    /// jump no longer holds.
    fn state_of<P: Probe>(e: &Engine<P>) -> (String, [Vec<(Slot, TaskId)>; 2]) {
        let image = e.snapshot().expect("no history request").to_json_compact();
        let Ok(Json::Object(fields)) = Json::parse(&image) else {
            panic!("a snapshot renders as an object");
        };
        let rendered: Vec<(String, Json)> = fields
            .into_iter()
            .filter(|(key, _)| key != "config")
            .collect();
        assert_eq!(rendered.len(), 10, "the configuration left out");
        let hints = e.tasks.live_hints();
        (Json::Object(rendered).to_json_compact(), hints)
    }

    /// Runs `w` under `cfg` and under the per-slot oracle, each with a
    /// `MetricsProbe`; holds the two to the same counters, final state,
    /// result and registry, and returns the default driver's mix.
    fn run_twins(w: &Workload, cfg: SimConfig) -> DriverMix {
        let mut fast = Engine::with_probe(cfg.clone(), w, MetricsProbe::new());
        fast.run();
        let mut oracle = Engine::with_probe(cfg.per_slot(), w, MetricsProbe::new());
        oracle.run();
        let stepped = oracle.driver_mix().per_slot_slots;
        assert_eq!(stepped, oracle.now.unsigned_abs());
        assert_eq!(fast.counters(), oracle.counters());
        assert_eq!(state_of(&fast), state_of(&oracle));
        let mix = fast.driver_mix();
        let (fast, fast_metrics) = fast.finish_with_probe();
        let (oracle, oracle_metrics) = oracle.finish_with_probe();
        assert_eq!(fast.to_json_compact(), oracle.to_json_compact());
        assert_eq!(
            fast_metrics.registry().snapshot_text(),
            oracle_metrics.registry().snapshot_text()
        );
        mix
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

    /// A jump that cannot be made is refused whole, two ways. Every
    /// task's indices start 64 below `u64::MAX` (a pure relabelling:
    /// only `index − era_base` enters a window), and the horizon is far
    /// enough for each verified span to want some 2³⁹ periods more: the
    /// one verified period fits, the jump does not. Or task 3 has its
    /// trackers built before every tick (by value the same row): a span
    /// shifts closed forms only, so no verification passes, and none is
    /// filed as a refused span. The engine must read exactly as before
    /// each tick and go on stepping, equal to the per-slot oracle slot
    /// for slot.
    #[test]
    fn busy_span_refused_jump_is_a_no_op() {
        let cfg = SimConfig::oi(4, 1 << 40);
        for keep_tracked in [false, true] {
            let mut fast = Engine::new(cfg.clone(), &halves(0));
            let mut oracle = Engine::new(cfg.clone().per_slot(), &halves(0));
            for e in [&mut fast, &mut oracle] {
                for id in (0..8).filter(|_| !keep_tracked) {
                    e.tasks.task_mut(TaskId(id)).next_index = u64::MAX - 64;
                }
            }
            for _ in 0..100 {
                fast.step_slot();
                oracle.step_slot();
                if keep_tracked {
                    fast.tasks.trackers(TaskId(3));
                }
                let before = state_of(&fast);
                fast.busy_span_tick();
                assert_eq!(state_of(&fast), before, "slot {}", fast.now);
                assert_eq!(before, state_of(&oracle), "slot {}", fast.now);
                assert_eq!(fast.busy.refused_until, 0, "slot {}", fast.now);
            }
            let mix = fast.driver_mix();
            println!("busy_span_refused_jump_is_a_no_op, tracked {keep_tracked}: {mix:?}");
            assert_eq!(
                (mix.jumps, mix.busy_span_slots, mix.per_slot_slots),
                (0, 0, 100)
            );
            assert!(mix.arms > 2 && mix.mismatches > 2, "{mix:?}");
            assert_eq!(mix.cpu_rotations + mix.mismatches, mix.arms, "{mix:?}");
        }
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
                fast.finish().to_json_compact(),
                stepped.finish().to_json_compact()
            );
        }
    }

    /// Ids whose rows are not built yet arm like the placeholders they
    /// stand for: fifty tasks of weight 1/5 on twelve processors repeat
    /// with period 5 long before ids 50–59 join at slot 50 000, so the
    /// span before the join jumps, and the whole run equals the per-slot
    /// oracle's. A row that never changed keeps no bases across the
    /// jumps, and restored from a snapshot it is static again, before
    /// and after its next release; the restored run ends the same.
    #[test]
    fn busy_span_jumps_before_a_late_join() {
        let late: Slot = 50_000;
        let mut w = Workload::new();
        for t in 0..50 {
            w.join(t, 0, 1, 5);
        }
        for t in 50..60 {
            w.join(t, late, 1, 5);
        }
        let cfg = SimConfig::oi(12, late + 100);
        let mut fast = Engine::new(cfg.clone(), &w);
        fast.run_to(late);
        assert!(
            fast.tasks.row_mut(TaskId(50)).is_none(),
            "id 50 joins later"
        );
        let mix = fast.driver_mix();
        assert!(mix.jumps > 0, "{mix:?}");
        let is_static = |e: &Engine<NoopProbe>| {
            let ideal = &e.tasks.task(TaskId(0)).ideal;
            matches!(ideal, Ideal::Closed { bases: None, .. })
        };
        assert!(is_static(&fast), "a row that never changed");
        let image = fast.snapshot().expect("snapshot").to_json_compact();
        let parsed = FromJson::from_json(&Json::parse(&image).expect("parse")).expect("decode");
        let mut resumed = Engine::restore(parsed, NoopProbe).expect("restore");
        assert!(is_static(&resumed), "decoded static");
        let next = resumed.tasks.next_release(TaskId(0)).expect("a release");
        resumed.run_to(next + 1);
        assert!(is_static(&resumed), "static after its next release");
        fast.run();
        resumed.run();
        let result = fast.finish().to_json_compact();
        assert_eq!(result, resumed.finish().to_json_compact());
        assert_eq!(
            result,
            crate::engine::simulate(cfg.per_slot(), &w).to_json_compact()
        );
    }

    /// A stale release hint inside the first armed period does not
    /// stop a jump. Eight tasks of weight 1/2 fill four processors; an
    /// IS delay at slot 20 moves task 7's release to 50, and a second
    /// one at 48 moves it past the horizon, leaving its hint at 50
    /// stale, one slot into the span armed at 49. The columns the rings
    /// index repeat with period 2, so that arming verifies and jumps at
    /// once, and the run is the per-slot oracle's.
    #[test]
    fn busy_span_jumps_over_a_stale_release_hint() {
        let mut w = halves(0);
        w.delay(7, 20, 30).delay(7, 48, 1_000);
        let cfg = SimConfig::oi(4, 400);
        let mut oracle = Engine::new(cfg.clone().per_slot(), &w);
        oracle.run_to(49);
        assert_eq!(oracle.tasks.next_release(TaskId(7)), Some(1_050));
        let live = oracle.tasks.live_hints()[0].len();
        assert_eq!(oracle.tasks.release_at.len(), live + 1, "one stale hint");
        let mut fast = Engine::new(cfg.clone(), &w);
        fast.run_to(48);
        let before = fast.driver_mix();
        let mix = run_twins(&w, cfg);
        assert_eq!(
            (mix.arms, mix.jumps, mix.mismatches),
            (before.arms + 1, before.jumps + 1, before.mismatches),
            "{before:?} → {mix:?}"
        );
    }

    /// Rows that changed settle and then jump like static ones. Eight
    /// tasks of weight 1/2 fill four processors; at slot 10 each is
    /// reweighted to 1/2 again, which opens a new era under rule O or
    /// I and builds its trackers. A few releases later every row has
    /// settled, the spans after that jump, and the run is the per-slot
    /// oracle's.
    #[test]
    fn busy_span_jumps_over_settled_rows() {
        let mut w = halves(0);
        for t in 0..8 {
            w.reweight(t, 10, 1, 2);
        }
        let cfg = SimConfig::oi(4, 400);
        let mut fast = Engine::new(cfg.clone(), &w);
        let rows = |e: &Engine<NoopProbe>, settled: bool| {
            (0..8)
                .map(|id| &e.tasks.task(TaskId(id)).ideal)
                .all(|ideal| matches!(ideal, Ideal::Closed { bases: Some(_), .. }) == settled)
        };
        fast.run_to(12);
        assert!(rows(&fast, false), "every change builds its trackers");
        let before = fast.driver_mix();
        fast.run_to(200);
        assert!(rows(&fast, true), "every row has settled");
        let mix = fast.driver_mix();
        assert!(mix.jumps > before.jumps, "{before:?} → {mix:?}");
        let mix = run_twins(&w, cfg);
        println!("busy_span_jumps_over_settled_rows: {mix:?}");
        assert!(mix.jumps > 0 && mix.busy_span_slots > mix.per_slot_slots);
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
    /// Each change leaves the changed row tracked until its era settles,
    /// and a span over a tracked row does not jump; the floors below are
    /// the mix of the driver that still shifted tracked rows (release:
    /// 8288 / 0 / 191712 slots, arms 310, jumps 99, rotations 257,
    /// mismatches 134; debug: 3380 / 0 / 16620, arms 48, jumps 9,
    /// rotations 131, mismatches 13), so a lost jump fails here.
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
        let mix = run_twins(&w, SimConfig::oi(16, horizon));
        println!("busy_span_saturated_twin: {horizon} slots, {mix:?}");
        let events = u64::try_from(horizon / 2_000).unwrap_or(0) - 1;
        assert!(
            mix.jumps >= events,
            "a span between two events never jumped: {mix:?}"
        );
        let (jumps, jumped) = if cfg!(debug_assertions) {
            (9, 16_620)
        } else {
            (99, 191_712)
        };
        assert!(
            mix.jumps >= jumps && mix.busy_span_slots >= jumped,
            "fewer jumps than the tracked-row driver: {mix:?}"
        );
        // The whole mix, scans and verdicts, as a `span_period` that
        // scanned every releasing task before refusing left it.
        let (arms, scans, rotations, mismatches) = if cfg!(debug_assertions) {
            (48, 58, 131, 13)
        } else {
            (310, 407, 257, 134)
        };
        assert_eq!(
            (
                mix.arms,
                mix.period_scans,
                mix.cpu_rotations,
                mix.mismatches
            ),
            (arms, scans, rotations, mismatches),
            "{mix:?}"
        );
        assert_eq!((mix.longest_rotation, mix.longest_backoff), (8, 192));
        assert!(mix.busy_span_slots > 3 * mix.per_slot_slots, "{mix:?}");
        assert_eq!(
            mix.per_slot_slots + mix.quiet_span_slots + mix.busy_span_slots,
            u64::try_from(horizon).unwrap_or(0)
        );
    }
}
