//! The PD² multiprocessor simulation engine with adaptive reweighting.
//!
//! One [`Engine`] simulates an adaptable (AIS) task system slot by slot
//! on `M` processors under PD², enacting reweighting requests with the
//! fine-grained O/I rules, the coarse-grained leave/join rules, or a
//! hybrid of the two (see [`crate::reweight`]).
//!
//! ## Slot pipeline
//!
//! Each slot `t` is processed in a fixed order that mirrors the paper's
//! conventions (all changes happen at slot boundaries):
//!
//! 1. **Joins/leaves** whose time is `t`.
//! 2. **Enactments** scheduled for `t` (weight changes whose rules
//!    resolved to "enact at `t`"): the scheduling weight changes and the
//!    era-opening subtask is queued for release at `t`.
//! 3. **Initiations** at `t`: the reweighting rules run; they may halt
//!    the last-released subtask (rule O), enact immediately (rule I for
//!    increases; rule O/case-b when the wait has already elapsed), or
//!    park a pending change that waits on an `I_SW` completion.
//! 4. **Releases** due at `t`: subtask windows are fixed (Eqns (2)–(3)),
//!    the ready queue learns about new heads, and era-opening releases
//!    record a drift sample (Eqn (5) evaluates exactly here).
//! 5. **Selection**: up to `M` live subtasks leave the ready queue in
//!    PD² priority order; processors are assigned with a
//!    migration-minimizing pass.
//! 6. **Ideal advance**: `I_SW`/`I_PS` trackers accrue slot `t`;
//!    completions can fire pending rule-O/I waits (which then enact at
//!    `max(t_c, D + b)` in a later slot's step 2).
//! 7. **Miss check**: any released, unhalted, unscheduled subtask whose
//!    deadline is `t + 1` is recorded as a miss (Theorem 2: never under
//!    PD²-OI with admission policing). The ready queue's front deadline
//!    rules the slot out in O(1) whenever nothing queued is due (see
//!    `check_misses`).
//!
//! The driver, the timed firings of steps 1–3 and step 6 are in this
//! file; the rules those steps apply are in `engine/rules.rs`, step 4 in
//! `engine/release.rs`, steps 5 and 7 in `engine/select.rs`, each under
//! the text of the paper it implements.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::calendar::CalendarRing;
use crate::event::{Event, EventKind, Workload};
use crate::overhead::{Counters, DriverMix};
use crate::priority::{TieBreak, TieTable};
use crate::queue::{compaction_threshold, QueueEntry, ReadyQueue};
use crate::reweight::{RuleSelector, Scheme};
use crate::trace::{Miss, SimResult, SubtaskRecord, TaskHistory, TaskResult};
use pfair_core::arena::InlineVec;
use pfair_core::drift::DriftTrack;
use pfair_core::ideal::{IswTracker, PsTracker};
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{ever, slot_index, Slot, NEVER};
use pfair_core::window::SubtaskWindow;
use pfair_obs::{NoopProbe, ObsEvent, Probe, ReleaseRec};
use std::sync::Arc;

mod busy_span;
mod persist;
mod release;
mod rules;
mod select;
mod slab;
pub use persist::EngineSnapshot;
use slab::TaskSlab;

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processors `M`.
    pub processors: u32,
    /// Number of slots to simulate.
    pub horizon: Slot,
    /// Reweighting scheme (OI, LJ, or hybrid).
    pub scheme: Scheme,
    /// Resolution of PD² priority ties.
    pub tie_break: TieBreak,
    /// Condition-(W) policing.
    pub admission: AdmissionPolicy,
    /// Retain full subtask traces and per-slot ideal series.
    pub record_history: bool,
    /// Closed-form slot batching: advance over quiet spans (empty ready
    /// queue, no release or event due) in one jump instead of per-slot
    /// pipeline iterations. Output is bit-identical to the per-slot
    /// oracle, and a probe sees the span as one `ObsEvent::QuietSpan`
    /// in place of its slot starts, so this is on by default; disable
    /// via [`SimConfig::per_slot`] to run the oracle. History runs always
    /// use the per-slot path (the per-slot ideal series must be
    /// materialized anyway).
    pub tickless: bool,
    /// Steady busy-span batching on top of the tickless driver: when
    /// the engine detects that the whole system is repeating with a
    /// common period (no event due, every queued task's windows
    /// recurring), it verifies one full period against the per-slot
    /// oracle and then enacts the remaining whole periods up to the
    /// next event boundary in closed form (the probe sees an
    /// `ObsEvent::SpanArmed` and, once verified, an
    /// `ObsEvent::BusySpanJump`); output is bit-identical either way.
    /// Disable via
    /// [`SimConfig::without_busy_span`] to benchmark the plain tickless
    /// driver.
    pub busy_span: bool,
}

impl SimConfig {
    /// A PD²-OI configuration with policing and default tie-breaks.
    pub fn oi(processors: u32, horizon: Slot) -> SimConfig {
        SimConfig {
            processors,
            horizon,
            scheme: Scheme::Oi,
            tie_break: TieBreak::default(),
            admission: AdmissionPolicy::Police,
            record_history: false,
            tickless: true,
            busy_span: true,
        }
    }

    /// A PD²-LJ configuration with policing and default tie-breaks.
    pub fn leave_join(processors: u32, horizon: Slot) -> SimConfig {
        SimConfig {
            scheme: Scheme::LeaveJoin,
            ..SimConfig::oi(processors, horizon)
        }
    }

    /// Builder-style: replace the scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> SimConfig {
        self.scheme = scheme;
        self
    }

    /// Builder-style: replace the tie-break policy.
    pub fn with_tie_break(mut self, tb: TieBreak) -> SimConfig {
        self.tie_break = tb;
        self
    }

    /// Builder-style: set the admission policy.
    pub fn with_admission(mut self, a: AdmissionPolicy) -> SimConfig {
        self.admission = a;
        self
    }

    /// Builder-style: enable history recording.
    pub fn with_history(mut self) -> SimConfig {
        self.record_history = true;
        self
    }

    /// Builder-style: disable slot batching, forcing the per-slot
    /// oracle path (equivalence tests diff this against the default).
    pub fn per_slot(mut self) -> SimConfig {
        self.tickless = false;
        self
    }

    /// Builder-style: keep the tickless driver but disable busy-span
    /// batching (`benchmark/`'s `engine.driver.tickless_slots_per_s.*`
    /// measures this against the default to isolate the busy-span
    /// multiplier).
    pub fn without_busy_span(mut self) -> SimConfig {
        self.busy_span = false;
        self
    }
}

/// What firing the pending change does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendKind {
    /// Enact the weight change and release the era-opening subtask.
    Enact,
    /// The weight change is already enacted (rule I, increase); only the
    /// era-opening release remains.
    ReleaseOnly,
}

/// A parked weight change. `at` is always a concrete slot: waits on an
/// `I_SW` completion (`D(I_SW, T_j) + b`) are resolved eagerly at
/// initiation from the closed-form projection — exact because the
/// scheduling weight is era-constant until this very pending fires, and
/// any superseding initiation replaces the pending (stale `enact_at`
/// entries are validated away when their slot arrives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    target: Rational,
    /// Fires in step 2 of this slot.
    at: Slot,
    kind: PendKind,
    /// Slot the owning reweighting event was initiated at (probe
    /// reporting only — rule semantics never read it).
    initiated_at: Slot,
}

/// A released subtask the engine still tracks: 59 bytes of fields in a
/// 64-byte record, three to a task row inline. Slots not (yet) set hold
/// [`NEVER`], and the window is stored flat — an `Option<Slot>` takes
/// two words and a nested [`SubtaskWindow`] pads its b-bit to a third.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SubRec {
    index: u64,
    /// `r(T_i)`.
    release: Slot,
    /// `d(T_i)`.
    deadline: Slot,
    /// PD² group deadline (equals the deadline for light tasks).
    group_deadline: Slot,
    scheduled_at: Slot,
    halted_at: Slot,
    /// `D(I_SW, T_i)`, once a tracker synchronization has reported it.
    isw_completion: Slot,
    /// `b(T_i)`.
    b: bool,
    era_first: bool,
    missed: bool,
}

impl SubRec {
    #[inline]
    fn window(&self) -> SubtaskWindow {
        SubtaskWindow {
            release: self.release,
            deadline: self.deadline,
            b: self.b,
        }
    }

    /// Released, not scheduled, not halted: PD² still owes it a quantum.
    #[inline]
    fn is_pending(&self) -> bool {
        self.scheduled_at == NEVER && self.halted_at == NEVER
    }
}

/// Per-task runtime state: the *cold row* of the [`TaskSlab`] arena.
///
/// Four per-slot-hot facts — presence (`in_system`), the ran-last-slot
/// flag, the scheduling weight `swt(T, t)`, and the next release slot —
/// live in the slab's dense columns instead of here, so whole-set scans
/// never touch these rows (see `engine/slab.rs`).
///
/// One contiguous row: the subtask records and the `I_SW` tracker's
/// subtasks are inline, so in steady state the only heap block a task
/// owns is its drift track's (`tests/footprint.rs` pins both figures).
/// The row holds nothing another place already does: the task's id is
/// its position in the slab, its actual weight `wt(T, t)` is the `I_PS`
/// tracker's.
#[derive(Clone, Debug)]
struct TaskState {
    /// `z`: indices `> era_base` belong to the current era.
    era_base: u64,
    /// Index the next released subtask will get.
    next_index: u64,
    /// The next release opens an era (`Id(T_i) = i`).
    era_open_pending: bool,
    /// Recent subtask records: `prune` keeps two, and the one a release
    /// adds is settled a slot later; only a tardy task holds more.
    subs: InlineVec<SubRec, 3>,
    pending: Option<Pending>,
    /// Time at which an initiated leave takes effect; [`NEVER`] while
    /// none is.
    leaving: Slot,
    /// Window of the most recently *scheduled* subtask (rule L).
    last_scheduled: Option<SubtaskWindow>,
    isw: IswTracker,
    ps: PsTracker,
    drift: DriftTrack,
    scheduled_count: u64,
    /// Processor of the task's latest quantum; [`NO_CPU`] before the
    /// first.
    last_cpu: u32,
    /// History-mode accumulators (`subtasks` holds the pruned records);
    /// allocated when the task joins a `record_history` run.
    history: Option<Box<TaskHistory>>,
}

/// [`TaskState::last_cpu`] of a task that has not run yet. Processors
/// are numbered below [`SimConfig::processors`], so none has this id.
const NO_CPU: u32 = u32::MAX;

const _: () = {
    assert!(std::mem::size_of::<SubRec>() <= 64);
    assert!(std::mem::size_of::<TaskState>() <= 800);
};

impl TaskState {
    fn placeholder() -> TaskState {
        TaskState {
            era_base: 0,
            next_index: 1,
            era_open_pending: false,
            subs: InlineVec::new(),
            pending: None,
            leaving: NEVER,
            last_scheduled: None,
            isw: IswTracker::new(Rational::ONE, 0),
            ps: PsTracker::new(Rational::ONE, 0),
            drift: DriftTrack::new(),
            scheduled_count: 0,
            last_cpu: NO_CPU,
            history: None,
        }
    }

    /// Most recently released subtask record.
    #[inline]
    fn last_released(&self) -> Option<&SubRec> {
        self.subs.back()
    }

    /// The first unscheduled, unhalted subtask — the task's schedulable
    /// head.
    #[inline]
    fn head(&self) -> Option<&SubRec> {
        self.subs.iter().find(|s| s.is_pending())
    }

    /// Find the most recent non-halted subtask strictly before `index`.
    #[inline]
    fn pred_of(&self, index: u64) -> Option<&SubRec> {
        self.subs
            .iter()
            .rev()
            .find(|s| s.index < index && s.halted_at == NEVER)
    }

    #[inline]
    fn sub_mut(&mut self, index: u64) -> Option<&mut SubRec> {
        self.subs.iter_mut().find(|s| s.index == index)
    }

    fn to_record(s: &SubRec) -> SubtaskRecord {
        SubtaskRecord {
            index: s.index,
            window: s.window(),
            scheduled_at: ever(s.scheduled_at),
            halted_at: ever(s.halted_at),
            isw_completion: ever(s.isw_completion),
            era_first: s.era_first,
        }
    }

    /// Drops records that can no longer influence the rules. Keeps every
    /// unscheduled/unhalted subtask, anything whose `I_SW` completion is
    /// still unknown (rule O may need to watch it), and the two most
    /// recent records. History runs archive what is dropped.
    #[inline]
    fn prune(&mut self) {
        let n = self
            .subs
            .iter()
            .take(self.subs.len().saturating_sub(2))
            .take_while(|s| {
                let settled = s.halted_at != NEVER || s.isw_completion != NEVER;
                settled && !s.is_pending() && !s.missed
            })
            .count();
        if let Some(history) = &mut self.history {
            history
                .subtasks
                .extend(self.subs.iter().take(n).map(Self::to_record));
        }
        self.subs.drop_front(n);
    }
}

/// What [`TaskState::sync_ideals_to`]'s pass over the retained records
/// saw, for the release that may follow the synchronization.
#[derive(Clone, Copy, Debug)]
struct SubsScan {
    /// b-bit of the most recent non-halted record: the predecessor of
    /// the next subtask to be released.
    pred_b: Option<bool>,
    /// Deadline of the schedulable head (the first unscheduled,
    /// unhalted record), if the task has one.
    head_deadline: Option<Slot>,
}

/// Buffers the slot pipeline refills every slot, owned by the engine so
/// a slot allocates nothing once they have grown to the slot's size.
/// Each phase clears what it uses; nothing here carries state from one
/// phase to the next, so none of it is observable (not persisted, not
/// compared).
#[derive(Clone, Debug, Default)]
struct SlotScratch {
    /// A calendar ring's due list (departures, enactments, releases).
    due: Vec<TaskId>,
    /// The slot's releases, for `Probe::on_release_batch`.
    batch: Vec<ReleaseRec>,
    /// The buffer the next slot's chosen set is built in (last slot's
    /// `last_chosen`, recycled).
    chosen: Vec<TaskId>,
    /// Queue entries of the chosen tasks' next heads, between
    /// `pop_and_schedule` and `promote_successors`.
    promoted: Vec<QueueEntry>,
    /// Tasks that stopped running this slot.
    stopped: Vec<TaskId>,
    /// `assign_processors`: processors taken, tasks without their
    /// previous processor, free processors.
    cpu_taken: Vec<bool>,
    unplaced: Vec<TaskId>,
    free_cpus: Vec<u32>,
    /// Miss candidates `(task, index)` of the slot.
    missed: Vec<(u32, u64)>,
}

/// The PD² simulation engine. Construct with [`Engine::new`], drive with
/// [`Engine::step`] (or run to the horizon with [`Engine::run`]), then
/// collect the [`SimResult`] with [`Engine::finish`]. `Clone` snapshots
/// the full simulation state (used by benchmarks to measure single
/// slots from a prepared state).
///
/// The engine is generic over a [`Probe`], resolved by static dispatch:
/// the default [`NoopProbe`] compiles every hook to nothing, so
/// `Engine::new` callers pay for observability only when they opt in
/// via [`Engine::with_probe`].
#[derive(Clone)]
pub struct Engine<P: Probe = NoopProbe> {
    probe: P,
    config: SimConfig,
    /// The workload's time-ordered stream, shared with every other
    /// consumer of that workload; the cursor is this engine's.
    events: Arc<Vec<Event>>,
    next_event: usize,
    tasks: TaskSlab,
    queue: ReadyQueue,
    selector: RuleSelector,
    admission: AdmissionController,
    counters: Counters,
    misses: Vec<Miss>,
    now: Slot,
    /// Events injected online (e.g., by the real-time executor), merged
    /// into the stream at each step.
    injected: Vec<Event>,
    /// Earliest `at` among `injected` ([`NEVER`] when empty): the
    /// per-slot injection scan only runs on slots that can fire one,
    /// and the tickless driver treats it as an event boundary.
    injected_min: Slot,
    /// The previous slot's chosen set. Feeds the delta ran-flag sweep
    /// (`sweep_ran_flags`); rebuilt from the slab's `ran` bitmap after
    /// busy-span jumps and snapshot restores.
    last_chosen: Vec<TaskId>,
    /// Tasks whose records changed this slot (synced, scheduled, or
    /// halted) — the only candidates for pruning, drained at the end of
    /// each slot. Replaces the oracle's all-task prune sweep.
    touched: Vec<TaskId>,
    /// Per-slot buffers (see [`SlotScratch`]).
    scratch: SlotScratch,
    /// Current run boundary (`run_to`); the busy-span verifier must not
    /// step past it. Reset to the horizon outside `run_to`.
    run_limit: Slot,
    /// Dense per-task tie ranks, precomputed once from
    /// `config.tie_break` (a `Ranked` policy's `key` is a linear scan —
    /// too slow for the release hot path).
    tie: TieTable,
    /// Slot-indexed schedule of upcoming subtask releases: tasks whose
    /// `next_release` was set to the key slot. Entries are validated
    /// against the task's current `next_release` when their slot
    /// arrives (a later delay/park/leave makes them stale), so each
    /// slot costs `O(due)` instead of a scan over every task.
    release_at: CalendarRing,
    /// Slot-indexed parked reweighting changes (`Pending::at`);
    /// validated against `TaskState::pending` on firing, since a
    /// superseding initiation or a leave may have replaced the entry.
    enact_at: CalendarRing,
    /// Slot-indexed rule-L departures; validated against
    /// `TaskState::leaving` on firing.
    leave_at: CalendarRing,
    /// Busy-span batching state machine (armed snapshot, mismatch
    /// backoff). Not persisted: a restored engine re-arms from scratch,
    /// which cannot change its trajectory (jumps are verified no-ops
    /// over per-slot stepping).
    busy: busy_span::BusySpanState,
    /// Slots covered per driver rung and busy-span outcomes
    /// ([`Engine::driver_mix`]).
    mix: DriverMix,
}

impl Engine {
    /// Builds an engine for the given workload (no probe — the
    /// zero-cost [`NoopProbe`] is used).
    pub fn new(config: SimConfig, workload: &Workload) -> Engine {
        Engine::with_probe(config, workload, NoopProbe)
    }
}

impl<P: Probe> Engine<P> {
    /// Builds an engine whose hooks report to `probe`.
    pub fn with_probe(config: SimConfig, workload: &Workload, probe: P) -> Engine<P> {
        let n = workload.task_count();
        Engine {
            probe,
            selector: RuleSelector::new(config.scheme.clone(), n),
            admission: AdmissionController::new(config.admission, config.processors, n),
            events: workload.stream(),
            next_event: 0,
            tasks: TaskSlab::new(n),
            queue: ReadyQueue::new(),
            counters: Counters::default(),
            misses: Vec::new(),
            now: 0,
            injected: Vec::new(),
            injected_min: NEVER,
            last_chosen: Vec::new(),
            touched: Vec::new(),
            scratch: SlotScratch::default(),
            run_limit: config.horizon,
            tie: TieTable::new(&config.tie_break, n),
            release_at: CalendarRing::new(0),
            enact_at: CalendarRing::new(0),
            leave_at: CalendarRing::new(0),
            busy: busy_span::BusySpanState::default(),
            mix: DriverMix::default(),
            config,
        }
    }

    /// The engine's probe (live drivers emit executor-side events —
    /// overruns, skips — through this). The probe's span state belongs
    /// to the run: do not swap the probe out between an
    /// `ObsEvent::SpanArmed` and its `ObsEvent::BusySpanJump`, which
    /// scales what the probe accumulated since that arming.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Number of ready-queue entries, stale ones included (compaction
    /// keeps this bounded; see [`ReadyQueue::compact_traced`]).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The next slot to be simulated.
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Injects an event online. Events whose time has already passed
    /// fire at the next step; future-dated events fire at their slot.
    /// This is how live drivers (the real-time executor) feed
    /// reweighting requests into a running engine.
    pub fn inject(&mut self, event: Event) {
        // The event may fire inside a span found unarmable.
        self.busy.forget_refusal();
        self.injected_min = self.injected_min.min(event.at);
        self.injected.push(event);
    }

    /// Number of task slots the engine can address (ids `0..n`,
    /// present or not).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks currently in the system.
    pub fn present_count(&self) -> usize {
        self.tasks.present_count()
    }

    /// Grows every per-task table to address ids `0..n` — the online
    /// analogue of sizing from `workload.task_count()` at build time.
    /// The shard supervisor uses this to admit globally-numbered tasks
    /// (and migration rejoins under fresh ids) into a running shard.
    ///
    /// Growth is append-only and does not disturb existing tasks; note
    /// that under a `Ranked`/`TaskIdDesc` tie-break appended ids take
    /// ranks after the existing ones (see [`TieTable::ensure_tasks`]),
    /// so suppliers that need those policies should size up front.
    pub fn ensure_task_capacity(&mut self, n: u32) {
        // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
        if (n as usize) <= self.tasks.len() {
            return;
        }
        self.tasks.ensure(n);
        self.selector.ensure_tasks(n);
        self.admission.ensure_tasks(n);
        self.tie.ensure_tasks(&self.config.tie_break, n);
    }

    /// Overhead counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// What each rung of the driver ladder did so far.
    pub fn driver_mix(&self) -> DriverMix {
        self.mix
    }

    /// Runs every remaining slot up to the horizon.
    ///
    /// With `config.tickless` (the default) quiet and steady busy spans
    /// are advanced in closed form; the result, counters, and probe
    /// stream are bit-identical to stepping every slot (see DESIGN.md,
    /// "The driver ladder"). History runs always take the per-slot
    /// path: they materialize per-slot ideal series.
    pub fn run(&mut self) {
        self.run_to(self.config.horizon);
    }

    /// Runs every remaining slot up to `min(until, horizon)` — the
    /// segmented form of [`Engine::run`], and the engine's only driver
    /// loop. Every slot that can change state runs the full per-slot
    /// [`Engine::step`]; unless the run is the per-slot oracle
    /// ([`SimConfig::per_slot`]) or records history, two closed forms
    /// ride on top of it: the busy-span verifier observes every point
    /// the driver reaches, and when the ready queue is empty the span up
    /// to the next release, event boundary (enactment, departure,
    /// stream or injected event) or `until` is skipped in one jump.
    ///
    /// A run split into segments is bit-identical to one unsegmented
    /// run: both closed forms are equivalent to per-slot stepping
    /// regardless of where the boundaries land, so the shard supervisor
    /// can interleave event routing between segments without perturbing
    /// any shard's trajectory.
    pub fn run_to(&mut self, until: Slot) {
        let until = until.min(self.config.horizon);
        self.run_limit = until;
        // A span refused under the last segment's limit may arm now.
        self.busy.forget_refusal();
        let spans = self.config.tickless && !self.config.record_history;
        while self.now < until {
            self.step_slot();
            if !spans {
                continue;
            }
            self.busy_span_tick();
            if !self.queue.is_empty() {
                continue;
            }
            // `next_boundary` includes the earliest injection, so a due
            // (or overdue) one leaves no span to skip.
            let t = self.now;
            let next_release = self.release_at.next_occupied(t).unwrap_or(NEVER);
            let end = self.next_boundary(t).min(next_release).min(until);
            if end > t {
                self.skip_quiet_span(t, end);
                // The verifier must see this boundary too: an armed
                // probe's verification slot may land right here.
                self.busy_span_tick();
            }
        }
        self.run_limit = self.config.horizon;
    }

    /// The earliest upcoming slot at which anything other than a
    /// subtask release can change engine state: a parked enactment, a
    /// rule-L departure, the next workload-stream event, or the
    /// earliest online injection (quiet spans clamp to it; the slot it
    /// names runs the full pipeline, which fires it).
    fn next_boundary(&self, t: Slot) -> Slot {
        let stream = self.events.get(self.next_event).map_or(NEVER, |e| e.at);
        let enact = self.enact_at.next_occupied(t).unwrap_or(NEVER);
        let leave = self.leave_at.next_occupied(t).unwrap_or(NEVER);
        stream.min(enact).min(leave).min(self.injected_min)
    }

    /// Advances over `start..end` in one jump. Legal because the ready
    /// queue is empty (hence no task holds a released, unscheduled,
    /// unhalted subtask — every head has a live queue entry) and no
    /// event of any kind is due in the span: each skipped slot would
    /// have scheduled nothing, preempted nothing, missed nothing, and
    /// counted one hole. The span's remainder is reported as one
    /// [`ObsEvent::QuietSpan`], so the jump is O(1) under any probe.
    fn skip_quiet_span(&mut self, start: Slot, end: Slot) {
        debug_assert!(start < end, "empty quiet span");
        debug_assert!(self.queue.is_empty(), "batching over a non-empty queue");
        self.mix.quiet_span_slots += u64::try_from(end - start).unwrap_or(0);
        if self.config.processors > 0 {
            self.counters.slots_with_holes += u64::try_from(end - start).unwrap_or(0);
        }
        // First slot: last slot's chosen tasks stop running, exactly as
        // the oracle's ran-flag scan would record. Later slots change no
        // flags at all (nothing runs, nothing ran).
        self.probe.on_slot_start(start);
        let mut last = std::mem::take(&mut self.last_chosen);
        self.sweep_ran_flags(start, &last, &[]);
        last.clear();
        self.last_chosen = last;
        if start + 1 < end {
            let holes = u64::try_from(end - (start + 1))
                .unwrap_or(0)
                .saturating_mul(u64::from(self.config.processors));
            self.probe.on_event(ObsEvent::QuietSpan {
                from: start + 1,
                to: end,
                holes,
            });
        }
        self.now = end;
    }

    /// Simulates one slot. Returns the tasks scheduled in it (at most
    /// `M`), in no particular order.
    pub fn step(&mut self) -> Vec<TaskId> {
        self.step_slot();
        self.last_chosen.clone()
    }

    /// One slot of the pipeline (module docs); the slot's chosen set is
    /// left in `last_chosen`.
    fn step_slot(&mut self) {
        let t = self.now;
        assert!(t < self.config.horizon, "stepping past the horizon"); // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
        self.probe.on_slot_start(t);

        // Steps 1–3: timed state changes. Joins/leaves and initiations
        // come from the event stream (and online injections); enactments
        // from pending changes.
        self.fire_departures(t);
        self.fire_enactments(t);
        self.fire_events(t);
        // Injected (live) events come after the stream's own events for
        // the slot, so an injection can address a task whose join is
        // scheduled in this very slot.
        self.fire_injected(t);

        // Step 4: releases due at t.
        self.fire_releases(t);

        // Step 5: PD² selection, with the delta ran-flag/preemption
        // sweep over `prev ∪ chosen` (see `sweep_ran_flags` for the
        // equivalence argument against the oracle's all-task scan).
        let chosen = self.pop_and_schedule(t);
        let last = std::mem::take(&mut self.last_chosen);
        self.sweep_ran_flags(t, &last, &chosen);
        self.promote_successors();
        // Last slot's buffer is the one the next slot's set is built in.
        self.scratch.chosen = last;
        self.last_chosen = chosen;

        // Step 6: per-slot ideal-schedule advance — history mode only,
        // where the per-slot I_SW series must be materialized anyway.
        // Event-driven runs instead jump the trackers forward at event
        // boundaries (`TaskState::sync_ideals_to`), cutting ideal
        // bookkeeping from O(slots × tasks) to O(events × tasks).
        if self.config.record_history {
            self.advance_ideals(t);
        }

        // Step 7: deadline misses.
        self.check_misses(t);

        // Bound the ready queue: lazy invalidation must not let stale
        // entries accumulate without limit over long horizons.
        self.maybe_compact(t);

        // Prune: a record's prunability only changes when it is synced,
        // scheduled, or halted — all of which mark the task touched —
        // so draining the touched list reaches every record the
        // oracle's all-task sweep would drop. History mode keeps the
        // all-task sweep: the archive order must match the oracle's
        // task-by-task iteration exactly (history runs are small-n).
        if self.config.record_history {
            self.touched.clear();
            self.tasks.prune_all();
        } else {
            let mut touched = std::mem::take(&mut self.touched);
            for id in touched.drain(..) {
                self.tasks.task_mut(id).prune();
            }
            self.touched = touched;
        }
        self.mix.per_slot_slots += 1;
        self.now = t + 1;
    }

    /// Compacts the ready queue once stale entries can dominate it.
    ///
    /// At most one live entry per task is ever enqueued (a task's head,
    /// pushed at release or promotion), so the task count bounds the
    /// live entries; [`compaction_threshold`] documents why exceeding
    /// it by its tuned margin means stale entries dominate and the
    /// sweep amortizes to constant work per push.
    fn maybe_compact(&mut self, t: Slot) {
        let threshold = compaction_threshold(self.tasks.len());
        if self.queue.len() <= threshold {
            return;
        }
        let tasks = &self.tasks;
        let probe = &mut self.probe;
        self.queue.compact_traced(
            &mut self.counters,
            |e| tasks.live_position(e).is_some(),
            |e| {
                probe.on_event(ObsEvent::StaleDrop {
                    task: e.task,
                    index: e.index,
                    t,
                });
            },
        );
    }

    /// Applies injected events due at or before `t`, in injection
    /// order, and drops them from the backlog in the same pass (no
    /// handler touches the backlog, so it can be taken for the scan).
    /// The scan only runs on slots that can fire something
    /// (`injected_min` gates it), so a long-lived backlog of
    /// future-dated injections costs nothing per slot; a backlog that
    /// fired completely gives its buffer back — a shard's whole
    /// population arrives through here at slot 0 and nothing after.
    fn fire_injected(&mut self, t: Slot) {
        if self.injected_min > t {
            return;
        }
        let mut backlog = std::mem::take(&mut self.injected);
        backlog.retain(|ev| {
            if ev.at > t {
                return true;
            }
            self.apply_event(*ev, t);
            false
        });
        if backlog.is_empty() {
            backlog = Vec::new();
        }
        self.injected_min = backlog.iter().map(|e| e.at).min().unwrap_or(NEVER);
        self.injected = backlog;
    }

    /// Dispatches one stream or injected event firing at slot `t`.
    fn apply_event(&mut self, ev: Event, t: Slot) {
        match ev.kind {
            EventKind::Join(w) => self.handle_join(ev.task, t, w),
            EventKind::Leave => self.handle_leave(ev.task, t),
            EventKind::Reweight(w) => self.handle_reweight(ev.task, t, w),
            EventKind::Delay(by) => self.handle_delay(ev.task, t, by),
        }
    }

    /// Consumes the engine, producing the run's results.
    pub fn finish(self) -> SimResult {
        self.finish_with_probe().0
    }

    /// Consumes the engine, producing the run's results and handing the
    /// probe back (a recorder probe owns the collected trace).
    pub fn finish_with_probe(mut self) -> (SimResult, P) {
        // End-of-run boundary: bring every still-present task's trackers
        // up to the last simulated slot (no-op in history mode; departed
        // tasks were synced when they left).
        let now = self.now;
        for id in self.tasks.present_ids() {
            self.sync_task(id, now);
        }
        let record_history = self.config.record_history;
        let Engine {
            probe,
            config,
            tasks,
            misses,
            counters,
            now,
            ..
        } = self;
        // A buffer of the results' own size: collecting would reuse the
        // rows' allocation in place, and the result would hold a row's
        // bytes per task for as long as it lives.
        let cold = tasks.into_cold();
        let mut tasks = Vec::with_capacity(cold.len());
        tasks.extend(cold.into_iter().zip(0..).map(|(mut ts, id)| {
            // The drift track moves into the result; the growth slack
            // of its buffer would stay allocated as long as that lives.
            ts.drift.shrink_to_fit();
            TaskResult {
                id: TaskId(id),
                scheduled_count: ts.scheduled_count,
                ps_total: ts.ps.total(),
                isw_total: ts.isw.isw_total(),
                icsw_total: ts.isw.icsw_total(),
                drift: std::mem::take(&mut ts.drift),
                history: record_history.then(|| {
                    // A task that never joined has no accumulators.
                    let mut history = ts.history.take().unwrap_or_default();
                    history
                        .subtasks
                        .extend(ts.subs.iter().map(TaskState::to_record));
                    history
                }),
            }
        }));
        let result = SimResult {
            processors: config.processors,
            horizon: now,
            tasks,
            misses,
            counters,
        };
        (result, probe)
    }

    // ---- step 1: joins & leaves -------------------------------------

    fn fire_departures(&mut self, t: Slot) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.leave_at.take_into(t, &mut due);
        Self::in_task_order(&mut due);
        for id in due.drain(..) {
            if self.tasks.task(id).leaving != t {
                continue;
            }
            // The ideals stop accruing at departure; close them out.
            self.sync_task(id, t);
            self.tasks.task_mut(id).leaving = NEVER;
            self.tasks.set_in_system(id, false);
            self.admission.release(id);
        }
        self.scratch.due = due;
    }

    /// Deduplicates a slot-index bucket and restores the task-index
    /// iteration order the per-slot scans used, keeping slot processing
    /// deterministic and independent of insertion history.
    fn in_task_order(due: &mut Vec<TaskId>) {
        due.sort_unstable_by_key(|id| id.0);
        due.dedup();
    }

    // ---- step 2: enactments ------------------------------------------

    fn fire_enactments(&mut self, t: Slot) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.enact_at.take_into(t, &mut due);
        Self::in_task_order(&mut due);
        for id in due.drain(..) {
            let fire = matches!(
                self.tasks.task(id).pending,
                Some(Pending { at, .. }) if at == t
            );
            if !fire {
                continue; // superseded, cancelled, or re-parked since
            }
            let Some(pending) = self.tasks.task_mut(id).pending.take() else {
                continue;
            };
            // The enactment changes the scheduling weight: advance the
            // trackers across the closing era first, under its weight.
            self.sync_task(id, t);
            match pending.kind {
                PendKind::Enact => self.enact_weight(id, pending.target),
                PendKind::ReleaseOnly => {
                    // swt already switched at initiation (rule I, increase).
                }
            }
            self.tasks.task_mut(id).era_open_pending = true;
            self.tasks.set_next_release(id, Some(t));
            self.note_release(id, t);
            self.probe.on_event(ObsEvent::ReweightEnacted {
                task: id,
                t,
                initiated_at: pending.initiated_at,
            });
        }
        self.scratch.due = due;
    }

    // ---- step 3: event-stream processing -----------------------------

    fn fire_events(&mut self, t: Slot) {
        // audit: allow(panic-reach, guarded by the next_event < len loop condition)
        while self.next_event < self.events.len() && self.events[self.next_event].at == t {
            let ev = self.events[self.next_event]; // audit: allow(panic-reach, guarded by the next_event < len loop condition)
            self.next_event += 1;
            // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
            assert!(
                ev.at >= 0 && ev.at < self.config.horizon,
                "event at {} outside simulated range",
                ev.at
            );
            self.apply_event(ev, t);
        }
    }

    // ---- step 6 (history mode): per-slot ideal advance ------------------

    /// Per-slot oracle path, active only under `record_history`: the
    /// `isw_per_slot` series needs every slot's allocation anyway, so the
    /// closed-form jumps buy nothing there. Event-driven runs skip this
    /// entirely and rely on `TaskState::sync_ideals_to`.
    fn advance_ideals(&mut self, t: Slot) {
        for id in self.tasks.present_ids() {
            let task = self.tasks.task_mut(id);
            let (slot_alloc, completions) = task.isw.advance(t);
            task.ps.advance(t);
            if let Some(history) = &mut task.history {
                let idx = slot_index(t);
                if history.isw_per_slot.len() <= idx {
                    history.isw_per_slot.resize(idx + 1, Rational::ZERO);
                }
                history.isw_per_slot[idx] = slot_alloc; // audit: allow(panic-reach, idx is produced by the tracker for the recorded horizon)
            }
            for c in completions {
                if let Some(sub) = task.sub_mut(c.index) {
                    sub.isw_completion = c.complete_at;
                }
            }
        }
    }
}

// The shard supervisor moves engines into scoped worker threads; this
// must keep compiling if any future field change makes `Engine` !Send.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

/// Runs a full simulation: build, run to horizon, collect.
///
/// Literally [`simulate_with`] instantiated at [`NoopProbe`] — one code
/// path, so the probe-free entry point and a [`NoopProbe`] engine are
/// the same machine code.
pub fn simulate(config: SimConfig, workload: &Workload) -> SimResult {
    simulate_with(config, workload, NoopProbe).0
}

/// Runs a full simulation under observation, returning the results and
/// the probe (which owns whatever it collected).
pub fn simulate_with<P: Probe>(config: SimConfig, workload: &Workload, probe: P) -> (SimResult, P) {
    let mut engine = Engine::with_probe(config, workload, probe);
    engine.run();
    engine.finish_with_probe()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;
    use pfair_core::weight::Weight;

    fn oi(m: u32, horizon: Slot) -> SimConfig {
        SimConfig::oi(m, horizon).with_history()
    }

    /// A lone weight-1/2 task on one CPU runs in every other slot and
    /// ends with zero lag at window boundaries.
    #[test]
    fn single_task_periodic_schedule() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        let r = simulate(oi(1, 20), &w);
        assert!(r.is_miss_free());
        assert_eq!(r.task(TaskId(0)).scheduled_count, 10);
        let hist = r.task(TaskId(0)).history.as_ref().unwrap();
        // Windows [0,2),[2,4),...: work-conserving PD² runs at releases.
        assert_eq!(hist.scheduled_slots[..5], [0, 2, 4, 6, 8]);
    }

    /// Two subtasks of one task never share a slot even when both are
    /// eligible (the b-bit overlap case).
    #[test]
    fn no_task_parallelism_within_a_slot() {
        let mut w = Workload::new();
        w.join(0, 0, 2, 5); // windows [0,3), [2,5): overlap at slot 2
        let r = simulate(oi(2, 30), &w); // two CPUs available
        let hist = r.task(TaskId(0)).history.as_ref().unwrap();
        let mut slots = hist.scheduled_slots.clone();
        let before = slots.len();
        slots.dedup();
        assert_eq!(slots.len(), before, "one quantum per slot per task");
    }

    /// A join rejected by policing leaves the task out of the system.
    #[test]
    fn rejected_join_is_ignored() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 1); // full processor
        w.join(1, 1, 1, 2); // no capacity left
        let r = simulate(SimConfig::oi(1, 10), &w);
        assert_eq!(r.task(TaskId(1)).scheduled_count, 0);
        assert!(r.task(TaskId(1)).ps_total.is_zero());
        assert!(r.is_miss_free());
    }

    /// Reweight events for tasks not in the system are ignored.
    #[test]
    fn reweight_before_join_is_ignored() {
        let mut w = Workload::new();
        w.reweight(0, 1, 1, 2);
        w.join(0, 5, 1, 4);
        let r = simulate(oi(1, 20), &w);
        assert!(r.is_miss_free());
        assert_eq!(r.counters.reweight_initiations, 0);
        assert_eq!(r.task(TaskId(0)).ps_total, rat(15, 4));
    }

    /// A reweight to the task's current weight still follows the rules
    /// (it is a legal AIS event) and harms nothing.
    #[test]
    fn reweight_to_same_weight_is_safe() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        w.reweight(0, 3, 1, 4);
        let r = simulate(oi(1, 40), &w);
        assert!(r.is_miss_free());
        assert_eq!(r.task(TaskId(0)).scheduled_count, 10);
        assert!(r.task(TaskId(0)).drift.max_abs_delta() <= rat(1, 2));
    }

    /// Leaving frees capacity that a later join can claim.
    #[test]
    fn leave_then_join_recycles_capacity() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        w.join(1, 0, 1, 2);
        w.leave(0, 6);
        w.join(2, 10, 1, 2);
        let r = simulate(SimConfig::oi(1, 30), &w);
        assert!(r.is_miss_free());
        assert!(r.task(TaskId(2)).scheduled_count >= 9);
    }

    /// A join on an id that was in the system before sets up a new
    /// era and new trackers and leaves the rest of the row as the
    /// departure left it: indices go on counting, and the quanta, the
    /// drift track and the processor carry over.
    #[test]
    fn rejoin_keeps_the_row() {
        let id = TaskId(0);
        let mut w = Workload::new();
        w.join(0, 0, 1, 2).join(1, 0, 1, 2).join(2, 0, 1, 2);
        w.reweight(0, 5, 1, 3).leave(0, 12);
        let mut e = Engine::new(SimConfig::oi(2, 60), &w);
        e.run_to(30);
        assert!(!e.tasks.in_system(id), "rule L has let the task go by now");
        let before = e.tasks.task(id).clone();
        assert!(before.next_index > 3 && before.scheduled_count > 3);
        assert_eq!(before.drift.samples().len(), 2);

        e.handle_join(id, 30, Weight::new(rat(1, 3)));
        let after = e.tasks.task(id);
        assert_eq!(after.next_index, before.next_index);
        assert_eq!(after.scheduled_count, before.scheduled_count);
        assert_eq!(after.drift, before.drift);
        assert_eq!(after.last_cpu, before.last_cpu);
        assert_eq!(after.last_scheduled, before.last_scheduled);
        assert_eq!(after.era_base + 1, after.next_index);
        assert!(after.era_open_pending);
        assert_eq!((after.isw.now(), after.isw.swt()), (30, rat(1, 3)));
        assert_eq!((after.ps.now(), after.ps.wt()), (30, rat(1, 3)));
        assert!(after.ps.total().is_zero());

        e.run();
        let r = e.finish();
        assert!(r.is_miss_free());
        // 30 slots at 1/3, on top of what the first stay was given.
        assert_eq!(r.task(id).scheduled_count, before.scheduled_count + 10);
        assert_eq!(r.task(id).drift.samples().len(), 3);
    }

    /// The engine's step/finish API agrees with `simulate`.
    #[test]
    fn stepwise_equals_batch() {
        let mut w = Workload::new();
        w.join(0, 0, 3, 20);
        w.join(1, 0, 2, 5);
        w.reweight(0, 7, 1, 2);
        let batch = simulate(oi(2, 50), &w);
        let mut e = Engine::new(oi(2, 50), &w);
        while e.now() < 50 {
            e.step();
        }
        let stepped = e.finish();
        assert_eq!(batch.misses, stepped.misses);
        assert_eq!(batch.counters, stepped.counters);
        for (a, b) in batch.tasks.iter().zip(stepped.tasks.iter()) {
            assert_eq!(a.scheduled_count, b.scheduled_count);
            assert_eq!(a.icsw_total, b.icsw_total);
        }
    }

    /// The tickless driver is bit-identical to the per-slot oracle on a
    /// mixed workload with long quiet spans, reweights, an IS delay
    /// past the calendar window (overflow path), and a rule-L leave.
    #[test]
    fn tickless_matches_per_slot_oracle() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 50);
        w.join(1, 0, 1, 2);
        w.join(2, 3, 1, 9);
        w.reweight(0, 20, 1, 40);
        w.delay(2, 30, 600);
        w.reweight(1, 45, 1, 3);
        w.leave(1, 300);
        let cfg = SimConfig::oi(2, 1_500);
        let oracle = simulate(cfg.clone().per_slot(), &w);
        let fast = simulate(cfg, &w);
        assert_eq!(oracle.counters, fast.counters);
        assert_eq!(oracle.misses, fast.misses);
        assert_eq!(oracle.horizon, fast.horizon);
        for (a, b) in oracle.tasks.iter().zip(fast.tasks.iter()) {
            assert_eq!(a.scheduled_count, b.scheduled_count);
            assert_eq!(a.ps_total, b.ps_total);
            assert_eq!(a.isw_total, b.isw_total);
            assert_eq!(a.icsw_total, b.icsw_total);
            assert_eq!(a.drift.samples(), b.drift.samples());
        }
    }

    /// The busy-span batcher actually fires on a fully saturated system
    /// (total weight = M, no quiet slot anywhere) and the run is
    /// bit-identical to both the plain tickless driver and the per-slot
    /// oracle.
    #[test]
    fn busy_span_jumps_and_matches_oracle_when_saturated() {
        let mut w = Workload::new();
        for t in 0..8 {
            w.join(t, 0, 1, 2); // 8 × 1/2 on 4 CPUs: zero spare capacity
        }
        let cfg = SimConfig::oi(4, 2_000);
        let mut engine = Engine::new(cfg.clone(), &w);
        engine.run();
        assert!(
            engine.busy_span_jumps() > 0,
            "a saturated steady run must batch at least one busy span"
        );
        let fast = engine.finish();
        let tickless = simulate(cfg.clone().without_busy_span(), &w);
        let oracle = simulate(cfg.per_slot(), &w);
        for r in [&tickless, &oracle] {
            assert_eq!(r.counters, fast.counters);
            assert_eq!(r.misses, fast.misses);
            for (a, b) in r.tasks.iter().zip(fast.tasks.iter()) {
                assert_eq!(a.scheduled_count, b.scheduled_count);
                assert_eq!(a.ps_total, b.ps_total);
                assert_eq!(a.isw_total, b.isw_total);
                assert_eq!(a.icsw_total, b.icsw_total);
                assert_eq!(a.drift.samples(), b.drift.samples());
            }
        }
    }

    /// Busy-span batching composes with quiet-span skipping: a
    /// half-loaded uniform system leaves the queue non-empty only on
    /// some slots, and events mid-run force re-verification.
    #[test]
    fn busy_span_survives_mid_run_events() {
        let mut w = Workload::new();
        for t in 0..8 {
            w.join(t, 0, 1, 4); // 8 × 1/4 on 4 CPUs: releases crowd M
        }
        w.reweight(0, 903, 1, 3);
        w.leave(5, 1_207);
        let cfg = SimConfig::oi(4, 2_400);
        let mut engine = Engine::new(cfg.clone(), &w);
        engine.run();
        assert!(engine.busy_span_jumps() > 0);
        let fast = engine.finish();
        let oracle = simulate(cfg.per_slot(), &w);
        assert_eq!(oracle.counters, fast.counters);
        assert_eq!(oracle.misses, fast.misses);
        for (a, b) in oracle.tasks.iter().zip(fast.tasks.iter()) {
            assert_eq!(a.scheduled_count, b.scheduled_count);
            assert_eq!(a.ps_total, b.ps_total);
            assert_eq!(a.isw_total, b.isw_total);
            assert_eq!(a.icsw_total, b.icsw_total);
            assert_eq!(a.drift.samples(), b.drift.samples());
        }
    }

    /// A tardy task keeps every record PD² still owes a quantum, far
    /// past the three its row holds inline; the records move to the heap
    /// and the run renders exactly as the per-slot oracle's does.
    #[test]
    fn tardy_task_retains_more_records_than_fit_inline() {
        use pfair_json::ToJson;
        let mut w = Workload::new();
        for t in 0..4 {
            w.join(t, 0, 3, 4); // demand 3 on two processors
        }
        w.join(4, 0, 1, 6);
        w.reweight(4, 2, 1, 5); // a halt and an era change among the tardy
        let cfg = SimConfig::oi(2, 90).with_admission(AdmissionPolicy::Trusting);
        let mut e = Engine::new(cfg.clone(), &w);
        e.run_to(40);
        let retained = (0..4).map(|i| e.tasks.task(TaskId(i)).subs.len());
        assert!(
            retained.clone().all(|n| n > 3),
            "overloaded tasks retain {:?} records",
            retained.collect::<Vec<_>>()
        );
        e.run();
        let fast = e.finish();
        assert!(!fast.is_miss_free());
        let oracle = simulate(cfg.per_slot(), &w);
        assert_eq!(
            fast.to_json().to_string_pretty(),
            oracle.to_json().to_string_pretty()
        );
    }

    /// Holes are counted: an under-utilized system idles processors.
    #[test]
    fn hole_accounting() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        let r = simulate(SimConfig::oi(2, 16), &w);
        // One 1/4 task on two CPUs: every slot has at least one hole.
        assert_eq!(r.counters.slots_with_holes, 16);
        assert_eq!(r.counters.scheduled_quanta, 4);
    }

    /// Migration accounting: a task bouncing between processors is
    /// detected, while a sticky assignment stays at zero.
    #[test]
    fn migration_accounting_is_sticky() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        w.join(1, 0, 1, 2);
        let r = simulate(SimConfig::oi(2, 40), &w);
        // Two tasks, two CPUs: each keeps its processor.
        assert_eq!(r.counters.migrations, 0);
    }

    /// Preemption accounting: a task with pending work that loses its
    /// processor is counted.
    #[test]
    fn preemption_accounting() {
        // Three half-weight tasks on one CPU would overload; use three
        // 1/3 tasks instead: each runs 1-in-3 slots, and whichever ran
        // last slot but not now while holding released work counts.
        let mut w = Workload::new();
        for i in 0..3 {
            w.join(i, 0, 1, 3);
        }
        let r = simulate(SimConfig::oi(1, 30), &w);
        assert!(r.is_miss_free());
        assert!(r.counters.preemptions > 0);
    }

    /// Enactment counters line up with initiations: every granted event
    /// is eventually enacted exactly once (superseded ones excepted).
    #[test]
    fn enactment_accounting() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        w.reweight(0, 5, 1, 3);
        w.reweight(0, 25, 1, 5);
        let r = simulate(oi(1, 60), &w);
        assert_eq!(r.counters.reweight_initiations, 2);
        assert_eq!(r.counters.reweight_enactments, 2);
    }

    /// A superseded pending change is skipped: two initiations in quick
    /// succession enact only the newer target.
    #[test]
    fn superseded_event_is_skipped() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 10);
        w.reweight(0, 3, 1, 8); // decrease path: enacts at D + b
        w.reweight(0, 4, 1, 2); // supersedes before enactment
        let r = simulate(oi(1, 60), &w);
        assert!(r.is_miss_free());
        // The final scheduling weight is the newest target: from the
        // last era on, windows are length-2 (weight 1/2).
        let hist = r.task(TaskId(0)).history.as_ref().unwrap();
        let last_era = hist.subtasks.iter().rev().find(|s| s.era_first).unwrap();
        assert_eq!(last_era.window.len(), 2);
    }

    /// Long horizon under sustained rule-O halting: stale entries with
    /// ~100-slot deadlines pile up beneath a fully-saturated top of the
    /// heap (half-weight tasks keep all processors busy, so stale
    /// entries only drain when their deadline approaches). Lazy
    /// invalidation alone would hold hundreds of them; the compaction
    /// sweep keeps the heap within its `compaction_threshold` bound at
    /// every slot boundary.
    #[test]
    fn long_horizon_queue_stays_bounded() {
        let churn: u32 = 32;
        let horizon: i64 = 6_000;
        let mut w = Workload::new();
        // 32 tiny-weight tasks reweighting every ~3 slots; each rule-O
        // initiation halts the unscheduled head, stranding a stale
        // far-deadline entry.
        for i in 0..churn {
            w.join(i, 0, 1, 100);
            let mut t = 1 + i64::from(i) % 3;
            while t + 1 < horizon {
                w.reweight(i, t, 1, 120);
                w.reweight(i, t + 1, 1, 100);
                t += 3;
            }
        }
        // Fill the remaining capacity with half-weight tasks (the last
        // join is clamped by policing) so the utilization is exactly M
        // and the heap's top is always near-term work.
        for i in churn..churn + 8 {
            w.join(i, 0, 1, 2);
        }
        let tasks = churn as usize + 8;
        let mut e = Engine::new(SimConfig::oi(4, horizon), &w);
        let bound = compaction_threshold(tasks);
        let mut peak = 0;
        while e.now() < horizon {
            e.step();
            peak = peak.max(e.queue_len());
            assert!(
                e.queue_len() <= bound,
                "queue grew to {} at slot {} (bound {bound})",
                e.queue_len(),
                e.now()
            );
        }
        let r = e.finish();
        assert!(r.is_miss_free());
        assert!(
            r.counters.compactions > 0,
            "the workload never triggered a compaction (peak len {peak}); it is not a stress test"
        );
        assert!(r.counters.compacted_stale > 0);
    }

    /// Probes observe a stream consistent with the aggregate counters,
    /// and the recorder resolves every initiation into a span that is
    /// either enacted or superseded.
    #[test]
    fn probes_observe_reweighting_consistently() {
        use pfair_obs::{Fanout, MetricsProbe, TraceRecorder};
        let mut w = Workload::new();
        // One CPU saturated by two half-weight tasks; the tiny task's
        // far-deadline subtask sits unscheduled, so reweighting it is
        // omission-changeable (rule O). The half-weight task's head is
        // always scheduled promptly, so reweighting it is rule I.
        w.join(0, 0, 1, 50);
        w.join(1, 0, 1, 2);
        w.join(2, 0, 1, 2); // clamped by policing to the leftover capacity
        w.reweight(0, 5, 1, 40); // unscheduled head: rule O
        w.reweight(1, 9, 1, 3); // scheduled head: rule I (parked decrease)
        w.reweight(1, 9, 2, 5); // same-slot supersede of the parked change
        let (r, Fanout(rec, metrics)) = simulate_with(
            SimConfig::oi(1, 60),
            &w,
            Fanout(TraceRecorder::new(), MetricsProbe::new()),
        );
        assert!(r.is_miss_free());
        let reg = metrics.registry();
        assert_eq!(reg.counter("slots"), 60);
        assert_eq!(
            reg.counter("reweight.initiated"),
            r.counters.reweight_initiations
        );
        assert_eq!(reg.counter("halts"), r.counters.halts);
        assert_eq!(reg.counter("schedules"), r.counters.scheduled_quanta);
        assert_eq!(reg.counter("preemptions"), r.counters.preemptions);
        assert_eq!(reg.counter("queue.stale_pops"), r.counters.stale_pops);
        // Event-driven mode: syncs jump the trackers in closed form.
        assert!(reg.counter("tracker.advances") > 0);

        let spans = rec.spans();
        assert_eq!(
            u64::try_from(spans.len()).unwrap(),
            r.counters.reweight_initiations
        );
        assert!(spans.iter().all(|s| s.enacted_at.is_some() || s.superseded));
        assert!(spans.iter().any(|s| s.rule == pfair_obs::Rule::I));
        assert!(spans.iter().any(|s| s.rule == pfair_obs::Rule::O));
        // The superseded decrease never enacts; its replacement does.
        assert_eq!(spans.iter().filter(|s| s.superseded).count(), 1);
        // The trace export stays parseable.
        let text = rec.chrome_trace().to_string_pretty();
        assert!(pfair_json::Json::parse(&text).is_ok());
    }

    /// The NoopProbe run and a probed run agree on results: probes
    /// observe, they never steer.
    #[test]
    fn probed_run_matches_unprobed_run() {
        let mut w = Workload::new();
        for i in 0..6 {
            w.join(i, 0, 1, 3);
        }
        w.reweight(2, 9, 1, 6);
        w.leave(3, 15);
        w.reweight(4, 21, 2, 5);
        let plain = simulate(SimConfig::oi(2, 80), &w);
        let (probed, _rec) =
            simulate_with(SimConfig::oi(2, 80), &w, pfair_obs::TraceRecorder::new());
        assert_eq!(plain.counters, probed.counters);
        assert_eq!(plain.misses, probed.misses);
        for (a, b) in plain.tasks.iter().zip(probed.tasks.iter()) {
            assert_eq!(a.scheduled_count, b.scheduled_count);
            assert_eq!(a.isw_total, b.isw_total);
            assert_eq!(a.ps_total, b.ps_total);
        }
    }

    #[test]
    #[should_panic(expected = "stepping past the horizon")]
    fn stepping_past_horizon_panics() {
        let w = Workload::new();
        let mut e = Engine::new(SimConfig::oi(1, 1), &w);
        e.step();
        e.step();
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn double_join_panics() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        w.join(0, 1, 1, 4);
        let _ = simulate(SimConfig::oi(1, 10), &w);
    }
}

/// Regression tests for busy-span batching against sticky-processor
/// rotation: saturated plans whose steady schedule is base-periodic in
/// every scheduling-visible field while the processor assignment
/// vector cycles with a longer period (q = 6 base periods in the first
/// case). The batcher must discover the cycle by extending its armed
/// probe — a restart-per-candidate ladder runs out of horizon — and
/// the jumps must stay bit-identical to the per-slot oracle.
#[cfg(test)]
mod busy_span_rotation {
    use super::*;
    use crate::event::Workload;
    use pfair_json::ToJson;

    fn assert_jumps_and_oracle_match(w: &Workload, cfg: SimConfig) {
        let mut e = Engine::new(cfg.clone(), w);
        e.run();
        assert!(
            e.busy_span_jumps() > 0,
            "busy-span batching never engaged despite the saturated periodic tail"
        );
        let batched = e.finish();
        let oracle = simulate(cfg.per_slot(), w);
        assert_eq!(
            batched.to_json().to_string_pretty(),
            oracle.to_json().to_string_pretty(),
            "busy-span run diverged from the per-slot oracle"
        );
    }

    /// Ten tasks on four processors; the assignment orbit settles into
    /// a six-period cycle, so only a 72-slot multiple of the 12-slot
    /// base period verifies.
    #[test]
    fn rotation_cycle_six_periods() {
        let mut w = Workload::new();
        w.join(0, 12, 6, 12);
        w.join(1, 2, 2, 12);
        w.reweight(1, 41, 4, 12);
        w.join(2, 4, 4, 12);
        w.reweight(2, 113, 6, 12);
        w.join(3, 13, 2, 12);
        w.reweight(3, 72, 4, 12);
        w.join(4, 0, 1, 12);
        w.reweight(4, 86, 6, 12);
        w.delay(4, 18, 11);
        w.join(5, 13, 6, 12);
        w.join(6, 0, 1, 2);
        w.join(7, 0, 1, 2);
        w.join(8, 0, 1, 4);
        w.join(9, 0, 1, 12);
        assert_jumps_and_oracle_match(&w, SimConfig::oi(4, 400));
    }

    /// Eight tasks on three processors with late down/up reweights:
    /// batching must re-engage on the tail after each enactment
    /// boundary despite the rotated placements it inherits.
    #[test]
    fn rotation_after_reweight_boundaries() {
        let mut w = Workload::new();
        w.join(0, 5, 3, 12);
        w.reweight(0, 61, 3, 12);
        w.join(1, 16, 5, 12);
        w.reweight(1, 61, 1, 12);
        w.reweight(1, 104, 2, 6);
        for t in 2..6 {
            w.join(t, 0, 1, 2);
        }
        w.join(6, 0, 1, 4);
        w.join(7, 0, 1, 12);
        assert_jumps_and_oracle_match(&w, SimConfig::oi(3, 400));
    }
}
