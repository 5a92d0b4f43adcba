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
//! 6. **Miss check**: any released, unhalted, unscheduled subtask whose
//!    deadline is `t + 1` is recorded as a miss (Theorem 2: never under
//!    PD²-OI with admission policing). The ready queue's front deadline
//!    rules the slot out in O(1) whenever nothing queued is due (see
//!    `check_misses`).
//!
//! The ideal trackers have no step of their own: they jump forward in
//! closed form wherever a step reads or changes them (`sync_task`), so
//! `I_SW` completions — which fire pending rule-O/I waits at `max(t_c,
//! D + b)` — are projected, not discovered slot by slot.
//!
//! The driver and the timed firings of steps 1–3 are in this file; the
//! rules those steps apply are in `engine/rules.rs`, step 4 in
//! `engine/release.rs`, steps 5 and 6 in `engine/select.rs`, each under
//! the text of the paper it implements. A run's subtask-level history is
//! not the engine's business: [`crate::history::HistoryRecorder`]
//! rebuilds it from the probe stream.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::event::{Event, EventKind, Workload};
use crate::history::HistoryRecorder;
use crate::overhead::{Counters, DriverMix};
use crate::priority::{TieBreak, TieTable};
use crate::queue::{compaction_threshold, QueueEntry, ReadyQueue};
use crate::reweight::{RuleSelector, Scheme};
use crate::trace::{Miss, SimResult, TaskResult};
use pfair_core::arena::InlineVec;
use pfair_core::drift::DriftTrack;
use pfair_core::task::TaskId;
use pfair_core::time::{Slot, NEVER};
use pfair_core::weight::Weight;
use pfair_core::window::SubtaskWindow;
use pfair_obs::{Fanout, NoopProbe, ObsEvent, Probe, ReleaseRec};
use std::collections::VecDeque;
use std::sync::Arc;

mod busy_span;
mod ideal;
mod persist;
mod release;
mod rules;
mod select;
mod slab;
pub use busy_span::MAX_CPU_ROTATION;
use ideal::Ideal;
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
    /// Fill each [`TaskResult::history`]: [`simulate_with`] (and so
    /// [`simulate`]) then runs a [`HistoryRecorder`] beside the caller's
    /// probe. The engine itself never reads this, except to refuse a
    /// snapshot ([`Engine::snapshot`]): a probe is never persisted.
    pub record_history: bool,
    /// Closed-form slot batching: advance over quiet spans (empty ready
    /// queue, no release or event due) in one jump instead of per-slot
    /// pipeline iterations. Output is bit-identical to the per-slot
    /// oracle, and a probe sees the span as one `ObsEvent::QuietSpan`
    /// in place of its slot starts, so this is on by default; disable
    /// via [`SimConfig::per_slot`] to run the oracle. History runs take
    /// whichever driver the configuration names, like any other probed
    /// run.
    pub tickless: bool,
    /// Steady busy-span batching on top of the tickless driver: when
    /// the engine detects that the whole system is repeating with a
    /// common period (no event due, every queued task's windows
    /// recurring), it verifies one full period against the per-slot
    /// oracle and then enacts the remaining whole periods up to the
    /// next event boundary in closed form (the probe sees an
    /// `ObsEvent::SpanArmed` and, once verified, an
    /// `ObsEvent::BusySpanJump`); output is bit-identical either way.
    /// [`SimConfig::without_busy_span`] disables it: the benchmark does,
    /// to time the plain tickless driver, and [`crate::shard::ShardSet`]
    /// does on every shard (an arming writes a snapshot image of every
    /// task, drift track included: O(tasks)).
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

    /// Builder-style: enable history recording ([`Self::record_history`]).
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
/// any superseding initiation replaces the pending (stale `parked_at`
/// entries are validated away when their slot arrives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    target: Weight,
    /// Fires in step 2 of this slot.
    at: Slot,
    kind: PendKind,
    /// Slot the owning reweighting event was initiated at (probe
    /// reporting only — rule semantics never read it).
    initiated_at: Slot,
}

/// What the rules have parked for one task: a weight change waiting for
/// its enactment slot, and a rule-L departure time. Only reweights and
/// delayed leaves park anything, so this is a slab column of its own,
/// not part of the row (see `engine/slab.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Parked {
    pending: Option<Pending>,
    /// Time at which an initiated leave takes effect; [`NEVER`] while
    /// none is.
    leaving: Slot,
}

impl Parked {
    /// Nothing parked.
    const NOTHING: Parked = Parked {
        pending: None,
        leaving: NEVER,
    };

    /// Neither a change nor a departure is waiting: the next release
    /// books its successor.
    #[inline]
    fn is_nothing(&self) -> bool {
        self.pending.is_none() && self.leaving == NEVER
    }
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
/// never touch these rows, and the rules' parked state lives in a
/// column of its own ([`Parked`]; see `engine/slab.rs`).
///
/// One contiguous row: the subtask records are inline, and a task that
/// has not changed since it joined keeps no trackers ([`Ideal`]), so
/// the only heap block such a task owns is its drift track's; one that
/// has changed owns one more, its trackers' box, traded for a smaller
/// box of bases once its era settles (`tests/footprint.rs` pins these
/// figures). The row
/// holds nothing another place already does: the task's id is its
/// position in the slab, its scheduling weight is the slab's column,
/// its actual weight `wt(T, t)` the `I_PS` tracker's (a static or
/// settled row's is its scheduling weight).
#[derive(Debug)]
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
    /// Window of the most recently *scheduled* subtask (rule L).
    last_scheduled: Option<SubtaskWindow>,
    ideal: Ideal,
    drift: DriftTrack,
    scheduled_count: u64,
    /// Processor of the task's latest quantum; [`NO_CPU`] before the
    /// first.
    last_cpu: u32,
}

/// [`TaskState::last_cpu`] of a task that has not run yet. Processors
/// are numbered below [`SimConfig::processors`], so none has this id.
const NO_CPU: u32 = u32::MAX;

const _: () = {
    assert!(std::mem::size_of::<SubRec>() <= 64);
    assert!(std::mem::size_of::<TaskState>() == 312);
};

impl Clone for TaskState {
    fn clone(&self) -> Self {
        TaskState {
            subs: self.subs.clone(),
            ideal: self.ideal.clone(),
            drift: self.drift.clone(),
            ..*self
        }
    }

    /// Field by field, so the trackers' box and the drift track's
    /// buffer are reused: a busy-span arming writes every row over the
    /// last arming's, and a jump writes them back.
    fn clone_from(&mut self, source: &Self) {
        self.era_base = source.era_base;
        self.next_index = source.next_index;
        self.era_open_pending = source.era_open_pending;
        self.subs.clone_from(&source.subs);
        self.last_scheduled = source.last_scheduled;
        self.ideal.clone_from(&source.ideal);
        self.drift.clone_from(&source.drift);
        self.scheduled_count = source.scheduled_count;
        self.last_cpu = source.last_cpu;
    }
}

impl TaskState {
    fn placeholder() -> TaskState {
        TaskState {
            era_base: 0,
            next_index: 1,
            era_open_pending: false,
            subs: InlineVec::new(),
            last_scheduled: None,
            ideal: Ideal::BLANK,
            drift: DriftTrack::new(),
            scheduled_count: 0,
            last_cpu: NO_CPU,
        }
    }

    /// Equality of two rows of scheduling weight `w`: field by field,
    /// the ideals by value (alike closed forms without being built).
    fn same_as(&self, other: &TaskState, w: Weight) -> bool {
        let TaskState {
            era_base,
            next_index,
            era_open_pending,
            subs,
            last_scheduled,
            ideal: _,
            drift,
            scheduled_count,
            last_cpu,
        } = self;
        (*era_base, *next_index, *era_open_pending, *last_scheduled)
            == (
                other.era_base,
                other.next_index,
                other.era_open_pending,
                other.last_scheduled,
            )
            && (*scheduled_count, *last_cpu) == (other.scheduled_count, other.last_cpu)
            && *subs == other.subs
            && *drift == other.drift
            && (self.ideal.recurs_as(&other.ideal, 0)
                || self.ideal_image(w) == other.ideal_image(w))
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

    /// Drops records that can no longer influence the rules. Keeps every
    /// unscheduled/unhalted subtask, anything whose `I_SW` completion is
    /// still unknown (rule O may need to watch it), and the two most
    /// recent records.
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
        self.subs.drop_front(n);
    }

    /// The task's end-of-run report, read out of the row where it
    /// stands (`w` its scheduling weight): the drift track moves into the
    /// result, the rest of the row stays behind.
    fn take_result(&mut self, id: TaskId, w: Option<Weight>) -> TaskResult {
        // The growth slack of the drift track's buffer would stay
        // allocated as long as the result lives.
        self.drift.shrink_to_fit();
        let (ps_total, isw_total, icsw_total) = self.totals(w);
        TaskResult {
            id,
            scheduled_count: self.scheduled_count,
            ps_total,
            isw_total,
            icsw_total,
            drift: std::mem::take(&mut self.drift),
            history: None,
        }
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
    /// A calendar ring's due list (parked rule state, releases).
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
    /// into the stream at each step; a queue, so a slot takes its due
    /// prefix off the front without moving the rest.
    injected: VecDeque<Event>,
    /// Earliest `at` among `injected` ([`NEVER`] when empty): the
    /// per-slot injection scan only runs on slots that can fire one,
    /// and the tickless driver treats it as an event boundary.
    injected_min: Slot,
    /// The previous slot's chosen set. Feeds the delta ran-flag sweep
    /// (`sweep_ran_flags`); rebuilt from the slab's `ran` bitmap when an
    /// image is loaded (a busy-span jump, a restore).
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
    /// Busy-span batching state machine (the armed image, mismatch
    /// backoff). Not persisted, and not written by loading an image: a
    /// restored engine re-arms from scratch, which cannot change its
    /// trajectory (jumps are verified no-ops over per-slot stepping).
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
        Engine::empty(config, workload.stream(), workload.task_count(), probe)
    }

    /// An engine at slot 0 addressing ids `0..n`, none of them joined,
    /// with no event of `events` fired — what [`Engine::restore`] loads
    /// an image into.
    fn empty(config: SimConfig, events: Arc<Vec<Event>>, n: u32, probe: P) -> Engine<P> {
        let mut tasks = TaskSlab::new(n);
        tasks.reserve_joins(events.iter());
        Engine {
            probe,
            selector: RuleSelector::new(config.scheme.clone(), n),
            admission: AdmissionController::new(config.admission, config.processors, n),
            events,
            next_event: 0,
            tasks,
            queue: ReadyQueue::new(),
            counters: Counters::default(),
            misses: Vec::new(),
            now: 0,
            injected: VecDeque::new(),
            injected_min: NEVER,
            last_chosen: Vec::new(),
            touched: Vec::new(),
            scratch: SlotScratch::default(),
            run_limit: config.horizon,
            tie: TieTable::new(&config.tie_break, n),
            busy: busy_span::BusySpanState::default(),
            mix: DriverMix::default(),
            config,
        }
    }

    /// The engine's probe, to read what it recorded mid-run. The probe's
    /// span state belongs to the run: do not swap the probe out between
    /// an `ObsEvent::SpanArmed` and its `ObsEvent::BusySpanJump`, which
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
        // The backlog is ordered by firing slot, injection order within
        // one: after every event that fires no later than this one.
        let fires = event.at.max(self.now);
        let now = self.now;
        let pos = (self.injected).partition_point(|e| e.at.max(now) <= fires);
        self.injected.insert(pos, event);
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
    /// Only the per-id columns grow, and row space is reserved for the
    /// injected joins: a task's row is built when it joins.
    ///
    /// Growth is append-only and does not disturb existing tasks; note
    /// that under a `Ranked`/`TaskIdDesc` tie-break appended ids take
    /// ranks after the existing ones (see [`TieTable::ensure_tasks`]),
    /// so suppliers that need those policies should size up front.
    pub fn ensure_task_capacity(&mut self, n: u32) {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        if (n as usize) <= self.tasks.len() {
            return;
        }
        self.tasks.ensure(n);
        self.tasks.reserve_joins(self.injected.iter());
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
    /// "The driver ladder").
    pub fn run(&mut self) {
        self.run_to(self.config.horizon);
    }

    /// Runs every remaining slot up to `min(until, horizon)` — the
    /// segmented form of [`Engine::run`], and the engine's only driver
    /// loop. Every slot that can change state runs the full per-slot
    /// [`Engine::step`]; unless the run is the per-slot oracle
    /// ([`SimConfig::per_slot`]), two closed forms ride on top of it: the busy-span verifier observes every point
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
        while self.now < until {
            self.step_slot();
            if !self.config.tickless {
                continue;
            }
            self.busy_span_tick();
            if !self.queue.is_empty() {
                continue;
            }
            // `next_boundary` includes the earliest injection, so a due
            // (or overdue) one leaves no span to skip.
            let t = self.now;
            let next_release = self.tasks.release_at.next_occupied(t).unwrap_or(NEVER);
            let end = self.next_boundary(t).min(next_release).min(until);
            if end > t {
                self.skip_quiet_span(t, end);
                // The verifier must see this boundary too: an armed
                // probe's verification slot may land right here.
                self.busy_span_tick();
            }
        }
        self.run_limit = self.config.horizon;
        if self.now >= self.config.horizon {
            self.tasks.drop_spares();
        }
    }

    /// The earliest upcoming slot at which anything other than a
    /// subtask release can change engine state: a parked enactment, a
    /// rule-L departure, the next workload-stream event, or the
    /// earliest online injection (quiet spans clamp to it; the slot it
    /// names runs the full pipeline, which fires it).
    fn next_boundary(&self, t: Slot) -> Slot {
        let stream = self.events.get(self.next_event).map_or(NEVER, |e| e.at);
        let parked = self.tasks.parked_at.next_occupied(t).unwrap_or(NEVER);
        stream.min(parked).min(self.injected_min)
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
        self.fire_parked(t);
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

        // Step 6: deadline misses.
        self.check_misses(t);

        // Bound the ready queue: lazy invalidation must not let stale
        // entries accumulate without limit over long horizons.
        self.maybe_compact(t);

        // Prune: a record's prunability only changes when it is synced,
        // scheduled, or halted — all of which mark the task touched —
        // so draining the touched list reaches every record an all-task
        // sweep would drop.
        let mut touched = std::mem::take(&mut self.touched);
        for id in touched.drain(..) {
            self.tasks.task_mut(id).prune();
        }
        self.touched = touched;
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
    /// order, and drops them from the backlog. The backlog is ordered
    /// by firing slot ([`Engine::inject`]: an event's `at`, or the step
    /// after its injection if that is later), so the due events are its
    /// prefix and nothing else is read: a long-lived backlog of
    /// future-dated injections costs nothing per slot, and one handed
    /// over a segment at a time costs its due events. The scan only runs
    /// on slots that can fire something (`injected_min` gates it), and
    /// the due prefix leaves the front of the queue in O(due), however
    /// long the rest; a backlog that fired completely gives its buffer
    /// back — a shard's whole population arrives through here at slot 0
    /// and nothing after. No handler touches the backlog, so it is taken
    /// for the pass.
    fn fire_injected(&mut self, t: Slot) {
        if self.injected_min > t {
            return;
        }
        let mut backlog = std::mem::take(&mut self.injected);
        // A later event fires later: its `at` is its firing slot.
        let due = backlog.partition_point(|ev| ev.at <= t);
        for ev in backlog.drain(..due) {
            self.apply_event(ev, t);
        }
        if backlog.is_empty() {
            backlog = VecDeque::new();
        }
        self.injected_min = backlog.front().map_or(NEVER, |e| e.at);
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
    pub fn finish_with_probe(self) -> (SimResult, P) {
        let Engine {
            mut probe,
            config,
            mut tasks,
            misses,
            counters,
            now,
            ..
        } = self;
        // One pass over the ids, in order. A still-present task's
        // trackers are brought up to the last simulated slot first
        // (departed tasks were synced when they left), then its result
        // is read out of the row in place. An id that never joined has
        // no row and reports the placeholder's.
        let mut results = Vec::with_capacity(tasks.len());
        for id in (0u32..).map(TaskId).take(tasks.len()) {
            let present = tasks.in_system(id);
            let w = tasks.swt(id);
            results.push(match tasks.row_mut(id) {
                Some(row) => {
                    if present {
                        release::sync_observed(row, id, now, &mut probe);
                    }
                    row.take_result(id, w)
                }
                None => tasks.blank().clone().take_result(id, w),
            });
        }
        let result = SimResult {
            processors: config.processors,
            horizon: now,
            tasks: results,
            misses,
            counters,
        };
        (result, probe)
    }

    // ---- steps 1–2: rule-L departures, then enactments ---------------

    /// Fires what the rules parked for slot `t`: the ring is taken once
    /// and its due list walked twice, every departure before any
    /// enactment. Each walk checks the row, so a stale entry is skipped
    /// and a task with both a departure and a change parked fires each
    /// at its own slot.
    fn fire_parked(&mut self, t: Slot) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.tasks.parked_at.take_into(t, &mut due);
        Self::in_task_order(&mut due);
        for &id in &due {
            if self.tasks.parked(id).leaving != t {
                continue;
            }
            // The ideals stop accruing at departure; close them out.
            self.sync_task(id, t);
            self.tasks.park(id, |p| p.leaving = NEVER);
            self.depart(id, t);
        }
        for id in due.drain(..) {
            let fires = matches!(self.tasks.parked(id).pending, Some(p) if p.at == t);
            let Some(pending) = fires.then(|| self.tasks.unpark(id)).flatten() else {
                continue; // superseded, cancelled, or re-parked since
            };
            // The enactment changes the scheduling weight: advance the
            // trackers across the closing era first, under its weight.
            self.sync_task(id, t);
            match pending.kind {
                PendKind::Enact => self.enact_weight(id, t, pending.target),
                PendKind::ReleaseOnly => {
                    // swt already switched at initiation (rule I, increase).
                }
            }
            self.tasks.task_mut(id).era_open_pending = true;
            self.tasks.set_next_release(id, Some(t));
            self.probe.on_event(ObsEvent::ReweightEnacted {
                task: id,
                t,
                initiated_at: pending.initiated_at,
            });
        }
        self.scratch.due = due;
    }

    /// Takes `id` out of the system at `t`, its trackers already synced
    /// to `t`: admission gets its weight back and the probe hears of it.
    /// Both departure sites — an immediate leave and a rule-L departure
    /// fired from the ring — come through here.
    fn depart(&mut self, id: TaskId, t: Slot) {
        self.tasks.set_in_system(id, false);
        self.admission.release(id);
        self.probe.on_event(ObsEvent::Depart { task: id, t });
    }

    /// Deduplicates a slot-index bucket and restores the task-index
    /// iteration order the per-slot scans used, keeping slot processing
    /// deterministic and independent of insertion history.
    fn in_task_order(due: &mut Vec<TaskId>) {
        due.sort_unstable_by_key(|id| id.0);
        due.dedup();
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
}

// The shard supervisor moves engines into scoped worker threads; this
// must keep compiling if any future field change makes `Engine` !Send.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

/// Runs a full simulation: build, run to horizon, collect.
///
/// Literally [`simulate_with`] at [`NoopProbe`], so a history run is
/// the same recorder run either way, and any other run is a
/// [`NoopProbe`] engine's machine code.
pub fn simulate(config: SimConfig, workload: &Workload) -> SimResult {
    simulate_with(config, workload, NoopProbe).0
}

/// Runs a full simulation under observation, returning the results and
/// the probe (which owns whatever it collected). With
/// [`SimConfig::record_history`] a [`HistoryRecorder`] rides beside
/// `probe` and fills each [`TaskResult::history`]; the run takes the
/// driver the configuration names either way.
pub fn simulate_with<P: Probe>(config: SimConfig, workload: &Workload, probe: P) -> (SimResult, P) {
    if config.record_history {
        let probe = Fanout(HistoryRecorder::new(), probe);
        let mut engine = Engine::with_probe(config, workload, probe);
        engine.run();
        let (mut result, Fanout(history, probe)) = engine.finish_with_probe();
        history.fill(&mut result);
        return (result, probe);
    }
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
    /// era and a new stay of its trackers and leaves the rest of the row
    /// as the departure left it: indices go on counting, and the quanta,
    /// the drift track, the processor and the ideal totals carry over.
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
        assert_eq!(before.drift.len(), 2);

        e.handle_join(id, 30, Weight::new(rat(1, 3)));
        let after = e.tasks.task(id);
        assert_eq!(after.next_index, before.next_index);
        assert_eq!(after.scheduled_count, before.scheduled_count);
        assert_eq!(after.drift, before.drift);
        assert_eq!(after.last_cpu, before.last_cpu);
        assert_eq!(after.last_scheduled, before.last_scheduled);
        assert_eq!(after.era_base + 1, after.next_index);
        assert!(after.era_open_pending);
        let (Ideal::Tracked(before_ideal), Ideal::Tracked(after_ideal)) =
            (&before.ideal, &after.ideal)
        else {
            panic!("a task that left keeps its trackers");
        };
        let (isw, ps) = (&after_ideal.isw, &after_ideal.ps);
        assert_eq!((isw.now(), isw.swt()), (30, rat(1, 3)));
        assert_eq!((ps.now(), ps.wt()), (30, rat(1, 3)));
        assert!(before_ideal.ps.total().is_positive());
        assert_eq!(ps.total(), before_ideal.ps.total());
        assert_eq!(isw.isw_total(), before_ideal.isw.isw_total());
        assert_eq!(isw.icsw_total(), before_ideal.isw.icsw_total());

        e.run();
        let r = e.finish();
        assert!(r.is_miss_free());
        // 30 slots at 1/3, on top of what the first stay was given.
        assert_eq!(r.task(id).scheduled_count, before.scheduled_count + 10);
        assert_eq!(r.task(id).drift.len(), 3);
    }

    /// Ids that never join have no row, yet count: `task_count` is every
    /// addressable id, and `finish` reports each unjoined one exactly as
    /// a built placeholder row would, with a recorded history and
    /// without.
    #[test]
    fn ids_that_never_join_report_placeholders() {
        use pfair_json::ToJson;
        let mut w = Workload::new();
        w.join(0, 0, 1, 2).join(1, 0, 1, 3);
        w.reweight(5, 4, 1, 4); // names id 5, which never joins
        for history in [false, true] {
            let finish = |e: Engine<HistoryRecorder>| {
                let (mut result, recorder) = e.finish_with_probe();
                if history {
                    recorder.fill(&mut result);
                }
                result
            };
            let mut lazy = Engine::with_probe(SimConfig::oi(1, 30), &w, HistoryRecorder::new());
            lazy.ensure_task_capacity(8);
            let mut built = lazy.clone();
            built.tasks.task_mut(TaskId(7));
            lazy.run();
            built.run();
            assert_eq!(lazy.task_count(), 8);
            assert!(lazy.tasks.row_mut(TaskId(2)).is_none(), "id 2 never joined");
            let (lazy, built) = (finish(lazy), finish(built));
            assert_eq!(lazy.tasks.len(), 8);
            for (i, t) in (0u32..).zip(&lazy.tasks).skip(2) {
                assert_eq!(t.id, TaskId(i));
                assert_eq!(t.scheduled_count, 0);
                assert!(t.ps_total.is_zero() && t.icsw_total.is_zero());
                assert!(t.drift.is_empty());
                assert_eq!(t.history.is_some(), history);
            }
            assert_eq!(lazy.to_json_pretty(), built.to_json_pretty());
        }
    }

    /// The engine's step/finish API agrees with `simulate`, history
    /// included when the stepped engine carries the recorder.
    #[test]
    fn stepwise_equals_batch() {
        use pfair_json::ToJson;
        let mut w = Workload::new();
        w.join(0, 0, 3, 20);
        w.join(1, 0, 2, 5);
        w.reweight(0, 7, 1, 2);
        let batch = simulate(oi(2, 50), &w);
        let mut e = Engine::with_probe(SimConfig::oi(2, 50), &w, HistoryRecorder::new());
        while e.now() < 50 {
            e.step();
        }
        let (mut stepped, recorder) = e.finish_with_probe();
        recorder.fill(&mut stepped);
        assert_eq!(batch.to_json_pretty(), stepped.to_json_pretty());
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
            assert_eq!(a.drift, b.drift);
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
                assert_eq!(a.drift, b.drift);
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
            assert_eq!(a.drift, b.drift);
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
        assert_eq!(fast.to_json_pretty(), oracle.to_json_pretty());
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

    /// Injected events fire in injection order whatever their `at`: two
    /// overdue reweights handed over out of `at` order both initiate at
    /// the next step, the later-injected one last, so its target is the
    /// change left standing; a future-dated one injected between them
    /// waits for its slot.
    #[test]
    fn overdue_injections_fire_in_injection_order() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        let mut e = Engine::new(oi(1, 60), &w);
        e.run_to(10);
        let reweight = |at, den| Event {
            at,
            task: TaskId(0),
            kind: EventKind::Reweight(Weight::new(rat(1, den))),
        };
        e.inject(reweight(8, 8));
        e.inject(reweight(40, 5));
        e.inject(reweight(5, 6));
        e.step();
        let standing = |e: &Engine| {
            let pending = e.tasks.parked(TaskId(0)).pending;
            pending.map_or(e.tasks.swt(TaskId(0)), |p| Some(p.target))
        };
        assert_eq!(e.counters().reweight_initiations, 2);
        assert_eq!(standing(&e), Some(Weight::new(rat(1, 6))));
        e.run_to(41);
        assert_eq!(e.counters().reweight_initiations, 3);
        assert_eq!(standing(&e), Some(Weight::new(rat(1, 5))));
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
        assert!(pfair_json::Json::parse(&rec.chrome_trace()).is_ok());
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

    /// A second join of a present task is refused, not fatal: the run
    /// completes, reports the one refusal, and is the single-join run.
    #[test]
    fn double_join_is_refused() {
        use pfair_json::ToJson;
        use pfair_obs::{Refusal, TraceRecorder};
        let mut once = Workload::new();
        once.join(0, 0, 1, 4);
        let mut twice = once.clone();
        twice.join(0, 1, 1, 4);
        let config = SimConfig::oi(1, 10);
        let (result, trace) = simulate_with(config.clone(), &twice, TraceRecorder::new());
        let refused: Vec<ObsEvent> = (trace.events().iter())
            .filter(|e| matches!(e, ObsEvent::Refused { .. }))
            .copied()
            .collect();
        let expected = ObsEvent::Refused {
            task: TaskId(0),
            t: 1,
            reason: Refusal::AlreadyPresent,
        };
        assert_eq!(refused, [expected]);
        assert_eq!(
            result.to_json_compact(),
            simulate(config, &once).to_json_compact()
        );
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
            batched.to_json_pretty(),
            oracle.to_json_pretty(),
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
