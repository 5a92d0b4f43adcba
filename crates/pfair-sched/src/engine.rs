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

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::calendar::CalendarRing;
use crate::event::{Event, EventKind, Workload};
use crate::overhead::{Counters, DriverMix};
use crate::priority::{Priority, TieBreak, TieTable};
use crate::queue::{compaction_threshold, QueueEntry, ReadyQueue};
use crate::reweight::{RuleChoice, RuleSelector, Scheme};
use crate::trace::{Miss, SimResult, SubtaskRecord, TaskHistory, TaskResult};
use pfair_core::arena::InlineVec;
use pfair_core::drift::DriftTrack;
use pfair_core::ideal::{IswTracker, PsTracker};
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{ever, slot_index, Slot, NEVER};
use pfair_core::weight::Weight;
use pfair_core::window::{window_and_group_deadline, SubtaskWindow};
use pfair_obs::{NoopProbe, ObsEvent, Probe, ReleaseRec, ReweightCost, Rule};
use std::sync::Arc;

mod busy_span;
mod persist;
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
    /// next event boundary in closed form (the probe is told through
    /// `Probe::on_span_armed` / `Probe::on_busy_span_jump`); output is
    /// bit-identical either way. Disable via
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
    fn window(&self) -> SubtaskWindow {
        SubtaskWindow {
            release: self.release,
            deadline: self.deadline,
            b: self.b,
        }
    }

    /// Released, not scheduled, not halted: PD² still owes it a quantum.
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
    fn last_released(&self) -> Option<&SubRec> {
        self.subs.back()
    }

    /// The first unscheduled, unhalted subtask — the task's schedulable
    /// head.
    fn head(&self) -> Option<&SubRec> {
        self.subs.iter().find(|s| s.is_pending())
    }

    /// Find the most recent non-halted subtask strictly before `index`.
    fn pred_of(&self, index: u64) -> Option<&SubRec> {
        self.subs
            .iter()
            .rev()
            .find(|s| s.index < index && s.halted_at == NEVER)
    }

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

    /// Event-driven tracker synchronization: advances the ideal trackers
    /// to boundary `t` in one closed-form jump and folds any completions
    /// discovered along the way into the subtask records. The engine
    /// calls this wherever it reads or mutates ideal state — enactments,
    /// initiations, halts, delays, releases, departures, end-of-run — so
    /// the scheduling weight is constant between syncs and the jump is
    /// bit-identical to the per-slot oracle. Both trackers count in era
    /// units and report only what the engine reads — `(index,
    /// D(I_SW, T_index))` per completion — so a synchronization builds no
    /// `Rational` at all. In history mode step 6 advances the trackers
    /// every slot, making this a no-op.
    ///
    /// The pass over the retained records that follows also answers
    /// what a release at `t` asks of them, so that path never rescans:
    /// see [`SubsScan`].
    fn sync_ideals_to(&mut self, t: Slot) -> SubsScan {
        if self.isw.now() < t {
            let subs = &mut self.subs;
            self.isw.sync_to(t, |index, complete_at| {
                if let Some(s) = subs.iter_mut().find(|s| s.index == index) {
                    s.isw_completion = complete_at;
                }
            });
        }
        if self.ps.now() < t {
            self.ps.sync_to(t);
        }
        let mut scan = SubsScan {
            pred_b: None,
            head_deadline: None,
        };
        for s in &self.subs {
            if s.halted_at == NEVER {
                scan.pred_b = Some(s.b);
                if s.scheduled_at == NEVER && scan.head_deadline.is_none() {
                    scan.head_deadline = Some(s.deadline);
                }
            }
        }
        scan
    }

    /// Drops records that can no longer influence the rules. Keeps every
    /// unscheduled/unhalted subtask, anything whose `I_SW` completion is
    /// still unknown (rule O may need to watch it), and the two most
    /// recent records. History runs archive what is dropped.
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
    /// to the run: do not swap the probe out between a
    /// `Probe::on_span_armed` and its jump, which scales what the
    /// probe accumulated since that arming.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Event-driven tracker synchronization with observation: wraps
    /// [`TaskState::sync_ideals_to`] and reports the closed-form jump
    /// (when one happened) to the probe.
    fn sync_task(&mut self, id: TaskId, t: Slot) -> SubsScan {
        // A sync can settle completions, changing prunability.
        self.touched.push(id);
        let task = self.tasks.task_mut(id);
        let from = task.isw.now();
        let scan = task.sync_ideals_to(t);
        if from < t {
            self.probe.on_event(ObsEvent::TrackerAdvance {
                task: id,
                from,
                to: t,
            });
        }
        scan
    }

    /// Number of ready-queue entries, stale ones included (compaction
    /// keeps this bounded; see [`ReadyQueue::compact`]).
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

    /// Total utilization currently committed by admission (the
    /// condition-(W) left-hand side); the shard supervisor routes joins
    /// to the least-committed shard by this figure.
    pub fn committed_utilization(&self) -> Rational {
        self.admission.total_committed()
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

    /// Delta form of the oracle's ran-flag/preemption scan: only tasks
    /// in last slot's chosen set can hold a set `ran` bit, so updating
    /// `prev ∪ chosen` touches every flag the full scan would change.
    /// Preempted tasks are reported in ascending id order, matching the
    /// oracle's task-order iteration. A member of `prev` whose bit is
    /// already clear left and rejoined this slot (the join resets the
    /// flag); the oracle would neither flip its flag nor count a
    /// preemption, so it is skipped.
    ///
    /// Membership in `chosen` is read off the `ran` bitmap itself:
    /// clear the set bits of `prev`, set the bits of `chosen`, and a
    /// cleared task whose bit is set again kept running.
    fn sweep_ran_flags(&mut self, t: Slot, prev: &[TaskId], chosen: &[TaskId]) {
        let mut stopped = std::mem::take(&mut self.scratch.stopped);
        for &id in prev {
            if self.tasks.ran_last_slot(id) {
                self.tasks.set_ran(id, false);
                stopped.push(id);
            }
        }
        for &id in chosen {
            self.tasks.set_ran(id, true);
        }
        let tasks = &self.tasks;
        stopped.retain(|&id| !tasks.ran_last_slot(id) && tasks.task(id).head().is_some());
        self.counters.preemptions += stopped.len() as u64; // audit: allow(lossy-cast, usize→u64 is lossless on the supported targets)
        stopped.sort_unstable_by_key(|id| id.0);
        for id in stopped.drain(..) {
            self.probe.on_event(ObsEvent::Preempt { task: id, t });
        }
        self.scratch.stopped = stopped;
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
        self.promote_successors(&chosen);
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
            |e| {
                tasks.in_system(e.task)
                    && tasks.get(e.task).is_some_and(|task| {
                        task.subs
                            .iter()
                            .any(|s| s.index == e.index && s.is_pending())
                    })
            },
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
                    let mut history = ts.history.take().map_or_else(TaskHistory::default, |h| *h);
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

    /// Enacts scheduling weight `v` for `id` — the one place a task's
    /// `swt` changes after its join, and so the one place its `I_SW`
    /// tracker re-derives its era unit. The slab column and the tracker
    /// switch, the era base moves up to the last released subtask
    /// (indices above it rank within the new era), and the enactment is
    /// counted and reported to admission. The caller has synchronized
    /// the trackers to the current slot, under the closing weight.
    fn enact_weight(&mut self, id: TaskId, v: Rational) {
        self.tasks.set_swt(id, v);
        let task = self.tasks.task_mut(id);
        task.isw.set_swt(v);
        task.era_base = task.next_index - 1;
        self.counters.reweight_enactments += 1;
        if let Ok(w) = Weight::try_new(v) {
            self.admission.note_enacted(id, w);
        }
    }

    /// Records `id`'s `next_release` slot in the release index. Stale
    /// entries (the release was moved, suppressed, or already fired)
    /// are filtered by the `next_release == Some(t)` check when their
    /// slot comes up.
    fn note_release(&mut self, id: TaskId, at: Slot) {
        self.release_at.insert(at, id);
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

    /// Intra-sporadic separation (Eqn (4)'s `θ(T_{j+1}) − θ(T_j)` term):
    /// the next pending release moves `by` slots later, and `I_PS` owes
    /// nothing between the predecessor's deadline and the new release
    /// (the task has no active subtask there — cf. Fig. 1(b)'s inactive
    /// slot 4). Ignored while a reweighting change is pending (no
    /// release is scheduled to delay) or when the task is absent.
    fn handle_delay(&mut self, id: TaskId, t: Slot, by: u32) {
        if !self.tasks.in_system(id) || by == 0 {
            return;
        }
        let Some(r_old) = self.tasks.next_release(id) else {
            return;
        };
        if r_old < t {
            return;
        }
        self.sync_task(id, t);
        let r_new = r_old + i64::from(by);
        self.tasks.set_next_release(id, Some(r_new));
        let task = self.tasks.task_mut(id);
        let inactive_from = task.last_released().map_or(r_old, |s| s.deadline).max(t);
        task.ps.suspend_between(inactive_from, r_new);
        self.note_release(id, r_new);
    }

    fn handle_join(&mut self, id: TaskId, t: Slot, want: Weight) {
        let Some(granted) = self.admission.request(id, want) else {
            return; // join rejected: no capacity at all
        };
        let record_history = self.config.record_history;
        // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
        assert!(!self.tasks.in_system(id), "{id} joined twice");
        let g: Rational = granted.value();
        // History runs retain per-slot halt corrections; event-driven runs
        // keep the tracker's memory bounded instead.
        let isw = if record_history {
            IswTracker::new(g, t).with_slot_history()
        } else {
            IswTracker::new(g, t)
        };
        // A rejoining id keeps the rest of its row: its indices go on
        // counting, and its drift track, quanta and processor carry over.
        let task = self.tasks.task_mut(id);
        task.era_base = task.next_index - 1;
        task.era_open_pending = true;
        task.isw = isw;
        task.ps = PsTracker::new(g, t);
        if record_history {
            task.history.get_or_insert_with(Box::default);
        }
        self.tasks.set_in_system(id, true);
        self.tasks.set_swt(id, g);
        self.tasks.set_ran(id, false);
        self.tasks.set_next_release(id, Some(t));
        self.note_release(id, t);
    }

    fn handle_leave(&mut self, id: TaskId, t: Slot) {
        if !self.tasks.in_system(id) {
            return;
        }
        // Totals must be settled through `t` before the task can depart
        // immediately (leave_at == t) or halt its unscheduled subtasks.
        self.sync_task(id, t);
        self.halt_pending(id, t);
        let leave_at = self.rule_l_time(id, t);
        self.tasks.set_next_release(id, None);
        self.tasks.task_mut(id).pending = None;
        if leave_at == t {
            self.tasks.set_in_system(id, false);
            self.admission.release(id);
        } else {
            self.tasks.task_mut(id).leaving = leave_at;
            self.leave_at.insert(leave_at, id);
        }
    }

    /// Withdraws every released subtask of `id` that PD² has not run
    /// yet (a leave, or the leave half of an LJ reweight). Halting
    /// changes neither the number nor the order of the records, so they
    /// are walked by position, one copied out at a time.
    fn halt_pending(&mut self, id: TaskId, t: Slot) {
        let mut pos = 0;
        while let Some(s) = self.tasks.task(id).subs.get(pos).copied() {
            if s.is_pending() {
                self.halt_subtask(id, s.index, t);
            }
            pos += 1;
        }
    }

    /// Rule L: a task may leave (or rejoin under a new weight) no
    /// earlier than `d(T_i) + b(T_i)` of its last-scheduled subtask.
    fn rule_l_time(&self, id: TaskId, t: Slot) -> Slot {
        self.tasks
            .task(id)
            .last_scheduled
            .map_or(t, |w| (w.deadline + i64::from(w.b)).max(t))
    }

    /// Halts `T_index` of task `id` at time `t` in both the PD² schedule
    /// (stale queue entry) and `I_SW` (allocations stop; `I_CSW` takes
    /// everything back).
    fn halt_subtask(&mut self, id: TaskId, index: u64, t: Slot) {
        // `halt` takes back exactly the allocations accrued so far, so the
        // tracker must first be caught up to the halt boundary.
        self.sync_task(id, t);
        let task = self.tasks.task_mut(id);
        let rec = task.isw.halt(index, t);
        if let Some(history) = &mut task.history {
            history.halted_corrections.extend(rec.slot_allocs);
        }
        // audit: allow(panic-reach, rules only halt known live subtasks, present by the engine's slab and queue liveness invariants)
        let sub = task.sub_mut(index).expect("halting unknown subtask");
        sub.halted_at = t;
        self.counters.halts += 1;
        self.probe.on_event(ObsEvent::Halt { task: id, index, t });
    }

    fn handle_reweight(&mut self, id: TaskId, t: Slot, want: Weight) {
        if !self.tasks.in_system(id) {
            return;
        }
        // The paper's reweighting rules cover *light* tasks only (§2);
        // heavy tasks schedule correctly (group-deadline tie-break) but
        // may not reweight, nor may a task reweight into the heavy
        // class. Such requests are rejected and counted.
        let currently_heavy = self.tasks.swt(id) > Rational::new(1, 2);
        if currently_heavy || want.is_heavy() {
            self.counters.rejected_heavy_reweights += 1;
            return;
        }
        let Some(granted) = self.admission.request(id, want) else {
            return;
        };
        self.counters.reweight_initiations += 1;
        let v: Rational = granted.value();
        let old_swt = self.tasks.swt(id);

        // Catch the trackers up to the initiation boundary first: `I_PS`
        // accrues the old weight up to `t` before `set_wt`, and the rules
        // below project `I_SW` completions from the current slot.
        self.sync_task(id, t);

        // The actual weight (and I_PS) changes at initiation, always.
        self.tasks.task_mut(id).ps.set_wt(v);

        let current_drift = self.tasks.task(id).drift.at(t);
        let choice = self.selector.choose(id, t, old_swt, v, current_drift);
        // Direct per-event cost: queue operations and halts performed
        // while the rules run. Deferred cost (stale entries stranded by
        // the halts) is attributed later via the stale-pop/drop hooks.
        let ops_before = self.counters.heap_ops();
        let halts_before = self.counters.halts;
        let rule = match choice {
            RuleChoice::FineGrained => self.reweight_oi(id, t, v),
            RuleChoice::LeaveJoin => self.reweight_lj(id, t, v),
        };
        let cost = ReweightCost {
            queue_ops: self.counters.heap_ops().saturating_sub(ops_before),
            halts: self.counters.halts.saturating_sub(halts_before),
        };
        let pending = self.tasks.task(id).pending;
        let enact_at = pending.map_or(t, |p| p.at);
        self.probe.on_event(ObsEvent::ReweightInitiated {
            task: id,
            t,
            rule,
            cost,
            enact_at,
        });
        if pending.is_none() {
            // The rules fired on the spot: initiation and enactment
            // coincide (the probe sees them ordered).
            self.probe.on_event(ObsEvent::ReweightEnacted {
                task: id,
                t,
                initiated_at: t,
            });
        }
    }

    /// Rules O and I of the paper (PD²-OI). A pre-existing pending change
    /// is superseded: the rules re-run against the current state, which
    /// realizes the "skipped event" semantics of §3.2 and property (C).
    /// Returns the rule that resolved the initiation (probe reporting).
    fn reweight_oi(&mut self, id: TaskId, t: Slot, v: Rational) -> Rule {
        let (last, d_passed) = {
            let task = self.tasks.task(id);
            let last = task.last_released().copied();
            let d_passed = last.is_some_and(|s| s.deadline <= t);
            (last, d_passed)
        };

        let Some(tj) = last else {
            // No subtask released yet: enact immediately; the first
            // release (already scheduled) will use the new weight. The
            // era the join opened has not begun, so the one thing an
            // enactment does that must not happen here — moving the era
            // base — has nothing to move: it already sits at the last
            // released index.
            debug_assert_eq!(
                self.tasks.task(id).era_base + 1,
                self.tasks.task(id).next_index,
                "{id}: era base off the last released index before any release"
            );
            self.enact_weight(id, v);
            self.tasks.task_mut(id).pending = None;
            return Rule::Immediate;
        };

        if d_passed {
            // d(T_j) ≤ t_c: enact at max(t_c, d + b).
            let at = (tj.deadline + i64::from(tj.b)).max(t);
            self.park_or_enact(id, t, v, at, PendKind::Enact);
            return Rule::O;
        }

        let scheduled = tj.scheduled_at != NEVER;
        let already_halted = tj.halted_at != NEVER;
        if scheduled {
            // Ideal-changeable (rule I). On a first initiation T_j cannot
            // yet be complete in I_SW, but a *superseding* initiation may
            // find its completion already known — then the wait resolves
            // to a concrete time immediately.
            let increase = v > self.tasks.swt(id);
            if increase {
                // I(i): enact immediately; era-opening release waits for
                // D(I_SW, T_j) + b(T_j).
                self.enact_weight(id, v);
            }
            let kind = if increase {
                PendKind::ReleaseOnly
            } else {
                PendKind::Enact
            };
            // D(I_SW, T_j) is known in closed form the moment the wait is
            // installed: `swt` cannot change again before this pending
            // change fires (a superseding initiation replaces it wholesale
            // and re-projects), so the projection equals the slot the
            // per-slot tracker would have discovered.
            let proj = ever(tj.isw_completion)
                .or_else(|| self.tasks.task(id).isw.projected_completion(tj.index));
            // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
            assert!(
                proj.is_some(),
                "scheduled incomplete subtask must project an I_SW completion"
            );
            let at = proj.map_or(t, |d| (d + i64::from(tj.b)).max(t));
            self.park_or_enact(id, t, v, at, kind);
            Rule::I
        } else {
            // Omission-changeable (rule O): halt T_j (unless a superseded
            // event already did) and enact at max(t_c, D(I_SW, T_{j−1}) +
            // b(T_{j−1})).
            if !already_halted {
                self.halt_subtask(id, tj.index, t);
            }
            let pred = self.tasks.task(id).pred_of(tj.index).copied();
            match pred {
                None => self.park_or_enact(id, t, v, t, PendKind::Enact),
                Some(p) => {
                    // Same closed-form projection as rule I, against the
                    // predecessor. A retired predecessor always has its
                    // completion recorded on the SubRec, so the record is
                    // consulted before the tracker.
                    let proj = ever(p.isw_completion)
                        .or_else(|| self.tasks.task(id).isw.projected_completion(p.index));
                    // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
                    assert!(
                        proj.is_some(),
                        "predecessor of a released subtask must project an I_SW completion"
                    );
                    let at = proj.map_or(t, |d| (d + i64::from(p.b)).max(t));
                    self.park_or_enact(id, t, v, at, PendKind::Enact);
                }
            }
            Rule::O
        }
    }

    /// Leave/join reweighting (PD²-LJ): withdraw unscheduled subtasks,
    /// wait out rule L on the last-scheduled subtask, rejoin with the new
    /// weight. Returns [`Rule::Lj`] (probe reporting).
    fn reweight_lj(&mut self, id: TaskId, t: Slot, v: Rational) -> Rule {
        self.halt_pending(id, t);
        let at = self.rule_l_time(id, t);
        self.park_or_enact(id, t, v, at, PendKind::Enact);
        Rule::Lj
    }

    /// Installs a pending change, or fires it on the spot when its time
    /// is the current slot (enactments for slot `t` have already run).
    fn park_or_enact(&mut self, id: TaskId, t: Slot, v: Rational, at: Slot, kind: PendKind) {
        let fire_now = at <= t;
        self.tasks.set_next_release(id, None);
        if fire_now {
            if kind == PendKind::Enact {
                self.enact_weight(id, v);
            }
            let task = self.tasks.task_mut(id);
            task.era_open_pending = true;
            task.pending = None;
            self.tasks.set_next_release(id, Some(t));
            self.note_release(id, t);
        } else {
            self.tasks.task_mut(id).pending = Some(Pending {
                target: v,
                at,
                kind,
                initiated_at: t,
            });
            self.enact_at.insert(at, id);
        }
    }

    // ---- step 4: releases ---------------------------------------------

    /// Releases every valid entry of slot `t`'s due list: window
    /// arithmetic, tracker syncs, drift samples, queue pushes, and probe
    /// emissions.
    fn fire_releases(&mut self, t: Slot) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.release_at.take_into(t, &mut due);
        Self::in_task_order(&mut due);
        // The probe gets the slot's releases as one batch; without a
        // probe nothing reads it, and nothing is recorded.
        let mut batch = std::mem::take(&mut self.scratch.batch);
        for id in due.drain(..) {
            if !self.tasks.in_system(id) || self.tasks.next_release(id) != Some(t) {
                continue; // moved, suppressed, or already fired
            }
            // Per-release synchronization boundary: drift samples read
            // A(·, 0, t) below, and settling completions here also keeps
            // `subs` and the tracker's retained records bounded.
            let scan = self.sync_task(id, t);
            let tie_rank = self.tie.rank(id);
            let swt = self.tasks.swt(id);
            let task = self.tasks.task_mut(id);
            let index = task.next_index;
            task.next_index += 1;
            let rank = index - task.era_base;
            // audit: allow(panic-reach, engine invariant: reweight rules keep swt within (0 and 1])
            let weight = Weight::try_new(swt).expect("invalid scheduling weight");
            let (window, gd) = window_and_group_deadline(weight, rank, t);
            let era_first = task.era_open_pending;
            task.era_open_pending = false;

            // Drift is sampled exactly at era-opening releases: `u` of
            // Eqn (5) is this slot, and the trackers currently hold
            // A(·, 0, t).
            if era_first {
                let ps_total = task.ps.total();
                let icsw_total = task.isw.icsw_total();
                let drift = ps_total - icsw_total;
                task.drift.record(t, ps_total, icsw_total);
                self.probe
                    .on_event(ObsEvent::DriftSample { task: id, t, drift });
            }

            let pred_b = if era_first {
                false
            } else {
                // audit: allow(panic-reach, within an era the predecessor record is retained until its successor releases)
                scan.pred_b
                    .expect("non-era-first release without predecessor")
            };
            task.isw.add_subtask(index, t, era_first, pred_b);
            task.subs.push_back(SubRec {
                index,
                release: window.release,
                deadline: window.deadline,
                group_deadline: gd,
                scheduled_at: NEVER,
                halted_at: NEVER,
                isw_completion: NEVER,
                b: window.b,
                era_first,
                missed: false,
            });

            // Eqn (4): the successor's release, unless a pending change
            // or leave suppresses it.
            let successor =
                (task.pending.is_none() && task.leaving == NEVER).then(|| window.next_release());

            self.tasks.set_next_release(id, successor);
            match scan.head_deadline {
                // The task already has a schedulable head; this subtask
                // waits behind it. Miss detection relies on the head's
                // deadline bounding those of the records behind it.
                Some(head) => debug_assert!(
                    head <= window.deadline,
                    "{id}: head deadline {head} after its successor's {}",
                    window.deadline
                ),
                None => {
                    let entry = QueueEntry {
                        priority: Priority::pack(window.deadline, window.b, gd, tie_rank),
                        task: id,
                        index,
                    };
                    self.queue.push(entry, &mut self.counters);
                }
            }
            if let Some(r) = successor {
                self.note_release(id, r);
            }
            if !P::IS_NOOP {
                batch.push(ReleaseRec {
                    task: id,
                    index,
                    deadline: window.deadline,
                    era_first,
                });
            }
        }
        if !batch.is_empty() {
            self.probe.on_release_batch(t, &batch);
            batch.clear();
        }
        self.scratch.batch = batch;
        self.scratch.due = due;
    }

    // ---- step 5: PD² selection -----------------------------------------

    /// PD² selection proper: pops up to `M` live subtasks from the ready
    /// queue, marks them scheduled, counts holes, and assigns
    /// processors.
    fn pop_and_schedule(&mut self, t: Slot) -> Vec<TaskId> {
        let m = self.config.processors as usize; // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
        let mut chosen = std::mem::take(&mut self.scratch.chosen);
        chosen.clear();
        while chosen.len() < m {
            let tasks = &self.tasks;
            let probe = &mut self.probe;
            let Some(entry) = self.queue.pop_live_traced(
                &mut self.counters,
                |e| {
                    tasks.in_system(e.task)
                        && tasks.get(e.task).is_some_and(|task| {
                            task.subs
                                .iter()
                                .any(|s| s.index == e.index && s.is_pending())
                        })
                },
                |e| {
                    probe.on_event(ObsEvent::StalePop {
                        task: e.task,
                        index: e.index,
                        t,
                    });
                },
            ) else {
                break;
            };
            // Scheduling settles the head record; the task must reach
            // the end-of-slot prune.
            self.touched.push(entry.task);
            let task = self.tasks.task_mut(entry.task);
            // audit: allow(panic-reach, pop_live just verified the subtask is present and live)
            let sub = task
                .sub_mut(entry.index)
                .expect("live entry lost its subtask");
            sub.scheduled_at = t;
            task.last_scheduled = Some(sub.window());
            task.scheduled_count += 1;
            if let Some(history) = &mut task.history {
                history.scheduled_slots.push(t);
            }
            self.counters.scheduled_quanta += 1;
            self.probe.on_event(ObsEvent::Schedule {
                task: entry.task,
                index: entry.index,
                t,
            });
            chosen.push(entry.task);
        }

        if chosen.len() < m {
            self.counters.slots_with_holes += 1;
        }

        self.assign_processors(&chosen);
        chosen
    }

    /// Pushes the new schedulable head of every just-scheduled task
    /// (eligible from t + 1, but pushing now is safe: selection for
    /// slot t is over).
    fn promote_successors(&mut self, chosen: &[TaskId]) {
        for &id in chosen {
            let tie_rank = self.tie.rank(id);
            let task = self.tasks.task(id);
            if let Some(s) = task.head() {
                let entry = QueueEntry {
                    priority: Priority::pack(s.deadline, s.b, s.group_deadline, tie_rank),
                    task: id,
                    index: s.index,
                };
                self.queue.push(entry, &mut self.counters);
            }
        }
    }

    /// Greedy sticky assignment: tasks keep their previous processor when
    /// free; otherwise they migrate (and are counted).
    fn assign_processors(&mut self, chosen: &[TaskId]) {
        let m = self.config.processors as usize; // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
        let SlotScratch {
            cpu_taken,
            unplaced,
            free_cpus,
            ..
        } = &mut self.scratch;
        cpu_taken.clear();
        cpu_taken.resize(m, false);
        for &id in chosen {
            // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
            let last = self.tasks.task(id).last_cpu as usize;
            // `NO_CPU` names no processor.
            match cpu_taken.get_mut(last) {
                Some(taken) if !*taken => *taken = true,
                _ => unplaced.push(id),
            }
        }
        if unplaced.is_empty() {
            return; // everyone kept their processor
        }
        // Highest first, so `pop` hands out the lowest free processor.
        free_cpus.extend(
            (0..self.config.processors)
                .rev()
                // audit: allow(lossy-cast, u32→usize is lossless on the supported targets); allow(panic-reach, cpu ids are < processors, the length of cpu_taken)
                .filter(|c| !cpu_taken[*c as usize]),
        );
        for id in unplaced.drain(..) {
            // audit: allow(panic-reach, PD² selection never chooses more than `processors` tasks)
            let cpu = free_cpus.pop().expect("more chosen tasks than processors");
            let task = self.tasks.task_mut(id);
            if task.last_cpu != NO_CPU {
                self.counters.migrations += 1;
            }
            task.last_cpu = cpu;
        }
        free_cpus.clear();
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

    // ---- step 7: miss detection -----------------------------------------

    /// Records every released, unhalted, unscheduled subtask whose
    /// deadline is `t + 1`, in `(task, index)` order.
    ///
    /// No task is scanned on a slot that cannot miss. The ready queue
    /// orders deadline-first and holds the schedulable head of every
    /// task that has a pending subtask (releases and promotions push
    /// it; halts, schedules and departures leave at most stale entries
    /// behind — the invariant `skip_quiet_span` relies on), and a
    /// task's head has the earliest deadline among its pending records
    /// (asserted at release). So a pending subtask due at `t + 1`
    /// implies a queue entry whose deadline field is `≤ t + 1`: when
    /// the queue's front is later than that, the slot is done in O(1).
    /// Otherwise the entries up to `t + 1` — tardy heads, heads due
    /// now, stale leftovers — name the only tasks that can miss, and
    /// their records are checked against the *recorded* window
    /// deadline, so a deadline outside the packed key's exact band
    /// (which saturates low, never high, relative to a slot the run can
    /// reach) only costs a walk, never a wrong answer.
    ///
    /// Slots consumed by a quiet-span skip or a busy-span jump need no
    /// check: the first has an empty ready queue (no pending subtask
    /// exists at all), the second is verified miss-free.
    fn check_misses(&mut self, t: Slot) {
        let due = t + 1;
        if self.queue.front_deadline().is_none_or(|d| d > due) {
            return;
        }
        let mut missed = std::mem::take(&mut self.scratch.missed);
        let tasks = &self.tasks;
        self.queue.for_each_due(due, |e| {
            if !tasks.in_system(e.task) {
                return;
            }
            let Some(task) = tasks.get(e.task) else {
                return;
            };
            for s in &task.subs {
                if s.is_pending() && !s.missed {
                    debug_assert!(
                        s.deadline >= due,
                        "miss slipped through a batched slot: {} index {} deadline {}",
                        e.task,
                        s.index,
                        s.deadline
                    );
                    if s.deadline == due {
                        missed.push((e.task.0, s.index));
                    }
                }
            }
        });
        // A task with a stale and a live entry was visited twice.
        missed.sort_unstable();
        missed.dedup();
        for (raw_task, index) in missed.drain(..) {
            let id = TaskId(raw_task);
            if let Some(sub) = self.tasks.task_mut(id).sub_mut(index) {
                sub.missed = true;
            }
            self.probe.on_event(ObsEvent::Miss {
                task: id,
                index,
                t,
                deadline: due,
            });
            self.misses.push(Miss {
                task: id,
                index,
                deadline: due,
            });
        }
        self.scratch.missed = missed;
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
