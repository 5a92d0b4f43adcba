//! Engine snapshot & restore: a complete, exact image of a running
//! simulation at a slot boundary.
//!
//! ## Persistence invariant
//!
//! `snapshot` at slot `k`, serialize through [`pfair_json`], parse,
//! [`Engine::restore`], run to the horizon — the rendered result,
//! counters, misses, and drift samples are **bit-identical** to the
//! uninterrupted run. The `recovery_equivalence` suite pins this under
//! randomized OI/LJ/hybrid scripts and both drivers.
//!
//! Everything the slot pipeline can observe is captured **exactly**:
//!
//! - per-task state with exact rationals (weights, tracker
//!   accumulators, drift samples) — no floats anywhere;
//! - the ready queue as its sorted entry list (the heap's internal
//!   array layout is unobservable: `QueueEntry`'s order is total, so
//!   equal multisets of entries pop identically);
//! - the three calendar rings (releases, enactments, departures) as
//!   `(slot, entries)` pairs plus the far-future overflow list;
//! - pending reweight commitments, admission commitments, hybrid
//!   selector state, probe-independent overhead counters, and the
//!   event stream with its cursor.
//!
//! The tie table is deliberately **not** serialized: it is a
//! deterministic function of `config.tie_break` and the task count, and
//! is rebuilt from them.
//!
//! History-mode runs (`record_history`) are refused: their per-slot
//! accumulators grow with the horizon and belong in a [`SimResult`](crate::trace::SimResult)
//! (via [`Engine::finish`]), not in a checkpoint.
//!
//! Decoders re-validate every cross-field invariant they can state
//! (dense task ids, index-ordered subtask records, cursor bounds,
//! ring-window membership), so a corrupted or hand-edited snapshot
//! yields an `Err`, never a panicking or silently-wrong engine.

use super::slab::TaskSlab;
use super::{Engine, PendKind, Pending, SimConfig, SubRec, TaskState, NO_CPU};
use crate::admission::AdmissionController;
use crate::calendar::CalendarRing;
use crate::event::Event;
use crate::overhead::Counters;
use crate::priority::{Priority, TieTable};
use crate::queue::{QueueEntry, ReadyQueue};
use crate::reweight::RuleSelector;
use crate::trace::Miss;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{ever, Slot, NEVER};
use pfair_core::window::SubtaskWindow;
use pfair_json::{obj, FromJson, Json, JsonError, ToJson};
use pfair_obs::Probe;
use std::sync::Arc;

impl ToJson for PendKind {
    fn to_json(&self) -> Json {
        match self {
            PendKind::Enact => "enact".to_string().to_json(),
            PendKind::ReleaseOnly => "release_only".to_string().to_json(),
        }
    }
}

impl FromJson for PendKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let kind = String::from_json(value)?;
        match kind.as_str() {
            "enact" => Ok(PendKind::Enact),
            "release_only" => Ok(PendKind::ReleaseOnly),
            other => Err(JsonError::new(format!("unknown pending kind `{other}`"))),
        }
    }
}

impl ToJson for Pending {
    fn to_json(&self) -> Json {
        obj([
            ("target", self.target.to_json()),
            ("at", self.at.to_json()),
            ("kind", self.kind.to_json()),
            ("initiated_at", self.initiated_at.to_json()),
        ])
    }
}

impl FromJson for Pending {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Pending {
            target: value.field("target")?,
            at: value.field("at")?,
            kind: value.field("kind")?,
            initiated_at: value.field("initiated_at")?,
        })
    }
}

// The interchange form keeps the nested window and the nullable slots
// it has always had; the flat record with `NEVER` sentinels is an
// in-memory layout.
impl ToJson for SubRec {
    fn to_json(&self) -> Json {
        obj([
            ("index", self.index.to_json()),
            ("window", self.window().to_json()),
            ("group_deadline", self.group_deadline.to_json()),
            ("era_first", self.era_first.to_json()),
            ("scheduled_at", ever(self.scheduled_at).to_json()),
            ("halted_at", ever(self.halted_at).to_json()),
            ("isw_completion", ever(self.isw_completion).to_json()),
            ("missed", self.missed.to_json()),
        ])
    }
}

impl FromJson for SubRec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let window: SubtaskWindow = value.field("window")?;
        let slot = |key| Ok(value.field::<Option<Slot>>(key)?.unwrap_or(NEVER));
        Ok(SubRec {
            index: value.field("index")?,
            release: window.release,
            deadline: window.deadline,
            group_deadline: value.field("group_deadline")?,
            scheduled_at: slot("scheduled_at")?,
            halted_at: slot("halted_at")?,
            isw_completion: slot("isw_completion")?,
            b: window.b,
            era_first: value.field("era_first")?,
            missed: value.field("missed")?,
        })
    }
}

// The packed `u128` key is not serialized raw: the four fields are laid
// out explicitly (a snapshot is an interchange format, not a memory
// dump) and repacked on decode. `Priority::pack` clamps each field the
// same way the original pack did, so a round trip is bit-exact.
impl ToJson for QueueEntry {
    fn to_json(&self) -> Json {
        obj([
            ("deadline", self.priority.deadline().to_json()),
            ("b", self.priority.b().to_json()),
            ("group_deadline", self.priority.group_deadline().to_json()),
            ("tie_rank", self.priority.tie_rank().to_json()),
            ("task", self.task.to_json()),
            ("index", self.index.to_json()),
        ])
    }
}

impl FromJson for QueueEntry {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(QueueEntry {
            priority: Priority::pack(
                value.field("deadline")?,
                value.field("b")?,
                value.field("group_deadline")?,
                value.field("tie_rank")?,
            ),
            task: value.field("task")?,
            index: value.field("index")?,
        })
    }
}

impl ToJson for SimConfig {
    fn to_json(&self) -> Json {
        obj([
            ("processors", self.processors.to_json()),
            ("horizon", self.horizon.to_json()),
            ("scheme", self.scheme.to_json()),
            ("tie_break", self.tie_break.to_json()),
            ("admission", self.admission.to_json()),
            ("record_history", self.record_history.to_json()),
            ("tickless", self.tickless.to_json()),
            ("busy_span", self.busy_span.to_json()),
        ])
    }
}

impl FromJson for SimConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let horizon: Slot = value.field("horizon")?;
        if horizon < 0 {
            return Err(JsonError::new("negative simulation horizon"));
        }
        Ok(SimConfig {
            processors: value.field("processors")?,
            horizon,
            scheme: value.field("scheme")?,
            tie_break: value.field("tie_break")?,
            admission: value.field("admission")?,
            record_history: value.field("record_history")?,
            tickless: value.field("tickless")?,
            busy_span: value.field("busy_span")?,
        })
    }
}

/// One task in interchange form: its id, the cold [`TaskState`] row
/// and the four hot slab columns, flattened into the same per-task JSON
/// object the format has always used (the storage split is an in-memory
/// layout decision, not an interchange change).
#[derive(Clone, Debug)]
struct TaskSnap {
    id: TaskId,
    state: TaskState,
    in_system: bool,
    swt: Rational,
    next_release: Option<Slot>,
    ran_last_slot: bool,
}

impl TaskSnap {
    /// The image's `wt` field, the actual weight `wt(T, t)`: the `I_PS`
    /// tracker holds it, except that a row no task has joined yet —
    /// whose trackers are stand-ins of weight one — reads zero.
    fn wt(state: &TaskState) -> Rational {
        let joined = state.era_open_pending || state.next_index > 1;
        if joined {
            state.ps.wt()
        } else {
            Rational::ZERO
        }
    }
}

impl ToJson for TaskSnap {
    fn to_json(&self) -> Json {
        // The history accumulators exist only in history mode, which
        // `snapshot` refuses; they are not part of the interchange
        // format.
        obj([
            ("id", self.id.to_json()),
            ("in_system", self.in_system.to_json()),
            ("wt", TaskSnap::wt(&self.state).to_json()),
            ("swt", self.swt.to_json()),
            ("era_base", self.state.era_base.to_json()),
            ("next_index", self.state.next_index.to_json()),
            ("era_open_pending", self.state.era_open_pending.to_json()),
            ("next_release", self.next_release.to_json()),
            ("subs", self.state.subs.to_vec().to_json()),
            ("pending", self.state.pending.to_json()),
            ("leaving", ever(self.state.leaving).to_json()),
            ("last_scheduled", self.state.last_scheduled.to_json()),
            ("isw", self.state.isw.to_json()),
            ("ps", self.state.ps.to_json()),
            ("drift", self.state.drift.to_json()),
            ("scheduled_count", self.state.scheduled_count.to_json()),
            (
                "last_cpu",
                Some(self.state.last_cpu)
                    .filter(|&cpu| cpu != NO_CPU)
                    .to_json(),
            ),
            ("ran_last_slot", self.ran_last_slot.to_json()),
        ])
    }
}

impl FromJson for TaskSnap {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let next_index: u64 = value.field("next_index")?;
        let era_base: u64 = value.field("era_base")?;
        let subs: Vec<SubRec> = value.field("subs")?;
        if next_index == 0 {
            return Err(JsonError::new("task next_index must be at least 1"));
        }
        if era_base >= next_index {
            return Err(JsonError::new("task era_base at or past next_index"));
        }
        if subs.windows(2).any(|w| w[0].index >= w[1].index) {
            return Err(JsonError::new("subtask records out of index order"));
        }
        if subs.iter().any(|s| s.index >= next_index) {
            return Err(JsonError::new("subtask record at or past next_index"));
        }
        let state = TaskState {
            era_base,
            next_index,
            era_open_pending: value.field("era_open_pending")?,
            subs: subs.into_iter().collect(),
            pending: value.field("pending")?,
            leaving: value.field::<Option<Slot>>("leaving")?.unwrap_or(NEVER),
            last_scheduled: value.field("last_scheduled")?,
            isw: value.field("isw")?,
            ps: value.field("ps")?,
            drift: value.field("drift")?,
            scheduled_count: value.field("scheduled_count")?,
            last_cpu: value.field::<Option<u32>>("last_cpu")?.unwrap_or(NO_CPU),
            history: None,
        };
        if value.field::<Rational>("wt")? != TaskSnap::wt(&state) {
            return Err(JsonError::new(
                "task weight disagrees with its I_PS tracker",
            ));
        }
        Ok(TaskSnap {
            id: value.field("id")?,
            state,
            in_system: value.field("in_system")?,
            swt: value.field("swt")?,
            next_release: value.field("next_release")?,
            ran_last_slot: value.field("ran_last_slot")?,
        })
    }
}

/// A calendar ring projected onto interchange form: the rotation base,
/// the occupied in-window slots with their (insertion-ordered) entry
/// lists, and the far-future overflow list. `CalendarRing::from_parts`
/// re-validates window membership on the way back in.
#[derive(Clone, Debug)]
struct RingSnap {
    base: Slot,
    buckets: Vec<(Slot, Vec<TaskId>)>,
    overflow: Vec<(Slot, TaskId)>,
}

impl RingSnap {
    fn of(ring: &CalendarRing) -> RingSnap {
        let (base, buckets, overflow) = ring.persist_parts();
        RingSnap {
            base,
            buckets,
            overflow,
        }
    }

    fn into_ring(self) -> Result<CalendarRing, String> {
        CalendarRing::from_parts(self.base, self.buckets, self.overflow)
    }
}

impl ToJson for RingSnap {
    fn to_json(&self) -> Json {
        obj([
            ("base", self.base.to_json()),
            ("buckets", self.buckets.to_json()),
            ("overflow", self.overflow.to_json()),
        ])
    }
}

impl FromJson for RingSnap {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RingSnap {
            base: value.field("base")?,
            buckets: value.field("buckets")?,
            overflow: value.field("overflow")?,
        })
    }
}

/// A complete, exact image of an [`Engine`] at a slot boundary.
///
/// Produced by [`Engine::snapshot`]/[`Engine::snapshot_at`], consumed
/// by [`Engine::restore`]; serialized canonically through
/// [`pfair_json`] (see the module docs for the invariant the format
/// upholds). The snapshot is self-contained: it embeds the
/// configuration and the full event stream with its cursor, so
/// resuming needs no access to the original workload file.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    config: SimConfig,
    events: Arc<Vec<Event>>,
    next_event: usize,
    injected: Vec<Event>,
    tasks: Vec<TaskSnap>,
    queue: Vec<QueueEntry>,
    selector: RuleSelector,
    committed: Vec<Rational>,
    counters: Counters,
    misses: Vec<Miss>,
    now: Slot,
    release_at: RingSnap,
    enact_at: RingSnap,
    leave_at: RingSnap,
}

impl EngineSnapshot {
    /// The slot the engine was captured at (the next slot it will
    /// simulate after [`Engine::restore`]).
    pub fn now(&self) -> Slot {
        self.now
    }

    /// The configured horizon of the captured run.
    pub fn horizon(&self) -> Slot {
        self.config.horizon
    }

    /// The captured configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of tasks in the captured task slab.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Cross-field invariants shared by the decoder and
    /// [`Engine::restore`]: dense ids, sized side tables, in-range
    /// cursors. Ring-window membership is checked separately by
    /// `CalendarRing::from_parts`.
    fn validate(&self) -> Result<(), String> {
        if self.config.record_history {
            return Err("snapshots never carry history-mode state".to_string());
        }
        let n = self.tasks.len();
        for (i, task) in self.tasks.iter().enumerate() {
            if task.id.idx() != i {
                return Err(format!("task slab not dense: slot {i} holds {}", task.id));
            }
        }
        if self.selector.task_slots() != n {
            return Err("selector state table does not match the task count".to_string());
        }
        if self.committed.len() != n {
            return Err("admission commitment table does not match the task count".to_string());
        }
        if self.now < 0 || self.now > self.config.horizon {
            return Err(format!(
                "snapshot slot {} outside [0, {}]",
                self.now, self.config.horizon
            ));
        }
        if self.next_event > self.events.len() {
            return Err("event cursor past the end of the stream".to_string());
        }
        if let Some(e) = self.queue.iter().find(|e| e.task.idx() >= n) {
            return Err(format!("ready-queue entry for unknown task {}", e.task));
        }
        Ok(())
    }
}

impl ToJson for EngineSnapshot {
    fn to_json(&self) -> Json {
        obj([
            ("config", self.config.to_json()),
            ("events", self.events.to_json()),
            ("next_event", self.next_event.to_json()),
            ("injected", self.injected.to_json()),
            ("tasks", self.tasks.to_json()),
            ("queue", self.queue.to_json()),
            ("selector", self.selector.to_json()),
            ("committed", self.committed.to_json()),
            ("counters", self.counters.to_json()),
            ("misses", self.misses.to_json()),
            ("now", self.now.to_json()),
            ("release_at", self.release_at.to_json()),
            ("enact_at", self.enact_at.to_json()),
            ("leave_at", self.leave_at.to_json()),
        ])
    }
}

impl FromJson for EngineSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let snap = EngineSnapshot {
            config: value.field("config")?,
            events: Arc::new(value.field("events")?),
            next_event: value.field("next_event")?,
            injected: value.field("injected")?,
            tasks: value.field("tasks")?,
            queue: value.field("queue")?,
            selector: value.field("selector")?,
            committed: value.field("committed")?,
            counters: value.field("counters")?,
            misses: value.field("misses")?,
            now: value.field("now")?,
            release_at: value.field("release_at")?,
            enact_at: value.field("enact_at")?,
            leave_at: value.field("leave_at")?,
        };
        snap.validate().map_err(JsonError::new)?;
        Ok(snap)
    }
}

impl<P: Probe> Engine<P> {
    /// The engine's static configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Captures the complete engine state at the current slot boundary.
    ///
    /// Fails for history-mode runs: their per-slot accumulators grow
    /// with the horizon and are excluded from the persistence format
    /// (collect a [`crate::trace::SimResult`] instead). Probe state is
    /// *not* captured — observing callers persist their probe
    /// separately (e.g. a metrics registry snapshot) and rebuild it at
    /// restore.
    pub fn snapshot(&self) -> Result<EngineSnapshot, String> {
        if self.config.record_history {
            return Err(
                "history-mode runs cannot be snapshotted: per-slot series are unbounded; \
                 collect a SimResult instead"
                    .to_string(),
            );
        }
        let tasks = (0..self.tasks.len())
            .map(|i| {
                // audit: allow(lossy-cast, slab ids stay within u32 by construction)
                let id = TaskId(i as u32);
                TaskSnap {
                    id,
                    state: self.tasks.task(id).clone(),
                    in_system: self.tasks.in_system(id),
                    swt: self.tasks.swt(id),
                    next_release: self.tasks.next_release(id),
                    ran_last_slot: self.tasks.ran_last_slot(id),
                }
            })
            .collect();
        Ok(EngineSnapshot {
            config: self.config.clone(),
            events: Arc::clone(&self.events),
            next_event: self.next_event,
            injected: self.injected.clone(),
            tasks,
            queue: self.queue.entries_sorted(),
            selector: self.selector.clone(),
            committed: self.admission.committed_parts().to_vec(),
            counters: self.counters,
            misses: self.misses.clone(),
            now: self.now,
            release_at: RingSnap::of(&self.release_at),
            enact_at: RingSnap::of(&self.enact_at),
            leave_at: RingSnap::of(&self.leave_at),
        })
    }

    /// Runs the engine forward to slot `slot` (clamped to the horizon)
    /// and captures it there.
    ///
    /// Advancing uses the per-slot pipeline regardless of
    /// `config.tickless`; the tickless invariant (see
    /// [`Engine::run`]) makes the state at any boundary identical
    /// under both drivers, so the captured image — and every run
    /// resumed from it — is too.
    pub fn snapshot_at(&mut self, slot: Slot) -> Result<EngineSnapshot, String> {
        if slot < self.now {
            return Err(format!(
                "cannot snapshot at slot {slot}: the engine is already at {}",
                self.now
            ));
        }
        let stop = slot.min(self.config.horizon);
        while self.now < stop {
            self.step_slot();
        }
        self.snapshot()
    }

    /// Rebuilds a running engine from a snapshot; the resumed run is
    /// bit-identical to the uninterrupted one (module docs).
    ///
    /// Derived state is reconstructed rather than trusted: the tie
    /// table comes from `config.tie_break`, the ready heap from the
    /// canonical sorted entry list (no push counters are re-counted —
    /// the snapshot's [`Counters`] already include those pushes).
    pub fn restore(snapshot: EngineSnapshot, probe: P) -> Result<Engine<P>, String> {
        snapshot.validate()?;
        let n = u32::try_from(snapshot.tasks.len())
            .map_err(|_| "task count exceeds the id space".to_string())?;
        let tie = TieTable::new(&snapshot.config.tie_break, n);
        let release_at = snapshot.release_at.into_ring()?;
        let enact_at = snapshot.enact_at.into_ring()?;
        let leave_at = snapshot.leave_at.into_ring()?;
        // Re-column the flattened task images: cold rows into the slab,
        // hot values back into the dense columns.
        let mut tasks = TaskSlab::new(n);
        for snap in snapshot.tasks {
            let id = snap.id;
            tasks.set_in_system(id, snap.in_system);
            tasks.set_swt(id, snap.swt);
            tasks.set_next_release(id, snap.next_release);
            tasks.set_ran(id, snap.ran_last_slot);
            *tasks.task_mut(id) = snap.state;
        }
        // Derived per-run state rebuilt rather than trusted: last slot's
        // chosen set from the ran column, the injected-event floor from
        // the injected list, and the run-segment limit back at the
        // horizon (a restored engine is not inside any `run_to`
        // segment).
        let last_chosen = tasks.ran_ids();
        let injected_min = snapshot
            .injected
            .iter()
            .map(|e| e.at)
            .min()
            .unwrap_or(NEVER);
        let run_limit = snapshot.config.horizon;
        Ok(Engine {
            probe,
            selector: snapshot.selector,
            admission: AdmissionController::from_parts(
                snapshot.config.admission,
                snapshot.config.processors,
                snapshot.committed,
            ),
            events: snapshot.events,
            next_event: snapshot.next_event,
            tasks,
            queue: ReadyQueue::from_entries(snapshot.queue),
            counters: snapshot.counters,
            misses: snapshot.misses,
            now: snapshot.now,
            injected: snapshot.injected,
            injected_min,
            last_chosen,
            touched: Vec::new(),
            scratch: super::SlotScratch::default(),
            run_limit,
            tie,
            release_at,
            enact_at,
            leave_at,
            // Busy-span batching re-arms from scratch: an armed probe is
            // a pure optimization hint and deliberately not part of the
            // interchange format (jumps are verified no-ops, so a cold
            // restart cannot change the trajectory).
            busy: super::busy_span::BusySpanState::default(),
            mix: crate::overhead::DriverMix::default(),
            config: snapshot.config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Workload;
    use pfair_obs::NoopProbe;

    fn busy_workload() -> Workload {
        let mut w = Workload::new();
        for t in 0..6 {
            w.join(t, 0, 3, 20);
        }
        w.reweight(0, 7, 1, 2);
        w.reweight(1, 11, 1, 4);
        w.delay(2, 9, 4);
        w.leave(3, 13);
        w.reweight(4, 15, 2, 5);
        w
    }

    /// Snapshot at k, restore, run to H — identical to the straight
    /// run (the full randomized matrix lives in the recovery suite;
    /// this is the in-crate smoke check).
    #[test]
    fn restore_resumes_bit_identically() {
        let config = SimConfig::oi(2, 40);
        let w = busy_workload();
        let reference = super::super::simulate(config.clone(), &w);
        let mut engine = Engine::new(config, &w);
        let snap = engine.snapshot_at(17).expect("snapshot");
        let json = snap.to_json().to_string_pretty();
        let parsed: EngineSnapshot =
            FromJson::from_json(&Json::parse(&json).expect("parse")).expect("decode");
        let mut resumed = Engine::restore(parsed, NoopProbe).expect("restore");
        resumed.run();
        let a = reference.to_json().to_string_pretty();
        let b = resumed.finish().to_json().to_string_pretty();
        assert_eq!(a, b);
    }

    /// The serialized form is canonical: encode → decode → encode is
    /// byte-identical.
    #[test]
    fn snapshot_encoding_is_canonical() {
        let mut engine = Engine::new(SimConfig::leave_join(2, 40), &busy_workload());
        let snap = engine.snapshot_at(12).expect("snapshot");
        let first = snap.to_json().to_string_pretty();
        let parsed: EngineSnapshot =
            FromJson::from_json(&Json::parse(&first).expect("parse")).expect("decode");
        assert_eq!(first, parsed.to_json().to_string_pretty());
    }

    /// A snapshot streams to the bytes its tree renders to (nested
    /// options, tuples, rationals and strings through one formatter).
    #[test]
    fn streamed_snapshot_equals_the_tree() {
        let mut engine = Engine::new(SimConfig::oi(2, 40), &busy_workload());
        let snap = engine.snapshot_at(14).expect("snapshot");
        assert_eq!(snap.to_json_pretty(), snap.to_json().to_string_pretty());
    }

    /// History-mode engines refuse to snapshot.
    #[test]
    fn history_mode_is_refused() {
        let config = SimConfig::oi(2, 40).with_history();
        let engine = Engine::new(config, &busy_workload());
        assert!(engine.snapshot().is_err());
    }

    /// A tampered snapshot (event cursor out of range) decodes to Err.
    #[test]
    fn corrupted_cursor_is_rejected() {
        let mut engine = Engine::new(SimConfig::oi(2, 40), &busy_workload());
        let snap = engine.snapshot_at(5).expect("snapshot");
        let json = snap.to_json().to_string_pretty();
        let cursor = format!("\"next_event\": {}", snap.next_event);
        let tampered = json.replace(&cursor, "\"next_event\": 99");
        assert_ne!(json, tampered, "cursor field not found in the encoding");
        let parsed = Json::parse(&tampered).expect("still valid JSON");
        assert!(EngineSnapshot::from_json(&parsed).is_err());
    }
}
