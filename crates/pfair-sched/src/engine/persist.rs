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
//! - pending reweight commitments, admission commitments, hybrid
//!   selector state, probe-independent overhead counters, and the
//!   event stream with its cursor.
//!
//! One loader writes an image into an engine, `Engine::load`, and two
//! paths call it: [`Engine::restore`], into an engine that has fired
//! nothing yet, and every busy-span jump, which arms with this same
//! image (`Engine::snapshot_into`, the function [`Engine::snapshot`] is
//! built on) and loads it shifted by whole periods. Every jump of the
//! equivalence suites therefore runs the restore path too.
//!
//! What the rows determine is **not** serialized but rebuilt. The tie
//! table is a function of `config.tie_break` and the task count. The
//! two calendar rings only index the slab's columns, and the loader
//! re-files them from the loaded columns: each present task at its
//! `next_release`, each task at its parked change's slot and its rule-L
//! departure. Every firing path checks the columns before acting, so a
//! stale hint in the live ring is a no-op, and a ring re-filed from the
//! columns fires exactly what it did. The admission table is kept: a
//! decrease that supersedes a pending increase holds the higher
//! commitment until enactment, which no row records.
//!
//! A history request (`record_history`) is refused: the history is
//! rebuilt by a [`HistoryRecorder`](crate::history::HistoryRecorder)
//! riding in the probe slot, and a probe is never persisted, so a
//! resumed run could not carry it on.
//!
//! Decoders re-validate every cross-field invariant they can state
//! (dense task ids, index-ordered subtask records, cursor bounds, no
//! calendar slot behind `now`, weights and tracker counts that fit the
//! 64-bit fields holding them, `I_SW` images that agree with their
//! rows' records), so a corrupted or hand-edited snapshot
//! yields an `Err`, never a panicking or silently-wrong engine. Keys
//! earlier versions wrote and this one no longer reads (the rings, a
//! task's `wt`, `config.record_history`, the trackers' history flags)
//! are ignored, so an older image decodes as it is.

use super::ideal::Ideal;
use super::slab::TaskSlab;
use super::{Engine, Parked, PendKind, Pending, SimConfig, SubRec, TaskState, NO_CPU};
use crate::event::Event;
use crate::overhead::Counters;
use crate::priority::Priority;
use crate::queue::QueueEntry;
use crate::reweight::{RuleSelector, Scheme};
use crate::trace::Miss;
use pfair_core::ideal::Trackers;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{ever, Slot, NEVER};
use pfair_core::weight::Weight;
use pfair_core::window::SubtaskWindow;
use pfair_json::{FromJson, Json, JsonError, JsonWriter, ToJson};
use pfair_obs::Probe;
use std::sync::Arc;

/// A weight column entry or ledger commitment in interchange form: the
/// rational it has always been written as, zero for none. Decoding
/// holds a nonzero share to be a [`Weight`].
struct Share(Option<Weight>);

impl ToJson for Share {
    fn write_json(&self, w: &mut JsonWriter) {
        Weight::share(self.0).write_json(w);
    }
}

impl FromJson for Share {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Weight::try_share(Rational::from_json(value)?)
            .map(Share)
            .map_err(|e| JsonError::new(e.to_string()))
    }
}

impl ToJson for PendKind {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(match self {
            PendKind::Enact => "enact",
            PendKind::ReleaseOnly => "release_only",
        });
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
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("target", &self.target)
            .field("at", &self.at)
            .field("kind", &self.kind)
            .field("initiated_at", &self.initiated_at);
        w.end_object();
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
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("index", &self.index)
            .field("window", &self.window())
            .field("group_deadline", &self.group_deadline)
            .field("era_first", &self.era_first)
            .field("scheduled_at", &ever(self.scheduled_at))
            .field("halted_at", &ever(self.halted_at))
            .field("isw_completion", &ever(self.isw_completion))
            .field("missed", &self.missed);
        w.end_object();
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
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("deadline", &self.priority.deadline())
            .field("b", &self.priority.b())
            .field("group_deadline", &self.priority.group_deadline())
            .field("tie_rank", &self.priority.tie_rank())
            .field("task", &self.task)
            .field("index", &self.index);
        w.end_object();
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
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("processors", &self.processors)
            .field("horizon", &self.horizon)
            .field("scheme", &self.scheme)
            .field("tie_break", &self.tie_break)
            .field("admission", &self.admission)
            .field("tickless", &self.tickless)
            .field("busy_span", &self.busy_span);
        w.end_object();
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
            record_history: false,
            tickless: value.field("tickless")?,
            busy_span: value.field("busy_span")?,
        })
    }
}

/// One task in interchange form: its id, the cold [`TaskState`] row
/// (the placeholder for an id whose row is not built), its parked-rule
/// state and the four hot slab columns, flattened into the same
/// per-task JSON object the format has always used (the storage split
/// is an in-memory layout decision, not an interchange change).
#[derive(Clone, Debug)]
pub(super) struct TaskSnap {
    pub(super) id: TaskId,
    pub(super) state: TaskState,
    pub(super) parked: Parked,
    pub(super) in_system: bool,
    pub(super) swt: Option<Weight>,
    pub(super) next_release: Option<Slot>,
    pub(super) ran_last_slot: bool,
}

impl TaskSnap {
    /// Writes task `id` of `tasks` over this image, reusing the buffers
    /// its row holds.
    fn write(&mut self, tasks: &TaskSlab, id: TaskId) {
        self.id = id;
        self.state.clone_from(tasks.task(id));
        self.parked = *tasks.parked(id);
        self.in_system = tasks.in_system(id);
        self.swt = tasks.swt(id);
        self.next_release = tasks.next_release(id);
        self.ran_last_slot = tasks.ran_last_slot(id);
    }
}

impl ToJson for TaskSnap {
    /// A static or settled row writes its closed form: the image does
    /// not show whether a row keeps trackers.
    fn write_json(&self, w: &mut JsonWriter) {
        let state = &self.state;
        let ideal = state.ideal_image(self.swt.unwrap_or(Weight::ONE));
        w.begin_object()
            .field("id", &self.id)
            .field("in_system", &self.in_system)
            .field("swt", &Share(self.swt))
            .field("era_base", &state.era_base)
            .field("next_index", &state.next_index)
            .field("era_open_pending", &state.era_open_pending)
            .field("next_release", &self.next_release)
            .field("subs", state.subs.as_slice())
            .field("pending", &self.parked.pending)
            .field("leaving", &ever(self.parked.leaving))
            .field("last_scheduled", &state.last_scheduled)
            .field("isw", &ideal.isw)
            .field("ps", &ideal.ps)
            .field("drift", &state.drift)
            .field("scheduled_count", &state.scheduled_count)
            .field(
                "last_cpu",
                &Some(state.last_cpu).filter(|&cpu| cpu != NO_CPU),
            )
            .field("ran_last_slot", &self.ran_last_slot);
        w.end_object();
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
        let era_open_pending = value.field("era_open_pending")?;
        let parked = Parked {
            pending: value.field("pending")?,
            leaving: value.field::<Option<Slot>>("leaving")?.unwrap_or(NEVER),
        };
        let mut state = TaskState {
            era_base,
            next_index,
            era_open_pending,
            subs: subs.into_iter().collect(),
            last_scheduled: value.field("last_scheduled")?,
            ideal: Ideal::Tracked(Box::new(Trackers {
                isw: value.field("isw")?,
                ps: value.field("ps")?,
            })),
            drift: value.field("drift")?,
            scheduled_count: value.field("scheduled_count")?,
            last_cpu: value.field::<Option<u32>>("last_cpu")?.unwrap_or(NO_CPU),
        };
        let (in_system, swt) = (value.field("in_system")?, value.field::<Share>("swt")?.0);
        if let Some(w) = swt.filter(|_| in_system && parked.is_nothing()) {
            state.unbox_static(w);
        }
        Ok(TaskSnap {
            id: value.field("id")?,
            state,
            parked,
            in_system,
            swt,
            next_release: value.field("next_release")?,
            ran_last_slot: value.field("ran_last_slot")?,
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
    pub(super) next_event: usize,
    injected: Vec<Event>,
    pub(super) tasks: Vec<TaskSnap>,
    pub(super) queue: Vec<QueueEntry>,
    pub(super) selector: RuleSelector,
    pub(super) committed: Vec<Option<Weight>>,
    pub(super) counters: Counters,
    pub(super) misses: Vec<Miss>,
    pub(super) now: Slot,
}

impl EngineSnapshot {
    /// An image of no task at slot 0, for [`Engine::snapshot_into`] to
    /// write over.
    pub(super) fn blank() -> EngineSnapshot {
        EngineSnapshot {
            config: SimConfig::oi(0, 0),
            events: Arc::default(),
            next_event: 0,
            injected: Vec::new(),
            tasks: Vec::new(),
            queue: Vec::new(),
            selector: RuleSelector::new(Scheme::Oi, 0),
            committed: Vec::new(),
            counters: Counters::default(),
            misses: Vec::new(),
            now: 0,
        }
    }

    /// The slot the engine was captured at (the next slot it will
    /// simulate after [`Engine::restore`]).
    pub fn now(&self) -> Slot {
        self.now
    }

    /// The captured configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Cross-field invariants shared by the decoder and
    /// [`Engine::restore`]: dense ids, sized side tables, in-range
    /// cursors, and no calendar slot behind `now` — a slot the rings
    /// rebuilt at restore would file before their window and never
    /// fire.
    fn validate(&self) -> Result<(), String> {
        let n = self.tasks.len();
        for (i, task) in self.tasks.iter().enumerate() {
            if task.id.idx() != i {
                return Err(format!("task slab not dense: slot {i} holds {}", task.id));
            }
            let slots = [
                ("next release", task.next_release.filter(|_| task.in_system)),
                ("pending change", task.parked.pending.map(|p| p.at)),
                ("departure", ever(task.parked.leaving)),
            ];
            for (what, at) in slots {
                if let Some(at) = at.filter(|&at| at < self.now) {
                    return Err(format!(
                        "{} {what} at slot {at}, behind snapshot slot {}",
                        task.id, self.now
                    ));
                }
            }
            let reads_pred = task.in_system && task.parked.is_nothing();
            (task.state.check_isw(reads_pred)).map_err(|e| format!("{} {e}", task.id))?;
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
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("config", &self.config)
            .field("events", &*self.events)
            .field("next_event", &self.next_event)
            .field("injected", &self.injected)
            .field("tasks", &self.tasks)
            .field("queue", &self.queue)
            .field("selector", &self.selector)
            .key("committed");
        w.begin_array();
        for &c in &self.committed {
            Share(c).write_json(w);
        }
        w.end_array();
        w.field("counters", &self.counters)
            .field("misses", &self.misses)
            .field("now", &self.now);
        w.end_object();
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
            committed: (value.field::<Vec<Share>>("committed")?)
                .into_iter()
                .map(|c| c.0)
                .collect(),
            counters: value.field("counters")?,
            misses: value.field("misses")?,
            now: value.field("now")?,
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
    /// Fails for a history request ([`SimConfig::record_history`]): the
    /// history is a probe's ([`crate::history::HistoryRecorder`]), and
    /// probe state is *not* captured — observing callers persist their
    /// probe separately (e.g. a metrics registry snapshot) and rebuild
    /// it at restore, which a recorder's unbounded series are not made
    /// for (collect a [`crate::trace::SimResult`] instead).
    pub fn snapshot(&self) -> Result<EngineSnapshot, String> {
        if self.config.record_history {
            return Err(
                "history runs cannot be snapshotted: the history recorder is a probe, \
                 and probes are not persisted; collect a SimResult instead"
                    .to_string(),
            );
        }
        let mut image = EngineSnapshot::blank();
        self.snapshot_into(&mut image);
        Ok(image)
    }

    /// Writes the engine's image over `image`, into the buffers it
    /// holds: a row's trackers' box and drift track are reused, so
    /// writing over an image of the same tasks allocates nothing. What
    /// [`Engine::snapshot`] returns and what a busy-span arming keeps
    /// (the busy-span driver arms history runs too, so nothing is
    /// refused here).
    pub(super) fn snapshot_into(&self, image: &mut EngineSnapshot) {
        image.config.clone_from(&self.config);
        image.events.clone_from(&self.events);
        image.next_event = self.next_event;
        image.injected.clear();
        image.injected.extend(&self.injected);
        // `task` answers every addressable id, built or not.
        let blank = self.tasks.blank();
        image.tasks.resize_with(self.tasks.len(), || TaskSnap {
            id: TaskId(0),
            state: blank.clone(),
            parked: Parked::NOTHING,
            in_system: false,
            swt: None,
            next_release: None,
            ran_last_slot: false,
        });
        for (snap, id) in image.tasks.iter_mut().zip((0u32..).map(TaskId)) {
            snap.write(&self.tasks, id);
        }
        image.queue.clear();
        self.queue.walk_sorted(|e| {
            image.queue.push(*e);
            true
        });
        image.selector.clone_from(&self.selector);
        (self.admission.committed_parts()).clone_into(&mut image.committed);
        image.counters = self.counters;
        image.misses.clone_from(&self.misses);
        image.now = self.now;
    }

    /// Runs the engine forward to slot `slot` (clamped to the horizon)
    /// with [`Engine::run_to`], the one driver loop, and captures it
    /// there. A run is exact across segment boundaries, so the image is
    /// the one any driver reaches at that slot, and so is every run
    /// resumed from it.
    pub fn snapshot_at(&mut self, slot: Slot) -> Result<EngineSnapshot, String> {
        if slot < self.now {
            return Err(format!(
                "cannot snapshot at slot {slot}: the engine is already at {}",
                self.now
            ));
        }
        self.run_to(slot);
        self.snapshot()
    }

    /// Rebuilds a running engine from a snapshot; the resumed run is
    /// bit-identical to the uninterrupted one (module docs).
    ///
    /// The image is validated, then loaded into an engine that has
    /// fired nothing yet by `Engine::load`, the loader a busy-span jump
    /// calls too. Derived state is reconstructed rather than
    /// trusted: the tie table comes from `config.tie_break`, the
    /// calendar rings are re-filed from the columns, the ready queue is
    /// placed from the canonical sorted entry list (no push counters
    /// are re-counted — the snapshot's [`Counters`] already include
    /// those pushes), and the busy-span driver re-arms from scratch.
    pub fn restore(snapshot: EngineSnapshot, probe: P) -> Result<Engine<P>, String> {
        snapshot.validate()?;
        let n = u32::try_from(snapshot.tasks.len())
            .map_err(|_| "task count exceeds the id space".to_string())?;
        let events = Arc::clone(&snapshot.events);
        let mut engine = Engine::empty(snapshot.config.clone(), events, n, probe);
        engine.load(&snapshot)?;
        Ok(engine)
    }

    /// Writes `image` into this engine: the one loader, behind
    /// [`Engine::restore`] and every busy-span jump. It writes what the
    /// image holds — the hot columns, the rows (none built for an id
    /// that never joined), the parked state and the rings re-filed from
    /// them, the queue, the admission ledger, the rule selector, the
    /// counters, the misses, the event cursors and the clock — each into
    /// the buffers already there, and rebuilds last slot's chosen set
    /// from the `ran` column. The probe, the busy-span state, the driver
    /// mix, the run limit, the tie table and the scratch buffers are
    /// left alone. The engine addresses exactly the image's ids (a
    /// restore builds it so, a jump has verified it). `Err`, with
    /// nothing written, if the admission ledger cannot represent the
    /// image's commitments.
    pub(super) fn load(&mut self, image: &EngineSnapshot) -> Result<(), String> {
        if !self.admission.load_parts(&image.committed) {
            return Err("committed weights sum beyond the admission ledger's range".to_string());
        }
        self.tasks.load(&image.tasks, image.now);
        self.queue.reload(&image.queue);
        self.selector.clone_from(&image.selector);
        self.counters = image.counters;
        self.misses.clone_from(&image.misses);
        self.events.clone_from(&image.events);
        self.next_event = image.next_event;
        self.injected.clear();
        self.injected.extend(&image.injected);
        // In firing order (`Engine::inject`), as a live engine's image
        // already is.
        let now = image.now;
        (self.injected.make_contiguous()).sort_by_key(|e| e.at.max(now));
        self.injected_min = image.injected.iter().map(|e| e.at).min().unwrap_or(NEVER);
        self.last_chosen.clear();
        self.last_chosen.extend(self.tasks.ran_iter());
        self.touched.clear();
        self.now = image.now;
        Ok(())
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

    /// Snapshot at `k`, encode, decode, restore: the restored engine
    /// snapshots to the same bytes, and runs to the result of the
    /// uninterrupted run (the full randomized matrix lives in the
    /// recovery suite). Ids 6 and 7 join after every cut, so their
    /// unbuilt rows are imaged as placeholders, and the resumed run
    /// meets their joins and a parked change among them.
    #[test]
    fn snapshots_round_trip_and_resume_bit_identically() {
        let mut w = busy_workload();
        w.join(6, 30, 1, 4).join(7, 30, 1, 5).reweight(6, 41, 1, 6);
        for (config, cut) in [
            (SimConfig::oi(2, 60), 17),
            (SimConfig::oi(2, 60), 20),
            (SimConfig::leave_join(2, 60), 12),
        ] {
            let reference = super::super::simulate(config.clone(), &w);
            let mut engine = Engine::new(config, &w);
            let first = engine.snapshot_at(cut).expect("snapshot").to_json_pretty();
            assert!(
                engine.tasks.row_mut(TaskId(6)).is_none(),
                "id 6 joins later"
            );
            let parsed: EngineSnapshot =
                FromJson::from_json(&Json::parse(&first).expect("parse")).expect("decode");
            let mut resumed = Engine::restore(parsed, NoopProbe).expect("restore");
            let again = resumed.snapshot().expect("snapshot").to_json_pretty();
            assert_eq!(first, again, "cut {cut}");
            resumed.run();
            let (a, b) = (
                reference.to_json_pretty(),
                resumed.finish().to_json_pretty(),
            );
            assert_eq!(a, b, "cut {cut}");
        }
    }

    /// Engines asked for history refuse to snapshot.
    #[test]
    fn history_mode_is_refused() {
        let config = SimConfig::oi(2, 40).with_history();
        let engine = Engine::new(config, &busy_workload());
        assert!(engine.snapshot().is_err());
    }

    /// Random OI/LJ/hybrid scripts under the per-slot and the default
    /// driver, cut at every boundary a random stride reaches. The
    /// saturated leg draws denominators dividing 12, closes the
    /// processors with static fillers of weight 1/12 and strides three
    /// times as far, so its default-driver cases cross busy-span jumps
    /// between strides.
    mod derivation {
        use super::*;
        use crate::reweight::{HybridPolicy, Scheme};
        use pfair_obs::MetricsProbe;
        use proptest::prelude::*;

        /// One generated plan: the workload, its configuration and the
        /// stride. Joins at 1/den; then reweights (two in four) to a
        /// light weight, delays up to 600 slots (past the ring window)
        /// and leaves, each of a joined id, in any order.
        type Plan = (Workload, SimConfig, Slot);

        fn arb_plan() -> impl Strategy<Value = Plan> {
            (
                1u32..=4,
                prop::collection::vec((2i128..=40, 0i64..=30), 1..=8),
                prop::collection::vec((0u8..4, 0u32..8, 1i64..155, 2i128..=40, 1u32..600), 0..=24),
                (0u8..3, 0u8..2, 0u8..2),
                1i64..40,
            )
                .prop_map(
                    |(processors, joins, events, (scheme, per_slot, saturated), stride)| {
                        let saturated = saturated == 1;
                        let den_of = |den: i128| match usize::try_from(den % 5) {
                            Ok(i) if saturated => [2, 3, 4, 6, 12][i],
                            _ => den,
                        };
                        let mut w = Workload::new();
                        let mut spare = i128::from(processors) * 12;
                        for (id, &(den, at)) in (0u32..).zip(&joins) {
                            w.join(id, at, 1, den_of(den));
                            spare -= 12 / den_of(den);
                        }
                        for &(kind, id, at, den, by) in &events {
                            let (id, den) =
                                (id % u32::try_from(joins.len()).unwrap_or(1), den_of(den));
                            match kind {
                                0 | 1 => w.reweight(id, at, 1 + i128::from(by) % (den / 2), den),
                                2 => w.delay(id, at, by),
                                _ => w.leave(id, at),
                            };
                        }
                        let (horizon, stride) = if saturated {
                            (400, 3 * stride)
                        } else {
                            (160, stride)
                        };
                        let fillers = if saturated {
                            usize::try_from(spare).unwrap_or(0)
                        } else {
                            0
                        };
                        for id in (0u32..).skip(joins.len()).take(fillers) {
                            w.join(id, 0, 1, 12);
                        }
                        let config = match scheme {
                            0 => SimConfig::oi(processors, horizon),
                            1 => SimConfig::leave_join(processors, horizon),
                            _ => SimConfig::oi(processors, horizon)
                                .with_scheme(Scheme::Hybrid(HybridPolicy::EveryNth(2))),
                        };
                        let config = if per_slot == 1 {
                            config.per_slot()
                        } else {
                            config
                        };
                        (w, config, stride)
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The live rings less their stale hints — the entries the
            /// firing paths' column checks skip — hold exactly what the
            /// columns determine, computed here from the columns alone:
            /// each present task at its `next_release`, each task at
            /// every [`Parked`] slot.
            #[test]
            fn rings_rebuilt_from_the_rows_are_the_live_ones((w, config, stride) in arb_plan()) {
                let horizon = config.horizon;
                let mut e = Engine::new(config, &w);
                while e.now < horizon {
                    e.run_to(e.now + stride);
                    let tasks = &e.tasks;
                    let mut expected = [Vec::new(), Vec::new()];
                    for id in (0u32..).map(TaskId).take(tasks.len()) {
                        let release = tasks.next_release(id).filter(|_| tasks.in_system(id));
                        let Parked { pending, leaving } = *tasks.parked(id);
                        expected[0].extend(release.map(|at| (at, id)));
                        expected[1].extend(pending.map(|p| (p.at, id)));
                        expected[1].extend(ever(leaving).map(|at| (at, id)));
                    }
                    for hints in &mut expected {
                        hints.sort_unstable_by_key(|&(slot, id)| (slot, id.0));
                        hints.dedup();
                    }
                    prop_assert_eq!(tasks.live_hints(), expected, "rings at {}", e.now);
                    prop_assert!(e.snapshot().is_ok_and(|s| s.validate().is_ok()));
                }
            }

            /// The loader on states a jump never reaches — parked
            /// changes, IS suspensions, pending departures, stale queue
            /// entries: at every stride an engine loads its own
            /// snapshot, and the rest of its run equals an untouched
            /// twin's — result, counters, metrics registry and final
            /// snapshot.
            #[test]
            fn loading_its_own_image_changes_nothing((w, config, stride) in arb_plan()) {
                let horizon = config.horizon;
                let mut loaded = Engine::with_probe(config.clone(), &w, MetricsProbe::new());
                let mut twin = Engine::with_probe(config, &w, MetricsProbe::new());
                while loaded.now < horizon {
                    let image = loaded.snapshot().expect("no history request");
                    prop_assert!(loaded.load(&image).is_ok());
                    loaded.run_to(loaded.now + stride);
                    twin.run_to(twin.now + stride);
                }
                prop_assert_eq!(loaded.counters(), twin.counters());
                let image = |e: &Engine<MetricsProbe>| e.snapshot().map(|s| s.to_json_compact());
                prop_assert_eq!(image(&loaded), image(&twin));
                let (loaded, loaded_metrics) = loaded.finish_with_probe();
                let (twin, twin_metrics) = twin.finish_with_probe();
                prop_assert_eq!(loaded.to_json_compact(), twin.to_json_compact());
                prop_assert_eq!(
                    loaded_metrics.registry().snapshot_text(),
                    twin_metrics.registry().snapshot_text()
                );
            }
        }
    }

    /// A tampered snapshot (event cursor out of range) decodes to Err.
    #[test]
    fn corrupted_cursor_is_rejected() {
        let mut engine = Engine::new(SimConfig::oi(2, 40), &busy_workload());
        let snap = engine.snapshot_at(5).expect("snapshot");
        let json = snap.to_json_pretty();
        let cursor = format!("\"next_event\": {}", snap.next_event);
        let tampered = json.replace(&cursor, "\"next_event\": 99");
        assert_ne!(json, tampered, "cursor field not found in the encoding");
        let parsed = Json::parse(&tampered).expect("still valid JSON");
        assert!(EngineSnapshot::from_json(&parsed).is_err());
    }
}
