//! Workload events: joins, leaves, and reweighting requests.
//!
//! A simulation consumes a time-ordered stream of events. Reweighting
//! requests carry the weight the task *wants*; the admission policy
//! (condition (W) policing, see [`crate::admission`]) may grant less.
//!
//! The stream exists once: a [`Workload`] puts its events in time order
//! the first time a consumer asks ([`Workload::stream`]), and from then
//! on the workload and every engine, shard supervisor and snapshot
//! built from it hold the same immutable buffer, each consumer with a
//! cursor of its own.

use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What happens to a task at an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The task joins the system with the given weight (its first
    /// "enacted weight change"). Subject to the join condition J.
    Join(Weight),
    /// The task asks to leave; the leave condition L may delay removal.
    Leave,
    /// The task *initiates* a weight change to the given weight at the
    /// event time; the reweighting rules decide when it is *enacted*.
    Reweight(Weight),
    /// Intra-sporadic separation: the task's next subtask release is
    /// postponed by the given number of slots (an increase of the IS
    /// offset θ). The instantaneous ideal owes the task nothing while it
    /// is between active subtasks.
    Delay(u32),
}

/// A timed event affecting one task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The slot boundary at which the event occurs.
    pub at: Slot,
    /// The affected task.
    pub task: TaskId,
    /// What happens.
    pub kind: EventKind,
}

impl pfair_json::ToJson for EventKind {
    fn to_json(&self) -> pfair_json::Json {
        match self {
            EventKind::Join(w) => pfair_json::obj([
                ("kind", "join".to_string().to_json()),
                ("weight", w.to_json()),
            ]),
            EventKind::Leave => pfair_json::obj([("kind", "leave".to_string().to_json())]),
            EventKind::Reweight(w) => pfair_json::obj([
                ("kind", "reweight".to_string().to_json()),
                ("weight", w.to_json()),
            ]),
            EventKind::Delay(by) => pfair_json::obj([
                ("kind", "delay".to_string().to_json()),
                ("by", by.to_json()),
            ]),
        }
    }
}

impl pfair_json::FromJson for EventKind {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let kind: String = value.field("kind")?;
        match kind.as_str() {
            "join" => Ok(EventKind::Join(value.field("weight")?)),
            "leave" => Ok(EventKind::Leave),
            "reweight" => Ok(EventKind::Reweight(value.field("weight")?)),
            "delay" => Ok(EventKind::Delay(value.field("by")?)),
            other => Err(pfair_json::JsonError::new(format!(
                "unknown event kind `{other}`"
            ))),
        }
    }
}

impl pfair_json::ToJson for Event {
    fn to_json(&self) -> pfair_json::Json {
        pfair_json::obj([
            ("at", self.at.to_json()),
            ("task", self.task.to_json()),
            ("event", self.kind.to_json()),
        ])
    }
}

impl pfair_json::FromJson for Event {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        Ok(Event {
            at: value.field("at")?,
            task: value.field("task")?,
            kind: value.field("event")?,
        })
    }
}

/// A workload's events, in the one buffer that holds them: `open`
/// while the workload is being built, `stream` once a consumer has
/// asked for them in time order. Going back and forth loses nothing a
/// stable sort by time can see — it keeps same-slot events in insertion
/// order, and whatever is pushed later goes behind them.
#[derive(Clone, Debug, Default)]
struct Events {
    /// In insertion order; empty while `stream` is set.
    open: Vec<Event>,
    /// In time order, shared with every consumer so far.
    stream: Option<Arc<Vec<Event>>>,
}

impl Events {
    /// Takes the buffer back from `stream` — or a copy of it, if a
    /// consumer still holds the stream (and keeps it as it was).
    #[cold]
    fn reopen(&mut self) {
        if let Some(stream) = self.stream.take() {
            self.open = Arc::try_unwrap(stream).unwrap_or_else(|held| held.to_vec());
        }
    }
}

/// A complete workload: a set of tasks identified by dense ids `0..n`,
/// plus the events that drive them.
#[derive(Debug, Default)]
pub struct Workload {
    /// Behind a lock only so that [`Workload::stream`] can move the
    /// buffer out through `&self`; `push` owns the workload and goes
    /// around it. The lock is never held across code that can unwind
    /// (moves, a sort of `Copy` records by an integer key), so a
    /// poisoned one still guards valid data and is simply entered.
    events: Mutex<Events>,
    max_task: u32,
}

impl Clone for Workload {
    /// Shares the stream, if there is one, until either side is pushed
    /// to.
    fn clone(&self) -> Workload {
        Workload {
            events: Mutex::new(self.lock().clone()),
            max_task: self.max_task,
        }
    }
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Workload {
        Workload::default()
    }

    fn lock(&self) -> MutexGuard<'_, Events> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds an event (any order; events are sorted on build).
    pub fn push(&mut self, event: Event) -> &mut Self {
        self.max_task = self.max_task.max(event.task.0 + 1);
        let events = self
            .events
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        // While no stream is out — every push of a generator — one load.
        if events.stream.is_some() {
            events.reopen();
        }
        events.open.push(event);
        self
    }

    /// Convenience: task `task` joins at `at` with weight `num/den`.
    pub fn join(&mut self, task: u32, at: Slot, num: i128, den: i128) -> &mut Self {
        self.push(Event {
            at,
            task: TaskId(task),
            kind: EventKind::Join(Weight::new(Rational::new(num, den))),
        })
    }

    /// Convenience: task `task` initiates a change to `num/den` at `at`.
    pub fn reweight(&mut self, task: u32, at: Slot, num: i128, den: i128) -> &mut Self {
        self.push(Event {
            at,
            task: TaskId(task),
            kind: EventKind::Reweight(Weight::new(Rational::new(num, den))),
        })
    }

    /// Convenience: task `task` asks to leave at `at`.
    pub fn leave(&mut self, task: u32, at: Slot) -> &mut Self {
        self.push(Event {
            at,
            task: TaskId(task),
            kind: EventKind::Leave,
        })
    }

    /// Convenience: postpone `task`'s next release by `by` slots at `at`.
    pub fn delay(&mut self, task: u32, at: Slot, by: u32) -> &mut Self {
        self.push(Event {
            at,
            task: TaskId(task),
            kind: EventKind::Delay(by),
        })
    }

    /// Number of distinct task ids referenced (ids must be dense from 0).
    pub fn task_count(&self) -> u32 {
        self.max_task
    }

    /// The events sorted by time (stable: same-slot events keep insertion
    /// order, so a workload can, e.g., make one task leave before another
    /// joins within a slot), as one immutable buffer shared by everyone
    /// who asks. It is the buffer the events were pushed into: nothing is
    /// copied, and only input that did not arrive in time order is sorted,
    /// in place and once.
    pub fn stream(&self) -> Arc<Vec<Event>> {
        let mut events = self.lock();
        let Events { open, stream } = &mut *events;
        let stream = stream.get_or_insert_with(|| {
            let mut events = std::mem::take(open);
            if !events.is_sorted_by_key(|e| e.at) {
                events.sort_by_key(|e| e.at);
            }
            Arc::new(events)
        });
        Arc::clone(stream)
    }

    /// [`Workload::stream`] as a vector of the caller's own.
    pub fn sorted_events(&self) -> Vec<Event> {
        self.stream().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn builder_and_sorting() {
        let mut w = Workload::new();
        w.reweight(0, 10, 1, 2).join(0, 0, 3, 20).join(1, 5, 1, 4);
        let evs = w.sorted_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at, 0);
        assert_eq!(evs[0].kind, EventKind::Join(Weight::new(rat(3, 20))));
        assert_eq!(evs[1].at, 5);
        assert_eq!(evs[2].at, 10);
        assert_eq!(w.task_count(), 2);
    }

    #[test]
    fn same_slot_events_keep_insertion_order() {
        let mut w = Workload::new();
        w.leave(0, 6).join(1, 6, 1, 14);
        let evs = w.sorted_events();
        assert_eq!(evs[0].kind, EventKind::Leave);
        assert!(matches!(evs[1].kind, EventKind::Join(_)));
    }

    /// A push after the stream was built is in the next one, behind the
    /// earlier events of its slot; whoever holds the old stream keeps it.
    #[test]
    fn push_after_stream_lands_in_the_next_one() {
        let mut w = Workload::new();
        w.join(0, 4, 1, 2).leave(0, 6).join(1, 2, 1, 3);
        let first = w.stream();
        assert!(Arc::ptr_eq(&first, &w.stream()), "built once, shared");
        w.delay(1, 4, 3).reweight(1, 6, 1, 4);
        let second = w.sorted_events();
        assert_eq!(first.len(), 3);
        assert_eq!(
            second.iter().map(|e| e.at).collect::<Vec<_>>(),
            [2, 4, 4, 6, 6]
        );
        assert!(matches!(second[1].kind, EventKind::Join(_)));
        assert_eq!(second[2].kind, EventKind::Delay(3));
        assert_eq!(second[3].kind, EventKind::Leave);
        assert!(matches!(second[4].kind, EventKind::Reweight(_)));
    }

    /// A clone shares the stream until it is pushed to, and pushing to
    /// it leaves the original's events and stream alone.
    #[test]
    fn pushing_to_a_clone_leaves_the_original_alone() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2).join(1, 5, 1, 3);
        let stream = w.stream();
        let mut copy = w.clone();
        assert!(Arc::ptr_eq(&stream, &copy.stream()));
        copy.join(2, 3, 1, 4);
        assert_eq!(copy.sorted_events().len(), 3);
        assert_eq!(copy.task_count(), 3);
        assert!(Arc::ptr_eq(&stream, &w.stream()));
        assert_eq!(w.sorted_events().len(), 2);
        assert_eq!(w.task_count(), 2);
    }

    /// Input that arrives in time order — ties included — is handed out
    /// as it stands, in the buffer it was pushed into; one event ahead
    /// of its predecessor and that buffer is sorted first.
    #[test]
    fn ordered_input_skips_the_sort() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2).join(1, 0, 1, 3).reweight(0, 7, 1, 4);
        let pushed = w.lock().open.clone();
        let buffer = w.lock().open.as_ptr();
        assert!(pushed.is_sorted_by_key(|e| e.at));
        let stream = w.stream();
        assert_eq!(*stream, pushed);
        assert_eq!(stream.as_ptr(), buffer, "no copy");
        drop(stream);
        w.leave(1, 3);
        assert_eq!(w.lock().open.as_ptr(), buffer, "unshared, it comes back");
        assert!(!w.lock().open.is_sorted_by_key(|e| e.at));
        let at: Vec<Slot> = w.stream().iter().map(|e| e.at).collect();
        assert_eq!(at, [0, 0, 3, 7]);
    }
}
