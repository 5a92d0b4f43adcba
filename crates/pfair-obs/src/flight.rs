//! Flight recorder: a bounded ring of the most recent structured
//! events, frozen into an *incident* when something goes wrong.
//!
//! A [`FlightRecorder`] is a [`Probe`] that keeps the last `N` typed
//! [`ObsEvent`]s (a quiet span is one event, a busy span its arming
//! and its jump, so horizon-scale runs cost ring entries per span, not
//! per slot). When a deadline miss is observed, the current ring
//! contents are copied into a [`FlightIncident`] — the black-box
//! snapshot of what led up to the failure — and recording continues.
//! The whole state dumps to `pfair-json` (the recorder's [`ToJson`]
//! rendering), which `pfair trace --flight` writes to disk; an explicit
//! dump needs no incident at all.
//!
//! Everything is integer-exact and deterministic: the ring is a
//! fixed-capacity `VecDeque` (256 events), incidents are capped (at 8),
//! and overflow is counted (`dropped` events, `suppressed` incidents)
//! rather than silently discarded. Drift against a budget is
//! `SloMonitor`'s check, not a trigger here.

use crate::event::ObsEvent;
use crate::probe::Probe;
use pfair_core::time::Slot;
use pfair_json::{JsonWriter, ToJson};
use std::collections::VecDeque;

/// What froze the ring into a [`FlightIncident`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightTrigger {
    /// A subtask missed its deadline.
    DeadlineMiss,
    /// An explicit capture request ([`FlightRecorder::capture_now`]).
    Request,
}

impl FlightTrigger {
    /// Canonical label (`"deadline_miss"`, `"request"`).
    pub fn label(self) -> &'static str {
        match self {
            FlightTrigger::DeadlineMiss => "deadline_miss",
            FlightTrigger::Request => "request",
        }
    }
}

/// Ring capacity: how many recent events are retained.
const CAPACITY: usize = 256;

/// Maximum incidents retained; further triggers are counted as
/// suppressed instead of allocating without bound.
const MAX_INCIDENTS: usize = 8;

/// A frozen copy of the ring at trigger time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightIncident {
    /// What triggered the capture.
    pub trigger: FlightTrigger,
    /// Slot the trigger was observed at.
    pub t: Slot,
    /// Ring contents at capture, oldest first (the triggering event
    /// itself is the last entry).
    pub events: Vec<ObsEvent>,
}

impl ToJson for FlightIncident {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("trigger", self.trigger.label())
            .field("t", &self.t)
            .field("events", &self.events);
        w.end_object();
    }
}

/// The flight-recorder probe. See the module docs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: VecDeque<ObsEvent>,
    incidents: Vec<FlightIncident>,
    /// Events evicted from the ring since the start of the run.
    dropped: u64,
    /// Triggers ignored because `MAX_INCIDENTS` was reached.
    suppressed: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(CAPACITY),
            incidents: Vec::new(),
            dropped: 0,
            suppressed: 0,
        }
    }
}

impl FlightRecorder {
    /// An empty recorder (256-event ring, at most 8 incidents).
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Current ring contents, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// Captured incidents, in trigger order.
    pub fn incidents(&self) -> &[FlightIncident] {
        &self.incidents
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Triggers suppressed after `MAX_INCIDENTS` was reached.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Explicitly freezes the current ring into an incident (trigger
    /// [`FlightTrigger::Request`]) at slot `t`.
    pub fn capture_now(&mut self, t: Slot) {
        self.capture(FlightTrigger::Request, t);
    }

    fn push(&mut self, ev: ObsEvent) {
        while self.ring.len() >= CAPACITY {
            self.ring.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.ring.push_back(ev);
    }

    fn capture(&mut self, trigger: FlightTrigger, t: Slot) {
        if self.incidents.len() >= MAX_INCIDENTS {
            self.suppressed = self.suppressed.saturating_add(1);
            return;
        }
        self.incidents.push(FlightIncident {
            trigger,
            t,
            events: self.ring.iter().copied().collect(),
        });
    }
}

/// The dump: the ring capacity, the live ring and every captured
/// incident.
impl ToJson for FlightRecorder {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("capacity", &CAPACITY)
            .field("dropped", &self.dropped)
            .field("suppressed", &self.suppressed)
            .key("events");
        w.begin_array();
        for ev in &self.ring {
            ev.write_json(w);
        }
        w.end_array();
        w.field("incidents", &self.incidents);
        w.end_object();
    }
}

impl Probe for FlightRecorder {
    fn on_event(&mut self, ev: ObsEvent) {
        self.push(ev);
        if let ObsEvent::Miss { t, .. } = ev {
            self.capture(FlightTrigger::DeadlineMiss, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;
    use pfair_core::task::TaskId;
    use pfair_json::Json;

    fn schedule(t: Slot) -> ObsEvent {
        ObsEvent::Schedule {
            task: TaskId(0),
            index: 1,
            t,
        }
    }

    fn miss(t: Slot) -> ObsEvent {
        ObsEvent::Miss {
            task: TaskId(0),
            index: 2,
            t,
            deadline: t,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut fr = FlightRecorder::new();
        let total = Slot::try_from(CAPACITY).unwrap() + 6;
        for t in 0..total {
            fr.on_event(schedule(t));
        }
        assert_eq!(fr.recent().count(), CAPACITY);
        assert_eq!(fr.dropped(), 6);
        // Oldest entries were evicted: the ring starts at t = 6.
        assert_eq!(fr.recent().next(), Some(&schedule(6)));
    }

    #[test]
    fn miss_freezes_the_ring_into_an_incident() {
        let mut fr = FlightRecorder::new();
        fr.on_event(schedule(10));
        fr.on_event(ObsEvent::Preempt {
            task: TaskId(0),
            t: 11,
        });
        fr.on_event(miss(12));
        assert_eq!(fr.incidents().len(), 1);
        let inc = &fr.incidents()[0];
        assert_eq!(inc.trigger, FlightTrigger::DeadlineMiss);
        assert_eq!(inc.t, 12);
        // The incident holds the lead-up *including* the miss itself.
        assert_eq!(inc.events.len(), 3);
        assert!(matches!(inc.events[2], ObsEvent::Miss { .. }));
    }

    #[test]
    fn only_misses_trigger_and_incidents_are_capped() {
        let mut fr = FlightRecorder::new();
        fr.on_event(ObsEvent::DriftSample {
            task: TaskId(0),
            t: 5,
            drift: rat(-5, 2),
        });
        assert!(fr.incidents().is_empty());
        let misses = Slot::try_from(MAX_INCIDENTS).unwrap() + 1;
        for t in 6..6 + misses {
            fr.on_event(miss(t));
        }
        assert_eq!(fr.incidents().len(), MAX_INCIDENTS);
        assert_eq!(fr.suppressed(), 1);
    }

    #[test]
    fn spans_cost_one_entry_and_dump_has_expected_shape() {
        let mut fr = FlightRecorder::new();
        fr.on_event(ObsEvent::QuietSpan {
            from: 0,
            to: 100_000,
            holes: 400_000,
        });
        fr.on_event(ObsEvent::BusySpanJump {
            t0: 100_000,
            t1: 100_012,
            periods: 5000,
            period: 12,
            releases: 0,
            schedules: 0,
            queue_ops: 0,
        });
        fr.capture_now(160_012);
        assert_eq!(fr.recent().count(), 2);

        let parsed = Json::parse(&fr.to_json_pretty()).expect("dump parses");
        assert_eq!(parsed.get("dropped").and_then(Json::as_int), Some(0));
        let Some(Json::Array(events)) = parsed.get("events") else {
            panic!("events missing");
        };
        assert_eq!(events.len(), 2);
        let Some(Json::Array(incidents)) = parsed.get("incidents") else {
            panic!("incidents missing");
        };
        assert_eq!(incidents.len(), 1);
        assert_eq!(
            incidents[0].get("trigger").and_then(|j| match j {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("request")
        );
    }
}
