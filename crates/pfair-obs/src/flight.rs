//! Flight recorder: a bounded ring of the most recent structured
//! events, frozen into an *incident* when something goes wrong.
//!
//! A [`FlightRecorder`] is a [`Probe`] that keeps the last `N` typed
//! [`ObsEvent`]s (a quiet span is one event, a busy span its arming
//! and its jump, so horizon-scale runs cost ring entries per span, not
//! per slot). When a deadline
//! miss or a drift-budget breach is observed, the current ring contents
//! are copied into a [`FlightIncident`] — the black-box snapshot of
//! what led up to the failure — and recording continues. The whole
//! state dumps to `pfair-json` ([`FlightRecorder::dump`]), which
//! `pfair trace --flight` writes to disk; an explicit dump needs no
//! incident at all.
//!
//! Everything is integer-exact and deterministic: the ring is a
//! fixed-capacity `VecDeque`, incidents are capped, and overflow is
//! counted (`dropped` events, `suppressed` incidents) rather than
//! silently discarded.

use crate::event::ObsEvent;
use crate::probe::Probe;
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use pfair_json::{obj, Json, ToJson};
use std::collections::VecDeque;

/// What froze the ring into a [`FlightIncident`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightTrigger {
    /// A subtask missed its deadline.
    DeadlineMiss,
    /// An Eqn (5) drift sample exceeded the configured budget.
    DriftBreach,
    /// An explicit capture request ([`FlightRecorder::capture_now`]).
    Request,
}

impl FlightTrigger {
    /// Canonical label (`"deadline_miss"`, `"drift_breach"`,
    /// `"request"`).
    pub fn label(self) -> &'static str {
        match self {
            FlightTrigger::DeadlineMiss => "deadline_miss",
            FlightTrigger::DriftBreach => "drift_breach",
            FlightTrigger::Request => "request",
        }
    }
}

/// Flight-recorder configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlightConfig {
    /// Ring capacity: how many recent events are retained.
    pub capacity: usize,
    /// Drift budget: a sample with `|drift| > budget` freezes the
    /// ring. `None` disables drift triggering.
    pub drift_budget: Option<Rational>,
    /// Maximum incidents retained; further triggers are counted as
    /// suppressed instead of allocating without bound.
    pub max_incidents: usize,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 256,
            drift_budget: None,
            max_incidents: 8,
        }
    }
}

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
    fn to_json(&self) -> Json {
        obj([
            ("trigger", Json::Str(self.trigger.label().into())),
            ("t", Json::Int(i128::from(self.t))),
            (
                "events",
                Json::Array(self.events.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// The flight-recorder probe. See the module docs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    ring: VecDeque<ObsEvent>,
    incidents: Vec<FlightIncident>,
    /// Events evicted from the ring since the start of the run.
    dropped: u64,
    /// Triggers ignored because `max_incidents` was reached.
    suppressed: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_config(FlightConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the default configuration (256-event ring, no
    /// drift budget, 8 incidents).
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A recorder with an explicit configuration (capacity is clamped
    /// to at least 1).
    pub fn with_config(cfg: FlightConfig) -> FlightRecorder {
        let capacity = cfg.capacity.max(1);
        FlightRecorder {
            cfg: FlightConfig { capacity, ..cfg },
            ring: VecDeque::with_capacity(capacity),
            incidents: Vec::new(),
            dropped: 0,
            suppressed: 0,
        }
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

    /// Triggers suppressed after `max_incidents` was reached.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Explicitly freezes the current ring into an incident (trigger
    /// [`FlightTrigger::Request`]) at slot `t`.
    pub fn capture_now(&mut self, t: Slot) {
        self.capture(FlightTrigger::Request, t);
    }

    /// The full recorder state as JSON: configuration echoes, the
    /// live ring, and every captured incident.
    pub fn dump(&self) -> Json {
        obj([
            (
                "capacity",
                Json::Int(i128::try_from(self.cfg.capacity).unwrap_or(i128::MAX)),
            ),
            ("dropped", Json::Int(i128::from(self.dropped))),
            ("suppressed", Json::Int(i128::from(self.suppressed))),
            ("drift_budget", self.cfg.drift_budget.to_json()),
            (
                "events",
                Json::Array(self.ring.iter().map(ToJson::to_json).collect()),
            ),
            (
                "incidents",
                Json::Array(self.incidents.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    fn push(&mut self, ev: ObsEvent) {
        while self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.ring.push_back(ev);
    }

    fn capture(&mut self, trigger: FlightTrigger, t: Slot) {
        if self.incidents.len() >= self.cfg.max_incidents {
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

impl Probe for FlightRecorder {
    fn on_event(&mut self, ev: ObsEvent) {
        self.push(ev);
        match ev {
            ObsEvent::Miss { t, .. } => self.capture(FlightTrigger::DeadlineMiss, t),
            ObsEvent::DriftSample { t, drift, .. }
                if self.cfg.drift_budget.is_some_and(|b| drift.abs() > b) =>
            {
                self.capture(FlightTrigger::DriftBreach, t);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;
    use pfair_core::task::TaskId;

    fn schedule(t: Slot) -> ObsEvent {
        ObsEvent::Schedule {
            task: TaskId(0),
            index: 1,
            t,
        }
    }

    fn drift_sample(t: Slot, drift: Rational) -> ObsEvent {
        ObsEvent::DriftSample {
            task: TaskId(0),
            t,
            drift,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut fr = FlightRecorder::with_config(FlightConfig {
            capacity: 4,
            ..FlightConfig::default()
        });
        for t in 0..10 {
            fr.on_event(schedule(t));
        }
        assert_eq!(fr.recent().count(), 4);
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
        fr.on_event(ObsEvent::Miss {
            task: TaskId(0),
            index: 2,
            t: 12,
            deadline: 12,
        });
        assert_eq!(fr.incidents().len(), 1);
        let inc = &fr.incidents()[0];
        assert_eq!(inc.trigger, FlightTrigger::DeadlineMiss);
        assert_eq!(inc.t, 12);
        // The incident holds the lead-up *including* the miss itself.
        assert_eq!(inc.events.len(), 3);
        assert!(matches!(inc.events[2], ObsEvent::Miss { .. }));
    }

    #[test]
    fn drift_budget_triggers_and_incidents_are_capped() {
        let mut fr = FlightRecorder::with_config(FlightConfig {
            drift_budget: Some(rat(1, 2)),
            max_incidents: 2,
            ..FlightConfig::default()
        });
        fr.on_event(drift_sample(5, rat(1, 4))); // within budget
        assert!(fr.incidents().is_empty());
        for t in [6, 7, 8] {
            fr.on_event(drift_sample(t, rat(-2, 3))); // |.| > 1/2
        }
        assert_eq!(fr.incidents().len(), 2);
        assert_eq!(fr.suppressed(), 1);
        assert_eq!(fr.incidents()[0].trigger, FlightTrigger::DriftBreach);
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

        let dump = fr.dump();
        let text = dump.to_string_pretty();
        let parsed = pfair_json::Json::parse(&text).expect("dump parses");
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
