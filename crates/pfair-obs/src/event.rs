//! [`ObsEvent`]: the one observation vocabulary.
//!
//! Every per-entity fact the engine reports — a release, a schedule,
//! a halt, a stale queue entry, a reweight initiation or
//! enactment, a scheduling weight taking effect, a departure, a tracker
//! jump, a miss, a drift sample — and the
//! closed-form spans (a quiet span; a busy span's arming and its jump)
//! are variants of this one enum, handed to
//! [`Probe::on_event`](crate::probe::Probe::on_event) by value. A new
//! kind of observation is a new variant here plus an arm in whichever
//! probe reads it; the JSON export below is the only exhaustive match
//! over it besides the Chrome export.

use crate::probe::{Refusal, ReweightCost, Rule};
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_json::{JsonWriter, ToJson};

/// One typed engine event, in emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// Subtask release (`era_first` marks an era-opening release).
    Release {
        /// Task released.
        task: TaskId,
        /// Subtask index.
        index: u64,
        /// Release slot.
        t: Slot,
        /// Subtask deadline.
        deadline: Slot,
        /// Whether this release opens an era.
        era_first: bool,
    },
    /// Subtask scheduled in a slot.
    Schedule {
        /// Task scheduled.
        task: TaskId,
        /// Subtask index.
        index: u64,
        /// Slot it ran in.
        t: Slot,
    },
    /// Task ran in the previous slot but lost its processor.
    Preempt {
        /// Task preempted.
        task: TaskId,
        /// Slot of the preemption.
        t: Slot,
    },
    /// Subtask halted (rule O or a leave/LJ withdrawal).
    Halt {
        /// Task halted.
        task: TaskId,
        /// Subtask index.
        index: u64,
        /// Slot of the halt.
        t: Slot,
    },
    /// Stale queue entry discarded by a pop.
    StalePop {
        /// Owning task.
        task: TaskId,
        /// Subtask index.
        index: u64,
        /// Slot of the pop.
        t: Slot,
    },
    /// Stale queue entry dropped by a compaction sweep.
    StaleDrop {
        /// Owning task.
        task: TaskId,
        /// Subtask index.
        index: u64,
        /// Slot of the sweep.
        t: Slot,
    },
    /// Reweighting initiation, with rule and direct cost. A change that
    /// fired on the spot has `enact_at == t` and its
    /// [`ObsEvent::ReweightEnacted`] follows at once.
    ReweightInitiated {
        /// Task reweighted.
        task: TaskId,
        /// Initiation slot.
        t: Slot,
        /// Rule that resolved it.
        rule: Rule,
        /// Direct cost measured while the rules ran.
        cost: ReweightCost,
        /// Projected enactment slot.
        enact_at: Slot,
    },
    /// A join or reweight initiation refused before admission wrote
    /// anything: the run goes on as if the request had not been made.
    Refused {
        /// Task whose request was refused.
        task: TaskId,
        /// Slot of the request.
        t: Slot,
        /// Why.
        reason: Refusal,
    },
    /// Reweighting enactment.
    ReweightEnacted {
        /// Task reweighted.
        task: TaskId,
        /// Enactment slot.
        t: Slot,
        /// Slot the event was initiated at.
        initiated_at: Slot,
    },
    /// A scheduling weight `swt(T, t)` took effect: at a join, with the
    /// weight admission granted (possibly clamped), and at every
    /// enactment. With [`ObsEvent::Depart`] and the release, schedule and
    /// halt events, this is all it takes to replay `I_SW` (Fig. 5).
    SwtSet {
        /// Task whose scheduling weight changed.
        task: TaskId,
        /// Slot from which it allocates at `swt`.
        t: Slot,
        /// The scheduling weight.
        swt: Rational,
    },
    /// The task left the system at `t` (rule L's time, which a leave
    /// may have had to wait for): it is allocated nothing from `t` on.
    Depart {
        /// Task that left.
        task: TaskId,
        /// Departure slot.
        t: Slot,
    },
    /// Closed-form tracker jump of the event-driven bookkeeping.
    TrackerAdvance {
        /// Task whose trackers jumped.
        task: TaskId,
        /// Jump start boundary.
        from: Slot,
        /// Jump end boundary.
        to: Slot,
    },
    /// A quiet span `[from, to)` skipped in closed form — one event
    /// for the whole span instead of O(width) slot starts.
    QuietSpan {
        /// First skipped slot.
        from: Slot,
        /// One past the last skipped slot.
        to: Slot,
        /// Idle processor-slots over the span.
        holes: u64,
    },
    /// The busy-span batcher armed a verification window at `t0`: the
    /// stream from here to the [`ObsEvent::BusySpanJump`] naming this
    /// `t0` is the one period that jump repeats. An arming whose
    /// verification fails has no jump — a later arming replaces it.
    SpanArmed {
        /// Arm slot (verification window start).
        t0: Slot,
    },
    /// A verified busy-span jump — one event summarizing `periods`
    /// closed-form repetitions of the verified period, instead of
    /// O(periods·period) per-slot events. The stream since the
    /// [`ObsEvent::SpanArmed`] at `t0` is the verified period `[t0,
    /// t1)`, and what each of the `periods` skipped ones would have
    /// emitted, shifted in time; a verified span holds no miss, halt,
    /// reweight or era opening.
    BusySpanJump {
        /// Arm slot (verification window start).
        t0: Slot,
        /// First jumped slot (end of the verified period).
        t1: Slot,
        /// Periods jumped in closed form.
        periods: u64,
        /// Period length in slots.
        period: Slot,
        /// Subtask releases per period.
        releases: u64,
        /// Scheduled quanta per period.
        schedules: u64,
        /// Queue pushes + pops per period.
        queue_ops: u64,
    },
    /// A deadline miss.
    Miss {
        /// Task that missed.
        task: TaskId,
        /// Subtask index.
        index: u64,
        /// Slot the miss was detected at.
        t: Slot,
        /// The missed deadline.
        deadline: Slot,
    },
    /// An Eqn (5) drift sample at an era-opening release.
    DriftSample {
        /// Task sampled.
        task: TaskId,
        /// Sample slot.
        t: Slot,
        /// Exact drift (`ps_total − icsw_total`).
        drift: Rational,
    },
}

// Events travel by value through every hook; keep them a cache line.
const _: () = assert!(std::mem::size_of::<ObsEvent>() <= 64);

impl ToJson for ObsEvent {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        match self {
            ObsEvent::Release {
                task,
                index,
                t,
                deadline,
                era_first,
            } => w
                .field("kind", "release")
                .field("task", task)
                .field("index", index)
                .field("t", t)
                .field("deadline", deadline)
                .field("era_first", era_first),
            ObsEvent::Schedule { task, index, t } => w
                .field("kind", "schedule")
                .field("task", task)
                .field("index", index)
                .field("t", t),
            ObsEvent::Preempt { task, t } => {
                w.field("kind", "preempt").field("task", task).field("t", t)
            }
            ObsEvent::Halt { task, index, t } => w
                .field("kind", "halt")
                .field("task", task)
                .field("index", index)
                .field("t", t),
            ObsEvent::StalePop { task, index, t } => w
                .field("kind", "stale_pop")
                .field("task", task)
                .field("index", index)
                .field("t", t),
            ObsEvent::StaleDrop { task, index, t } => w
                .field("kind", "stale_drop")
                .field("task", task)
                .field("index", index)
                .field("t", t),
            ObsEvent::ReweightInitiated {
                task,
                t,
                rule,
                cost,
                enact_at,
            } => w
                .field("kind", "reweight_initiated")
                .field("task", task)
                .field("t", t)
                .field("rule", rule.label())
                .field("queue_ops", &cost.queue_ops)
                .field("halts", &cost.halts)
                .field("enact_at", enact_at),
            ObsEvent::Refused { task, t, reason } => w
                .field("kind", "refused")
                .field("task", task)
                .field("t", t)
                .field("reason", reason.label()),
            ObsEvent::ReweightEnacted {
                task,
                t,
                initiated_at,
            } => w
                .field("kind", "reweight_enacted")
                .field("task", task)
                .field("t", t)
                .field("initiated_at", initiated_at),
            ObsEvent::SwtSet { task, t, swt } => w
                .field("kind", "swt_set")
                .field("task", task)
                .field("t", t)
                .field("swt", swt),
            ObsEvent::Depart { task, t } => {
                w.field("kind", "depart").field("task", task).field("t", t)
            }
            ObsEvent::TrackerAdvance { task, from, to } => w
                .field("kind", "tracker_advance")
                .field("task", task)
                .field("from", from)
                .field("to", to),
            ObsEvent::QuietSpan { from, to, holes } => w
                .field("kind", "quiet_span")
                .field("from", from)
                .field("to", to)
                .field("holes", holes),
            ObsEvent::SpanArmed { t0 } => w.field("kind", "span_armed").field("t0", t0),
            ObsEvent::BusySpanJump {
                t0,
                t1,
                periods,
                period,
                releases,
                schedules,
                queue_ops,
            } => w
                .field("kind", "busy_span_jump")
                .field("t0", t0)
                .field("t1", t1)
                .field("periods", periods)
                .field("period", period)
                .field("releases", releases)
                .field("schedules", schedules)
                .field("queue_ops", queue_ops),
            ObsEvent::Miss {
                task,
                index,
                t,
                deadline,
            } => w
                .field("kind", "miss")
                .field("task", task)
                .field("index", index)
                .field("t", t)
                .field("deadline", deadline),
            ObsEvent::DriftSample { task, t, drift } => w
                .field("kind", "drift_sample")
                .field("task", task)
                .field("t", t)
                .field("drift", drift),
        };
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::TraceRecorder;
    use crate::flight::FlightRecorder;
    use crate::probe::{Fanout, Probe};
    use pfair_json::Json;

    /// One event of every variant.
    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Release {
                task: TaskId(0),
                index: 1,
                t: 0,
                deadline: 4,
                era_first: true,
            },
            ObsEvent::Schedule {
                task: TaskId(0),
                index: 1,
                t: 0,
            },
            ObsEvent::Preempt {
                task: TaskId(1),
                t: 2,
            },
            ObsEvent::Halt {
                task: TaskId(0),
                index: 2,
                t: 3,
            },
            ObsEvent::StalePop {
                task: TaskId(0),
                index: 2,
                t: 4,
            },
            ObsEvent::StaleDrop {
                task: TaskId(1),
                index: 5,
                t: 4,
            },
            ObsEvent::ReweightInitiated {
                task: TaskId(0),
                t: 3,
                rule: Rule::O,
                cost: ReweightCost {
                    queue_ops: 2,
                    halts: 1,
                },
                enact_at: 8,
            },
            ObsEvent::Refused {
                task: TaskId(3),
                t: 4,
                reason: Refusal::UnitBudget,
            },
            ObsEvent::ReweightEnacted {
                task: TaskId(0),
                t: 8,
                initiated_at: 3,
            },
            ObsEvent::SwtSet {
                task: TaskId(0),
                t: 8,
                swt: pfair_core::rational::rat(2, 5),
            },
            ObsEvent::Depart {
                task: TaskId(1),
                t: 9,
            },
            ObsEvent::TrackerAdvance {
                task: TaskId(0),
                from: 3,
                to: 8,
            },
            ObsEvent::QuietSpan {
                from: 10,
                to: 40,
                holes: 60,
            },
            ObsEvent::SpanArmed { t0: 40 },
            ObsEvent::BusySpanJump {
                t0: 40,
                t1: 52,
                periods: 1000,
                period: 12,
                releases: 7,
                schedules: 24,
                queue_ops: 14,
            },
            ObsEvent::Miss {
                task: TaskId(1),
                index: 9,
                t: 13,
                deadline: 13,
            },
            ObsEvent::DriftSample {
                task: TaskId(0),
                t: 8,
                drift: pfair_core::rational::rat(-1, 3),
            },
        ]
    }

    /// The export parses, both layouts to the same tree, and every
    /// variant has a `kind` of its own.
    #[test]
    fn obs_events_export_one_kind_per_variant() {
        let sample = sample_events();
        let mut kinds = Vec::new();
        for ev in &sample {
            let json = Json::parse(&ev.to_json_pretty()).unwrap();
            assert_eq!(Json::parse(&ev.to_json_compact()).unwrap(), json);
            let Some(Json::Str(kind)) = json.get("kind") else {
                panic!("no kind on {ev:?}");
            };
            kinds.push(kind.clone());
        }
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), sample.len());
    }

    /// Both recorders take the whole vocabulary through the one hook
    /// and hold the same stream.
    #[test]
    fn both_recorders_hold_the_sample_stream() {
        let sample = sample_events();
        let mut both = Fanout(TraceRecorder::new(), FlightRecorder::new());
        for ev in &sample {
            both.on_event(*ev);
        }
        assert_eq!(both.0.events(), sample);
        assert!(both.1.recent().eq(sample.iter()));
    }
}
