//! [`ObsEvent`]: the one observation vocabulary.
//!
//! Every per-entity fact the engine or executor reports — a release, a
//! schedule, a halt, a stale queue entry, a reweight initiation or
//! enactment, a tracker jump, a miss, a drift sample — and the
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
use pfair_json::{obj, Json, ToJson};

/// One typed engine/executor event, in emission order.
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
    /// Closed-form tracker jump (event-driven bookkeeping; never in
    /// history mode, where the trackers advance slot by slot).
    TrackerAdvance {
        /// Task whose trackers jumped.
        task: TaskId,
        /// Jump start boundary.
        from: Slot,
        /// Jump end boundary.
        to: Slot,
    },
    /// Executor tick overran its quantum budget.
    ExecOverrun {
        /// Task that overran.
        task: TaskId,
        /// Slot of the overrun.
        t: Slot,
    },
    /// Executor quantum lost to a still-running previous tick.
    ExecSkip {
        /// Task that lost the quantum.
        task: TaskId,
        /// Slot of the skip.
        t: Slot,
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

pub(crate) fn slot_json(t: Slot) -> Json {
    Json::Int(i128::from(t))
}

pub(crate) fn u64_json(v: u64) -> Json {
    Json::Int(i128::from(v))
}

impl ToJson for ObsEvent {
    fn to_json(&self) -> Json {
        match self {
            ObsEvent::Release {
                task,
                index,
                t,
                deadline,
                era_first,
            } => obj([
                ("kind", Json::Str("release".into())),
                ("task", task.to_json()),
                ("index", u64_json(*index)),
                ("t", slot_json(*t)),
                ("deadline", slot_json(*deadline)),
                ("era_first", Json::Bool(*era_first)),
            ]),
            ObsEvent::Schedule { task, index, t } => obj([
                ("kind", Json::Str("schedule".into())),
                ("task", task.to_json()),
                ("index", u64_json(*index)),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::Preempt { task, t } => obj([
                ("kind", Json::Str("preempt".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::Halt { task, index, t } => obj([
                ("kind", Json::Str("halt".into())),
                ("task", task.to_json()),
                ("index", u64_json(*index)),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::StalePop { task, index, t } => obj([
                ("kind", Json::Str("stale_pop".into())),
                ("task", task.to_json()),
                ("index", u64_json(*index)),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::StaleDrop { task, index, t } => obj([
                ("kind", Json::Str("stale_drop".into())),
                ("task", task.to_json()),
                ("index", u64_json(*index)),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::ReweightInitiated {
                task,
                t,
                rule,
                cost,
                enact_at,
            } => obj([
                ("kind", Json::Str("reweight_initiated".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
                ("rule", Json::Str(rule.label().into())),
                ("queue_ops", u64_json(cost.queue_ops)),
                ("halts", u64_json(cost.halts)),
                ("enact_at", slot_json(*enact_at)),
            ]),
            ObsEvent::Refused { task, t, reason } => obj([
                ("kind", Json::Str("refused".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
                ("reason", Json::Str(reason.label().into())),
            ]),
            ObsEvent::ReweightEnacted {
                task,
                t,
                initiated_at,
            } => obj([
                ("kind", Json::Str("reweight_enacted".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
                ("initiated_at", slot_json(*initiated_at)),
            ]),
            ObsEvent::TrackerAdvance { task, from, to } => obj([
                ("kind", Json::Str("tracker_advance".into())),
                ("task", task.to_json()),
                ("from", slot_json(*from)),
                ("to", slot_json(*to)),
            ]),
            ObsEvent::ExecOverrun { task, t } => obj([
                ("kind", Json::Str("exec_overrun".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::ExecSkip { task, t } => obj([
                ("kind", Json::Str("exec_skip".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
            ]),
            ObsEvent::QuietSpan { from, to, holes } => obj([
                ("kind", Json::Str("quiet_span".into())),
                ("from", slot_json(*from)),
                ("to", slot_json(*to)),
                ("holes", u64_json(*holes)),
            ]),
            ObsEvent::SpanArmed { t0 } => obj([
                ("kind", Json::Str("span_armed".into())),
                ("t0", slot_json(*t0)),
            ]),
            ObsEvent::BusySpanJump {
                t0,
                t1,
                periods,
                period,
                releases,
                schedules,
                queue_ops,
            } => obj([
                ("kind", Json::Str("busy_span_jump".into())),
                ("t0", slot_json(*t0)),
                ("t1", slot_json(*t1)),
                ("periods", u64_json(*periods)),
                ("period", slot_json(*period)),
                ("releases", u64_json(*releases)),
                ("schedules", u64_json(*schedules)),
                ("queue_ops", u64_json(*queue_ops)),
            ]),
            ObsEvent::Miss {
                task,
                index,
                t,
                deadline,
            } => obj([
                ("kind", Json::Str("miss".into())),
                ("task", task.to_json()),
                ("index", u64_json(*index)),
                ("t", slot_json(*t)),
                ("deadline", slot_json(*deadline)),
            ]),
            ObsEvent::DriftSample { task, t, drift } => obj([
                ("kind", Json::Str("drift_sample".into())),
                ("task", task.to_json()),
                ("t", slot_json(*t)),
                ("drift", drift.to_json()),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::TraceRecorder;
    use crate::flight::FlightRecorder;
    use crate::probe::{Fanout, Probe};

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
            ObsEvent::TrackerAdvance {
                task: TaskId(0),
                from: 3,
                to: 8,
            },
            ObsEvent::ExecOverrun {
                task: TaskId(2),
                t: 5,
            },
            ObsEvent::ExecSkip {
                task: TaskId(2),
                t: 6,
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

    /// The export parses back to the tree it printed, and every variant
    /// has a `kind` of its own.
    #[test]
    fn obs_events_export_one_kind_per_variant() {
        let sample = sample_events();
        let mut kinds = Vec::new();
        for ev in &sample {
            let json = ev.to_json();
            assert_eq!(Json::parse(&json.to_string_pretty()).unwrap(), json);
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
