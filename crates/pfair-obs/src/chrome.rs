//! Event recording and Chrome trace-event export.
//!
//! [`TraceRecorder`] is a [`Probe`] that keeps the full typed event
//! stream plus one [`ReweightSpan`] per reweighting event, attributing
//! both the *direct* cost reported at initiation and the *deferred*
//! cost that surfaces later (stale queue entries stranded by the
//! event's halts, the era-opening release push at enactment) back to
//! the owning span. [`TraceRecorder::chrome_trace`] renders the whole
//! thing as Chrome trace-event JSON — open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev> — with schedule
//! lanes on pid 1 (one tid per task), tracker jumps on pid 2, and
//! reweight spans stretching from initiation to enactment carrying
//! `rule` and per-event cost in their args.
//!
//! Everything is integer-exact: timestamps are slot numbers, durations
//! are slot counts, and the export goes through `pfair-json`, whose
//! only number type is `i128`.

use crate::event::{slot_json, u64_json, ObsEvent};
use crate::probe::{Probe, Rule};
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_json::{obj, Json, ToJson};
use std::collections::BTreeMap;

/// One reweighting event from initiation to enactment, with its
/// attributed cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReweightSpan {
    /// Task reweighted.
    pub task: TaskId,
    /// Rule that resolved the initiation.
    pub rule: Rule,
    /// Initiation slot.
    pub initiated_at: Slot,
    /// Enactment slot (`None` while pending or when superseded).
    pub enacted_at: Option<Slot>,
    /// Subtasks halted by this event.
    pub halts: u64,
    /// Queue operations attributed to this event: direct ops measured
    /// while the rules ran, plus deferred stale pops/drops of entries
    /// its halts stranded, plus the era-opening push at enactment.
    pub queue_ops: u64,
    /// Whether a later initiation for the same task replaced this one
    /// before it was enacted.
    pub superseded: bool,
}

impl ReweightSpan {
    /// Total attributed cost in operations (queue ops + halts).
    pub fn total_cost(&self) -> u64 {
        self.queue_ops.saturating_add(self.halts)
    }
}

/// A [`Probe`] that records the full event stream and builds
/// per-reweighting-event cost spans. See the module docs for the
/// attribution model.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<ObsEvent>,
    spans: Vec<ReweightSpan>,
    /// Pending (not yet enacted) span per task.
    open: BTreeMap<TaskId, usize>,
    /// Halted subtask → owning span, for deferred stale-entry cost.
    halted_by: BTreeMap<(TaskId, u64), usize>,
    /// Halts observed this slot and not yet claimed by an initiation.
    unclaimed_halts: Vec<(TaskId, u64, Slot)>,
    /// Most recently enacted span per task, for the era-opening push.
    last_enacted: BTreeMap<TaskId, usize>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// The recorded event stream, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// All reweighting spans, in initiation order.
    pub fn spans(&self) -> &[ReweightSpan] {
        &self.spans
    }

    /// The `k` most expensive reweighting events by total attributed
    /// cost (ties broken by earlier initiation, then lower task id).
    pub fn top_reweights(&self, k: usize) -> Vec<&ReweightSpan> {
        let mut sorted: Vec<&ReweightSpan> = self.spans.iter().collect();
        sorted.sort_by(|a, b| {
            b.total_cost()
                .cmp(&a.total_cost())
                .then(a.initiated_at.cmp(&b.initiated_at))
                .then(a.task.cmp(&b.task))
        });
        sorted.truncate(k);
        sorted
    }

    fn charge(&mut self, idx: usize, queue_ops: u64) {
        if let Some(span) = self.spans.get_mut(idx) {
            span.queue_ops = span.queue_ops.saturating_add(queue_ops);
        }
    }

    /// The Chrome trace-event JSON document for this recording.
    ///
    /// Layout: pid 1 carries the schedule — one thread per task with
    /// 1-slot `run` spans, reweight spans from initiation to
    /// enactment, and instants for halts/preemptions/era releases;
    /// pid 2 carries the closed-form tracker jumps as spans whose
    /// duration is the interval width. Timestamps are slot numbers.
    pub fn chrome_trace(&self) -> Json {
        let mut trace: Vec<Json> = Vec::new();
        let mut tids: Vec<TaskId> = Vec::new();
        let mut has_spans = false;
        for ev in &self.events {
            let task = match ev {
                ObsEvent::Release { task, .. }
                | ObsEvent::Schedule { task, .. }
                | ObsEvent::Preempt { task, .. }
                | ObsEvent::Halt { task, .. }
                | ObsEvent::StalePop { task, .. }
                | ObsEvent::StaleDrop { task, .. }
                | ObsEvent::ReweightInitiated { task, .. }
                | ObsEvent::ReweightEnacted { task, .. }
                | ObsEvent::TrackerAdvance { task, .. }
                | ObsEvent::ExecOverrun { task, .. }
                | ObsEvent::ExecSkip { task, .. }
                | ObsEvent::Miss { task, .. }
                | ObsEvent::DriftSample { task, .. } => Some(*task),
                ObsEvent::QuietSpan { .. } | ObsEvent::BusySpanJump { .. } => {
                    has_spans = true;
                    None
                }
                // Drawn through its jump, whose slice names this `t0`.
                ObsEvent::SpanArmed { .. } => None,
            };
            if let Some(task) = task {
                if !tids.contains(&task) {
                    tids.push(task);
                }
            }
        }
        tids.sort_unstable();
        // Process/thread metadata so the viewers label the lanes.
        for (pid, pname) in [(1, "schedule"), (2, "ideal trackers")] {
            trace.push(obj([
                ("name", Json::Str("process_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::Int(pid)),
                ("tid", Json::Int(0)),
                ("args", obj([("name", Json::Str(pname.into()))])),
            ]));
            for task in &tids {
                trace.push(obj([
                    ("name", Json::Str("thread_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::Int(pid)),
                    ("tid", task.to_json()),
                    ("args", obj([("name", Json::Str(format!("T{}", task.0)))])),
                ]));
            }
        }
        // Closed-form spans get their own single-lane process: one
        // slice per quiet span / busy-span jump, whatever the width.
        if has_spans {
            trace.push(obj([
                ("name", Json::Str("process_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::Int(3)),
                ("tid", Json::Int(0)),
                (
                    "args",
                    obj([("name", Json::Str("closed-form spans".into()))]),
                ),
            ]));
        }
        // Reweight spans: initiation → enactment, cost in args.
        for span in &self.spans {
            let end = span.enacted_at.unwrap_or(span.initiated_at);
            let dur = end.checked_sub(span.initiated_at).unwrap_or(0).max(1);
            trace.push(obj([
                ("name", Json::Str(format!("reweight {}", span.rule))),
                ("cat", Json::Str("reweight".into())),
                ("ph", Json::Str("X".into())),
                ("ts", slot_json(span.initiated_at)),
                ("dur", slot_json(dur)),
                ("pid", Json::Int(1)),
                ("tid", span.task.to_json()),
                (
                    "args",
                    obj([
                        ("rule", Json::Str(span.rule.label().into())),
                        ("halts", u64_json(span.halts)),
                        ("queue_ops", u64_json(span.queue_ops)),
                        ("total_cost", u64_json(span.total_cost())),
                        ("initiated_at", slot_json(span.initiated_at)),
                        ("enacted_at", span.enacted_at.to_json()),
                        ("superseded", Json::Bool(span.superseded)),
                    ]),
                ),
            ]));
        }
        for ev in &self.events {
            match ev {
                ObsEvent::Schedule { task, index, t } => {
                    trace.push(obj([
                        ("name", Json::Str("run".into())),
                        ("cat", Json::Str("schedule".into())),
                        ("ph", Json::Str("X".into())),
                        ("ts", slot_json(*t)),
                        ("dur", Json::Int(1)),
                        ("pid", Json::Int(1)),
                        ("tid", task.to_json()),
                        ("args", obj([("subtask", u64_json(*index))])),
                    ]));
                }
                ObsEvent::TrackerAdvance { task, from, to } => {
                    let dur = to.checked_sub(*from).unwrap_or(0).max(1);
                    trace.push(obj([
                        ("name", Json::Str("advance_to".into())),
                        ("cat", Json::Str("tracker".into())),
                        ("ph", Json::Str("X".into())),
                        ("ts", slot_json(*from)),
                        ("dur", slot_json(dur)),
                        ("pid", Json::Int(2)),
                        ("tid", task.to_json()),
                        (
                            "args",
                            obj([("width", slot_json(to.checked_sub(*from).unwrap_or(0)))]),
                        ),
                    ]));
                }
                ObsEvent::Halt { task, index, t } => {
                    trace.push(instant("halt", "reweight", *t, *task, Some(*index)));
                }
                ObsEvent::Preempt { task, t } => {
                    trace.push(instant("preempt", "schedule", *t, *task, None));
                }
                ObsEvent::Release {
                    task,
                    index,
                    t,
                    era_first: true,
                    ..
                } => {
                    trace.push(instant("era release", "release", *t, *task, Some(*index)));
                }
                ObsEvent::ExecOverrun { task, t } => {
                    trace.push(instant("overrun", "exec", *t, *task, None));
                }
                ObsEvent::ExecSkip { task, t } => {
                    trace.push(instant("skip", "exec", *t, *task, None));
                }
                ObsEvent::Miss { task, index, t, .. } => {
                    trace.push(instant("miss", "deadline", *t, *task, Some(*index)));
                }
                ObsEvent::QuietSpan { from, to, holes } => {
                    let dur = to.checked_sub(*from).unwrap_or(0).max(1);
                    trace.push(obj([
                        ("name", Json::Str("quiet span".into())),
                        ("cat", Json::Str("span".into())),
                        ("ph", Json::Str("X".into())),
                        ("ts", slot_json(*from)),
                        ("dur", slot_json(dur)),
                        ("pid", Json::Int(3)),
                        ("tid", Json::Int(0)),
                        (
                            "args",
                            obj([
                                ("width", slot_json(to.checked_sub(*from).unwrap_or(0))),
                                ("holes", u64_json(*holes)),
                            ]),
                        ),
                    ]));
                }
                ObsEvent::BusySpanJump {
                    t0,
                    t1,
                    periods,
                    period,
                    releases,
                    schedules,
                    queue_ops,
                } => {
                    let width = i64::try_from(*periods)
                        .ok()
                        .and_then(|k| k.checked_mul(*period))
                        .unwrap_or(0);
                    trace.push(obj([
                        ("name", Json::Str("busy-span jump".into())),
                        ("cat", Json::Str("span".into())),
                        ("ph", Json::Str("X".into())),
                        ("ts", slot_json(*t1)),
                        ("dur", slot_json(width.max(1))),
                        ("pid", Json::Int(3)),
                        ("tid", Json::Int(0)),
                        (
                            "args",
                            obj([
                                ("t0", slot_json(*t0)),
                                ("periods", u64_json(*periods)),
                                ("period", slot_json(*period)),
                                ("releases_per_period", u64_json(*releases)),
                                ("schedules_per_period", u64_json(*schedules)),
                                ("queue_ops_per_period", u64_json(*queue_ops)),
                            ]),
                        ),
                    ]));
                }
                _ => {}
            }
        }
        obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Array(trace)),
        ])
    }
}

/// A `ph: "i"` thread-scoped instant event.
fn instant(name: &str, cat: &str, t: Slot, task: TaskId, index: Option<u64>) -> Json {
    let args = match index {
        Some(i) => obj([("subtask", u64_json(i))]),
        None => Json::Object(Vec::new()),
    };
    obj([
        ("name", Json::Str(name.into())),
        ("cat", Json::Str(cat.into())),
        ("ph", Json::Str("i".into())),
        ("s", Json::Str("t".into())),
        ("ts", slot_json(t)),
        ("pid", Json::Int(1)),
        ("tid", task.to_json()),
        ("args", args),
    ])
}

/// Quiet spans and busy-span jumps are single collapsed events
/// ([`ObsEvent::QuietSpan`], [`ObsEvent::BusySpanJump`]) instead of
/// O(width) per-slot entries, so recording stays O(events), not
/// O(horizon). The one verified period of each busy span is still
/// recorded per-slot — the jump event summarizes the repetitions.
impl Probe for TraceRecorder {
    fn on_event(&mut self, ev: ObsEvent) {
        match ev {
            // The era-opening push is deferred cost of the reweighting
            // event whose enactment (this slot) released it.
            ObsEvent::Release {
                task,
                t,
                era_first: true,
                ..
            } => {
                if let Some(&idx) = self.last_enacted.get(&task) {
                    if self.spans.get(idx).is_some_and(|s| s.enacted_at == Some(t)) {
                        self.charge(idx, 1);
                    }
                }
            }
            ObsEvent::Halt { task, index, t } => self.unclaimed_halts.push((task, index, t)),
            ObsEvent::StalePop { task, index, .. } | ObsEvent::StaleDrop { task, index, .. } => {
                if let Some(idx) = self.halted_by.remove(&(task, index)) {
                    self.charge(idx, 1);
                }
            }
            ObsEvent::ReweightInitiated {
                task,
                t,
                rule,
                cost,
                ..
            } => {
                // A still-pending earlier event for this task is superseded.
                if let Some(prev) = self.open.remove(&task) {
                    if let Some(span) = self.spans.get_mut(prev) {
                        span.superseded = true;
                    }
                }
                let idx = self.spans.len();
                self.spans.push(ReweightSpan {
                    task,
                    rule,
                    initiated_at: t,
                    enacted_at: None,
                    halts: cost.halts,
                    queue_ops: cost.queue_ops,
                    superseded: false,
                });
                self.open.insert(task, idx);
                // Claim this slot's halts of the reweighted task: stale queue
                // entries they strand will be charged back to this span.
                self.unclaimed_halts.retain(|&(h_task, h_index, h_t)| {
                    if h_task == task && h_t == t {
                        self.halted_by.insert((h_task, h_index), idx);
                        false
                    } else {
                        true
                    }
                });
            }
            ObsEvent::ReweightEnacted { task, t, .. } => {
                if let Some(idx) = self.open.remove(&task) {
                    if let Some(span) = self.spans.get_mut(idx) {
                        span.enacted_at = Some(t);
                    }
                    self.last_enacted.insert(task, idx);
                }
            }
            _ => {}
        }
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ReweightCost;

    fn initiated(task: u32, t: Slot, rule: Rule, queue_ops: u64, halts: u64) -> ObsEvent {
        ObsEvent::ReweightInitiated {
            task: TaskId(task),
            t,
            rule,
            cost: ReweightCost { queue_ops, halts },
            enact_at: t,
        }
    }

    fn enacted(task: u32, t: Slot, initiated_at: Slot) -> ObsEvent {
        ObsEvent::ReweightEnacted {
            task: TaskId(task),
            t,
            initiated_at,
        }
    }

    fn era_release(index: u64, t: Slot) -> ObsEvent {
        ObsEvent::Release {
            task: TaskId(0),
            index,
            t,
            deadline: t + 4,
            era_first: true,
        }
    }

    #[test]
    fn recorder_attributes_direct_and_deferred_cost() {
        let mut rec = TraceRecorder::new();
        let task = TaskId(0);
        // Rule-O event at t=3: one halt, two direct queue ops.
        rec.on_event(ObsEvent::Halt {
            task,
            index: 2,
            t: 3,
        });
        rec.on_event(initiated(0, 3, Rule::O, 2, 1));
        // Deferred: the halted subtask's queue entry goes stale.
        rec.on_event(ObsEvent::StalePop {
            task,
            index: 2,
            t: 5,
        });
        // Unrelated stale entry — not attributed.
        rec.on_event(ObsEvent::StaleDrop {
            task: TaskId(1),
            index: 7,
            t: 5,
        });
        rec.on_event(enacted(0, 8, 3));
        // Era-opening push at the enactment slot is deferred cost too.
        rec.on_event(era_release(3, 8));
        // A later era release is NOT attributed (wrong slot).
        rec.on_event(era_release(4, 10));

        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.rule, Rule::O);
        assert_eq!(span.initiated_at, 3);
        assert_eq!(span.enacted_at, Some(8));
        assert_eq!(span.halts, 1);
        // 2 direct + 1 stale pop + 1 era push.
        assert_eq!(span.queue_ops, 4);
        assert_eq!(span.total_cost(), 5);
        assert!(!span.superseded);
    }

    #[test]
    fn superseded_spans_are_marked() {
        let mut rec = TraceRecorder::new();
        rec.on_event(initiated(0, 2, Rule::I, 0, 0));
        rec.on_event(initiated(0, 4, Rule::O, 0, 0));
        rec.on_event(enacted(0, 11, 4));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].superseded);
        assert_eq!(spans[0].enacted_at, None);
        assert!(!spans[1].superseded);
        assert_eq!(spans[1].enacted_at, Some(11));
    }

    #[test]
    fn top_reweights_sorts_by_cost_then_time() {
        let mut rec = TraceRecorder::new();
        rec.on_event(initiated(0, 1, Rule::I, 1, 0));
        rec.on_event(enacted(0, 1, 1));
        rec.on_event(initiated(1, 2, Rule::O, 3, 2));
        rec.on_event(initiated(2, 3, Rule::Lj, 4, 1));
        let top = rec.top_reweights(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].task, TaskId(1));
        assert_eq!(top[0].total_cost(), 5);
        assert_eq!(top[1].task, TaskId(2));
    }

    fn as_str(v: &Json) -> Option<&str> {
        match v {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    #[test]
    fn chrome_trace_round_trips_and_has_expected_shape() {
        let mut rec = TraceRecorder::new();
        let task = TaskId(0);
        rec.on_event(era_release(1, 0));
        rec.on_event(ObsEvent::Schedule {
            task,
            index: 1,
            t: 0,
        });
        rec.on_event(ObsEvent::Halt {
            task,
            index: 2,
            t: 3,
        });
        rec.on_event(initiated(0, 3, Rule::O, 2, 1));
        rec.on_event(enacted(0, 8, 3));
        rec.on_event(ObsEvent::TrackerAdvance {
            task,
            from: 3,
            to: 8,
        });

        let json = rec.chrome_trace();
        let text = json.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);

        let Some(Json::Array(events)) = json.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let reweight = events
            .iter()
            .find(|e| e.get("cat").and_then(as_str) == Some("reweight"))
            .expect("reweight span present");
        assert_eq!(reweight.get("ph").and_then(as_str), Some("X"));
        assert_eq!(reweight.get("ts").and_then(Json::as_int), Some(3));
        assert_eq!(reweight.get("dur").and_then(Json::as_int), Some(5));
        let args = reweight.get("args").expect("args");
        assert_eq!(args.get("rule").and_then(as_str), Some("O"));
        assert_eq!(args.get("total_cost").and_then(Json::as_int), Some(3));
        let tracker = events
            .iter()
            .find(|e| e.get("cat").and_then(as_str) == Some("tracker"))
            .expect("tracker span present");
        assert_eq!(tracker.get("pid").and_then(Json::as_int), Some(2));
        assert_eq!(tracker.get("dur").and_then(Json::as_int), Some(5));
    }

    /// One collapsed slice per closed-form span, on the dedicated
    /// pid-3 lane, carrying the per-period args — never O(width) slices.
    #[test]
    fn chrome_trace_collapses_spans_to_single_slices() {
        let mut rec = TraceRecorder::new();
        let task = TaskId(0);
        rec.on_slot_start(0);
        rec.on_event(ObsEvent::Schedule {
            task,
            index: 1,
            t: 0,
        });
        rec.on_event(ObsEvent::QuietSpan {
            from: 1,
            to: 5001,
            holes: 10_000,
        });
        rec.on_event(ObsEvent::SpanArmed { t0: 5001 });
        rec.on_event(ObsEvent::BusySpanJump {
            t0: 5001,
            t1: 5013,
            periods: 8000,
            period: 12,
            releases: 4,
            schedules: 24,
            queue_ops: 8,
        });
        rec.on_event(ObsEvent::Miss {
            task,
            index: 7,
            t: 5013,
            deadline: 5013,
        });

        let json = rec.chrome_trace();
        let Some(Json::Array(events)) = json.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").and_then(as_str) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2, "exactly one slice per span");
        let quiet = spans[0];
        assert_eq!(quiet.get("pid").and_then(Json::as_int), Some(3));
        assert_eq!(quiet.get("dur").and_then(Json::as_int), Some(5000));
        let jump = spans[1];
        assert_eq!(jump.get("ts").and_then(Json::as_int), Some(5013));
        assert_eq!(jump.get("dur").and_then(Json::as_int), Some(96_000));
        let args = jump.get("args").expect("args");
        assert_eq!(args.get("periods").and_then(Json::as_int), Some(8000));
        assert_eq!(
            args.get("schedules_per_period").and_then(Json::as_int),
            Some(24)
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(as_str) == Some("miss")),
            "miss instant present"
        );
        // The recorded stream is 5 events (the arming is one), not
        // 5000 + 96000.
        assert_eq!(rec.events().len(), 5);
    }
}
