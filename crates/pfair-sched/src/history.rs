//! [`HistoryRecorder`]: a run's subtask-level history, rebuilt from the
//! probe stream.
//!
//! A history run ([`SimConfig::record_history`](crate::engine::SimConfig))
//! is an ordinary run with one more probe: [`simulate_with`] puts a
//! recorder beside the caller's and hands it the [`SimResult`] to fill.
//! The engine has no history mode, so the run takes the driver its
//! configuration names, and every check that reads the history —
//! [`crate::verify`], [`crate::lag_analysis`] — reads it off a schedule
//! the production path made, against an ideal schedule the production
//! path did not compute:
//!
//! * the subtask records come from `Release`, `Schedule` and `Halt`
//!   events; a release's b-bit is [`b_bit`] at its rank in the era
//!   (an era-opening release is rank 1), under the scheduling weight the
//!   last `SwtSet` named;
//! * `scheduled_slots` lists every `Schedule`;
//! * `isw_per_slot`, `halted_corrections` and each record's
//!   `isw_completion` come from a per-slot Fig. 5 over reduced
//!   rationals, [`IswReference`], which shares nothing with the engine's
//!   era-unit `IswTracker` but [`Rational`]. It starts at the `SwtSet`
//!   of a join, takes every later `SwtSet` as an enactment, and stops at
//!   `Depart`. It runs lazily: a task's slots are allocated when the
//!   next event naming it arrives (or at [`HistoryRecorder::fill`]), so
//!   a quiet span costs nothing.
//!
//! A verified busy span arrives as `SpanArmed`, the stream of one period
//! and a `BusySpanJump` standing for `periods` more. The recorder keeps
//! the period's releases and schedules and replays them `periods` times:
//! replay `k` is `k · period` slots later, and a task's subtask indices
//! are `k` times its releases per period higher. Nothing else happens in
//! a verified span — no halt, enactment, departure or era opening.
//!
//! [`simulate_with`]: crate::engine::simulate_with

use crate::trace::{SimResult, SubtaskRecord, TaskHistory};
use pfair_core::ideal::IswReference;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, SubtaskWindow};
use pfair_obs::{ObsEvent, Probe};

/// The probe that rebuilds every task's [`TaskHistory`] (see the module
/// docs).
#[derive(Clone, Debug, Default)]
pub struct HistoryRecorder {
    /// Indexed by task id, grown as events name tasks.
    tasks: Vec<TaskLog>,
    /// The releases and schedules since the latest `SpanArmed`.
    period: Vec<ObsEvent>,
    /// A `SpanArmed` has been seen and no jump has closed it.
    armed: bool,
}

/// One task's history so far, and what it takes to extend it.
#[derive(Clone, Debug, Default)]
struct TaskLog {
    history: TaskHistory,
    /// Fig. 5 of the current stay; `None` while the task is absent.
    fig5: Option<IswReference>,
    /// The scheduling weight the last `SwtSet` named.
    swt: Option<Weight>,
    /// The index before the current era's first subtask.
    era_base: u64,
}

impl HistoryRecorder {
    /// A recorder that has seen nothing.
    pub fn new() -> HistoryRecorder {
        HistoryRecorder::default()
    }

    /// Moves every task's history into `result`, once the run that fed
    /// this recorder has finished: the ideal schedule of each task still
    /// present is brought up to the result's horizon first. An id no
    /// event named gets an empty history.
    pub fn fill(self, result: &mut SimResult) {
        let horizon = result.horizon;
        let mut logs = self.tasks.into_iter();
        for task in &mut result.tasks {
            let mut log = logs.next().unwrap_or_default();
            log.catch_up(horizon);
            task.history = Some(Box::new(log.history));
        }
    }

    fn log(&mut self, task: TaskId) -> Option<&mut TaskLog> {
        let i = task.idx();
        if self.tasks.len() <= i {
            self.tasks
                .resize_with(i.saturating_add(1), TaskLog::default);
        }
        self.tasks.get_mut(i)
    }

    /// Folds one event into the task it names.
    fn record(&mut self, ev: ObsEvent) {
        let (ObsEvent::SwtSet { task, .. }
        | ObsEvent::Release { task, .. }
        | ObsEvent::Schedule { task, .. }
        | ObsEvent::Halt { task, .. }
        | ObsEvent::Depart { task, .. }) = ev
        else {
            return;
        };
        let Some(log) = self.log(task) else {
            return;
        };
        match ev {
            ObsEvent::SwtSet { t, swt, .. } => log.on_swt(t, swt),
            ObsEvent::Release {
                index,
                t,
                deadline,
                era_first,
                ..
            } => log.on_release(index, t, deadline, era_first),
            ObsEvent::Schedule { index, t, .. } => log.on_schedule(index, t),
            ObsEvent::Halt { index, t, .. } => log.on_halt(index, t),
            ObsEvent::Depart { t, .. } => {
                log.catch_up(t);
                log.fig5 = None;
            }
            _ => {}
        }
    }

    /// Replays the buffered period `periods` times, `period` slots apart.
    fn replay(&mut self, periods: u64, period: Slot) {
        self.armed = false;
        let events = std::mem::take(&mut self.period);
        // A task's releases in the period: how many indices on one
        // replay moves its subtasks.
        let mut per_period = vec![0u64; self.tasks.len()];
        for ev in &events {
            if let ObsEvent::Release { task, .. } = ev {
                if let Some(n) = per_period.get_mut(task.idx()) {
                    *n = n.saturating_add(1);
                }
            }
        }
        for k in 1..=periods {
            let Some(ds) = i64::try_from(k).ok().and_then(|k| k.checked_mul(period)) else {
                break;
            };
            let di = |task: TaskId| {
                per_period
                    .get(task.idx())
                    .map_or(0, |n| n.saturating_mul(k))
            };
            for &ev in &events {
                self.record(match ev {
                    ObsEvent::Release {
                        task,
                        index,
                        t,
                        deadline,
                        era_first,
                    } => ObsEvent::Release {
                        task,
                        index: index.saturating_add(di(task)),
                        t: t.saturating_add(ds),
                        deadline: deadline.saturating_add(ds),
                        era_first,
                    },
                    ObsEvent::Schedule { task, index, t } => ObsEvent::Schedule {
                        task,
                        index: index.saturating_add(di(task)),
                        t: t.saturating_add(ds),
                    },
                    other => other,
                });
            }
        }
        self.period = events;
        self.period.clear();
    }
}

impl Probe for HistoryRecorder {
    fn on_event(&mut self, ev: ObsEvent) {
        match ev {
            ObsEvent::SpanArmed { .. } => {
                self.period.clear();
                self.armed = true;
            }
            ObsEvent::BusySpanJump {
                periods, period, ..
            } => self.replay(periods, period),
            ObsEvent::Release { .. } | ObsEvent::Schedule { .. } => {
                if self.armed {
                    self.period.push(ev);
                }
                self.record(ev);
            }
            _ => self.record(ev),
        }
    }
}

impl TaskLog {
    /// Runs Fig. 5 over the slots before `t` it has not allocated yet,
    /// writing each slot's allocation and every completion down.
    fn catch_up(&mut self, t: Slot) {
        let Some(fig5) = &mut self.fig5 else {
            return;
        };
        let TaskHistory {
            subtasks,
            isw_per_slot,
            ..
        } = &mut self.history;
        while fig5.ref_now() < t {
            let slot = fig5.ref_now();
            let alloc = fig5.ref_step(|index, at, _| {
                if let Some(rec) = record_of(subtasks, index) {
                    rec.isw_completion = Some(at);
                }
            });
            let Ok(i) = usize::try_from(slot) else {
                continue;
            };
            if isw_per_slot.len() <= i {
                isw_per_slot.resize(i.saturating_add(1), Rational::ZERO);
            }
            if let Some(a) = isw_per_slot.get_mut(i) {
                *a = alloc;
            }
        }
    }

    /// A join (the task is absent) or an enactment at `t`.
    fn on_swt(&mut self, t: Slot, swt: Rational) {
        self.catch_up(t);
        self.swt = Weight::try_new(swt).ok();
        match &mut self.fig5 {
            Some(fig5) => fig5.ref_set_swt(swt),
            None => self.fig5 = Some(IswReference::new(swt, t)),
        }
    }

    fn on_release(&mut self, index: u64, t: Slot, deadline: Slot, era_first: bool) {
        self.catch_up(t);
        if era_first {
            self.era_base = index.saturating_sub(1);
        }
        let b = self
            .swt
            .is_some_and(|w| b_bit(w, index.saturating_sub(self.era_base)));
        // The b-bit of the predecessor whose final slot this release may
        // share: the most recent subtask not halted.
        let pred_b = (self.history.subtasks.iter().rev())
            .find(|s| s.halted_at.is_none())
            .is_some_and(|s| s.window.b);
        if let Some(fig5) = &mut self.fig5 {
            fig5.ref_add(index, t, era_first, pred_b);
        }
        self.history.subtasks.push(SubtaskRecord {
            index,
            window: SubtaskWindow {
                release: t,
                deadline,
                b,
            },
            scheduled_at: None,
            halted_at: None,
            isw_completion: None,
            era_first,
        });
    }

    fn on_schedule(&mut self, index: u64, t: Slot) {
        if let Some(rec) = record_of(&mut self.history.subtasks, index) {
            rec.scheduled_at = Some(t);
        }
        self.history.scheduled_slots.push(t);
    }

    /// `I_SW` stops allocating to the subtask at `t`, and what it had
    /// given it becomes a per-slot `I_CSW` correction.
    fn on_halt(&mut self, index: u64, t: Slot) {
        self.catch_up(t);
        if let Some(rec) = record_of(&mut self.history.subtasks, index) {
            rec.halted_at = Some(t);
        }
        if let Some(sub) = self.fig5.as_mut().and_then(|f| f.ref_halt(index)) {
            (self.history.halted_corrections).extend_from_slice(&sub.slots);
        }
    }
}

/// The record of subtask `index` (records are in index order).
fn record_of(records: &mut [SubtaskRecord], index: u64) -> Option<&mut SubtaskRecord> {
    let pos = records.binary_search_by_key(&index, |r| r.index).ok()?;
    records.get_mut(pos)
}
