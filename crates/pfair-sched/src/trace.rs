//! Simulation results and post-hoc analysis.
//!
//! The engine produces a [`SimResult`] per run: per-task allocation
//! totals against the three ideal schedules (over every stay of a task
//! that leaves and rejoins), the drift history, deadline misses, and
//! overhead counters. With `record_history` enabled a
//! [`HistoryRecorder`](crate::history::HistoryRecorder) riding in the
//! probe slot adds the full subtask-level trace (windows, schedule
//! slots, halts, per-slot `I_SW` allocations and halted-allocation
//! corrections, the last two from an independent per-slot Fig. 5), from
//! which per-slot `I_CSW` series and lag bounds can be reconstructed —
//! the quantities the paper's proofs constrain.

use crate::overhead::Counters;
use pfair_core::drift::DriftTrack;
use pfair_core::lag::lag_series;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{slot_index, Slot};
use pfair_core::window::SubtaskWindow;
use pfair_json::{FromJson, Json, JsonError, JsonWriter, ToJson};

/// A recorded deadline miss (should be empty under PD²-OI, Theorem 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Miss {
    /// The task whose subtask missed.
    pub task: TaskId,
    /// The subtask index.
    pub index: u64,
    /// The missed deadline.
    pub deadline: Slot,
}

/// Full record of one subtask's life (a history run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubtaskRecord {
    /// Subtask index `i` of `T_i`.
    pub index: u64,
    /// Its window (release, deadline, b-bit). Fixed at release.
    pub window: SubtaskWindow,
    /// The slot in which PD² scheduled it, if it ran.
    pub scheduled_at: Option<Slot>,
    /// `H(T_i)` if the subtask was halted.
    pub halted_at: Option<Slot>,
    /// `D(I_SW, T_i)` if it completed in the ideal schedule.
    pub isw_completion: Option<Slot>,
    /// True iff this subtask opened an era (`Id(T_i) = i`).
    pub era_first: bool,
}

/// Per-slot detail a history run records.
#[derive(Clone, Debug, Default)]
pub struct TaskHistory {
    /// Every subtask the task released, in index order.
    pub subtasks: Vec<SubtaskRecord>,
    /// Slots in which the task was scheduled.
    pub scheduled_slots: Vec<Slot>,
    /// `A(I_SW, T, t)` for each simulated slot `t` (while in system).
    pub isw_per_slot: Vec<Rational>,
    /// Allocations granted by `I_SW` to subtasks that later halted:
    /// `(slot, allocation)` pairs; subtracting them from `isw_per_slot`
    /// yields the per-slot `I_CSW` series.
    pub halted_corrections: Vec<(Slot, Rational)>,
}

impl ToJson for Miss {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("task", &self.task)
            .field("index", &self.index)
            .field("deadline", &self.deadline);
        w.end_object();
    }
}

impl FromJson for Miss {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Miss {
            task: value.field("task")?,
            index: value.field("index")?,
            deadline: value.field("deadline")?,
        })
    }
}

impl ToJson for SubtaskRecord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("index", &self.index)
            .field("window", &self.window)
            .field("scheduled_at", &self.scheduled_at)
            .field("halted_at", &self.halted_at)
            .field("isw_completion", &self.isw_completion)
            .field("era_first", &self.era_first);
        w.end_object();
    }
}

impl ToJson for TaskHistory {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("subtasks", &self.subtasks)
            .field("scheduled_slots", &self.scheduled_slots)
            .field("isw_per_slot", &self.isw_per_slot)
            .field("halted_corrections", &self.halted_corrections);
        w.end_object();
    }
}

impl TaskHistory {
    /// The per-slot `I_CSW` series: `I_SW` minus halted allocations.
    pub fn icsw_per_slot(&self) -> Vec<Rational> {
        let mut out = self.isw_per_slot.clone();
        for (slot, alloc) in &self.halted_corrections {
            let idx = slot_index(*slot);
            if idx < out.len() {
                out[idx] -= *alloc;
            }
        }
        out
    }

    /// Per-slot actual allocations (1 in scheduled slots) over `horizon`.
    pub fn actual_per_slot(&self, horizon: Slot) -> Vec<u32> {
        let mut out = vec![0u32; slot_index(horizon)];
        for s in &self.scheduled_slots {
            let idx = slot_index(*s);
            if idx < out.len() {
                out[idx] += 1;
            }
        }
        out
    }

    /// `lag(T, t)` against `I_CSW`, for `t = 0..=horizon`.
    pub fn lag_vs_icsw(&self, horizon: Slot) -> Vec<Rational> {
        let mut ideal = self.icsw_per_slot();
        ideal.resize(slot_index(horizon), Rational::ZERO);
        lag_series(&ideal, &self.actual_per_slot(horizon))
    }
}

/// Everything recorded about one task in a run.
#[derive(Clone, Debug)]
pub struct TaskResult {
    /// The task.
    pub id: TaskId,
    /// Quanta the PD² schedule granted it.
    pub scheduled_count: u64,
    /// `A(I_PS, T, 0, end)` — end is the leave time or the horizon; a
    /// task that left and rejoined counts every stay.
    pub ps_total: Rational,
    /// `A(I_SW, T, 0, end)`, over every stay.
    pub isw_total: Rational,
    /// `A(I_CSW, T, 0, end)`, over every stay.
    pub icsw_total: Rational,
    /// Drift samples at each era boundary (Eqn (5)).
    pub drift: DriftTrack,
    /// Subtask-level trace, when history recording was enabled — boxed,
    /// so a result that has none (every run but a history run) does not
    /// carry its 96 bytes.
    pub history: Option<Box<TaskHistory>>,
}

const _: () = assert!(std::mem::size_of::<TaskResult>() <= 144);

/// `scheduled` quanta as a percentage of an `I_PS` allocation — the
/// accuracy metric of Fig. 11(b)/(d), for PD² runs and the EDF
/// baselines alike. `None` when the allocation is zero.
#[expect(
    clippy::as_conversions,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "report-only accuracy metric; never feeds scheduling"
)]
pub(crate) fn pct_of_ideal(scheduled: u64, ps_total: Rational) -> Option<f64> {
    if ps_total.is_positive() {
        Some(100.0 * scheduled as f64 / ps_total.to_f64())
    } else {
        None
    }
}

impl TaskResult {
    /// Scheduled work as a percentage of the `I_PS` ideal (the metric of
    /// Fig. 11(b)/(d)). `None` when the ideal allocation is zero.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "report-only accuracy metric; never feeds scheduling"
    )]
    pub fn pct_of_ideal(&self) -> Option<f64> {
        pct_of_ideal(self.scheduled_count, self.ps_total)
    }
}

/// The complete result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Number of processors `M`.
    pub processors: u32,
    /// Number of slots simulated.
    pub horizon: Slot,
    /// Per-task results, indexed by task id.
    pub tasks: Vec<TaskResult>,
    /// All deadline misses, in time order.
    pub misses: Vec<Miss>,
    /// Overhead counters for the run.
    pub counters: Counters,
}

impl ToJson for TaskResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("id", &self.id)
            .field("scheduled_count", &self.scheduled_count)
            .field("ps_total", &self.ps_total)
            .field("isw_total", &self.isw_total)
            .field("icsw_total", &self.icsw_total)
            .field("drift", &self.drift)
            .field("history", &self.history);
        w.end_object();
    }
}

impl ToJson for SimResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("processors", &self.processors)
            .field("horizon", &self.horizon)
            .field("tasks", &self.tasks)
            .field("misses", &self.misses)
            .field("counters", &self.counters);
        w.end_object();
    }
}

impl SimResult {
    /// Maximum `|drift(T, t)|` over all tasks at time `t`
    /// (Fig. 11(a)/(c) plots this at `t = 1000`).
    pub fn max_abs_drift_at(&self, t: Slot) -> Rational {
        self.tasks
            .iter()
            .map(|tr| tr.drift.at(t).abs())
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// Largest per-event drift delta over all tasks (Theorem 5 bounds
    /// this by 2 under PD²-OI).
    pub fn max_abs_drift_delta(&self) -> Rational {
        self.tasks
            .iter()
            .map(|tr| tr.drift.max_abs_delta())
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// Mean over tasks of the percent-of-ideal metric (tasks with zero
    /// ideal allocation are excluded).
    #[expect(
        clippy::as_conversions,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "report-only accuracy metric; never feeds scheduling"
    )]
    pub fn mean_pct_of_ideal(&self) -> f64 {
        let vals: Vec<f64> = self
            .tasks
            .iter()
            .filter_map(TaskResult::pct_of_ideal)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Result of a single task.
    pub fn task(&self, id: TaskId) -> &TaskResult {
        &self.tasks[id.idx()]
    }

    /// `true` iff no subtask missed a deadline.
    pub fn is_miss_free(&self) -> bool {
        self.misses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn icsw_subtracts_halted_corrections() {
        let h = TaskHistory {
            subtasks: vec![],
            scheduled_slots: vec![0, 2],
            isw_per_slot: vec![rat(1, 2), rat(1, 2), rat(1, 2)],
            halted_corrections: vec![(1, rat(1, 2))],
        };
        assert_eq!(
            h.icsw_per_slot(),
            vec![rat(1, 2), Rational::ZERO, rat(1, 2)]
        );
        assert_eq!(h.actual_per_slot(3), vec![1, 0, 1]);
    }

    #[test]
    fn pct_of_ideal() {
        let tr = TaskResult {
            id: TaskId(0),
            scheduled_count: 3,
            ps_total: rat(4, 1),
            isw_total: rat(3, 1),
            icsw_total: rat(3, 1),
            drift: DriftTrack::new(),
            history: None,
        };
        assert_eq!(tr.pct_of_ideal(), Some(75.0));
    }

    #[test]
    fn lag_series_from_history() {
        let h = TaskHistory {
            subtasks: vec![],
            scheduled_slots: vec![1],
            isw_per_slot: vec![rat(1, 2), rat(1, 2)],
            halted_corrections: vec![],
        };
        let lags = h.lag_vs_icsw(2);
        assert_eq!(lags, vec![Rational::ZERO, rat(1, 2), Rational::ZERO]);
    }
}

#[cfg(test)]
mod json_tests {
    use crate::engine::{simulate, SimConfig};
    use crate::event::Workload;
    use pfair_json::{Json, ToJson};

    /// The export is write-only: pin it on the parsed tree.
    #[test]
    fn sim_result_exports_its_figures() {
        let mut w = Workload::new();
        w.join(0, 0, 3, 20);
        w.reweight(0, 7, 1, 2);
        let r = simulate(SimConfig::oi(2, 40).with_history(), &w);
        let parsed = Json::parse(&r.to_json_compact()).expect("parse");
        assert_eq!(parsed.field::<i64>("horizon").unwrap(), r.horizon);
        let Some(Json::Array(tasks)) = parsed.get("tasks") else {
            panic!("tasks missing");
        };
        assert_eq!(tasks.len(), r.tasks.len());
        let ps = tasks[0].get("ps_total").expect("ps_total");
        assert_eq!(
            ps.field::<i128>("num").unwrap(),
            r.tasks[0].ps_total.numer()
        );
        assert_eq!(
            ps.field::<i128>("den").unwrap(),
            r.tasks[0].ps_total.denom()
        );
        let misses = parsed.get("misses").expect("misses");
        assert_eq!(misses.to_json_compact(), r.misses.to_json_compact());
    }
}

#[cfg(test)]
mod more_trace_tests {
    use super::*;

    #[test]
    fn empty_result_edge_cases() {
        let r = SimResult {
            processors: 2,
            horizon: 10,
            tasks: vec![],
            misses: vec![],
            counters: Counters::default(),
        };
        assert!(r.is_miss_free());
        assert_eq!(r.mean_pct_of_ideal(), 0.0);
        assert_eq!(r.max_abs_drift_at(10), Rational::ZERO);
        assert_eq!(r.max_abs_drift_delta(), Rational::ZERO);
    }

    #[test]
    fn zero_ideal_task_is_excluded_from_pct() {
        let tr = TaskResult {
            id: TaskId(0),
            scheduled_count: 0,
            ps_total: Rational::ZERO,
            isw_total: Rational::ZERO,
            icsw_total: Rational::ZERO,
            drift: DriftTrack::new(),
            history: None,
        };
        assert_eq!(tr.pct_of_ideal(), None);
    }
}
