//! Simulation results and post-hoc analysis.
//!
//! The engine produces a [`SimResult`] per run: per-task allocation
//! totals against the three ideal schedules, the drift history, deadline
//! misses, and overhead counters. With `record_history` enabled it also
//! retains the full subtask-level trace (windows, schedule slots, halts,
//! per-slot `I_SW` allocations and halted-allocation corrections), from
//! which per-slot `I_CSW` series and lag bounds can be reconstructed —
//! the quantities the paper's proofs constrain.

use crate::overhead::Counters;
use pfair_core::drift::DriftTrack;
use pfair_core::lag::lag_series;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{slot_index, Slot};
use pfair_core::window::SubtaskWindow;
use pfair_json::{obj, FromJson, Json, JsonError, ToJson};

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

/// Full record of one subtask's life (history mode).
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

/// Per-slot detail retained in history mode.
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
    fn to_json(&self) -> Json {
        obj([
            ("task", self.task.to_json()),
            ("index", self.index.to_json()),
            ("deadline", self.deadline.to_json()),
        ])
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
    fn to_json(&self) -> Json {
        obj([
            ("index", self.index.to_json()),
            ("window", self.window.to_json()),
            ("scheduled_at", self.scheduled_at.to_json()),
            ("halted_at", self.halted_at.to_json()),
            ("isw_completion", self.isw_completion.to_json()),
            ("era_first", self.era_first.to_json()),
        ])
    }
}

impl FromJson for SubtaskRecord {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SubtaskRecord {
            index: value.field("index")?,
            window: value.field("window")?,
            scheduled_at: value.field("scheduled_at")?,
            halted_at: value.field("halted_at")?,
            isw_completion: value.field("isw_completion")?,
            era_first: value.field("era_first")?,
        })
    }
}

impl ToJson for TaskHistory {
    fn to_json(&self) -> Json {
        obj([
            ("subtasks", self.subtasks.to_json()),
            ("scheduled_slots", self.scheduled_slots.to_json()),
            ("isw_per_slot", self.isw_per_slot.to_json()),
            ("halted_corrections", self.halted_corrections.to_json()),
        ])
    }
}

impl FromJson for TaskHistory {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(TaskHistory {
            subtasks: value.field("subtasks")?,
            scheduled_slots: value.field("scheduled_slots")?,
            isw_per_slot: value.field("isw_per_slot")?,
            halted_corrections: value.field("halted_corrections")?,
        })
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
    /// `A(I_PS, T, 0, end)` — end is the leave time or the horizon.
    pub ps_total: Rational,
    /// `A(I_SW, T, 0, end)`.
    pub isw_total: Rational,
    /// `A(I_CSW, T, 0, end)`.
    pub icsw_total: Rational,
    /// Drift samples at each era boundary (Eqn (5)).
    pub drift: DriftTrack,
    /// Subtask-level trace, when history recording was enabled — boxed,
    /// so a result that has none (every run but a history run) does not
    /// carry its 96 bytes.
    pub history: Option<Box<TaskHistory>>,
}

const _: () = assert!(std::mem::size_of::<TaskResult>() <= 144);

impl TaskResult {
    /// Scheduled work as a percentage of the `I_PS` ideal (the metric of
    /// Fig. 11(b)/(d)). `None` when the ideal allocation is zero.
    // audit: allow(float, report-only accuracy metric; never feeds scheduling)
    pub fn pct_of_ideal(&self) -> Option<f64> {
        if self.ps_total.is_positive() {
            // audit: allow(float, report-only accuracy metric; never feeds scheduling)
            Some(100.0 * self.scheduled_count as f64 / self.ps_total.to_f64()) // audit: allow(lossy-cast, u64→f64 for reporting only)
        } else {
            None
        }
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
    fn to_json(&self) -> Json {
        obj([
            ("id", self.id.to_json()),
            ("scheduled_count", self.scheduled_count.to_json()),
            ("ps_total", self.ps_total.to_json()),
            ("isw_total", self.isw_total.to_json()),
            ("icsw_total", self.icsw_total.to_json()),
            ("drift", self.drift.to_json()),
            (
                "history",
                self.history.as_deref().map_or(Json::Null, ToJson::to_json),
            ),
        ])
    }
}

impl FromJson for TaskResult {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(TaskResult {
            id: value.field("id")?,
            scheduled_count: value.field("scheduled_count")?,
            ps_total: value.field("ps_total")?,
            isw_total: value.field("isw_total")?,
            icsw_total: value.field("icsw_total")?,
            drift: value.field("drift")?,
            history: value.field::<Option<TaskHistory>>("history")?.map(Box::new),
        })
    }
}

impl ToJson for SimResult {
    fn to_json(&self) -> Json {
        obj([
            ("processors", self.processors.to_json()),
            ("horizon", self.horizon.to_json()),
            ("tasks", self.tasks.to_json()),
            ("misses", self.misses.to_json()),
            ("counters", self.counters.to_json()),
        ])
    }
}

impl FromJson for SimResult {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SimResult {
            processors: value.field("processors")?,
            horizon: value.field("horizon")?,
            tasks: value.field("tasks")?,
            misses: value.field("misses")?,
            counters: value.field("counters")?,
        })
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
    // audit: allow(float, report-only accuracy metric; never feeds scheduling)
    pub fn mean_pct_of_ideal(&self) -> f64 {
        // audit: allow(float, report-only accuracy metric; never feeds scheduling)
        let vals: Vec<f64> = self
            .tasks
            .iter()
            .filter_map(TaskResult::pct_of_ideal)
            .collect();
        if vals.is_empty() {
            // audit: allow(float, report-only accuracy metric; never feeds scheduling)
            0.0
        } else {
            // audit: allow(float, report-only accuracy metric; never feeds scheduling)
            vals.iter().sum::<f64>() / vals.len() as f64 // audit: allow(lossy-cast, usize→f64 for reporting only)
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
    use crate::trace::SimResult;
    use pfair_json::{FromJson, Json, ToJson};

    #[test]
    fn sim_result_roundtrips_through_json() {
        let mut w = Workload::new();
        w.join(0, 0, 3, 20);
        w.reweight(0, 7, 1, 2);
        let r = simulate(SimConfig::oi(2, 40).with_history(), &w);
        let json = r.to_json().to_string();
        let parsed = Json::parse(&json).expect("parse");
        let back = SimResult::from_json(&parsed).expect("deserialize");
        assert_eq!(back.horizon, r.horizon);
        assert_eq!(back.tasks[0].scheduled_count, r.tasks[0].scheduled_count);
        assert_eq!(back.tasks[0].ps_total, r.tasks[0].ps_total);
        assert_eq!(back.tasks[0].drift.samples(), r.tasks[0].drift.samples());
        assert_eq!(
            back.tasks[0].history.as_ref().map(|h| h.subtasks.len()),
            r.tasks[0].history.as_ref().map(|h| h.subtasks.len())
        );
        assert_eq!(back.counters, r.counters);
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
