//! Reweighting schemes: PD²-OI, PD²-LJ, and hybrids.
//!
//! * **PD²-OI** (rules O and I, paper §3.2) is *fine-grained*: each
//!   event adds at most 2 quanta of drift (Theorem 5). An
//!   omission-changeable task (its last-released subtask not yet
//!   scheduled) halts that subtask and re-enters almost immediately; an
//!   ideal-changeable task (subtask already scheduled) enacts an
//!   increase instantly, a decrease at the subtask's `I_SW` completion.
//! * **PD²-LJ** (Srinivasan & Anderson's leave/join rules L and J) is
//!   *coarse-grained*: the task must wait until `d(T_i) + b(T_i)` of its
//!   last-scheduled subtask before leaving, so one event can add
//!   `Θ(1/weight)` drift (Theorem 3) — but the scheme never touches the
//!   `I_SW` bookkeeping and performs fewer queue operations.
//! * **Hybrid** policies realize the *efficiency-versus-accuracy*
//!   trade-off of the companion WPDRTS'05 paper: each event is handled
//!   OI-style or LJ-style depending on a policy (magnitude threshold,
//!   per-window OI budget, or a deterministic fraction), letting a
//!   system buy accuracy only for the changes that matter.

use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;

/// Per-event choice made by a hybrid policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleChoice {
    /// Handle this event with the fine-grained O/I rules.
    FineGrained,
    /// Handle this event with coarse-grained leave/join.
    LeaveJoin,
}

/// Policy deciding, per reweighting event, between OI and LJ handling.
#[derive(Clone, Debug, PartialEq)]
pub enum HybridPolicy {
    /// Use OI only when the relative weight change is at least the given
    /// threshold: `|v − w| ≥ threshold · w`. Small corrections ride the
    /// cheap LJ path; large swings get the accurate one.
    MagnitudeThreshold(Rational),
    /// Allow at most `budget` OI-handled events per task per `window`
    /// slots; excess events fall back to LJ. Caps the rate of costly
    /// fine-grained operations.
    OiBudget {
        /// Maximum OI events per task per window.
        budget: u32,
        /// Window length in slots.
        window: Slot,
    },
    /// Handle every `1/fraction`-th event (per task) with OI: a
    /// deterministic interleaving used for trade-off sweeps.
    /// `fraction = 1` is pure OI, very large values approach pure LJ.
    EveryNth(u32),
    /// Feedback control (the paper's §6 pointer to Lu et al. \[8\]):
    /// events ride the cheap leave/join path while the task's
    /// accumulated |drift| stays under the threshold, and switch to the
    /// fine-grained rules once it crosses — accuracy is bought exactly
    /// when the error budget runs low.
    DriftFeedback(Rational),
}

/// The reweighting scheme a simulation runs under.
#[derive(Clone, Debug, PartialEq)]
pub enum Scheme {
    /// PD²-OI: fine-grained rules O and I.
    Oi,
    /// PD²-LJ: leave with the old weight, rejoin with the new one.
    LeaveJoin,
    /// Per-event choice by a [`HybridPolicy`].
    Hybrid(HybridPolicy),
}

impl pfair_json::ToJson for HybridPolicy {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object();
        match self {
            HybridPolicy::MagnitudeThreshold(thr) => w
                .field("kind", "magnitude_threshold")
                .field("threshold", thr),
            HybridPolicy::OiBudget { budget, window } => w
                .field("kind", "oi_budget")
                .field("budget", budget)
                .field("window", window),
            HybridPolicy::EveryNth(n) => w.field("kind", "every_nth").field("n", n),
            HybridPolicy::DriftFeedback(thr) => {
                w.field("kind", "drift_feedback").field("threshold", thr)
            }
        };
        w.end_object();
    }
}

impl pfair_json::FromJson for HybridPolicy {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let kind: String = value.field("kind")?;
        match kind.as_str() {
            "magnitude_threshold" => {
                Ok(HybridPolicy::MagnitudeThreshold(value.field("threshold")?))
            }
            "oi_budget" => {
                let window: Slot = value.field("window")?;
                if window < 1 {
                    return Err(pfair_json::JsonError::new(
                        "OI-budget window must be positive",
                    ));
                }
                Ok(HybridPolicy::OiBudget {
                    budget: value.field("budget")?,
                    window,
                })
            }
            "every_nth" => Ok(HybridPolicy::EveryNth(value.field("n")?)),
            "drift_feedback" => Ok(HybridPolicy::DriftFeedback(value.field("threshold")?)),
            other => Err(pfair_json::JsonError::new(format!(
                "unknown hybrid policy kind `{other}`"
            ))),
        }
    }
}

impl pfair_json::ToJson for Scheme {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object();
        match self {
            Scheme::Oi => w.field("kind", "oi"),
            Scheme::LeaveJoin => w.field("kind", "leave_join"),
            Scheme::Hybrid(policy) => w.field("kind", "hybrid").field("policy", policy),
        };
        w.end_object();
    }
}

impl pfair_json::FromJson for Scheme {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let kind: String = value.field("kind")?;
        match kind.as_str() {
            "oi" => Ok(Scheme::Oi),
            "leave_join" => Ok(Scheme::LeaveJoin),
            "hybrid" => Ok(Scheme::Hybrid(value.field("policy")?)),
            other => Err(pfair_json::JsonError::new(format!(
                "unknown scheme kind `{other}`"
            ))),
        }
    }
}

/// Per-task state a [`HybridPolicy`] needs across events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct HybridTaskState {
    oi_events_in_window: u32,
    window_start: Slot,
    event_counter: u32,
}

impl pfair_json::ToJson for HybridTaskState {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object()
            .field("oi_events_in_window", &self.oi_events_in_window)
            .field("window_start", &self.window_start)
            .field("event_counter", &self.event_counter);
        w.end_object();
    }
}

impl pfair_json::FromJson for HybridTaskState {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        Ok(HybridTaskState {
            oi_events_in_window: value.field("oi_events_in_window")?,
            window_start: value.field("window_start")?,
            event_counter: value.field("event_counter")?,
        })
    }
}

impl pfair_json::ToJson for RuleSelector {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object()
            .field("scheme", &self.scheme)
            .field("state", &self.state);
        w.end_object();
    }
}

impl pfair_json::FromJson for RuleSelector {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        Ok(RuleSelector {
            scheme: value.field("scheme")?,
            state: value.field("state")?,
        })
    }
}

/// Evaluates hybrid policies statefully per task.
#[derive(Debug, PartialEq)]
pub struct RuleSelector {
    scheme: Scheme,
    state: Vec<HybridTaskState>,
}

impl Clone for RuleSelector {
    fn clone(&self) -> Self {
        RuleSelector {
            scheme: self.scheme.clone(),
            state: self.state.clone(),
        }
    }

    /// Into the state table this selector already holds.
    fn clone_from(&mut self, source: &Self) {
        self.scheme.clone_from(&source.scheme);
        self.state.clone_from(&source.state);
    }
}

impl RuleSelector {
    /// A selector for the given scheme over task ids `0..tasks`.
    pub fn new(scheme: Scheme, tasks: u32) -> RuleSelector {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        RuleSelector {
            scheme,
            state: vec![HybridTaskState::default(); tasks as usize],
        }
    }

    /// The scheme this selector implements.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Grows the per-task state table to cover ids `0..tasks` (no-op
    /// when already that big); new slots start in the default state.
    pub fn ensure_tasks(&mut self, tasks: u32) {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        let tasks = tasks as usize;
        if tasks > self.state.len() {
            self.state.resize(tasks, HybridTaskState::default());
        }
    }

    /// Number of per-task state slots (restore-time validation: must
    /// match the engine's task-table size).
    pub fn task_slots(&self) -> usize {
        self.state.len()
    }

    /// Chooses how to handle the event `task: old → new` at time `at`.
    /// `drift` reads the task's current accumulated drift; only
    /// [`HybridPolicy::DriftFeedback`] asks for it.
    pub fn choose(
        &mut self,
        task: TaskId,
        at: Slot,
        old: Rational,
        new: Rational,
        drift: impl FnOnce() -> Rational,
    ) -> RuleChoice {
        match &self.scheme {
            Scheme::Oi => RuleChoice::FineGrained,
            Scheme::LeaveJoin => RuleChoice::LeaveJoin,
            Scheme::Hybrid(policy) => {
                let st = &mut self.state[task.idx()]; // audit: allow(panic-reach, state table is sized to the task-set, idx is validated at admission)
                match policy {
                    HybridPolicy::MagnitudeThreshold(thr) => {
                        // |new − old| ≥ thr · old  (old > 0 for a reweight).
                        if (new - old).abs() >= *thr * old {
                            RuleChoice::FineGrained
                        } else {
                            RuleChoice::LeaveJoin
                        }
                    }
                    HybridPolicy::OiBudget { budget, window } => {
                        if at - st.window_start >= *window {
                            st.window_start = at - (at - st.window_start) % *window; // audit: allow(panic-reach, OiBudget windows are constructed positive)
                            st.oi_events_in_window = 0;
                        }
                        if st.oi_events_in_window < *budget {
                            st.oi_events_in_window += 1;
                            RuleChoice::FineGrained
                        } else {
                            RuleChoice::LeaveJoin
                        }
                    }
                    HybridPolicy::EveryNth(n) => {
                        let n = (*n).max(1);
                        st.event_counter += 1;
                        if st.event_counter.is_multiple_of(n) {
                            RuleChoice::FineGrained
                        } else {
                            RuleChoice::LeaveJoin
                        }
                    }
                    HybridPolicy::DriftFeedback(threshold) => {
                        if drift().abs() >= *threshold {
                            RuleChoice::FineGrained
                        } else {
                            RuleChoice::LeaveJoin
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn pure_schemes_are_constant() {
        let mut oi = RuleSelector::new(Scheme::Oi, 1);
        let mut lj = RuleSelector::new(Scheme::LeaveJoin, 1);
        for t in 0..5 {
            assert_eq!(
                oi.choose(TaskId(0), t, rat(1, 10), rat(1, 2), || Rational::ZERO),
                RuleChoice::FineGrained
            );
            assert_eq!(
                lj.choose(TaskId(0), t, rat(1, 10), rat(1, 2), || Rational::ZERO),
                RuleChoice::LeaveJoin
            );
        }
    }

    #[test]
    fn magnitude_threshold_splits_small_and_large() {
        let mut s = RuleSelector::new(
            Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(1, 2))),
            1,
        );
        // 1/10 → 1/2 is a 4× change: fine-grained.
        assert_eq!(
            s.choose(TaskId(0), 0, rat(1, 10), rat(1, 2), || Rational::ZERO),
            RuleChoice::FineGrained
        );
        // 1/10 → 11/100 is a 10% change: leave/join.
        assert_eq!(
            s.choose(TaskId(0), 1, rat(1, 10), rat(11, 100), || Rational::ZERO),
            RuleChoice::LeaveJoin
        );
        // Decreases count by magnitude too.
        assert_eq!(
            s.choose(TaskId(0), 2, rat(1, 2), rat(1, 10), || Rational::ZERO),
            RuleChoice::FineGrained
        );
    }

    #[test]
    fn oi_budget_caps_per_window() {
        let mut s = RuleSelector::new(
            Scheme::Hybrid(HybridPolicy::OiBudget {
                budget: 2,
                window: 10,
            }),
            1,
        );
        assert_eq!(
            s.choose(TaskId(0), 0, rat(1, 10), rat(1, 5), || Rational::ZERO),
            RuleChoice::FineGrained
        );
        assert_eq!(
            s.choose(TaskId(0), 1, rat(1, 5), rat(1, 4), || Rational::ZERO),
            RuleChoice::FineGrained
        );
        assert_eq!(
            s.choose(TaskId(0), 2, rat(1, 4), rat(1, 3), || Rational::ZERO),
            RuleChoice::LeaveJoin
        );
        // New window: budget refreshes.
        assert_eq!(
            s.choose(TaskId(0), 10, rat(1, 3), rat(1, 2), || Rational::ZERO),
            RuleChoice::FineGrained
        );
    }

    #[test]
    fn every_nth_interleaves() {
        let mut s = RuleSelector::new(Scheme::Hybrid(HybridPolicy::EveryNth(3)), 1);
        let choices: Vec<_> = (0..6)
            .map(|t| s.choose(TaskId(0), t, rat(1, 10), rat(1, 5), || Rational::ZERO))
            .collect();
        assert_eq!(
            choices,
            vec![
                RuleChoice::LeaveJoin,
                RuleChoice::LeaveJoin,
                RuleChoice::FineGrained,
                RuleChoice::LeaveJoin,
                RuleChoice::LeaveJoin,
                RuleChoice::FineGrained,
            ]
        );
    }

    #[test]
    fn budget_state_is_per_task() {
        let mut s = RuleSelector::new(
            Scheme::Hybrid(HybridPolicy::OiBudget {
                budget: 1,
                window: 100,
            }),
            2,
        );
        assert_eq!(
            s.choose(TaskId(0), 0, rat(1, 10), rat(1, 5), || Rational::ZERO),
            RuleChoice::FineGrained
        );
        assert_eq!(
            s.choose(TaskId(1), 0, rat(1, 10), rat(1, 5), || Rational::ZERO),
            RuleChoice::FineGrained
        );
        assert_eq!(
            s.choose(TaskId(0), 1, rat(1, 5), rat(1, 4), || Rational::ZERO),
            RuleChoice::LeaveJoin
        );
    }
}

#[cfg(test)]
mod feedback_tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn drift_feedback_switches_on_accumulated_error() {
        let mut s = RuleSelector::new(Scheme::Hybrid(HybridPolicy::DriftFeedback(rat(1, 1))), 1);
        // Under budget: cheap path.
        assert_eq!(
            s.choose(TaskId(0), 0, rat(1, 10), rat(1, 5), || rat(1, 2)),
            RuleChoice::LeaveJoin
        );
        // Budget exhausted (|drift| ≥ 1): fine-grained path.
        assert_eq!(
            s.choose(TaskId(0), 1, rat(1, 5), rat(1, 4), || rat(3, 2)),
            RuleChoice::FineGrained
        );
        // Negative drift counts by magnitude.
        assert_eq!(
            s.choose(TaskId(0), 2, rat(1, 4), rat(1, 5), || rat(-3, 2)),
            RuleChoice::FineGrained
        );
    }
}
