//! Admission control: keeping condition (W) true by policing requests.
//!
//! Theorem 2's guarantee — no subtask misses its deadline under PD²-OI —
//! holds *provided* `Σ_T swt(T, t) ≤ M` at all times (condition (W)),
//! and the paper notes that "(W) can be satisfied by policing
//! weight-change requests". This module is that policing layer.
//!
//! Granting a request must account not only for currently enacted
//! weights but for weights the system is already *committed* to: a task
//! whose increase is pending will soon raise its scheduling weight, so
//! its commitment is the pending target, not the current `swt`. The
//! controller therefore tracks `committed(T) = max(swt(T), pending
//! target)` and grants an increase only up to `M − Σ committed`.

use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::weight::Weight;

/// How reweighting/join requests that would overload the system are
/// handled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Trust the workload: requests are granted verbatim. Use only for
    /// workloads constructed to satisfy (W) (the paper's counterexample
    /// figures are such workloads).
    Trusting,
    /// Police requests: an increase is clamped so that the sum of
    /// committed weights never exceeds `M`; a join that does not fit is
    /// clamped likewise (and rejected outright if nothing is available).
    #[default]
    Police,
}

impl pfair_json::ToJson for AdmissionPolicy {
    fn to_json(&self) -> pfair_json::Json {
        match self {
            AdmissionPolicy::Trusting => "trusting".to_string().to_json(),
            AdmissionPolicy::Police => "police".to_string().to_json(),
        }
    }
}

impl pfair_json::FromJson for AdmissionPolicy {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let kind = String::from_json(value)?;
        match kind.as_str() {
            "trusting" => Ok(AdmissionPolicy::Trusting),
            "police" => Ok(AdmissionPolicy::Police),
            other => Err(pfair_json::JsonError::new(format!(
                "unknown admission policy `{other}`"
            ))),
        }
    }
}

/// Tracks per-task weight commitments and enforces (W).
#[derive(Clone, Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    capacity: Rational,
    committed: Vec<Rational>, // by task id; ZERO = not in system
    /// Running `Σ committed`, maintained at every table write so
    /// admission decisions are O(1) instead of an O(n) fold — at 10⁵–10⁶
    /// tasks the fold dominated every join. Exact by construction: the
    /// sum is updated with the same exact-rational arithmetic the fold
    /// would use.
    total: Rational,
}

impl AdmissionController {
    /// A controller for `processors` processors and task ids `0..tasks`.
    pub fn new(policy: AdmissionPolicy, processors: u32, tasks: u32) -> AdmissionController {
        AdmissionController {
            policy,
            capacity: Rational::from_int(i128::from(processors)),
            // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
            committed: vec![Rational::ZERO; tasks as usize],
            total: Rational::ZERO,
        }
    }

    /// Grows the commitment table to cover task ids `0..tasks` (no-op
    /// when already that big). New slots carry zero commitment, so the
    /// running total is unchanged.
    pub fn ensure_tasks(&mut self, tasks: u32) {
        // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
        let tasks = tasks as usize;
        if tasks > self.committed.len() {
            self.committed.resize(tasks, Rational::ZERO);
        }
    }

    /// Capacity not yet committed.
    pub fn available(&self) -> Rational {
        self.capacity - self.total
    }

    /// Writes one commitment slot, keeping the running total exact.
    fn set_committed(&mut self, task: TaskId, value: Rational) {
        let slot = &mut self.committed[task.idx()]; // audit: allow(panic-reach, committed table is sized to the task-set, idx is validated at admission)
        self.total = self.total - *slot + value;
        *slot = value;
    }

    /// Processes a request to set task `task`'s weight to `want`
    /// (a join or a reweight; for a join the previous commitment is
    /// zero). Returns the granted weight, or `None` if nothing can be
    /// granted (join with zero available capacity under policing).
    ///
    /// Decreases are always granted in full, but the *commitment* is
    /// **not** lowered yet: the scheduling weight only drops when the
    /// decrease is *enacted* (rule I(ii) waits for `D(I_SW, T_j) + b`),
    /// and condition (W) constrains the sum of scheduling weights at
    /// every instant — releasing the capacity early would let another
    /// task claim it while the old weight is still being scheduled.
    /// [`AdmissionController::note_enacted`] performs the deferred
    /// reduction.
    pub fn request(&mut self, task: TaskId, want: Weight) -> Option<Weight> {
        let cur = self.committed[task.idx()]; // audit: allow(panic-reach, committed table is sized to the task-set, idx is validated at admission)
        let want_v: Rational = want.value();
        let granted = match self.policy {
            AdmissionPolicy::Trusting => want_v,
            AdmissionPolicy::Police => {
                if want_v <= cur {
                    want_v
                } else {
                    let headroom = self.available();
                    let granted = (cur + headroom).min(want_v);
                    if !granted.is_positive() {
                        return None;
                    }
                    granted
                }
            }
        };
        // Commitments only rise at request time; they fall at enactment.
        self.set_committed(task, cur.max(granted));
        Weight::try_new(granted).ok()
    }

    /// Releases a leaving task's commitment. Under PD²-LJ semantics the
    /// capacity only truly frees at the leave time; callers invoke this
    /// at that point.
    pub fn release(&mut self, task: TaskId) {
        self.set_committed(task, Rational::ZERO);
    }

    /// Records an enacted weight change: the task's scheduling weight is
    /// now exactly `enacted`, so the commitment settles there — in
    /// particular, this is where a decrease's capacity finally frees.
    pub fn note_enacted(&mut self, task: TaskId, enacted: Weight) {
        self.set_committed(task, enacted.value());
    }

    /// The per-task commitment table, for persistence. Policy and
    /// capacity are derived from the simulation config at restore time;
    /// the commitments are the only mutable state.
    pub fn committed_parts(&self) -> &[Rational] {
        &self.committed
    }

    /// Rebuilds a controller from a persisted commitment table.
    pub fn from_parts(
        policy: AdmissionPolicy,
        processors: u32,
        committed: Vec<Rational>,
    ) -> AdmissionController {
        let total = committed.iter().fold(Rational::ZERO, |acc, c| acc + *c);
        AdmissionController {
            policy,
            capacity: Rational::from_int(i128::from(processors)),
            committed,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    fn w(n: i128, d: i128) -> Weight {
        Weight::new(rat(n, d))
    }

    #[test]
    fn policing_clamps_increases_to_headroom() {
        let mut ac = AdmissionController::new(AdmissionPolicy::Police, 1, 2);
        assert_eq!(ac.request(TaskId(0), w(1, 2)), Some(w(1, 2)));
        assert_eq!(ac.request(TaskId(1), w(1, 2)), Some(w(1, 2)));
        // System full; an increase is clamped to current commitment.
        assert_eq!(ac.request(TaskId(0), w(3, 4)), Some(w(1, 2)));
        // A decrease is granted in full, but its capacity stays
        // committed until the decrease is *enacted* — the old scheduling
        // weight is still running (condition (W) is instantaneous).
        assert_eq!(ac.request(TaskId(1), w(1, 4)), Some(w(1, 4)));
        assert_eq!(ac.available(), Rational::ZERO);
        assert_eq!(ac.request(TaskId(0), w(3, 4)), Some(w(1, 2)));
        // Enactment frees it …
        ac.note_enacted(TaskId(1), w(1, 4));
        // … and the next increase may claim it.
        assert_eq!(ac.request(TaskId(0), w(3, 4)), Some(w(3, 4)));
        assert_eq!(ac.available(), Rational::ZERO);
    }

    #[test]
    fn join_with_no_capacity_is_rejected() {
        let mut ac = AdmissionController::new(AdmissionPolicy::Police, 1, 2);
        assert_eq!(ac.request(TaskId(0), w(1, 1)), Some(w(1, 1)));
        assert_eq!(ac.request(TaskId(1), w(1, 10)), None);
    }

    #[test]
    fn trusting_grants_verbatim() {
        let mut ac = AdmissionController::new(AdmissionPolicy::Trusting, 1, 2);
        assert_eq!(ac.request(TaskId(0), w(1, 1)), Some(w(1, 1)));
        assert_eq!(ac.request(TaskId(1), w(1, 1)), Some(w(1, 1)));
        // Over-committed — Trusting does not police.
        assert!(ac.available().is_negative());
    }

    #[test]
    fn leave_frees_commitment() {
        let mut ac = AdmissionController::new(AdmissionPolicy::Police, 1, 2);
        ac.request(TaskId(0), w(1, 1));
        ac.release(TaskId(0));
        assert_eq!(ac.request(TaskId(1), w(1, 2)), Some(w(1, 2)));
    }
}
