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

    /// Writes one commitment slot, keeping the running total exact. A
    /// slot that already holds `value` — a decrease request, or the
    /// enactment of an increase committed at request time — leaves the
    /// total alone: `total − x + x` is `total`, two gcds later.
    fn set_committed(&mut self, task: TaskId, value: Rational) {
        let slot = &mut self.committed[task.idx()]; // audit: allow(panic-reach, committed table is sized to the task-set, idx is validated at admission)
        if *slot == value {
            return;
        }
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
    use proptest::prelude::*;

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

    /// The ledger a controller must agree with: the same policing
    /// decisions over a table whose sum is folded afresh every time it
    /// is read — no running total, hence no write to skip.
    struct Recomputing {
        capacity: Rational,
        committed: Vec<Rational>,
    }

    impl Recomputing {
        fn total(&self) -> Rational {
            self.committed
                .iter()
                .fold(Rational::ZERO, |acc, c| acc + *c)
        }

        fn request(&mut self, task: usize, want: Rational) -> Option<Rational> {
            let cur = self.committed[task];
            let granted = if want <= cur {
                want
            } else {
                (cur + (self.capacity - self.total())).min(want)
            };
            if !granted.is_positive() {
                return None;
            }
            self.committed[task] = cur.max(granted);
            Some(granted)
        }
    }

    proptest! {
        /// Random request / enact / release sequences — decreases (which
        /// leave the commitment where it is), increases enacted at the
        /// value committed at request time, clamped and refused requests:
        /// the running total equals the fold over the table and the
        /// recomputing twin's after every operation, and the two grant
        /// the same weights.
        #[test]
        fn running_total_matches_a_recomputing_twin(
            ops in prop::collection::vec((0u8..4, 0usize..6, 1i128..=12, 0usize..3), 0..120),
        ) {
            const DENS: [i128; 3] = [12, 20, 96];
            let mut ac = AdmissionController::new(AdmissionPolicy::Police, 2, 6);
            let mut twin = Recomputing {
                capacity: Rational::from_int(2),
                committed: vec![Rational::ZERO; 6],
            };
            // What each task was last granted: the weight an enactment
            // settles its commitment at.
            let mut granted = [Rational::ZERO; 6];
            for (kind, task, num, den) in ops {
                let id = TaskId(u32::try_from(task).expect("six tasks"));
                match kind {
                    0 | 1 => {
                        let want = rat(num, DENS[den]);
                        let got = ac.request(id, Weight::new(want)).map(Weight::value);
                        prop_assert_eq!(got, twin.request(task, want));
                        if let Some(g) = got {
                            granted[task] = g;
                        }
                    }
                    2 if granted[task].is_positive() => {
                        ac.note_enacted(id, Weight::new(granted[task]));
                        twin.committed[task] = granted[task];
                    }
                    2 => {}
                    _ => {
                        ac.release(id);
                        twin.committed[task] = Rational::ZERO;
                        granted[task] = Rational::ZERO;
                    }
                }
                prop_assert_eq!(ac.committed_parts(), &twin.committed[..]);
                prop_assert_eq!(ac.total, twin.total());
                prop_assert_eq!(ac.available(), twin.capacity - twin.total());
            }
        }
    }
}
