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
//!
//! The running sum is exact, so its denominator is the lcm of the
//! committed weights' — a few coprime 31-bit denominators are past
//! `i128`. Every ledger computation is checked: a request whose grant or
//! commitment the ledger cannot represent is [`LedgerOverflow`], which
//! the engine reports as a refusal, and a lowering write the ledger
//! cannot represent keeps the old, higher commitment (conservative for
//! condition (W)).
//!
//! The ledger is an [`Accumulator`], the one counted sum of the reweight
//! path: while it can, a count of `1/unit`s, the unit a multiple of every
//! committed weight's denominator, so a request compares and adds
//! integers and reduces nothing (the one reduction is a clamped grant's
//! share). Where a count would leave `i64` the sum folds into the exact
//! rational it always was, and every answer is the one the exact sum
//! gives either way.

use pfair_core::rational::{Accumulator, Rational, Units};
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
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.string(match self {
            AdmissionPolicy::Trusting => "trusting",
            AdmissionPolicy::Police => "police",
        });
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

/// The ledger cannot represent the sum a request would leave: the
/// request is refused whole, and nothing is written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerOverflow;

/// What [`AdmissionController::grant`] computed for a request: the
/// share it may have, and the ledger total that committing the share
/// leaves — computed, checked, not yet written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The share granted: the request itself, or (clamped) the
    /// capacity left over, whose denominator is the ledger's.
    pub share: Rational,
    total: Accumulator,
}

/// The ledger and `shares`, all counted in one unit that each is a
/// whole count of — the ledger's, refined to the shares' denominators;
/// `None` where the ledger folds, or a share's count or denominator
/// would leave `i64`.
fn counts<const N: usize>(
    total: &Accumulator,
    shares: [Rational; N],
) -> Option<(i64, Units, [i64; N])> {
    let mut total = total.clone();
    for share in shares {
        total.refine(Units::checked_denom(share)?);
    }
    let (n, unit) = total.counted()?;
    let mut counts = [0; N];
    for (count, share) in counts.iter_mut().zip(shares) {
        *count = Units::checked_of(share, unit)?.get();
    }
    Some((n.get(), unit, counts))
}

/// `total − out + into`, `None` if the ledger cannot represent it: a
/// count where the three count in one unit, and the exact sum, counted
/// again where it fits, otherwise.
fn swap(total: &Accumulator, out: Rational, into: Rational) -> Option<Accumulator> {
    if let Some((n, unit, [out, into])) = counts(total, [out, into]) {
        if let Some(n) = n.checked_sub(out).and_then(|n| n.checked_add(into)) {
            return Some(Accumulator::of(Units::new(n), unit));
        }
    }
    let sum = total
        .checked_finish()?
        .checked_sub(out)?
        .checked_add(into)?;
    Some(Accumulator::from(sum))
}

/// Tracks per-task weight commitments and enforces (W).
#[derive(Clone, Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    capacity: Rational,
    /// By task id; `None` = not in the system.
    committed: Vec<Option<Weight>>,
    /// Running `Σ committed`, maintained at every table write so
    /// admission decisions are O(1) instead of an O(n) fold — at 10⁵–10⁶
    /// tasks the fold dominated every join. Exact by construction: the
    /// sum is counted exactly, or updated with the same exact-rational
    /// arithmetic the fold would use.
    total: Accumulator,
}

impl AdmissionController {
    /// A controller for `processors` processors and task ids `0..tasks`.
    pub fn new(policy: AdmissionPolicy, processors: u32, tasks: u32) -> AdmissionController {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        AdmissionController {
            policy,
            capacity: Rational::from_int(i128::from(processors)),
            committed: vec![None; tasks as usize],
            total: Accumulator::new(),
        }
    }

    /// Grows the commitment table to cover task ids `0..tasks` (no-op
    /// when already that big). New slots carry zero commitment, so the
    /// running total is unchanged.
    pub fn ensure_tasks(&mut self, tasks: u32) {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        let tasks = tasks as usize;
        if tasks > self.committed.len() {
            self.committed.resize(tasks, None);
        }
    }

    /// Capacity not yet committed; `None` if the ledger cannot
    /// represent it.
    pub fn available(&self) -> Option<Rational> {
        self.capacity.checked_sub(self.total.checked_finish()?)
    }

    /// What `task`, committed at `cur`, may hold under policing: `want`
    /// if it fits in the capacity left over with `cur` returned to it,
    /// and that headroom otherwise; `None` if the ledger cannot
    /// represent it.
    fn police(&self, cur: Rational, want: Rational) -> Option<Rational> {
        if let Some((n, unit, [cur_n, want_n])) = counts(&self.total, [cur, want]) {
            let capacity = i64::try_from(self.capacity.numer()).ok();
            let room = (capacity.and_then(|m| m.checked_mul(unit.get())))
                .and_then(|m| m.checked_sub(n)?.checked_add(cur_n));
            if let Some(room) = room {
                let clamped = room < want_n;
                return Some(if clamped {
                    Units::new(room).over(unit)
                } else {
                    want
                });
            }
        }
        let headroom = self.available()?.checked_add(cur)?;
        let clamped = headroom.checked_cmp(&want)?.is_lt();
        Some(if clamped { headroom } else { want })
    }

    /// Lowers (or clears) one commitment, keeping the running total
    /// exact. A slot that already holds `value` — the enactment of an
    /// increase committed at request time — leaves the total alone; a
    /// total the ledger cannot represent leaves the slot at its old,
    /// higher value.
    fn set_committed(&mut self, task: TaskId, value: Option<Weight>) {
        let cur = self.committed(task);
        if cur == value {
            return;
        }
        let total = swap(&self.total, Weight::share(cur), Weight::share(value));
        if let (Some(total), Some(slot)) = (total, self.committed.get_mut(task.idx())) {
            *slot = value;
            self.total = total;
        }
    }

    /// The commitment of `task` (`None` while it has none).
    fn committed(&self, task: TaskId) -> Option<Weight> {
        self.committed.get(task.idx()).copied().flatten()
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
    ///
    /// One [`AdmissionController::grant`] and, if the grant is a
    /// [`Weight`], its [`AdmissionController::commit`].
    pub fn request(&mut self, task: TaskId, want: Weight) -> Option<Weight> {
        let grant = self.grant(task, want).ok()??;
        let granted = Weight::try_new(grant.share).ok()?;
        self.commit(task, granted, grant);
        Some(granted)
    }

    /// What [`AdmissionController::request`] would grant, without
    /// writing the ledger: `Ok(None)` if nothing can be granted, and
    /// [`LedgerOverflow`] if the grant or the total its commitment
    /// leaves is not representable. A clamped grant is the capacity left over, so
    /// its denominator is the ledger's, which need not fit a [`Weight`];
    /// the engine refuses such a grant before it commits anything.
    pub fn grant(&self, task: TaskId, want: Weight) -> Result<Option<Grant>, LedgerOverflow> {
        let want_v = want.value();
        let cur_v = Weight::share(self.committed(task));
        let decrease = want_v.checked_cmp(&cur_v).ok_or(LedgerOverflow)?.is_le();
        let share = match self.policy {
            AdmissionPolicy::Trusting => want_v,
            AdmissionPolicy::Police if decrease => want_v,
            AdmissionPolicy::Police => {
                let share = self.police(cur_v, want_v).ok_or(LedgerOverflow)?;
                if !share.is_positive() {
                    return Ok(None);
                }
                share
            }
        };
        // A decrease is committed at enactment ([`Self::note_enacted`]).
        let total = if decrease {
            self.total.clone()
        } else {
            swap(&self.total, cur_v, share).ok_or(LedgerOverflow)?
        };
        Ok(Some(Grant { share, total }))
    }

    /// Commits `grant`, granted as the weight `granted`: commitments
    /// only rise at request time; they fall at enactment.
    pub fn commit(&mut self, task: TaskId, granted: Weight, grant: Grant) {
        if let Some(slot) = self.committed.get_mut(task.idx()) {
            *slot = (*slot).max(Some(granted));
            self.total = grant.total;
        }
    }

    /// Releases a leaving task's commitment. Under PD²-LJ semantics the
    /// capacity only truly frees at the leave time; callers invoke this
    /// at that point.
    pub fn release(&mut self, task: TaskId) {
        self.set_committed(task, None);
    }

    /// Records an enacted weight change: the task's scheduling weight is
    /// now exactly `enacted`, so the commitment settles there — in
    /// particular, this is where a decrease's capacity finally frees.
    pub fn note_enacted(&mut self, task: TaskId, enacted: Weight) {
        self.set_committed(task, Some(enacted));
    }

    /// The per-task commitment table, for persistence. Policy and
    /// capacity are derived from the simulation config at restore time;
    /// the commitments are the only mutable state.
    pub fn committed_parts(&self) -> &[Option<Weight>] {
        &self.committed
    }

    /// Writes a persisted commitment table over this one, into the
    /// buffer it already has; `false`, having written nothing, if the
    /// ledger cannot represent its sum.
    pub fn load_parts(&mut self, committed: &[Option<Weight>]) -> bool {
        let total = (committed.iter())
            .try_fold(Rational::ZERO, |acc, &c| acc.checked_add(Weight::share(c)));
        let Some(total) = total.map(Accumulator::from) else {
            return false;
        };
        committed.clone_into(&mut self.committed);
        self.total = total;
        true
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
        assert_eq!(ac.available(), Some(Rational::ZERO));
        assert_eq!(ac.request(TaskId(0), w(3, 4)), Some(w(1, 2)));
        // Enactment frees it …
        ac.note_enacted(TaskId(1), w(1, 4));
        // … and the next increase may claim it.
        assert_eq!(ac.request(TaskId(0), w(3, 4)), Some(w(3, 4)));
        assert_eq!(ac.available(), Some(Rational::ZERO));
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
        assert!(ac.available().is_some_and(Rational::is_negative));
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
                let committed: Vec<Rational> =
                    ac.committed_parts().iter().map(|&c| Weight::share(c)).collect();
                prop_assert_eq!(committed, twin.committed.clone());
                prop_assert_eq!(ac.total.finish(), twin.total());
                prop_assert_eq!(ac.available(), Some(twin.capacity - twin.total()));
            }
        }
    }
}
