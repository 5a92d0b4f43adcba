//! EPDF with `I_PS`-projected deadlines: the Theorem-4 lower-bound
//! scheduler.
//!
//! Theorem 4 shows *every* EPDF algorithm can incur non-zero drift per
//! reweighting event. The argument (Fig. 9) considers an EPDF scheduler
//! that, lacking prior knowledge of weight changes, must derive subtask
//! deadlines from *projections* of the instantaneous ideal `I_PS`: the
//! deadline of a task's `(k+1)`-th quantum is the projected time at
//! which its `I_PS` allocation reaches `k + 1` under the current weight.
//! When a weight increases, the projection jumps earlier — too late for
//! the scheduler to have built up the allocation, and a deadline is
//! missed unless the scheme accepts drift by shifting its lag-bound
//! range.
//!
//! This module implements exactly that scheduler so the counterexample
//! is *executable*: the `fig9` test and the `counterexamples` binary run
//! the paper's two-processor system and observe the miss at time 9.

use crate::event::{EventKind, Workload};
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{slot_from_i128, Slot};

/// A deadline miss under the projected-deadline EPDF scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProjectedMiss {
    /// The task that missed.
    pub task: TaskId,
    /// Which quantum (1-based) missed.
    pub quantum: u64,
    /// The projected deadline that passed unmet.
    pub deadline: Slot,
}

#[derive(Clone, Debug)]
struct PTask {
    active: bool,
    wt: Rational,
    /// `A(I_PS, T, 0, now)`.
    cum: Rational,
    /// Completed quanta.
    done: u64,
    /// Quanta already reported as missed (to report each miss once).
    missed_through: u64,
}

/// Result of a projected-deadline EPDF run.
#[derive(Clone, Debug)]
pub struct ProjectedRun {
    /// All misses in time order.
    pub misses: Vec<ProjectedMiss>,
    /// Quanta scheduled per task.
    pub scheduled: Vec<u64>,
}

/// The projected deadline of task state `p` at time `now`: the earliest
/// integer time at which its `I_PS` allocation reaches `done + 1`.
fn projected_deadline(p: &PTask, now: Slot) -> Slot {
    let need = Rational::from_int(i128::from(p.done) + 1) - p.cum;
    if !need.is_positive() {
        return now; // allocation already owed
    }
    // now + ⌈need / wt⌉
    now + slot_from_i128((need / p.wt).ceil())
}

/// Whether the `(done+1)`-th quantum has been *released*: the ideal has
/// fully allocated the first `done` quanta (`cum ≥ done`), so the next
/// one is underway. Matches the window structure of Fig. 9 (a weight-1/7
/// task's second quantum releases at time 7).
fn released(p: &PTask) -> bool {
    p.cum >= Rational::from_int(i128::from(p.done))
}

/// Runs the projected-deadline EPDF scheduler over the workload on
/// `processors` processors for `horizon` slots.
pub fn run_projected_epdf(processors: u32, horizon: Slot, workload: &Workload) -> ProjectedRun {
    #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
    let n = workload.task_count() as usize;
    let mut tasks: Vec<PTask> = (0..n)
        .map(|_| PTask {
            active: false,
            wt: Rational::ONE,
            cum: Rational::ZERO,
            done: 0,
            missed_through: 0,
        })
        .collect();
    let events = workload.stream();
    let mut next_event = 0usize;
    let mut misses = Vec::new();
    let mut scheduled = vec![0u64; n];

    for t in 0..horizon {
        // Apply events at t.
        while next_event < events.len() && events[next_event].at == t {
            let ev = events[next_event];
            next_event += 1;
            let p = &mut tasks[ev.task.idx()];
            match ev.kind {
                EventKind::Join(w) => {
                    p.active = true;
                    p.wt = w.value();
                    p.cum = Rational::ZERO;
                    p.done = 0;
                    p.missed_through = 0;
                }
                EventKind::Leave => p.active = false,
                EventKind::Reweight(w) => p.wt = w.value(),
                // Separations have no effect on the projection scheme:
                // its releases derive from the I_PS accumulation itself.
                EventKind::Delay(_) => {}
            }
        }

        // Record misses: released quanta whose projected deadline is ≤ t.
        for (i, p) in tasks.iter_mut().enumerate() {
            if p.active && released(p) && p.done >= p.missed_through {
                let dl = projected_deadline(p, t);
                if dl <= t {
                    misses.push(ProjectedMiss {
                        task: TaskId::from_index(i),
                        quantum: p.done + 1,
                        deadline: dl,
                    });
                    p.missed_through = p.done + 1;
                }
            }
        }

        // EPDF selection among released quanta.
        let mut eligible: Vec<(Slot, usize)> = tasks
            .iter()
            .enumerate()
            .filter(|(_, p)| p.active && released(p))
            .map(|(i, p)| (projected_deadline(p, t), i))
            .collect();
        eligible.sort();
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        for &(_, i) in eligible.iter().take(processors as usize) {
            tasks[i].done += 1;
            scheduled[i] += 1;
        }

        // Ideal advance.
        for p in tasks.iter_mut().filter(|p| p.active) {
            p.cum += p.wt;
        }
    }

    ProjectedRun { misses, scheduled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn projection_matches_fig9_deadline_jump() {
        // Weight 1/21 at time 0: first quantum projected at 21.
        let mut p = PTask {
            active: true,
            wt: rat(1, 21),
            cum: Rational::ZERO,
            done: 0,
            missed_through: 0,
        };
        assert_eq!(projected_deadline(&p, 0), 21);
        // At time 7 with cum = 7/21 and weight now 1/3: projection is 9.
        p.cum = rat(7, 21);
        p.wt = rat(1, 3);
        assert_eq!(projected_deadline(&p, 7), 9);
    }

    #[test]
    fn second_quantum_releases_when_ideal_catches_up() {
        // Weight-1/7 task: second quantum releases at time 7.
        let mut p = PTask {
            active: true,
            wt: rat(1, 7),
            cum: Rational::ZERO,
            done: 0,
            missed_through: 0,
        };
        assert!(released(&p)); // first quantum released immediately
        p.done = 1;
        p.cum = rat(6, 7);
        assert!(!released(&p));
        p.cum = Rational::ONE;
        assert!(released(&p));
    }

    #[test]
    fn single_task_never_misses() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 3);
        let run = run_projected_epdf(1, 30, &w);
        assert!(run.misses.is_empty());
        assert_eq!(run.scheduled[0], 10);
    }
}
