//! Global and partitioned EDF baselines with task reweighting.
//!
//! The companion papers study reweighting under EDF. Under *global EDF*
//! (\[7\], Block, Anderson & Devi, ECRTS'06) fine-grained reweighting is
//! possible **only if deadline misses are permissible**; under
//! *partitioning* (\[4\], Block & Anderson, ICPADS'06) it is provably
//! impossible, because a weight increase that no longer fits on the
//! task's processor forces a migration or a denial. [`run_edf`] makes
//! both executable as baselines for the Pfair schemes: quantum-based EDF
//! over unit-cost sporadic jobs whose period and relative deadline are
//! `round(1/w)`, so job granularity matches the Pfair schedulers'
//! quantum granularity whatever the weight's reduced fraction.
//!
//! Every task sits in a processor pool and each pool runs EDF: global
//! EDF is one pool of `M` processors, partitioned EDF is `M` pools of
//! one. [`EdfBaseline`] decides only where a join lands and what a
//! reweight does:
//!
//! * [`EdfReweightMode::AtBoundary`] (global, coarse): the new weight
//!   takes effect at the task's next job boundary. Deadlines are
//!   preserved, but the enactment delay shows up as drift against
//!   `I_PS`, exactly like PD²-LJ's leaving delay.
//! * [`EdfReweightMode::Immediate`] (global, fine): the current job's
//!   deadline is re-derived from the new weight on the spot. Drift stays
//!   small, but the schedule may now be over-committed in the short term
//!   and *deadline misses can occur* — the trade-off \[7\] proves
//!   inherent.
//! * [`EdfBaseline::Partitioned`]: joins are placed first-fit by join
//!   order (and rejected when no processor has room); a reweight applies
//!   at the next job boundary on the same processor when it fits there,
//!   migrates the task to the first processor with room when it does not
//!   (counted), and is clamped to the best spare capacity when no
//!   processor has room — the drift-producing denial.
//!
//! Substitution note (DESIGN.md, substitution 4): the supplied paper
//! text defines the Pfair rules precisely but only cites \[4\] and \[7\]
//! for the EDF rules; this module reconstructs their natural versions
//! rather than the companion papers' exact pseudo-code.

use crate::event::{EventKind, Workload};
use crate::trace::pct_of_ideal;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{slot_from_i128, Slot};

/// How global EDF applies a weight change to the running job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdfReweightMode {
    /// Enact at the next job boundary (coarse-grained; no new misses).
    AtBoundary,
    /// Re-derive the current job's deadline now (fine-grained; misses
    /// permissible).
    Immediate,
}

/// Which EDF baseline [`run_edf`] simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdfBaseline {
    /// One pool of all processors; every join is admitted.
    Global(EdfReweightMode),
    /// One pool per processor, placed first-fit; a reweight that does
    /// not fit migrates or is clamped.
    Partitioned,
}

/// A deadline miss (with tardiness) under an EDF baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdfMiss {
    /// The task that missed.
    pub task: TaskId,
    /// The job's absolute deadline.
    pub deadline: Slot,
    /// Completion time minus deadline (≥ 1); 1 for a job still
    /// unfinished at its deadline.
    pub tardiness: Slot,
}

/// Result of an EDF baseline run.
#[derive(Clone, Debug)]
pub struct EdfRun {
    /// Misses, each job reported once, in the slot order they show.
    pub misses: Vec<EdfMiss>,
    /// Per-task quanta scheduled.
    pub scheduled: Vec<u64>,
    /// Per-task `A(I_PS, T, 0, horizon)` at the requested weights.
    pub ps_totals: Vec<Rational>,
    /// Reweights that forced a processor migration (partitioned only).
    pub migrations: u64,
    /// Reweights whose grant was clamped below the request
    /// (partitioned only).
    pub clamped: u64,
    /// Joins rejected because no processor had room (partitioned only).
    pub rejected_joins: u64,
}

impl EdfRun {
    /// Scheduled work as a percentage of `I_PS`, per task — the drift
    /// analogue used to compare against the Pfair schemes. A task with
    /// no ideal allocation counts as fully served.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "report-only accuracy metric; never feeds scheduling"
    )]
    pub fn pct_of_ideal(&self) -> Vec<f64> {
        self.scheduled
            .iter()
            .zip(&self.ps_totals)
            .map(|(&s, &ps)| pct_of_ideal(s, ps).unwrap_or(100.0))
            .collect()
    }
}

#[derive(Clone, Debug)]
struct EdfTask {
    active: bool,
    /// The processor pool the task runs in.
    pool: usize,
    /// Enacted weight (drives job generation).
    weight: Rational,
    /// Granted weight not yet enacted (enacts at the next release).
    pending: Option<Rational>,
    /// Whether the current unit job is still unfinished.
    in_flight: bool,
    /// The current job's absolute deadline.
    deadline: Slot,
    /// Release time of the next job.
    next_release: Slot,
    /// Whether the current job already missed (report once).
    miss_reported: bool,
    /// `I_PS` accounting (requested weight, changes at initiation).
    ps_wt: Rational,
    ps_total: Rational,
    scheduled: u64,
}

const ABSENT: EdfTask = EdfTask {
    active: false,
    pool: 0,
    weight: Rational::ONE,
    pending: None,
    in_flight: false,
    deadline: 0,
    next_release: 0,
    miss_reported: false,
    ps_wt: Rational::ONE,
    ps_total: Rational::ZERO,
    scheduled: 0,
};

impl EdfTask {
    /// Reports the current job as missed, once.
    fn miss(&mut self, i: usize, tardiness: Slot, misses: &mut Vec<EdfMiss>) {
        if !self.miss_reported {
            misses.push(EdfMiss {
                task: TaskId::from_index(i),
                deadline: self.deadline,
                tardiness,
            });
            self.miss_reported = true;
        }
    }
}

/// A unit job's period and relative deadline at `weight`: `round(1/w)`.
fn period(weight: Rational) -> Slot {
    let (num, den) = (weight.numer(), weight.denom());
    slot_from_i128(((2 * den + num) / (2 * num)).max(1))
}

/// Spare capacity on processor `pool`, excluding task `skip`.
fn spare(tasks: &[EdfTask], pool: usize, skip: usize) -> Rational {
    let used = tasks
        .iter()
        .enumerate()
        .filter(|(i, x)| x.active && x.pool == pool && *i != skip)
        .fold(Rational::ZERO, |acc, (_, x)| {
            acc + x.pending.unwrap_or(x.weight).max(x.weight)
        });
    Rational::ONE - used
}

/// The first of `pools` processors with room for task `i` at `want`.
fn first_fit(tasks: &[EdfTask], pools: usize, i: usize, want: Rational) -> Option<usize> {
    (0..pools).find(|&c| spare(tasks, c, i) >= want)
}

/// Runs quantum-based EDF over the workload on `processors` processors,
/// as global or partitioned EDF according to `baseline`.
pub fn run_edf(
    processors: u32,
    horizon: Slot,
    workload: &Workload,
    baseline: EdfBaseline,
) -> EdfRun {
    #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
    let m = processors as usize;
    let (pools, width) = match baseline {
        EdfBaseline::Global(_) => (1, m),
        EdfBaseline::Partitioned => (m, 1),
    };
    #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
    let n = workload.task_count() as usize;
    let mut tasks = vec![ABSENT; n];
    let stream = workload.stream();
    let mut events = stream.iter().peekable();
    let mut misses = Vec::new();
    let (mut migrations, mut clamped, mut rejected_joins) = (0, 0, 0);

    for t in 0..horizon {
        while let Some(ev) = events.next_if(|ev| ev.at == t) {
            let i = ev.task.idx();
            match ev.kind {
                EventKind::Join(w) => {
                    let w = w.value();
                    let placed = match baseline {
                        EdfBaseline::Global(_) => Some(0),
                        EdfBaseline::Partitioned => first_fit(&tasks, pools, i, w),
                    };
                    let Some(pool) = placed else {
                        rejected_joins += 1;
                        continue;
                    };
                    // A rejoin keeps the task's totals, as the PD²
                    // engine's result row does.
                    tasks[i] = EdfTask {
                        active: true,
                        pool,
                        weight: w,
                        next_release: t,
                        ps_wt: w,
                        ps_total: tasks[i].ps_total,
                        scheduled: tasks[i].scheduled,
                        ..ABSENT
                    };
                }
                EventKind::Leave => tasks[i].active = false,
                // IS separations: postpone the next job release; the
                // ideal keeps charging (coarse baseline semantics).
                EventKind::Delay(by) => tasks[i].next_release += i64::from(by),
                EventKind::Reweight(_) if !tasks[i].active => {}
                EventKind::Reweight(w) => {
                    let want = w.value();
                    tasks[i].ps_wt = want;
                    match baseline {
                        EdfBaseline::Global(EdfReweightMode::AtBoundary) => {
                            tasks[i].pending = Some(want);
                        }
                        EdfBaseline::Global(EdfReweightMode::Immediate) => {
                            // Adopt the weight now: the next job releases
                            // once this one completes, and this one's
                            // deadline tightens if the new period is
                            // shorter — where misses become permissible.
                            let task = &mut tasks[i];
                            task.weight = want;
                            task.pending = None;
                            task.next_release = t;
                            if task.in_flight {
                                task.deadline = task.deadline.min(t + period(want));
                                task.miss_reported = false;
                            }
                        }
                        EdfBaseline::Partitioned => {
                            let here = tasks[i].pool;
                            let (pool, granted) = if want <= spare(&tasks, here, i) {
                                (here, want)
                            } else if let Some(pool) = first_fit(&tasks, pools, i, want) {
                                // Repartition: the next job runs there.
                                migrations += 1;
                                (pool, want)
                            } else {
                                // Nowhere fits: clamp to the best grant.
                                clamped += 1;
                                let best = (0..pools)
                                    .map(|c| spare(&tasks, c, i))
                                    .max()
                                    .unwrap_or(Rational::ZERO);
                                (here, want.min(best).max(tasks[i].weight.min(want)))
                            };
                            tasks[i].pool = pool;
                            tasks[i].pending = Some(granted);
                        }
                    }
                }
            }
        }

        // Job releases, collecting each pool's ready jobs.
        let mut ready: Vec<(usize, Slot, usize)> = Vec::new();
        for (i, task) in tasks.iter_mut().enumerate().filter(|(_, x)| x.active) {
            if !task.in_flight && task.next_release <= t {
                if let Some(w) = task.pending.take() {
                    task.weight = w;
                }
                let p = period(task.weight);
                task.in_flight = true;
                task.deadline = t + p;
                task.next_release = t + p;
                task.miss_reported = false;
            }
            if task.in_flight {
                ready.push((task.pool, task.deadline, i));
            }
        }

        // EDF in each pool: its `width` earliest deadlines, ties by id.
        ready.sort_unstable();
        for &(_, _, i) in ready
            .chunk_by(|a, b| a.0 == b.0)
            .flat_map(|pool| pool.iter().take(width))
        {
            let task = &mut tasks[i];
            task.in_flight = false;
            task.scheduled += 1;
            if t + 1 > task.deadline {
                task.miss(i, t + 1 - task.deadline, &mut misses);
            }
        }

        // Unfinished jobs at their deadline also count as misses.
        for (i, task) in tasks.iter_mut().enumerate().filter(|(_, x)| x.active) {
            if task.in_flight && task.deadline == t + 1 {
                task.miss(i, 1, &mut misses);
            }
            task.ps_total += task.ps_wt;
        }
    }

    EdfRun {
        misses,
        scheduled: tasks.iter().map(|x| x.scheduled).collect(),
        ps_totals: tasks.iter().map(|x| x.ps_total).collect(),
        migrations,
        clamped,
        rejected_joins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDARY: EdfBaseline = EdfBaseline::Global(EdfReweightMode::AtBoundary);
    const IMMEDIATE: EdfBaseline = EdfBaseline::Global(EdfReweightMode::Immediate);
    const PARTITIONED: EdfBaseline = EdfBaseline::Partitioned;

    #[test]
    fn feasible_static_set_meets_deadlines() {
        let mut w = Workload::new();
        // Two processors, four weight-1/2 tasks: two per processor when
        // partitioned.
        for i in 0..4 {
            w.join(i, 0, 1, 2);
        }
        for baseline in [BOUNDARY, PARTITIONED] {
            let run = run_edf(2, 40, &w, baseline);
            assert!(run.misses.is_empty(), "{baseline:?}");
            assert_eq!(run.rejected_joins, 0);
            // Each task gets half the slots.
            assert_eq!(run.scheduled, [20; 4], "{baseline:?}");
        }
    }

    #[test]
    fn at_boundary_delays_enactment() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 10);
        w.join(1, 0, 1, 10);
        w.reweight(0, 1, 1, 2); // wants 1/2 almost immediately
        let run = run_edf(1, 10, &w, BOUNDARY);
        // Until the boundary at t = 10 the task still runs one quantum
        // per 10 slots: it completes far less than I_PS promised.
        let pct = run.pct_of_ideal();
        assert!(pct[0] < 50.0, "pct = {pct:?}");
    }

    #[test]
    fn immediate_mode_tracks_ideal_but_can_miss() {
        // One processor, two tasks at weight 1/2; one rises to 9/10 — an
        // overload only Immediate mode lets through mid-job.
        let mut w = Workload::new();
        w.join(0, 0, 2, 4);
        w.join(1, 0, 2, 4);
        w.reweight(0, 1, 9, 10);
        let run = run_edf(1, 20, &w, IMMEDIATE);
        assert!(!run.misses.is_empty(), "overload should surface as misses");
    }

    #[test]
    fn leave_stops_scheduling() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        w.leave(0, 4);
        let run = run_edf(1, 10, &w, BOUNDARY);
        assert!(run.scheduled[0] <= 3);
    }

    #[test]
    fn rejoin_keeps_the_totals_under_every_baseline() {
        // Quanta at 0, 2, 4 before the leave, then 10, 12, …, 18.
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        w.leave(0, 6);
        w.join(0, 10, 1, 2);
        for baseline in [BOUNDARY, IMMEDIATE, PARTITIONED] {
            let run = run_edf(1, 20, &w, baseline);
            assert_eq!(run.scheduled, [8], "{baseline:?}");
            assert_eq!(run.ps_totals, [Rational::from_int(8)], "{baseline:?}");
            assert!(run.misses.is_empty());
        }
    }

    #[test]
    fn reweight_that_fits_locally_needs_no_migration() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        w.join(1, 0, 1, 4);
        w.reweight(0, 4, 1, 2);
        let run = run_edf(2, 40, &w, PARTITIONED);
        assert_eq!(run.migrations, 0);
        assert_eq!(run.clamped, 0);
    }

    #[test]
    fn reweight_that_does_not_fit_migrates() {
        let mut w = Workload::new();
        // CPU 0 ends up with tasks 0 and 1 (1/2 each); CPU 1 empty.
        w.join(0, 0, 1, 2);
        w.join(1, 0, 1, 2);
        // Task 0 wants 3/4: no room on CPU 0 beside task 1 → migrate.
        w.reweight(0, 2, 3, 4);
        let run = run_edf(2, 40, &w, PARTITIONED);
        assert_eq!(run.migrations, 1);
    }

    #[test]
    fn overload_clamps() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        w.join(1, 0, 1, 2);
        w.join(2, 0, 1, 2);
        w.join(3, 0, 1, 2);
        // Everyone full on 2 CPUs; task 0 wants 9/10 → clamp.
        w.reweight(0, 2, 9, 10);
        let run = run_edf(2, 40, &w, PARTITIONED);
        assert_eq!(run.clamped, 1);
        assert_eq!(run.migrations, 0);
    }

    #[test]
    fn join_rejected_when_nothing_fits() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 1);
        w.join(1, 0, 1, 2);
        let run = run_edf(1, 10, &w, PARTITIONED);
        assert_eq!(run.rejected_joins, 1);
    }

    #[test]
    fn rounded_periods_overload_a_processor_that_fits() {
        // 3/7 + 3/7 + 1/7 = 1 fits one processor, but the jobs' rounded
        // periods 2, 2, 7 ask for 1/2 + 1/2 + 1/7 of it.
        let mut w = Workload::new();
        w.join(0, 0, 3, 7);
        w.join(1, 0, 3, 7);
        w.join(2, 0, 1, 7);
        let run = run_edf(1, 28, &w, PARTITIONED);
        assert_eq!(run.rejected_joins, 0);
        assert_eq!(run.misses.len(), 7, "{:?}", run.misses);
        assert!(run.misses.iter().all(|m| m.tardiness == 1));
        let mut jobs: Vec<_> = run.misses.iter().map(|m| (m.task, m.deadline)).collect();
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), 7, "each missed job is reported once");
    }
}
