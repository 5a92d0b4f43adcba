//! Partitioned EDF baseline with task reweighting.
//!
//! The companion paper \[4\] (Block & Anderson, ICPADS'06) shows that
//! under *partitioning*, fine-grained reweighting is provably
//! impossible: a weight increase that no longer fits on the task's
//! processor forces either a repartition (migration, with its own
//! delay) or a denial, and either path costs non-constant drift. This
//! module gives that claim an executable baseline: first-fit-decreasing
//! partitioning with per-processor EDF, and reweighting that
//!
//! 1. applies on the same processor at the task's next job boundary when
//!    the new weight fits,
//! 2. migrates the task to the first processor with room when it does
//!    not (counted), and
//! 3. clamps the grant to the local spare capacity when no processor
//!    has room — the drift-producing denial.
//!
//! Substitution note (see DESIGN.md): \[4\]'s exact rules are not in the
//! supplied text; this is the natural reconstruction used as a
//! comparative baseline.

use crate::event::{EventKind, Workload};
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{slot_from_i128, Slot};

/// Outcome summary of a partitioned-EDF run.
#[derive(Clone, Debug)]
pub struct PartitionedRun {
    /// Per-task quanta scheduled.
    pub scheduled: Vec<u64>,
    /// Per-task `A(I_PS, T, 0, horizon)` (requested weights).
    pub ps_totals: Vec<Rational>,
    /// Deadline misses (task, deadline).
    pub misses: Vec<(TaskId, Slot)>,
    /// Reweights that forced a processor migration.
    pub migrations: u64,
    /// Reweights whose grant was clamped below the request.
    pub clamped: u64,
    /// Joins rejected because no processor had room.
    pub rejected_joins: u64,
}

impl PartitionedRun {
    /// Scheduled work as a percentage of `I_PS`, per task.
    // audit: allow(float, report-only accuracy metric; never feeds scheduling)
    pub fn pct_of_ideal(&self) -> Vec<f64> {
        self.scheduled
            .iter()
            .zip(&self.ps_totals)
            .map(|(s, ps)| {
                if ps.is_positive() {
                    // audit: allow(float, report-only accuracy metric; never feeds scheduling)
                    100.0 * *s as f64 / ps.to_f64() // audit: allow(lossy-cast, u64→f64 for reporting only)
                } else {
                    // audit: allow(float, report-only accuracy metric; never feeds scheduling)
                    100.0
                }
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
struct PTask {
    active: bool,
    cpu: usize,
    weight: Rational,
    pending: Option<Rational>,
    remaining: i64,
    deadline: Slot,
    next_release: Slot,
    miss_reported: bool,
    ps_wt: Rational,
    ps_total: Rational,
    scheduled: u64,
}

/// Unit-cost sporadic job with period/deadline `round(1/w)` — the same
/// granularity normalization as the global-EDF baseline.
fn job_shape(weight: Rational) -> (i64, i64) {
    let num = weight.numer();
    let den = weight.denom();
    let p = slot_from_i128(((2 * den + num) / (2 * num)).max(1));
    (1, p)
}

/// Spare capacity on `cpu`, excluding task `skip`.
fn spare(tasks: &[PTask], cpu: usize, skip: usize) -> Rational {
    let used = tasks
        .iter()
        .enumerate()
        .filter(|(i, x)| x.active && x.cpu == cpu && *i != skip)
        .fold(Rational::ZERO, |acc, (_, x)| {
            acc + x.pending.unwrap_or(x.weight).max(x.weight)
        });
    Rational::ONE - used
}

/// Runs partitioned EDF (first-fit partitioning by join order, EDF per
/// processor) over the workload.
pub fn run_partitioned_edf(processors: u32, horizon: Slot, workload: &Workload) -> PartitionedRun {
    let m = processors as usize; // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)

    let n = workload.task_count() as usize; // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
    let mut tasks: Vec<PTask> = (0..n)
        .map(|_| PTask {
            active: false,
            cpu: 0,
            weight: Rational::ONE,
            pending: None,
            remaining: 0,
            deadline: 0,
            next_release: 0,
            miss_reported: false,
            ps_wt: Rational::ONE,
            ps_total: Rational::ZERO,
            scheduled: 0,
        })
        .collect();
    let events = workload.stream();
    let mut next_event = 0usize;
    let mut out = PartitionedRun {
        scheduled: vec![0; n],
        ps_totals: vec![Rational::ZERO; n],
        misses: Vec::new(),
        migrations: 0,
        clamped: 0,
        rejected_joins: 0,
    };

    for t in 0..horizon {
        while next_event < events.len() && events[next_event].at == t {
            let ev = events[next_event];
            next_event += 1;
            let i = ev.task.idx();
            match ev.kind {
                EventKind::Join(w) => {
                    // First-fit placement.
                    let placed = (0..m).find(|&c| spare(&tasks, c, i) >= w.value());
                    match placed {
                        Some(cpu) => {
                            let task = &mut tasks[i];
                            task.active = true;
                            task.cpu = cpu;
                            task.weight = w.value();
                            task.ps_wt = w.value();
                            task.pending = None;
                            task.remaining = 0;
                            task.next_release = t;
                        }
                        None => out.rejected_joins += 1,
                    }
                }
                EventKind::Leave => tasks[i].active = false,
                EventKind::Delay(by) => tasks[i].next_release += i64::from(by),
                EventKind::Reweight(w) => {
                    if !tasks[i].active {
                        continue;
                    }
                    tasks[i].ps_wt = w.value();
                    let want = w.value();
                    let here = spare(&tasks, tasks[i].cpu, i);
                    if want <= here {
                        tasks[i].pending = Some(want);
                    } else if let Some(cpu) = (0..m).find(|&c| spare(&tasks, c, i) >= want) {
                        // Repartition: migrate at the next boundary.
                        tasks[i].cpu = cpu;
                        tasks[i].pending = Some(want);
                        out.migrations += 1;
                    } else {
                        // Nowhere fits: clamp to the best local grant.
                        let best = (0..m)
                            .map(|c| spare(&tasks, c, i))
                            .max()
                            .unwrap_or(Rational::ZERO);
                        let granted = want.min(best).max(tasks[i].weight.min(want));
                        tasks[i].pending = Some(granted);
                        out.clamped += 1;
                    }
                }
            }
        }

        // Releases.
        for task in tasks.iter_mut().filter(|x| x.active) {
            if task.remaining == 0 && task.next_release <= t {
                if let Some(w) = task.pending.take() {
                    task.weight = w;
                }
                let (e, p) = job_shape(task.weight);
                task.remaining = e;
                task.deadline = t + p;
                task.next_release = t + p;
                task.miss_reported = false;
            }
        }

        // Per-processor EDF: one quantum per processor.
        for cpu in 0..m {
            let pick = tasks
                .iter()
                .enumerate()
                .filter(|(_, x)| x.active && x.cpu == cpu && x.remaining > 0)
                .min_by_key(|(_, x)| x.deadline)
                .map(|(i, _)| i);
            if let Some(i) = pick {
                tasks[i].remaining -= 1;
                tasks[i].scheduled += 1;
            }
        }

        for (i, task) in tasks.iter_mut().enumerate() {
            if task.active && task.remaining > 0 && task.deadline == t + 1 && !task.miss_reported {
                out.misses.push((TaskId::from_index(i), task.deadline));
                task.miss_reported = true;
            }
            if task.active {
                task.ps_total += task.ps_wt;
            }
        }
    }

    for (i, task) in tasks.iter().enumerate() {
        out.scheduled[i] = task.scheduled;
        out.ps_totals[i] = task.ps_total;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_partitions_and_schedules() {
        let mut w = Workload::new();
        for i in 0..4 {
            w.join(i, 0, 1, 2); // four 1/2 tasks on two CPUs: two per CPU
        }
        let run = run_partitioned_edf(2, 40, &w);
        assert!(run.misses.is_empty());
        assert_eq!(run.rejected_joins, 0);
        for s in &run.scheduled {
            assert_eq!(*s, 20);
        }
    }

    #[test]
    fn reweight_that_fits_locally_needs_no_migration() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        w.join(1, 0, 1, 4);
        w.reweight(0, 4, 1, 2);
        let run = run_partitioned_edf(2, 40, &w);
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
        let run = run_partitioned_edf(2, 40, &w);
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
        let run = run_partitioned_edf(2, 40, &w);
        assert_eq!(run.clamped, 1);
        assert_eq!(run.migrations, 0);
    }

    #[test]
    fn join_rejected_when_nothing_fits() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 1);
        w.join(1, 0, 1, 2);
        let run = run_partitioned_edf(1, 10, &w);
        assert_eq!(run.rejected_joins, 1);
    }
}
