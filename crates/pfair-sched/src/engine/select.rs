//! Steps 5 and 6 of the slot pipeline: PD² selection and miss detection.
//!
//! In each slot PD² schedules the `M` highest-priority released,
//! unscheduled, unhalted subtasks (paper §2; the one-processor schedule
//! of Fig. 4). `T_i` has priority over `U_k` when
//!
//! 1. `d(T_i) < d(U_k)`; or
//! 2. the deadlines are equal and `b(T_i) > b(U_k)`; or
//! 3. both b-bits are 1 and `T_i`'s group deadline is later
//!    (heavy tasks only; a light task's group deadline is its deadline);
//!
//! remaining ties are broken by the configured [`TieBreak`] — the packed
//! [`Priority`] key orders exactly so. No two subtasks of one task share
//! a slot: a task's next head is queued only after its current one has
//! been chosen. A subtask still pending when its deadline arrives is a
//! miss (Theorem 2: never under PD²-OI with condition (W) policed).
//!
//! [`TieBreak`]: crate::priority::TieBreak

use super::{Engine, SlotScratch, NO_CPU};
use crate::priority::Priority;
use crate::queue::QueueEntry;
use crate::trace::Miss;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_obs::{ObsEvent, Probe};

impl<P: Probe> Engine<P> {
    /// Delta form of the oracle's ran-flag/preemption scan: only tasks
    /// in last slot's chosen set can hold a set `ran` bit, so updating
    /// `prev ∪ chosen` touches every flag the full scan would change.
    /// Preempted tasks are reported in ascending id order, matching the
    /// oracle's task-order iteration. A member of `prev` whose bit is
    /// already clear left and rejoined this slot (the join resets the
    /// flag); the oracle would neither flip its flag nor count a
    /// preemption, so it is skipped.
    ///
    /// Membership in `chosen` is read off the `ran` bitmap itself:
    /// clear the set bits of `prev`, set the bits of `chosen`, and a
    /// cleared task whose bit is set again kept running.
    pub(super) fn sweep_ran_flags(&mut self, t: Slot, prev: &[TaskId], chosen: &[TaskId]) {
        let mut stopped = std::mem::take(&mut self.scratch.stopped);
        for &id in prev {
            if self.tasks.ran_last_slot(id) {
                self.tasks.set_ran(id, false);
                stopped.push(id);
            }
        }
        for &id in chosen {
            self.tasks.set_ran(id, true);
        }
        let tasks = &self.tasks;
        stopped.retain(|&id| !tasks.ran_last_slot(id) && tasks.task(id).head().is_some());
        #[expect(clippy::as_conversions, reason = "usize→u64 is lossless")]
        let preempted = stopped.len() as u64;
        self.counters.preemptions += preempted;
        stopped.sort_unstable_by_key(|id| id.0);
        for id in stopped.drain(..) {
            self.probe.on_event(ObsEvent::Preempt { task: id, t });
        }
        self.scratch.stopped = stopped;
    }

    // ---- step 5: PD² selection -----------------------------------------

    /// PD² selection proper: pops up to `M` live subtasks from the ready
    /// queue, marks them scheduled, counts holes, and assigns
    /// processors. Each chosen task's records are read once: the
    /// liveness test finds the popped subtask's record, scheduling
    /// settles it in place, and the schedulable head behind it — the
    /// task's next queue entry — is left in `scratch.promoted` for
    /// [`Engine::promote_successors`].
    pub(super) fn pop_and_schedule(&mut self, t: Slot) -> Vec<TaskId> {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        let m = self.config.processors as usize;
        let mut chosen = std::mem::take(&mut self.scratch.chosen);
        chosen.clear();
        while chosen.len() < m {
            let tasks = &self.tasks;
            let probe = &mut self.probe;
            let mut at = 0;
            let Some(entry) = self.queue.pop_live_traced(
                &mut self.counters,
                |e| tasks.live_position(e).inspect(|&pos| at = pos).is_some(),
                |e| {
                    probe.on_event(ObsEvent::StalePop {
                        task: e.task,
                        index: e.index,
                        t,
                    });
                },
            ) else {
                break;
            };
            // Scheduling settles the head record; the task must reach
            // the end-of-slot prune.
            self.touched.push(entry.task);
            let task = self.tasks.task_mut(entry.task);
            #[expect(clippy::disallowed_methods, reason = "pop_live verified the subtask")]
            let sub = task.subs.get_mut(at).expect("live entry lost its subtask");
            sub.scheduled_at = t;
            task.last_scheduled = Some(sub.window());
            task.scheduled_count += 1;
            // A live entry is its task's head (a successor is queued
            // only once the head has been chosen), so the next head is
            // the first pending record behind it.
            debug_assert!(
                task.subs.iter().take(at).all(|s| !s.is_pending()),
                "{}: live entry {} behind the head",
                entry.task,
                entry.index
            );
            if let Some(s) = task.subs.iter().skip(at + 1).find(|s| s.is_pending()) {
                let tie_rank = self.tie.rank(entry.task);
                self.scratch.promoted.push(QueueEntry {
                    priority: Priority::pack(s.deadline, s.b, s.group_deadline, tie_rank),
                    task: entry.task,
                    index: s.index,
                });
            }
            self.counters.scheduled_quanta += 1;
            self.probe.on_event(ObsEvent::Schedule {
                task: entry.task,
                index: entry.index,
                t,
            });
            chosen.push(entry.task);
        }

        if chosen.len() < m {
            self.counters.slots_with_holes += 1;
        }

        self.assign_processors(&chosen);
        chosen
    }

    /// Pushes the new schedulable head of every just-scheduled task, in
    /// the order the tasks were chosen (eligible from t + 1, but pushing
    /// now is safe: selection for slot t is over).
    pub(super) fn promote_successors(&mut self) {
        let mut promoted = std::mem::take(&mut self.scratch.promoted);
        for entry in promoted.drain(..) {
            self.queue.push(entry, &mut self.counters);
        }
        self.scratch.promoted = promoted;
    }

    /// Greedy sticky assignment: tasks keep their previous processor when
    /// free; otherwise they migrate (and are counted).
    fn assign_processors(&mut self, chosen: &[TaskId]) {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        let m = self.config.processors as usize;
        let SlotScratch {
            cpu_taken,
            unplaced,
            free_cpus,
            ..
        } = &mut self.scratch;
        cpu_taken.clear();
        cpu_taken.resize(m, false);
        for &id in chosen {
            #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
            let last = self.tasks.task(id).last_cpu as usize;
            // `NO_CPU` names no processor.
            match cpu_taken.get_mut(last) {
                Some(taken) if !*taken => *taken = true,
                _ => unplaced.push(id),
            }
        }
        if unplaced.is_empty() {
            return; // everyone kept their processor
        }
        // Highest first, so `pop` hands out the lowest free processor.
        free_cpus.extend(
            (0..self.config.processors)
                .zip(cpu_taken.iter())
                .filter(|(_, taken)| !**taken)
                .map(|(c, _)| c)
                .rev(),
        );
        for id in unplaced.drain(..) {
            #[expect(clippy::disallowed_methods, reason = "PD² picks ≤ `processors` tasks")]
            let cpu = free_cpus.pop().expect("more chosen tasks than processors");
            let task = self.tasks.task_mut(id);
            if task.last_cpu != NO_CPU {
                self.counters.migrations += 1;
            }
            task.last_cpu = cpu;
        }
        free_cpus.clear();
    }

    // ---- step 6: miss detection -----------------------------------------

    /// Records every released, unhalted, unscheduled subtask whose
    /// deadline is `t + 1`, in `(task, index)` order.
    ///
    /// No task is scanned on a slot that cannot miss. The ready queue
    /// orders deadline-first and holds the schedulable head of every
    /// task that has a pending subtask (releases and promotions push
    /// it; halts, schedules and departures leave at most stale entries
    /// behind — the invariant `skip_quiet_span` relies on), and a
    /// task's head has the earliest deadline among its pending records
    /// (asserted at release). So a pending subtask due at `t + 1`
    /// implies a queue entry whose deadline field is `≤ t + 1`: when
    /// the queue's front is later than that, the slot is done in O(1).
    /// Otherwise the entries up to `t + 1` — tardy heads, heads due
    /// now, stale leftovers — name the only tasks that can miss, and
    /// their records are checked against the *recorded* window
    /// deadline, so a deadline outside the packed key's exact band
    /// (which saturates low, never high, relative to a slot the run can
    /// reach) only costs a walk, never a wrong answer.
    ///
    /// Slots consumed by a quiet-span skip or a busy-span jump need no
    /// check: the first has an empty ready queue (no pending subtask
    /// exists at all), the second is verified miss-free.
    pub(super) fn check_misses(&mut self, t: Slot) {
        let due = t + 1;
        if self.queue.front_deadline().is_none_or(|d| d > due) {
            return;
        }
        let mut missed = std::mem::take(&mut self.scratch.missed);
        let tasks = &self.tasks;
        self.queue.for_each_due(due, |e| {
            if !tasks.in_system(e.task) {
                return;
            }
            let Some(task) = tasks.get(e.task) else {
                return;
            };
            for s in &task.subs {
                if s.is_pending() && !s.missed {
                    debug_assert!(
                        s.deadline >= due,
                        "miss slipped through a batched slot: {} index {} deadline {}",
                        e.task,
                        s.index,
                        s.deadline
                    );
                    if s.deadline == due {
                        missed.push((e.task.0, s.index));
                    }
                }
            }
        });
        // A task with a stale and a live entry was visited twice.
        missed.sort_unstable();
        missed.dedup();
        for (raw_task, index) in missed.drain(..) {
            let id = TaskId(raw_task);
            if let Some(sub) = self.tasks.task_mut(id).sub_mut(index) {
                sub.missed = true;
            }
            self.probe.on_event(ObsEvent::Miss {
                task: id,
                index,
                t,
                deadline: due,
            });
            self.misses.push(Miss {
                task: id,
                index,
                deadline: due,
            });
        }
        self.scratch.missed = missed;
    }
}
