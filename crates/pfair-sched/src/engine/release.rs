//! Step 4 of the slot pipeline: subtask releases, and the tracker
//! synchronization every release (and every rule) starts with.
//!
//! Within an era that opened with subtask `T_z` (`Id(T_i) = z`), subtask
//! `T_i` of a task of scheduling weight `w` released at `r(T_i)` has the
//! window of Fig. 1 (Eqns (2)–(4)):
//!
//! ```text
//! d(T_i) = r(T_i) + ⌈(i − z + 1) / w⌉ − ⌊(i − z) / w⌋
//! b(T_i) = ⌈(i − z + 1) / w⌉ − ⌊(i − z + 1) / w⌋
//! r(T_{i+1}) = d(T_i) − b(T_i) + θ(T_{i+1}) − θ(T_i)
//! ```
//!
//! so a release fixes the window, tells `I_SW` about the subtask (Fig.
//! 5), queues it if the task has no schedulable head, and books the
//! successor's release. A release that opens an era is where drift is
//! defined (Eqn (5)): `drift(T, u) = A(I_PS, T, 0, u) − A(I_CSW, T, 0, u)`
//! is sampled at exactly that slot.
//!
//! A task that has not changed since it joined, or whose era has
//! settled, has no trackers to tell (`engine/ideal.rs`, "The static-row
//! invariant"): its `I_SW` completes each subtask at its deadline and
//! each ideal grows by its weight a slot. A static row's one era-opening
//! release, at the join, samples a drift of zero; a settled row opens
//! no era. Its release writes the window and the record and nothing
//! else. A tracked row's release tells its trackers, and then settles
//! the row if its era has.

use super::ideal::Ideal;
use super::{Engine, SubRec, SubsScan, TaskState};
use crate::priority::Priority;
use crate::queue::QueueEntry;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{Slot, NEVER};
use pfair_core::window::window_and_group_deadline;
use pfair_obs::{ObsEvent, Probe, ReleaseRec};

impl TaskState {
    /// Event-driven tracker synchronization: advances the ideal trackers
    /// to boundary `t` in one closed-form jump and folds any completions
    /// discovered along the way into the subtask records. The engine
    /// calls this wherever it reads or mutates ideal state — enactments,
    /// initiations, halts, delays, releases, departures, end-of-run — so
    /// the scheduling weight is constant between syncs and the jump is
    /// bit-identical to the per-slot oracle. Both trackers count in era
    /// units and report only what the engine reads — `(index,
    /// D(I_SW, T_index))` per completion — so a synchronization builds no
    /// `Rational` at all.
    ///
    /// A static or settled row has no trackers: its synchronization
    /// moves `now` and writes each unhalted record's deadline as its
    /// completion once the deadline is at or before `t` — the sync at
    /// which a tracker would report it, so pruning and the snapshot see
    /// the same records. (A record of an earlier era has its completion
    /// already, or is halted: a tracker retains every other one, and a
    /// row that retains one has not settled.)
    ///
    /// The pass over the retained records that follows also answers
    /// what a release at `t` asks of them, so that path never rescans:
    /// see [`SubsScan`].
    fn sync_ideals_to(&mut self, t: Slot) -> SubsScan {
        let closed_form = match &mut self.ideal {
            Ideal::Closed { now, .. } => {
                *now = t.max(*now);
                true
            }
            Ideal::Tracked(trackers) => {
                if trackers.isw.now() < t {
                    let subs = &mut self.subs;
                    trackers.isw.sync_to(t, |index, complete_at| {
                        if let Some(s) = subs.iter_mut().find(|s| s.index == index) {
                            s.isw_completion = complete_at;
                        }
                    });
                }
                if trackers.ps.now() < t {
                    trackers.ps.sync_to(t);
                }
                false
            }
        };
        let mut scan = SubsScan {
            pred_b: None,
            head_deadline: None,
        };
        for s in &mut self.subs {
            if s.halted_at == NEVER {
                if closed_form && s.deadline <= t && s.isw_completion == NEVER {
                    s.isw_completion = s.deadline;
                }
                scan.pred_b = Some(s.b);
                if s.scheduled_at == NEVER && scan.head_deadline.is_none() {
                    scan.head_deadline = Some(s.deadline);
                }
            }
        }
        scan
    }
}

/// Event-driven tracker synchronization with observation: wraps
/// [`TaskState::sync_ideals_to`] on task `id`'s row and reports the
/// closed-form jump (when one happened) to the probe.
pub(super) fn sync_observed<P: Probe>(
    task: &mut TaskState,
    id: TaskId,
    t: Slot,
    probe: &mut P,
) -> SubsScan {
    let from = task.ideal.now();
    let scan = task.sync_ideals_to(t);
    if from < t {
        probe.on_event(ObsEvent::TrackerAdvance {
            task: id,
            from,
            to: t,
        });
    }
    scan
}

impl<P: Probe> Engine<P> {
    /// [`sync_observed`] on a task of the engine, which then reaches the
    /// end-of-slot prune.
    pub(super) fn sync_task(&mut self, id: TaskId, t: Slot) -> SubsScan {
        // A sync can settle completions, changing prunability.
        self.touched.push(id);
        sync_observed(self.tasks.task_mut(id), id, t, &mut self.probe)
    }

    // ---- step 4: releases ---------------------------------------------

    /// Releases every valid entry of slot `t`'s due list: window
    /// arithmetic, tracker syncs, drift samples, queue pushes, and probe
    /// emissions.
    pub(super) fn fire_releases(&mut self, t: Slot) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.tasks.release_at.take_into(t, &mut due);
        Self::in_task_order(&mut due);
        // The probe gets the slot's releases as one batch; without a
        // probe nothing reads it, and nothing is recorded.
        let mut batch = std::mem::take(&mut self.scratch.batch);
        for id in due.drain(..) {
            if !self.tasks.in_system(id) || self.tasks.next_release(id) != Some(t) {
                continue; // moved, suppressed, or already fired
            }
            // Per-release synchronization boundary: drift samples read
            // A(·, 0, t) below, and settling completions here also keeps
            // `subs` and the tracker's retained records bounded.
            let scan = self.sync_task(id, t);
            let tie_rank = self.tie.rank(id);
            #[expect(clippy::disallowed_methods, reason = "a present task has a weight")]
            let weight = self.tasks.swt(id).expect("a present task without a weight");
            // Eqn (4) books the successor's release unless a pending
            // change or leave suppresses it.
            let books_successor = self.tasks.parked(id).is_nothing();
            let task = self.tasks.task_mut(id);
            let index = task.next_index;
            task.next_index += 1;
            let rank = index - task.era_base;
            let (window, gd) = window_and_group_deadline(weight, rank, t);
            let era_first = task.era_open_pending;
            task.era_open_pending = false;

            // Drift is sampled exactly at era-opening releases: `u` of
            // Eqn (5) is this slot, and the trackers currently hold
            // A(·, 0, t). A static row's totals are all zero at its join,
            // and a settled row opens no era: the enactment that opens
            // one builds its trackers first.
            if era_first {
                let drift = match &task.ideal {
                    Ideal::Tracked(trackers) => trackers.drift(),
                    Ideal::Closed { .. } => Rational::ZERO,
                };
                task.drift.reserve_until(t, self.config.horizon);
                task.drift.record(t, drift);
                self.probe
                    .on_event(ObsEvent::DriftSample { task: id, t, drift });
            }

            if let Ideal::Tracked(trackers) = &mut task.ideal {
                let pred_b = if era_first {
                    false
                } else {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "within an era the predecessor record is retained until its successor releases"
                    )]
                    scan.pred_b
                        .expect("non-era-first release without predecessor")
                };
                trackers.isw.add_subtask(index, t, era_first, pred_b);
            }
            task.subs.push_back(SubRec {
                index,
                release: window.release,
                deadline: window.deadline,
                group_deadline: gd,
                scheduled_at: NEVER,
                halted_at: NEVER,
                isw_completion: NEVER,
                b: window.b,
                era_first,
                missed: false,
            });
            if books_successor {
                self.tasks.settle(id, weight);
            }

            let successor = books_successor.then(|| window.next_release());
            self.tasks.set_next_release(id, successor);
            match scan.head_deadline {
                // The task already has a schedulable head; this subtask
                // waits behind it. Miss detection relies on the head's
                // deadline bounding those of the records behind it.
                Some(head) => debug_assert!(
                    head <= window.deadline,
                    "{id}: head deadline {head} after its successor's {}",
                    window.deadline
                ),
                None => {
                    let entry = QueueEntry {
                        priority: Priority::pack(window.deadline, window.b, gd, tie_rank),
                        task: id,
                        index,
                    };
                    self.queue.push(entry, &mut self.counters);
                }
            }
            if !P::IS_NOOP {
                batch.push(ReleaseRec {
                    task: id,
                    index,
                    deadline: window.deadline,
                    era_first,
                });
            }
        }
        if !batch.is_empty() {
            self.probe.on_release_batch(t, &batch);
            batch.clear();
        }
        self.scratch.batch = batch;
        self.scratch.due = due;
    }
}
