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

use super::{Engine, SubRec, SubsScan, TaskState};
use crate::priority::Priority;
use crate::queue::QueueEntry;
use pfair_core::task::TaskId;
use pfair_core::time::{Slot, NEVER};
use pfair_core::weight::Weight;
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
    /// `Rational` at all. In history mode step 6 advances the trackers
    /// every slot, making this a no-op.
    ///
    /// The pass over the retained records that follows also answers
    /// what a release at `t` asks of them, so that path never rescans:
    /// see [`SubsScan`].
    fn sync_ideals_to(&mut self, t: Slot) -> SubsScan {
        if self.isw.now() < t {
            let subs = &mut self.subs;
            self.isw.sync_to(t, |index, complete_at| {
                if let Some(s) = subs.iter_mut().find(|s| s.index == index) {
                    s.isw_completion = complete_at;
                }
            });
        }
        if self.ps.now() < t {
            self.ps.sync_to(t);
        }
        let mut scan = SubsScan {
            pred_b: None,
            head_deadline: None,
        };
        for s in &self.subs {
            if s.halted_at == NEVER {
                scan.pred_b = Some(s.b);
                if s.scheduled_at == NEVER && scan.head_deadline.is_none() {
                    scan.head_deadline = Some(s.deadline);
                }
            }
        }
        scan
    }
}

impl<P: Probe> Engine<P> {
    /// Event-driven tracker synchronization with observation: wraps
    /// [`TaskState::sync_ideals_to`] and reports the closed-form jump
    /// (when one happened) to the probe.
    pub(super) fn sync_task(&mut self, id: TaskId, t: Slot) -> SubsScan {
        // A sync can settle completions, changing prunability.
        self.touched.push(id);
        let task = self.tasks.task_mut(id);
        let from = task.isw.now();
        let scan = task.sync_ideals_to(t);
        if from < t {
            self.probe.on_event(ObsEvent::TrackerAdvance {
                task: id,
                from,
                to: t,
            });
        }
        scan
    }

    /// Records `id`'s `next_release` slot in the release index. Stale
    /// entries (the release was moved, suppressed, or already fired)
    /// are filtered by the `next_release == Some(t)` check when their
    /// slot comes up.
    pub(super) fn note_release(&mut self, id: TaskId, at: Slot) {
        self.release_at.insert(at, id);
    }

    // ---- step 4: releases ---------------------------------------------

    /// Releases every valid entry of slot `t`'s due list: window
    /// arithmetic, tracker syncs, drift samples, queue pushes, and probe
    /// emissions.
    pub(super) fn fire_releases(&mut self, t: Slot) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.release_at.take_into(t, &mut due);
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
            let swt = self.tasks.swt(id);
            let task = self.tasks.task_mut(id);
            let index = task.next_index;
            task.next_index += 1;
            let rank = index - task.era_base;
            // audit: allow(panic-reach, engine invariant: reweight rules keep swt within (0 and 1])
            let weight = Weight::try_new(swt).expect("invalid scheduling weight");
            let (window, gd) = window_and_group_deadline(weight, rank, t);
            let era_first = task.era_open_pending;
            task.era_open_pending = false;

            // Drift is sampled exactly at era-opening releases: `u` of
            // Eqn (5) is this slot, and the trackers currently hold
            // A(·, 0, t).
            if era_first {
                let ps_total = task.ps.total();
                let icsw_total = task.isw.icsw_total();
                let drift = ps_total - icsw_total;
                task.drift.record(t, ps_total, icsw_total);
                self.probe
                    .on_event(ObsEvent::DriftSample { task: id, t, drift });
            }

            let pred_b = if era_first {
                false
            } else {
                // audit: allow(panic-reach, within an era the predecessor record is retained until its successor releases)
                scan.pred_b
                    .expect("non-era-first release without predecessor")
            };
            task.isw.add_subtask(index, t, era_first, pred_b);
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

            // Eqn (4): the successor's release, unless a pending change
            // or leave suppresses it.
            let successor =
                (task.pending.is_none() && task.leaving == NEVER).then(|| window.next_release());

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
            if let Some(r) = successor {
                self.note_release(id, r);
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
