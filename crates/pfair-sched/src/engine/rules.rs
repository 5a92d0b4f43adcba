//! Steps 1 and 3 of the slot pipeline: the reweighting rules.
//!
//! A task `T` whose last-released subtask is `T_j` initiates a change
//! from weight `w` to weight `v` at time `t_c` (paper §3.2). Let
//! `D(I_SW, T_i)` be the slot by which `T_i` is complete in the ideal
//! schedule `I_SW`, and `b(T_i)` its b-bit.
//!
//! * **Rule O** (*omission-changeable*: `T_j` has not been scheduled by
//!   `t_c`). `T_j` is halted at `t_c`; the change is enacted, and the
//!   era-opening subtask released, at `max(t_c, D(I_SW, T_{j−1}) +
//!   b(T_{j−1}))` — at `t_c` itself when `T_j` is the task's first
//!   subtask. If `d(T_j) ≤ t_c` nothing is halted and the change is
//!   enacted at `max(t_c, d(T_j) + b(T_j))`.
//! * **Rule I** (*ideal-changeable*: `T_j` has been scheduled by `t_c`).
//!   An increase (`v > w`) is enacted immediately, a decrease at
//!   `D(I_SW, T_j) + b(T_j)`; in both cases the era-opening subtask is
//!   released at `D(I_SW, T_j) + b(T_j)`.
//! * **Rules L and J** (leave/join, PD²-LJ). A task may leave at or
//!   after `d(T_i) + b(T_i)` of its last-*scheduled* subtask `T_i`, its
//!   unscheduled subtasks withdrawn; it may join whenever condition (W)
//!   holds. A reweight is a leave under the old weight and a join under
//!   the new one at that time — which is what makes one event cost
//!   `Θ(1/w)` drift (Fig. 8, Theorem 3) where rules O and I cost at most
//!   two quanta (Fig. 6, Theorem 5).
//!
//! A change initiated while an earlier one is still pending supersedes
//! it (§3.2's "skipped" event; property (C)): the rules simply run again
//! against the current state. An intra-sporadic delay (the `θ` of Eqn
//! (4)) moves the next release later and suspends `I_PS` in between.

use super::{Engine, PendKind, Pending};
use crate::reweight::RuleChoice;
use pfair_core::ideal::{IswTracker, PsTracker};
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{ever, Slot, NEVER};
use pfair_core::weight::Weight;
use pfair_obs::{ObsEvent, Probe, ReweightCost, Rule};

impl<P: Probe> Engine<P> {
    /// Enacts scheduling weight `v` for `id` — the one place a task's
    /// `swt` changes after its join, and so the one place its `I_SW`
    /// tracker re-derives its era unit. The slab column and the tracker
    /// switch, the era base moves up to the last released subtask
    /// (indices above it rank within the new era), and the enactment is
    /// counted and reported to admission. The caller has synchronized
    /// the trackers to the current slot, under the closing weight.
    pub(super) fn enact_weight(&mut self, id: TaskId, v: Rational) {
        self.tasks.set_swt(id, v);
        let task = self.tasks.task_mut(id);
        task.isw.set_swt(v);
        task.era_base = task.next_index - 1;
        self.counters.reweight_enactments += 1;
        if let Ok(w) = Weight::try_new(v) {
            self.admission.note_enacted(id, w);
        }
    }

    /// Intra-sporadic separation (Eqn (4)'s `θ(T_{j+1}) − θ(T_j)` term):
    /// the next pending release moves `by` slots later, and `I_PS` owes
    /// nothing between the predecessor's deadline and the new release
    /// (the task has no active subtask there — cf. Fig. 1(b)'s inactive
    /// slot 4). Ignored while a reweighting change is pending (no
    /// release is scheduled to delay) or when the task is absent.
    pub(super) fn handle_delay(&mut self, id: TaskId, t: Slot, by: u32) {
        if !self.tasks.in_system(id) || by == 0 {
            return;
        }
        let Some(r_old) = self.tasks.next_release(id) else {
            return;
        };
        if r_old < t {
            return;
        }
        self.sync_task(id, t);
        let r_new = r_old + i64::from(by);
        self.tasks.set_next_release(id, Some(r_new));
        let task = self.tasks.task_mut(id);
        let inactive_from = task.last_released().map_or(r_old, |s| s.deadline).max(t);
        task.ps.suspend_between(inactive_from, r_new);
        self.note_release(id, r_new);
    }

    pub(super) fn handle_join(&mut self, id: TaskId, t: Slot, want: Weight) {
        let Some(granted) = self.admission.request(id, want) else {
            return; // join rejected: no capacity at all
        };
        let record_history = self.config.record_history;
        // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
        assert!(!self.tasks.in_system(id), "{id} joined twice");
        let g: Rational = granted.value();
        // History runs retain per-slot halt corrections; event-driven runs
        // keep the tracker's memory bounded instead.
        let isw = if record_history {
            IswTracker::new(g, t).with_slot_history()
        } else {
            IswTracker::new(g, t)
        };
        // A rejoining id keeps the rest of its row: its indices go on
        // counting, and its drift track, quanta and processor carry over.
        let task = self.tasks.task_mut(id);
        task.era_base = task.next_index - 1;
        task.era_open_pending = true;
        task.isw = isw;
        task.ps = PsTracker::new(g, t);
        if record_history {
            task.history.get_or_insert_with(Box::default);
        }
        self.tasks.set_in_system(id, true);
        self.tasks.set_swt(id, g);
        self.tasks.set_ran(id, false);
        self.tasks.set_next_release(id, Some(t));
        self.note_release(id, t);
    }

    pub(super) fn handle_leave(&mut self, id: TaskId, t: Slot) {
        if !self.tasks.in_system(id) {
            return;
        }
        // Totals must be settled through `t` before the task can depart
        // immediately (leave_at == t) or halt its unscheduled subtasks.
        self.sync_task(id, t);
        self.halt_pending(id, t);
        let leave_at = self.rule_l_time(id, t);
        self.tasks.set_next_release(id, None);
        self.tasks.task_mut(id).pending = None;
        if leave_at == t {
            self.tasks.set_in_system(id, false);
            self.admission.release(id);
        } else {
            self.tasks.task_mut(id).leaving = leave_at;
            self.leave_at.insert(leave_at, id);
        }
    }

    /// Withdraws every released subtask of `id` that PD² has not run
    /// yet (a leave, or the leave half of an LJ reweight). Halting
    /// changes neither the number nor the order of the records, so they
    /// are walked by position, one copied out at a time.
    fn halt_pending(&mut self, id: TaskId, t: Slot) {
        let mut pos = 0;
        while let Some(s) = self.tasks.task(id).subs.get(pos).copied() {
            if s.is_pending() {
                self.halt_subtask(id, s.index, t);
            }
            pos += 1;
        }
    }

    /// Rule L: a task may leave (or rejoin under a new weight) no
    /// earlier than `d(T_i) + b(T_i)` of its last-scheduled subtask.
    fn rule_l_time(&self, id: TaskId, t: Slot) -> Slot {
        self.tasks
            .task(id)
            .last_scheduled
            .map_or(t, |w| (w.deadline + i64::from(w.b)).max(t))
    }

    /// Halts `T_index` of task `id` at time `t` in both the PD² schedule
    /// (stale queue entry) and `I_SW` (allocations stop; `I_CSW` takes
    /// everything back).
    fn halt_subtask(&mut self, id: TaskId, index: u64, t: Slot) {
        // `halt` takes back exactly the allocations accrued so far, so the
        // tracker must first be caught up to the halt boundary.
        self.sync_task(id, t);
        let task = self.tasks.task_mut(id);
        let rec = task.isw.halt(index, t);
        if let Some(history) = &mut task.history {
            history.halted_corrections.extend(rec.slot_allocs);
        }
        // audit: allow(panic-reach, rules only halt known live subtasks, present by the engine's slab and queue liveness invariants)
        let sub = task.sub_mut(index).expect("halting unknown subtask");
        sub.halted_at = t;
        self.counters.halts += 1;
        self.probe.on_event(ObsEvent::Halt { task: id, index, t });
    }

    pub(super) fn handle_reweight(&mut self, id: TaskId, t: Slot, want: Weight) {
        if !self.tasks.in_system(id) {
            return;
        }
        // The paper's reweighting rules cover *light* tasks only (§2);
        // heavy tasks schedule correctly (group-deadline tie-break) but
        // may not reweight, nor may a task reweight into the heavy
        // class. Such requests are rejected and counted.
        let currently_heavy = self.tasks.swt(id) > Rational::new(1, 2);
        if currently_heavy || want.is_heavy() {
            self.counters.rejected_heavy_reweights += 1;
            return;
        }
        let Some(granted) = self.admission.request(id, want) else {
            return;
        };
        self.counters.reweight_initiations += 1;
        let v: Rational = granted.value();
        let old_swt = self.tasks.swt(id);

        // Catch the trackers up to the initiation boundary first: `I_PS`
        // accrues the old weight up to `t` before `set_wt`, and the rules
        // below project `I_SW` completions from the current slot.
        self.sync_task(id, t);

        // The actual weight (and I_PS) changes at initiation, always.
        self.tasks.task_mut(id).ps.set_wt(v);

        let tasks = &self.tasks;
        let choice = self
            .selector
            .choose(id, t, old_swt, v, || tasks.task(id).drift.at(t));
        // Direct per-event cost: queue operations and halts performed
        // while the rules run. Deferred cost (stale entries stranded by
        // the halts) is attributed later via the stale-pop/drop hooks.
        let ops_before = self.counters.heap_ops();
        let halts_before = self.counters.halts;
        let rule = match choice {
            RuleChoice::FineGrained => self.reweight_oi(id, t, v),
            RuleChoice::LeaveJoin => self.reweight_lj(id, t, v),
        };
        let cost = ReweightCost {
            queue_ops: self.counters.heap_ops().saturating_sub(ops_before),
            halts: self.counters.halts.saturating_sub(halts_before),
        };
        let pending = self.tasks.task(id).pending;
        let enact_at = pending.map_or(t, |p| p.at);
        self.probe.on_event(ObsEvent::ReweightInitiated {
            task: id,
            t,
            rule,
            cost,
            enact_at,
        });
        if pending.is_none() {
            // The rules fired on the spot: initiation and enactment
            // coincide (the probe sees them ordered).
            self.probe.on_event(ObsEvent::ReweightEnacted {
                task: id,
                t,
                initiated_at: t,
            });
        }
    }

    /// Rules O and I of the paper (PD²-OI). A pre-existing pending change
    /// is superseded: the rules re-run against the current state, which
    /// realizes the "skipped event" semantics of §3.2 and property (C).
    /// Returns the rule that resolved the initiation (probe reporting).
    fn reweight_oi(&mut self, id: TaskId, t: Slot, v: Rational) -> Rule {
        let (last, d_passed) = {
            let task = self.tasks.task(id);
            let last = task.last_released().copied();
            let d_passed = last.is_some_and(|s| s.deadline <= t);
            (last, d_passed)
        };

        let Some(tj) = last else {
            // No subtask released yet: enact immediately; the first
            // release (already scheduled) will use the new weight. The
            // era the join opened has not begun, so the one thing an
            // enactment does that must not happen here — moving the era
            // base — has nothing to move: it already sits at the last
            // released index.
            debug_assert_eq!(
                self.tasks.task(id).era_base + 1,
                self.tasks.task(id).next_index,
                "{id}: era base off the last released index before any release"
            );
            self.enact_weight(id, v);
            self.tasks.task_mut(id).pending = None;
            return Rule::Immediate;
        };

        if d_passed {
            // d(T_j) ≤ t_c: enact at max(t_c, d + b).
            let at = (tj.deadline + i64::from(tj.b)).max(t);
            self.park_or_enact(id, t, v, at, PendKind::Enact);
            return Rule::O;
        }

        let scheduled = tj.scheduled_at != NEVER;
        let already_halted = tj.halted_at != NEVER;
        if scheduled {
            // Ideal-changeable (rule I). On a first initiation T_j cannot
            // yet be complete in I_SW, but a *superseding* initiation may
            // find its completion already known — then the wait resolves
            // to a concrete time immediately.
            let increase = v > self.tasks.swt(id);
            if increase {
                // I(i): enact immediately; era-opening release waits for
                // D(I_SW, T_j) + b(T_j).
                self.enact_weight(id, v);
            }
            let kind = if increase {
                PendKind::ReleaseOnly
            } else {
                PendKind::Enact
            };
            // D(I_SW, T_j) is known in closed form the moment the wait is
            // installed: `swt` cannot change again before this pending
            // change fires (a superseding initiation replaces it wholesale
            // and re-projects), so the projection equals the slot the
            // per-slot tracker would have discovered.
            let proj = ever(tj.isw_completion)
                .or_else(|| self.tasks.task(id).isw.projected_completion(tj.index));
            // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
            assert!(
                proj.is_some(),
                "scheduled incomplete subtask must project an I_SW completion"
            );
            let at = proj.map_or(t, |d| (d + i64::from(tj.b)).max(t));
            self.park_or_enact(id, t, v, at, kind);
            Rule::I
        } else {
            // Omission-changeable (rule O): halt T_j (unless a superseded
            // event already did) and enact at max(t_c, D(I_SW, T_{j−1}) +
            // b(T_{j−1})).
            if !already_halted {
                self.halt_subtask(id, tj.index, t);
            }
            let pred = self.tasks.task(id).pred_of(tj.index).copied();
            match pred {
                None => self.park_or_enact(id, t, v, t, PendKind::Enact),
                Some(p) => {
                    // Same closed-form projection as rule I, against the
                    // predecessor. A retired predecessor always has its
                    // completion recorded on the SubRec, so the record is
                    // consulted before the tracker.
                    let proj = ever(p.isw_completion)
                        .or_else(|| self.tasks.task(id).isw.projected_completion(p.index));
                    // audit: allow(panic-reach, run-invariant assertion, a violation is a scheduler bug and must abort)
                    assert!(
                        proj.is_some(),
                        "predecessor of a released subtask must project an I_SW completion"
                    );
                    let at = proj.map_or(t, |d| (d + i64::from(p.b)).max(t));
                    self.park_or_enact(id, t, v, at, PendKind::Enact);
                }
            }
            Rule::O
        }
    }

    /// Leave/join reweighting (PD²-LJ): withdraw unscheduled subtasks,
    /// wait out rule L on the last-scheduled subtask, rejoin with the new
    /// weight. Returns [`Rule::Lj`] (probe reporting).
    fn reweight_lj(&mut self, id: TaskId, t: Slot, v: Rational) -> Rule {
        self.halt_pending(id, t);
        let at = self.rule_l_time(id, t);
        self.park_or_enact(id, t, v, at, PendKind::Enact);
        Rule::Lj
    }

    /// Installs a pending change, or fires it on the spot when its time
    /// is the current slot (enactments for slot `t` have already run).
    fn park_or_enact(&mut self, id: TaskId, t: Slot, v: Rational, at: Slot, kind: PendKind) {
        let fire_now = at <= t;
        self.tasks.set_next_release(id, None);
        if fire_now {
            if kind == PendKind::Enact {
                self.enact_weight(id, v);
            }
            let task = self.tasks.task_mut(id);
            task.era_open_pending = true;
            task.pending = None;
            self.tasks.set_next_release(id, Some(t));
            self.note_release(id, t);
        } else {
            self.tasks.task_mut(id).pending = Some(Pending {
                target: v,
                at,
                kind,
                initiated_at: t,
            });
            self.enact_at.insert(at, id);
        }
    }
}
