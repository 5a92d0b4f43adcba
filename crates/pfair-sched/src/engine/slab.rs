//! Arena/SoA task storage: the engine's per-task state, split into hot
//! columns and cold rows, keyed by the dense small-integer [`TaskId`].
//!
//! The per-slot path asks four questions about arbitrary tasks — is it
//! present? did it run last slot? what is its scheduling weight? when
//! is its next release? — and those four fields are what every
//! whole-set scan (busy-span period detection, queue-liveness checks,
//! the ran-flag sweep) actually touches. They live here as dense
//! columns: two word-scanned [`IdBitmap`]s (the `CalendarRing`
//! occupancy-map idiom) plus two flat `Vec`s, so a scan over 10⁶ tasks
//! is cache-linear instead of striding over 800-byte rows (`TaskState`
//! is `const`-asserted to stay within that). A row's position is its
//! task's id; the row does not repeat it.
//! Everything else — subtask records, trackers, history — stays in the
//! cold [`TaskState`] row, touched only for tasks an event or a
//! scheduling decision actually names. (The fifth hot datum, the packed
//! PD² priority key, lives in the ready queue's entries already.)
//!
//! ## The one panic-reach escape
//!
//! Engine code used to index `Vec<TaskState>` directly at ~15 call
//! sites, each carrying its own panic-reach allowance annotation. The
//! slab replaces them with checked [`TaskSlab::get`] /
//! [`TaskSlab::get_mut`] accessors plus exactly one documented escape:
//! [`TaskSlab::task`] / [`TaskSlab::task_mut`], which expect the id to
//! be in range. Ids come from admitted events and queue entries, both
//! validated against the dense id range at admission, so the escape is
//! unreachable in a correct engine — and now there is a single place
//! stating that argument instead of one per call site.

use pfair_core::arena::IdBitmap;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::{Slot, NEVER};

use super::TaskState;
use crate::queue::QueueEntry;

/// Dense arena of per-task engine state: hot columns + cold rows.
#[derive(Clone, Debug)]
pub(super) struct TaskSlab {
    /// Cold rows: everything not named in a whole-set scan.
    cold: Vec<TaskState>,
    /// Hot column: task is in the system (`in_system`).
    present: IdBitmap,
    /// Hot column: task ran in the previous slot (`ran_last_slot`).
    ran: IdBitmap,
    /// Hot column: scheduling weight `swt(T, t)`.
    swt: Vec<Rational>,
    /// Hot column: next scheduled release ([`NEVER`] = suppressed).
    next_release: Vec<Slot>,
}

impl TaskSlab {
    /// A slab of `n` placeholder tasks with ids `0..n`.
    pub(super) fn new(n: u32) -> TaskSlab {
        let mut slab = TaskSlab {
            cold: Vec::new(),
            present: IdBitmap::new(0),
            ran: IdBitmap::new(0),
            swt: Vec::new(),
            next_release: Vec::new(),
        };
        slab.ensure(n);
        slab
    }

    /// Number of task slots (present or not).
    pub(super) fn len(&self) -> usize {
        self.cold.len()
    }

    /// Grows the slab to hold ids `0..n` (no-op when already that big);
    /// new slots are placeholders.
    pub(super) fn ensure(&mut self, n: u32) {
        // audit: allow(lossy-cast, u32→usize is lossless on the supported targets)
        let n = n as usize;
        if n <= self.cold.len() {
            return;
        }
        self.cold.resize_with(n, TaskState::placeholder);
        self.present.grow(n);
        self.ran.grow(n);
        self.swt.resize(n, Rational::ZERO);
        self.next_release.resize(n, NEVER);
    }

    /// Checked cold-row access.
    #[inline]
    pub(super) fn get(&self, id: TaskId) -> Option<&TaskState> {
        self.cold.get(id.idx())
    }

    /// Checked mutable cold-row access.
    #[inline]
    pub(super) fn get_mut(&mut self, id: TaskId) -> Option<&mut TaskState> {
        self.cold.get_mut(id.idx())
    }

    /// Cold row of an admitted task — the slab's single panic-reach
    /// escape (see the module docs): every id the engine holds comes
    /// from an admitted event or a queue entry, both within the dense
    /// id range, so the lookup cannot fail in a correct engine.
    #[inline]
    pub(super) fn task(&self, id: TaskId) -> &TaskState {
        // audit: allow(panic-reach, admitted TaskIds are dense and in range for the whole run)
        self.get(id).expect("task id outside the admitted range")
    }

    /// Mutable twin of [`TaskSlab::task`], under the same argument.
    #[inline]
    pub(super) fn task_mut(&mut self, id: TaskId) -> &mut TaskState {
        // audit: allow(panic-reach, admitted TaskIds are dense and in range for the whole run)
        self.get_mut(id).expect("task id outside admitted range")
    }

    /// Where among its task's records the subtask a queue entry names
    /// sits, if the entry is live: the task is in the system and still
    /// owes that subtask a quantum. `None` for a stale entry.
    #[inline]
    pub(super) fn live_position(&self, e: &QueueEntry) -> Option<usize> {
        if !self.in_system(e.task) {
            return None;
        }
        self.get(e.task)?
            .subs
            .iter()
            .position(|s| s.index == e.index && s.is_pending())
    }

    /// Hot column: is `id` in the system?
    #[inline]
    pub(super) fn in_system(&self, id: TaskId) -> bool {
        self.present.get(id.idx())
    }

    /// Sets the presence bit.
    #[inline]
    pub(super) fn set_in_system(&mut self, id: TaskId, value: bool) {
        self.present.set(id.idx(), value);
    }

    /// Hot column: did `id` run in the previous slot?
    #[inline]
    pub(super) fn ran_last_slot(&self, id: TaskId) -> bool {
        self.ran.get(id.idx())
    }

    /// Sets the ran-last-slot bit.
    #[inline]
    pub(super) fn set_ran(&mut self, id: TaskId, value: bool) {
        self.ran.set(id.idx(), value);
    }

    /// Hot column: scheduling weight of `id`.
    #[inline]
    pub(super) fn swt(&self, id: TaskId) -> Rational {
        self.swt.get(id.idx()).copied().unwrap_or(Rational::ZERO)
    }

    /// Sets the scheduling weight.
    #[inline]
    pub(super) fn set_swt(&mut self, id: TaskId, value: Rational) {
        if let Some(slot) = self.swt.get_mut(id.idx()) {
            *slot = value;
        }
    }

    /// Hot column: next scheduled release of `id`.
    #[inline]
    pub(super) fn next_release(&self, id: TaskId) -> Option<Slot> {
        let raw = self.next_release.get(id.idx()).copied().unwrap_or(NEVER);
        (raw != NEVER).then_some(raw)
    }

    /// Sets (or suppresses, with `None`) the next release.
    #[inline]
    pub(super) fn set_next_release(&mut self, id: TaskId, value: Option<Slot>) {
        if let Some(slot) = self.next_release.get_mut(id.idx()) {
            *slot = value.unwrap_or(NEVER);
        }
    }

    /// Ids of present tasks, ascending (a bitmap word scan).
    pub(super) fn present_ids(&self) -> Vec<TaskId> {
        self.present
            .iter_ones()
            // audit: allow(lossy-cast, bitmap ids originate from u32 TaskIds)
            .map(|i| TaskId(i as u32))
            .collect()
    }

    /// Number of present tasks.
    pub(super) fn present_count(&self) -> usize {
        self.present.count_ones()
    }

    /// Iterator over present ids, ascending, without allocating — the
    /// word-scan form of [`TaskSlab::present_ids`] for hot loops.
    pub(super) fn present_iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.present
            .iter_ones()
            // audit: allow(lossy-cast, bitmap ids originate from u32 TaskIds)
            .map(|i| TaskId(i as u32))
    }

    /// Ids whose ran-last-slot bit is set, ascending — the canonical
    /// rebuild source for the previous chosen set after a busy-span
    /// jump or a snapshot restore.
    pub(super) fn ran_ids(&self) -> Vec<TaskId> {
        self.ran
            .iter_ones()
            // audit: allow(lossy-cast, bitmap ids originate from u32 TaskIds)
            .map(|i| TaskId(i as u32))
            .collect()
    }

    /// Prunes every cold row (the history-mode oracle prune; event-
    /// driven runs prune only touched tasks instead).
    pub(super) fn prune_all(&mut self) {
        for task in &mut self.cold {
            task.prune();
        }
    }

    /// Consumes the slab into its cold rows (end-of-run reporting).
    pub(super) fn into_cold(self) -> Vec<TaskState> {
        self.cold
    }
}
