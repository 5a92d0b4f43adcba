//! Arena/SoA task storage: the engine's per-task state, split into hot
//! columns, cold rows and a parked-rule column, keyed by the dense
//! small-integer [`TaskId`].
//!
//! The per-slot path asks four questions about arbitrary tasks — is it
//! present? did it run last slot? what is its scheduling weight? when
//! is its next release? — and those four fields are what every
//! whole-set scan (busy-span period detection, queue-liveness checks,
//! the ran-flag sweep) actually touches. They live here as dense
//! columns: two word-scanned [`IdBitmap`]s (the `CalendarRing`
//! occupancy-map idiom) plus two flat `Vec`s, so a scan over 10⁶ tasks
//! is cache-linear instead of striding over 312-byte rows (`TaskState`
//! is `const`-asserted at that size). A row's position is its
//! task's id; the row does not repeat it.
//! Everything else — subtask records, trackers, drift — stays in the
//! cold [`TaskState`] row, touched only for tasks an event or a
//! scheduling decision actually names. (The fifth hot datum, the packed
//! PD² priority key, lives in the ready queue's entries already.)
//!
//! ## A task costs nothing until it joins
//!
//! The slab addresses ids `0..len()` from the start — the hot columns
//! are that long — but builds a row only when something writes it:
//! [`TaskSlab::task_mut`] builds every row up to the id it is asked
//! for, which a join is the first to do. Until then an id has no row,
//! and every reader sees the placeholder it would have held:
//! [`TaskSlab::get`] answers with one shared blank row, so the snapshot
//! image (which a busy-span arming also takes) and `finish` read an
//! unbuilt id exactly as a built placeholder, and loading an image
//! builds no row for an id whose image is that placeholder.
//!
//! The rules' parked state ([`Parked`]: a pending weight change and a
//! rule-L departure time) is a column of its own, allocated by the
//! first change that parks and the first leave rule L delays. A task
//! that never reweights or leaves late carries none of it, and a
//! release asks an empty column instead of fetching another row line.
//!
//! ## The calendars index the columns
//!
//! Two [`CalendarRing`]s index the `next_release` and parked columns by
//! slot, and only the slab files into them: [`TaskSlab::set_next_release`]
//! files the release it sets, [`TaskSlab::park`] each slot it parks. The
//! engine reads and takes them. A firing path checks the columns before
//! acting, so an entry a later write superseded is a stale hint, skipped
//! when its slot comes. Where the clock jumps — an image loaded by a
//! busy-span jump or a restore ([`TaskSlab::load`]) — [`TaskSlab::refile`]
//! clears both rings in place and files the columns again, and no stale
//! hint survives.
//!
//! ## The one panic-reach escape
//!
//! Engine code used to index `Vec<TaskState>` directly at ~15 call
//! sites, each carrying its own panic-reach allowance annotation. The
//! slab replaces them with checked [`TaskSlab::get`] /
//! [`TaskSlab::row_mut`] accessors plus exactly one documented escape:
//! [`TaskSlab::task`] / [`TaskSlab::task_mut`], which expect the id to
//! be in range. Ids come from admitted events and queue entries, both
//! validated against the dense id range at admission, so the escape is
//! unreachable in a correct engine — and now there is a single place
//! stating that argument instead of one per call site.

use pfair_core::arena::IdBitmap;
use pfair_core::ideal::Trackers;
use pfair_core::task::TaskId;
use pfair_core::time::{ever, Slot, NEVER};
use pfair_core::weight::Weight;

use super::ideal::Spares;
use super::persist::TaskSnap;
use super::{Parked, Pending, TaskState};
use crate::calendar::CalendarRing;
use crate::event::{Event, EventKind};
use crate::queue::QueueEntry;

/// Dense arena of per-task engine state: hot columns, cold rows built
/// at join, and the parked-rule column.
#[derive(Clone, Debug)]
pub(super) struct TaskSlab {
    /// Cold rows of ids `0..cold.len()`: everything not named in a
    /// whole-set scan. Ids above have not joined yet.
    cold: Vec<TaskState>,
    /// The placeholder every unbuilt row reads as.
    blank: TaskState,
    /// Parked-rule state of ids `0..parked.len()`; empty until a change
    /// parks or a leave is delayed, and ids above have nothing parked.
    parked: Vec<Parked>,
    /// Hot column: task is in the system (`in_system`).
    present: IdBitmap,
    /// Hot column: task ran in the previous slot (`ran_last_slot`).
    ran: IdBitmap,
    /// Hot column: scheduling weight `swt(T, t)`; `None` until the id
    /// first joins.
    swt: Vec<Option<Weight>>,
    /// Hot column: next scheduled release ([`NEVER`] = suppressed). Its
    /// length is the number of addressable ids.
    next_release: Vec<Slot>,
    /// Slot index over `next_release` (module docs): each task filed at
    /// every release slot set for it.
    pub(super) release_at: CalendarRing,
    /// Slot index over the [`Parked`] column: each task filed at every
    /// pending change's `at` and rule-L departure parked for it.
    pub(super) parked_at: CalendarRing,
    /// Boxes rows gave back at a transition between closed and tracked,
    /// which the next transitions fill in place (`engine/ideal.rs`).
    spares: Spares,
}

impl TaskSlab {
    /// A slab addressing ids `0..n`, none of them built.
    pub(super) fn new(n: u32) -> TaskSlab {
        let mut slab = TaskSlab {
            cold: Vec::new(),
            blank: TaskState::placeholder(),
            parked: Vec::new(),
            present: IdBitmap::new(0),
            ran: IdBitmap::new(0),
            swt: Vec::new(),
            next_release: Vec::new(),
            release_at: CalendarRing::new(0),
            parked_at: CalendarRing::new(0),
            spares: Spares::default(),
        };
        slab.ensure(n);
        slab
    }

    /// Number of task slots (present or not, built or not).
    pub(super) fn len(&self) -> usize {
        self.next_release.len()
    }

    /// Makes ids `0..n` addressable (no-op when they already are): the
    /// hot columns grow, and no row is built.
    pub(super) fn ensure(&mut self, n: u32) {
        #[expect(clippy::as_conversions, reason = "u32→usize is lossless")]
        let n = n as usize;
        if n <= self.len() {
            return;
        }
        self.present.grow(n);
        self.ran.grow(n);
        self.swt.resize(n, None);
        self.next_release.resize(n, NEVER);
    }

    /// Reserves row space up to the largest id a join among `events`
    /// names — the joins an engine is built with or has been handed —
    /// so the rows are built in place as the ids join, in one buffer
    /// allocated before the run instead of one regrown during it. The
    /// space stays untouched until then.
    pub(super) fn reserve_joins<'a>(&mut self, events: impl Iterator<Item = &'a Event>) {
        let end = events
            .filter(|ev| matches!(ev.kind, EventKind::Join(_)))
            .map(|ev| ev.task.idx() + 1)
            .max()
            .map_or(0, |end| end.min(self.len()));
        self.cold.reserve(end.saturating_sub(self.cold.len()));
    }

    /// Checked cold-row access: the placeholder for an addressable id
    /// whose row is not built yet, `None` past the end.
    #[inline]
    pub(super) fn get(&self, id: TaskId) -> Option<&TaskState> {
        let i = id.idx();
        self.cold
            .get(i)
            .or_else(|| (i < self.len()).then_some(&self.blank))
    }

    /// The row of `id` if it is built.
    pub(super) fn row_mut(&mut self, id: TaskId) -> Option<&mut TaskState> {
        self.cold.get_mut(id.idx())
    }

    /// The placeholder an unbuilt row reads as.
    pub(super) fn blank(&self) -> &TaskState {
        &self.blank
    }

    /// Cold row of an admitted task — the slab's single panic-reach
    /// escape (see the module docs): every id the engine holds comes
    /// from an admitted event or a queue entry, both within the dense
    /// id range, so the lookup cannot fail in a correct engine.
    #[inline]
    pub(super) fn task(&self, id: TaskId) -> &TaskState {
        #[expect(clippy::disallowed_methods, reason = "admitted ids are in range")]
        self.get(id).expect("task id outside the admitted range")
    }

    /// Mutable twin of [`TaskSlab::task`], under the same argument. The
    /// first write to an id builds its row, and every unbuilt row below
    /// it, as placeholders.
    #[inline]
    pub(super) fn task_mut(&mut self, id: TaskId) -> &mut TaskState {
        self.task_and_spares(id).0
    }

    /// [`TaskSlab::task_mut`], beside the spare boxes.
    #[inline]
    fn task_and_spares(&mut self, id: TaskId) -> (&mut TaskState, &mut Spares) {
        let i = id.idx();
        if i >= self.cold.len() {
            self.build_to(i);
        }
        #[expect(clippy::disallowed_methods, reason = "admitted ids are in range")]
        let row = (self.cold.get_mut(i)).expect("task id outside admitted range");
        (row, &mut self.spares)
    }

    /// The trackers of `id`'s row, built from its closed form at the
    /// scheduling weight first if the row is closed: where every change
    /// the closed form does not cover starts (`engine/ideal.rs`).
    pub(super) fn trackers(&mut self, id: TaskId) -> &mut Trackers {
        let w = self.swt(id).unwrap_or(Weight::ONE);
        let (row, spares) = self.task_and_spares(id);
        row.trackers(w, spares)
    }

    /// Settles `id`'s row at scheduling weight `w` if its era has
    /// (`engine/ideal.rs`), trading its trackers' box for a spare box
    /// of bases.
    pub(super) fn settle(&mut self, id: TaskId, w: Weight) {
        let (row, spares) = self.task_and_spares(id);
        row.settle(w, spares);
    }

    /// Lets the spare boxes go: what a run holds once it reaches the
    /// horizon is the rows' own.
    pub(super) fn drop_spares(&mut self) {
        self.spares = Spares::default();
    }

    /// Builds the rows of ids `cold.len()..=i` as placeholders (none
    /// past the addressable range).
    #[cold]
    fn build_to(&mut self, i: usize) {
        if i < self.len() {
            let blank = &self.blank;
            self.cold.resize_with(i + 1, || blank.clone());
        }
    }

    /// What `id` has parked: nothing for an id beyond the column.
    #[inline]
    pub(super) fn parked(&self, id: TaskId) -> &Parked {
        self.parked.get(id.idx()).unwrap_or(&Parked::NOTHING)
    }

    /// Writes `id`'s parked state through `f` and files each slot `f`
    /// parked anew (an unchanged pending or departure is filed already);
    /// the first write allocates the column for every addressable id (an
    /// id past them parks nothing, like the hot-column setters).
    pub(super) fn park(&mut self, id: TaskId, f: impl FnOnce(&mut Parked)) {
        let i = id.idx();
        if i >= self.parked.len() {
            self.parked.resize(self.len(), Parked::NOTHING);
        }
        if let Some(parked) = self.parked.get_mut(i) {
            let was = *parked;
            f(parked);
            let Parked { pending, leaving } = *parked;
            if let Some(p) = pending.filter(|_| pending != was.pending) {
                self.parked_at.insert(p.at, id);
            }
            if leaving != was.leaving && leaving != NEVER {
                self.parked_at.insert(leaving, id);
            }
        }
    }

    /// Takes `id`'s pending change, if one is parked, without
    /// allocating the column.
    pub(super) fn unpark(&mut self, id: TaskId) -> Option<Pending> {
        self.parked.get_mut(id.idx())?.pending.take()
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

    /// Hot column: scheduling weight of `id`, `None` before its first
    /// join.
    #[inline]
    pub(super) fn swt(&self, id: TaskId) -> Option<Weight> {
        self.swt.get(id.idx()).copied().flatten()
    }

    /// Sets the scheduling weight (`None` only when restoring an id that
    /// never joined).
    #[inline]
    pub(super) fn set_swt(&mut self, id: TaskId, value: Option<Weight>) {
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

    /// Sets (or suppresses, with `None`) the next release, and files a
    /// set one in the release ring.
    #[inline]
    pub(super) fn set_next_release(&mut self, id: TaskId, value: Option<Slot>) {
        if let Some(slot) = self.next_release.get_mut(id.idx()) {
            *slot = value.unwrap_or(NEVER);
            if let Some(at) = value {
                self.release_at.insert(at, id);
            }
        }
    }

    /// Re-files both rings from the columns, anchored at `now`: each
    /// present task at its next release, each task at its pending
    /// change's slot and at its rule-L departure. Stale hints go; every
    /// bucket keeps its buffer. No slot filed may precede `now` — at a
    /// slot boundary nothing due before it is left unfired.
    pub(super) fn refile(&mut self, now: Slot) {
        self.release_at.clear(now);
        self.parked_at.clear(now);
        for (&at, id) in self.next_release.iter().zip((0u32..).map(TaskId)) {
            if at != NEVER && self.present.get(id.idx()) {
                self.release_at.insert(at, id);
            }
        }
        for (parked, id) in self.parked.iter().zip((0u32..).map(TaskId)) {
            let Parked { pending, leaving } = *parked;
            for at in pending.map(|p| p.at).into_iter().chain(ever(leaving)) {
                self.parked_at.insert(at, id);
            }
        }
    }

    /// Writes every task of an image into the slab — the hot columns,
    /// the row and the parked state — and re-files both rings from them
    /// at `now`. A built row is written over in place, its buffers
    /// reused; an unbuilt one stays unbuilt while its image is the
    /// placeholder it reads as (an id that never joined).
    pub(super) fn load(&mut self, image: &[TaskSnap], now: Slot) {
        for snap in image {
            let id = snap.id;
            self.set_in_system(id, snap.in_system);
            self.set_ran(id, snap.ran_last_slot);
            self.set_swt(id, snap.swt);
            if let Some(slot) = self.next_release.get_mut(id.idx()) {
                *slot = snap.next_release.unwrap_or(NEVER);
            }
            let w = snap.swt.unwrap_or(Weight::ONE);
            match self.cold.get_mut(id.idx()) {
                Some(row) => row.clone_from(&snap.state),
                None if snap.state.same_as(&self.blank, w) => {}
                None => self.task_mut(id).clone_from(&snap.state),
            }
            if snap.parked != *self.parked(id) {
                self.park(id, |p| *p = snap.parked);
            }
        }
        self.refile(now);
    }

    /// The hints of both rings a firing path would act on, each ring's
    /// as a sorted set: present tasks at their next release, and tasks
    /// at the parked slots they hold. Stale hints are left out. A ring
    /// is read by taking every slot of a copy.
    #[cfg(test)]
    pub(super) fn live_hints(&self) -> [Vec<(Slot, TaskId)>; 2] {
        let mut hints = [Vec::new(), Vec::new()];
        for (ring, hints) in [&self.release_at, &self.parked_at]
            .into_iter()
            .zip(&mut hints)
        {
            let (mut ring, mut due) = (ring.clone(), Vec::new());
            while let Some(slot) = ring.next_occupied(Slot::MIN) {
                ring.take_into(slot, &mut due);
                hints.extend(due.drain(..).map(|id| (slot, id)));
            }
            hints.sort_unstable_by_key(|&(slot, id)| (slot, id.0));
            hints.dedup();
        }
        let [releases, parked] = &mut hints;
        releases.retain(|&(slot, id)| self.in_system(id) && self.next_release(id) == Some(slot));
        parked.retain(|&(slot, id)| {
            let Parked { pending, leaving } = *self.parked(id);
            leaving == slot || pending.is_some_and(|p| p.at == slot)
        });
        hints
    }

    /// Number of present tasks.
    pub(super) fn present_count(&self) -> usize {
        self.present.count_ones()
    }

    /// Iterator over present ids, ascending, without allocating (a
    /// bitmap word scan).
    pub(super) fn present_iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        #[expect(clippy::as_conversions, reason = "bitmap ids are u32 TaskIds")]
        self.present.iter_ones().map(|i| TaskId(i as u32))
    }

    /// Ids whose ran-last-slot bit is set, ascending — what a loaded
    /// image rebuilds the previous chosen set from.
    pub(super) fn ran_iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        #[expect(clippy::as_conversions, reason = "bitmap ids are u32 TaskIds")]
        self.ran.iter_ones().map(|i| TaskId(i as u32))
    }
}
