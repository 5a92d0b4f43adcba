//! The PD² ready queue: one sorted run per deadline, with lazy
//! invalidation.
//!
//! Because a released subtask's priority is immutable, the queue never
//! needs decrease-key; reweighting events that *halt* a subtask simply
//! leave a stale entry behind, which is skipped (and counted) when
//! popped.
//!
//! ## Deadline runs
//!
//! PD² priorities order first on the deadline; the packed key's lower
//! fields only break ties *within* one deadline. [`ReadyQueue`] keeps
//! one *run* per deadline: its entries in ascending order, in a
//! `VecDeque`. The runs of a moving 512-slot window sit in buckets
//! indexed `deadline mod 512` — the window
//! [`CalendarRing`](crate::calendar::CalendarRing) keeps, over the same
//! `occupancy::Occupancy` bitmap, whose word scan finds the first run.
//! Runs beyond the window sit in a `BTreeMap` keyed by deadline.
//!
//! * `pop` is a masked word scan that resumes at the last popped
//!   deadline (pops between pushes are non-decreasing) plus one
//!   `pop_front`: O(1) amortized.
//! * `push` appends when the entry is not below its run's back — the
//!   common case, since every task of one period releases in the same
//!   slot, in task order. **Worst case:** an out-of-order push costs a
//!   binary search plus a `VecDeque::insert`, which shifts the shorter
//!   side of the run. A reversed burst (`TieBreak::TaskIdDesc`) is
//!   therefore all front inserts; a shuffled burst of `k` moves `k/4`
//!   entries per push on average. Nothing is ever sifted.
//! * Runs move whole. When the window drains it re-anchors at the first
//!   overflow deadline and takes in every run it now covers; a push
//!   below the window lowers the anchor, and each run the window no
//!   longer covers moves into the map under its own deadline.
//!
//! Only live runs own a buffer: an emptied run parks its buffer on a
//! spare list for the next run that opens, so the queue holds as many
//! buffers as runs were ever live at once — not one per bucket the
//! deadline front has passed over, which would depend on the driver.
//! Compaction and [`ReadyQueue::reload`] (what loading an engine image
//! does: a restore, a busy-span jump) park every run's buffer on that
//! list and place the entries they keep or are given into those
//! buffers; neither counts a push.
//!
//! `QueueEntry`'s order is total, so the pop sequence is bit-identical
//! to a binary heap's over the same pushes; [`HeapQueue`] keeps that
//! heap as the reference for differential tests and `benchmark/`'s
//! `queue.{heap,radix}_push_pop_ns.*` pair.

use crate::occupancy::{Occupancy, BUCKETS, WINDOW_SLOTS as DEADLINE_SLOTS};
use crate::overhead::Counters;
use crate::priority::Priority;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Stale-entry growth factor the compaction threshold allows over the
/// live-entry bound. At most one live entry per task is ever enqueued
/// (a task's head, pushed at release or promotion), so a factor of 2
/// means compaction fires only once stale entries can outnumber live
/// ones — below that, the `O(len)` sweep would cost more than the scan
/// inflation it removes.
pub const COMPACT_GROWTH_FACTOR: usize = 2;

/// Flat slack added to the compaction threshold so tiny task sets
/// (where `2·tasks` is a handful of entries) don't compact on every
/// few pushes. 64 entries keep the queue within one cache page's worth
/// of `QueueEntry`s while letting small systems run sweep-free.
pub const COMPACT_SLACK: usize = 64;

/// The queue length above which the engine compacts, given the number
/// of tasks bounding the live-entry count.
///
/// Rationale: refilling from `live_bound` back past the threshold takes
/// at least `(COMPACT_GROWTH_FACTOR − 1)·live_bound + COMPACT_SLACK`
/// pushes, which pays for the `O(len)` sweep — amortized constant work
/// per push, while the queue stays `O(tasks)` at slot boundaries.
// audit: prove(overflow-bounds)
// audit: assume(live_bound in 0..=4294967296)
pub fn compaction_threshold(live_bound: usize) -> usize {
    COMPACT_GROWTH_FACTOR * live_bound + COMPACT_SLACK
}

/// An entry in the ready queue: one released, schedulable subtask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueueEntry {
    /// PD² priority (orders the queue).
    pub priority: Priority,
    /// Owning task.
    pub task: TaskId,
    /// Subtask index `i` of `T_i`.
    pub index: u64,
}

/// One deadline's entries, ascending in the full entry order.
type Run = VecDeque<QueueEntry>;

/// Adds `entry` to `run`, keeping it sorted (module docs).
#[inline]
fn insert_sorted(run: &mut Run, entry: QueueEntry) {
    if run.back().is_none_or(|back| *back <= entry) {
        run.push_back(entry);
    } else {
        run.insert(run.partition_point(|e| *e <= entry), entry);
    }
}

/// Min-priority ready queue with lazy invalidation: sorted deadline
/// runs over a moving window (module docs). Same pop sequence, counter
/// semantics and canonical [`ReadyQueue::entries_sorted`] projection as
/// the binary heap it superseded.
#[derive(Clone, Debug)]
pub struct ReadyQueue {
    /// First deadline the bucket window covers.
    base: Slot,
    /// One run per window slot, indexed `deadline mod DEADLINE_SLOTS`:
    /// within the window a bucket holds exactly one deadline.
    buckets: Vec<Run>,
    /// Buffers of emptied runs, handed to the next run that opens
    /// (module docs): an unoccupied bucket has no allocation.
    spare: Vec<Run>,
    /// Bit per bucket: set iff the bucket is non-empty.
    occupied: Occupancy,
    /// The non-empty runs at or beyond `base + DEADLINE_SLOTS`, keyed by
    /// deadline: the minimum lives in the window while it has entries.
    overflow: BTreeMap<Slot, Run>,
    /// Entry count, window and overflow.
    len: usize,
    /// Entry count across the buckets.
    in_window: usize,
    /// Lower bound on the minimum in-window deadline (`Slot::MAX` when
    /// the window is empty): scans start here instead of at `base`, and
    /// popping at `d` raises it to `d` (the pop sequence is
    /// non-decreasing between pushes), so scan work is amortized O(1)
    /// per pop instead of O(window words).
    scan_min: Slot,
}

impl Default for ReadyQueue {
    fn default() -> ReadyQueue {
        ReadyQueue::new()
    }
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> ReadyQueue {
        ReadyQueue {
            base: 0,
            buckets: std::iter::repeat_with(Run::new).take(BUCKETS).collect(),
            spare: Vec::new(),
            occupied: Occupancy::default(),
            overflow: BTreeMap::new(),
            len: 0,
            in_window: 0,
            scan_min: Slot::MAX,
        }
    }

    /// Number of entries, including stale ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no entries remain (stale or live).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bucket `b`: an [`Occupancy::bucket_of`] value, or one the bitmap
    /// handed out.
    fn bucket(&self, b: usize) -> &Run {
        // audit: allow(panic-reach, a bucket index is below BUCKETS, the length `new` gives the array)
        &self.buckets[b]
    }

    fn bucket_mut(&mut self, b: usize) -> &mut Run {
        // audit: allow(panic-reach, a bucket index is below BUCKETS, the length `new` gives the array)
        &mut self.buckets[b]
    }

    /// Pushes a subtask that has just become its task's schedulable head.
    // `always`, here and on `place`: with the hint alone both stay out
    // of line in `Engine<P>::step_slot` (DESIGN.md "One quantum").
    #[inline(always)]
    pub fn push(&mut self, entry: QueueEntry, counters: &mut Counters) {
        counters.heap_pushes += 1;
        let d = entry.priority.deadline();
        if self.is_empty() {
            self.base = d;
        } else if d < self.base {
            self.lower_base(d);
        }
        self.place(entry);
    }

    /// Lowers the window anchor to `new_base`, moving into the overflow
    /// map each run the lowered window no longer covers. Their buckets
    /// are congruent to `[new_base, old_base)`, so only that range's
    /// occupancy words are scanned: O(evicted runs + words).
    fn lower_base(&mut self, new_base: Slot) {
        let old_base = self.base;
        self.base = new_base;
        let end = old_base.min(new_base.saturating_add(DEADLINE_SLOTS));
        let mut s = new_base;
        while let Some(hit) = self.occupied.next(s, end) {
            let b = Occupancy::bucket_of(hit);
            self.occupied.clear(b);
            let run = std::mem::take(self.bucket_mut(b));
            self.in_window -= run.len();
            // Keyed by the run's own deadline: `hit` is only congruent
            // to it, one or more windows below.
            if let Some(head) = run.front() {
                self.overflow.insert(head.priority.deadline(), run);
            }
            s = hit + 1;
        }
    }

    /// Drops `entry` into its run without touching `base`. Callers
    /// guarantee `deadline ≥ base`.
    #[inline(always)]
    fn place(&mut self, entry: QueueEntry) {
        let d = entry.priority.deadline();
        self.len += 1;
        if d >= self.base.saturating_add(DEADLINE_SLOTS) {
            self.place_beyond(d, entry);
            return;
        }
        let b = Occupancy::bucket_of(d);
        if self.bucket(b).capacity() == 0 {
            if let Some(buffer) = self.spare.pop() {
                *self.bucket_mut(b) = buffer;
            }
        }
        insert_sorted(self.bucket_mut(b), entry);
        self.occupied.set(b);
        self.in_window += 1;
        self.scan_min = self.scan_min.min(d);
    }

    /// [`ReadyQueue::place`] beyond the window.
    fn place_beyond(&mut self, d: Slot, entry: QueueEntry) {
        let spare = &mut self.spare;
        let run = self
            .overflow
            .entry(d)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        insert_sorted(run, entry);
    }

    /// Re-anchors a drained window at the earliest overflow deadline and
    /// moves every run the new window covers into its bucket, whole.
    /// Returns `false` when there is nothing to move.
    fn refill(&mut self) -> bool {
        let Some(&first) = self.overflow.keys().next() else {
            return false;
        };
        self.base = first;
        self.scan_min = first;
        let end = first.saturating_add(DEADLINE_SLOTS);
        while let Some(next) = self.overflow.first_entry().filter(|e| *e.key() < end) {
            let b = Occupancy::bucket_of(*next.key());
            let run = next.remove();
            self.in_window += run.len();
            // A drained window's buckets own no buffer to park.
            *self.bucket_mut(b) = run;
            self.occupied.set(b);
        }
        true
    }

    /// Takes every entry out in ascending order, handing each to `take`,
    /// and leaves the queue structurally empty with every buffer
    /// parked. Walks the occupancy bitmap, not all [`BUCKETS`] buckets:
    /// O(len + occupied words).
    fn drain_each(&mut self, mut take: impl FnMut(QueueEntry)) {
        let mut from = self.scan_min;
        while let Some(d) = self.next_bucket(from) {
            let b = Occupancy::bucket_of(d);
            self.occupied.clear(b);
            let mut run = std::mem::take(self.bucket_mut(b));
            run.drain(..).for_each(&mut take);
            self.spare.push(run);
            from = d.saturating_add(1);
        }
        for (_, mut run) in std::mem::take(&mut self.overflow) {
            run.drain(..).for_each(&mut take);
            self.spare.push(run);
        }
        (self.len, self.in_window, self.scan_min) = (0, 0, Slot::MAX);
    }

    /// Re-places `entries` in a structurally empty queue, anchored at
    /// their earliest deadline; no push is counted.
    fn place_all(&mut self, entries: &[QueueEntry]) {
        if let Some(min) = entries.iter().map(|e| e.priority.deadline()).min() {
            self.base = min;
        }
        for &entry in entries {
            self.place(entry);
        }
    }

    /// The earliest occupied in-window deadline `≥ from`.
    fn next_bucket(&self, from: Slot) -> Option<Slot> {
        if self.in_window == 0 {
            return None;
        }
        let end = self.base.saturating_add(DEADLINE_SLOTS);
        self.occupied.next(from.max(self.base), end)
    }

    /// The deadline field of the queue's minimum entry, stale or live
    /// (`None` when empty) — a lower bound on the deadline of every
    /// queued subtask, which is what lets the engine skip miss
    /// detection in O(1) on slots where nothing queued is due.
    #[inline]
    pub fn front_deadline(&self) -> Option<Slot> {
        // In-window deadlines precede every overflow deadline.
        self.next_bucket(self.scan_min)
            .or_else(|| self.overflow.keys().next().copied())
    }

    /// Visits every entry (stale or live, in ascending order) whose
    /// deadline field is `≤ limit`, without removing it: O(due entries
    /// + occupied words up to `limit`).
    pub fn for_each_due(&self, limit: Slot, mut visit: impl FnMut(&QueueEntry)) {
        self.walk_sorted(|e| {
            let due = e.priority.deadline() <= limit;
            if due {
                visit(e);
            }
            due
        });
    }

    /// Removes and returns the minimum entry (stale or live), refilling
    /// the window from the overflow runs once it has drained.
    fn pop_min(&mut self) -> Option<QueueEntry> {
        if self.in_window == 0 && !self.refill() {
            return None;
        }
        let d = self.next_bucket(self.scan_min)?;
        self.scan_min = d;
        let b = Occupancy::bucket_of(d);
        let run = self.bucket_mut(b);
        let entry = run.pop_front()?;
        if run.is_empty() {
            let buffer = std::mem::take(run);
            self.spare.push(buffer);
            self.occupied.clear(b);
        }
        self.in_window -= 1;
        self.len -= 1;
        // `base` deliberately stays put while the window is non-empty:
        // advancing it would widen the window over deadlines that were
        // routed to the overflow map under the old base, breaking the
        // window-below-overflow invariant the min scan relies on. The
        // scan is bounded by the 8 bitmap words regardless.
        Some(entry)
    }

    /// Pops the highest-priority entry for which `is_live` holds,
    /// discarding (and counting) stale entries on the way. Returns `None`
    /// when the queue runs out.
    pub fn pop_live(
        &mut self,
        counters: &mut Counters,
        is_live: impl FnMut(&QueueEntry) -> bool,
    ) -> Option<QueueEntry> {
        self.pop_live_traced(counters, is_live, |_| {})
    }

    /// [`ReadyQueue::pop_live`] with an observer: `on_stale` is invoked
    /// for each stale entry discarded on the way to a live one, so a
    /// probe can attribute the deferred queue cost back to the
    /// reweighting event whose halt stranded the entry.
    pub fn pop_live_traced(
        &mut self,
        counters: &mut Counters,
        mut is_live: impl FnMut(&QueueEntry) -> bool,
        mut on_stale: impl FnMut(&QueueEntry),
    ) -> Option<QueueEntry> {
        while let Some(entry) = self.pop_min() {
            counters.heap_pops += 1;
            if is_live(&entry) {
                return Some(entry);
            }
            counters.stale_pops += 1;
            on_stale(&entry);
        }
        None
    }

    /// Drops every stale entry in one pass, rebuilding the runs from
    /// the surviving live entries; `on_drop` sees each one removed.
    ///
    /// Lazy invalidation leaves halted/withdrawn subtasks in the queue
    /// until they reach the minimum; under sustained reweighting (every
    /// PD²-LJ event withdraws a subtask) low-priority stale entries can
    /// outnumber live ones and keep bucket scans inflated for the rest
    /// of the run. Compaction is `O(len)`, so callers should trigger it
    /// only when stale entries dominate (the engine compacts when `len`
    /// exceeds a multiple of the live-task bound, keeping the amortized
    /// per-slot cost constant). Removals are tallied in
    /// [`Counters::compacted_stale`], not `stale_pops` — they never
    /// reach a pop, so [`ReadyQueue::pop_live_traced`]'s observer would
    /// miss them.
    pub fn compact_traced(
        &mut self,
        counters: &mut Counters,
        mut is_live: impl FnMut(&QueueEntry) -> bool,
        mut on_drop: impl FnMut(&QueueEntry),
    ) {
        let before = self.len;
        // In ascending order, so each re-placement below is an append
        // onto a buffer the drain parked.
        let mut entries = Vec::with_capacity(self.len);
        self.drain_each(|e| {
            if is_live(&e) {
                entries.push(e);
            } else {
                on_drop(&e);
            }
        });
        counters.compactions += 1;
        #[expect(clippy::as_conversions, reason = "usize→u64 is lossless")]
        let stale = (before - entries.len()) as u64;
        counters.compacted_stale += stale;
        self.place_all(&entries);
    }

    /// Hands `visit` every entry (stale ones included) in ascending
    /// order until it returns `false`; returns whether the walk reached
    /// the end. The window's runs precede the overflow map's.
    pub fn walk_sorted(&self, mut visit: impl FnMut(&QueueEntry) -> bool) -> bool {
        let mut from = self.scan_min;
        while let Some(d) = self.next_bucket(from) {
            if !self.bucket(Occupancy::bucket_of(d)).iter().all(&mut visit) {
                return false;
            }
            from = d.saturating_add(1);
        }
        self.overflow.values().flatten().all(visit)
    }

    /// Canonical persist projection: every entry (stale ones included —
    /// they carry observable cost via stale-pop counters) in ascending
    /// priority order. `QueueEntry`'s `Ord` is total over all fields,
    /// so compare-equal entries are bit-identical and the sorted vector
    /// is a canonical encoding of the queue's observable pop sequence
    /// regardless of its internal layout.
    pub fn entries_sorted(&self) -> Vec<QueueEntry> {
        let mut entries: Vec<QueueEntry> = Vec::with_capacity(self.len);
        self.walk_sorted(|e| {
            entries.push(*e);
            true
        });
        entries
    }

    /// Replaces the queue's entries with `entries` (an
    /// [`ReadyQueue::entries_sorted`] projection) in the buffers it
    /// already holds — a restore's queue and a busy-span jump's. No push
    /// is counted: the image's counters already include those pushes.
    pub fn reload(&mut self, entries: &[QueueEntry]) {
        self.drain_each(|_| {});
        self.place_all(entries);
    }
}

/// The binary-heap ready queue the deadline runs replaced, retained as
/// the reference implementation: differential tests drive it in
/// lockstep with [`ReadyQueue`] (their pop sequences must be
/// identical), and `benchmark/`'s `queue.{heap,radix}_push_pop_ns.*`
/// pair measures the two side by side. Counter semantics match
/// `ReadyQueue` exactly.
#[derive(Clone, Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
}

impl HeapQueue {
    /// Counterpart of [`ReadyQueue::push`].
    pub fn push(&mut self, entry: QueueEntry, counters: &mut Counters) {
        counters.heap_pushes += 1;
        self.heap.push(Reverse(entry));
    }

    /// Counterpart of [`ReadyQueue::pop_live`].
    pub fn pop_live(
        &mut self,
        counters: &mut Counters,
        mut is_live: impl FnMut(&QueueEntry) -> bool,
    ) -> Option<QueueEntry> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            counters.heap_pops += 1;
            if is_live(&entry) {
                return Some(entry);
            }
            counters.stale_pops += 1;
        }
        None
    }

    /// Counterpart of [`ReadyQueue::entries_sorted`].
    pub fn entries_sorted(&self) -> Vec<QueueEntry> {
        let mut entries: Vec<QueueEntry> = self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        entries
    }
}

/// A test entry. Tie rank = task id, matching the TaskIdAsc policy's
/// table.
#[cfg(test)]
fn entry(deadline: i64, b: bool, task: u32, index: u64) -> QueueEntry {
    let priority = Priority::pack(deadline, b, deadline, task);
    QueueEntry {
        priority,
        task: TaskId(task),
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything left, live or not, and names each entry's task.
    fn pop_tasks(q: &mut ReadyQueue, c: &mut Counters) -> Vec<u32> {
        std::iter::from_fn(|| q.pop_live(c, |_| true))
            .map(|e| e.task.0)
            .collect()
    }

    #[test]
    fn pops_in_pd2_order() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        q.push(entry(7, false, 0, 1), &mut c);
        q.push(entry(5, false, 1, 1), &mut c);
        q.push(entry(5, true, 2, 1), &mut c);
        assert_eq!(pop_tasks(&mut q, &mut c), vec![2, 1, 0]); // dl 5 b=1, dl 5 b=0, dl 7
        assert_eq!(c.heap_pushes, 3);
        assert_eq!(c.heap_pops, 3);
        assert_eq!(c.stale_pops, 0);
    }

    #[test]
    fn group_deadline_orders_equal_deadline_b1_entries() {
        // Among equal-deadline b=1 entries, the later group deadline wins.
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        for (group_deadline, task) in [(6, 0), (9, 1)] {
            let priority = Priority::pack(5, true, group_deadline, task);
            let e = QueueEntry {
                priority,
                task: TaskId(task),
                index: 1,
            };
            q.push(e, &mut c);
        }
        assert_eq!(
            pop_tasks(&mut q, &mut c),
            vec![1, 0],
            "later group deadline is favored"
        );
    }

    #[test]
    fn lazy_invalidation_skips_and_counts_stale() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        q.push(entry(3, true, 0, 1), &mut c);
        q.push(entry(4, true, 1, 1), &mut c);
        // Task 0's subtask was halted: treat it as stale.
        let got = q.pop_live(&mut c, |e| e.task != TaskId(0));
        assert_eq!(got.unwrap().task, TaskId(1));
        assert_eq!(c.stale_pops, 1);
        assert!(q.pop_live(&mut c, |_| true).is_none());
    }

    #[test]
    fn empty_queue_returns_none() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        assert!(q.pop_live(&mut c, |_| true).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn compact_drops_only_stale_entries_and_counts_them() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        for i in 0..100u64 {
            q.push(entry(i64::try_from(i).unwrap() + 3, false, 0, i), &mut c);
        }
        // Everything with an odd index is stale.
        q.compact_traced(&mut c, |e| e.index % 2 == 0, |_| {});
        assert_eq!(q.len(), 50);
        assert_eq!(c.compactions, 1);
        assert_eq!(c.compacted_stale, 50);
        // Survivors still pop in priority order, with no stale pops.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_live(&mut c, |_| true))
            .map(|e| e.index)
            .collect();
        assert_eq!(order, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(c.stale_pops, 0);
    }

    #[test]
    fn compact_on_all_live_queue_is_a_noop() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        q.push(entry(5, false, 0, 1), &mut c);
        q.push(entry(6, false, 1, 1), &mut c);
        q.compact_traced(&mut c, |_| true, |_| {});
        assert_eq!(q.len(), 2);
        assert_eq!(c.compacted_stale, 0);
    }

    /// Compaction must not reorder survivors that share a priority key:
    /// the pop order among equal keys is fixed by `QueueEntry`'s full
    /// `Ord` (priority, then task, then index), so a rebuilt queue pops
    /// the identical sequence the unswept queue would have.
    #[test]
    fn compaction_never_reorders_equal_key_survivors() {
        let (mut swept, mut c) = (ReadyQueue::new(), Counters::default());
        // Three equal-priority groups; interleave pushes across groups
        // and sprinkle stale entries (odd indices) through each.
        for index in 0..24u64 {
            for (task, deadline) in [(3u32, 5i64), (1, 5), (2, 9)] {
                let priority = Priority::pack(deadline, true, deadline, 7);
                swept.push(
                    QueueEntry {
                        priority,
                        task: TaskId(task),
                        index,
                    },
                    &mut c,
                );
            }
        }
        let mut unswept = swept.clone();
        let is_live = |e: &QueueEntry| e.index.is_multiple_of(2);
        swept.compact_traced(&mut c, is_live, |_| {});
        assert_eq!((swept.len(), c.compactions, c.compacted_stale), (36, 1, 36));
        let mut c2 = Counters::default();
        let pops = |q: &mut ReadyQueue, c: &mut Counters| -> Vec<(u32, u64)> {
            std::iter::from_fn(|| q.pop_live(c, is_live))
                .map(|e| (e.task.0, e.index))
                .collect()
        };
        assert_eq!(pops(&mut swept, &mut c), pops(&mut unswept, &mut c2));
    }

    /// Deadlines farther than the bucket window ride the overflow runs
    /// and move in once the window drains — pop order still exact.
    #[test]
    fn overflow_deadlines_pop_in_order() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        q.push(entry(10, false, 0, 1), &mut c);
        q.push(entry(10_000, false, 1, 1), &mut c); // far beyond 10 + 512
        q.push(entry(700, true, 2, 1), &mut c); // also overflow
        q.push(entry(11, true, 3, 1), &mut c);
        assert_eq!(pop_tasks(&mut q, &mut c), vec![0, 3, 2, 1]);
        assert_eq!(c.heap_pops, 4);
    }

    /// A push below the current window base re-anchors the window
    /// without losing or reordering anything.
    #[test]
    fn below_window_push_rebases() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        q.push(entry(1_000, false, 0, 1), &mut c); // base anchors at 1000
        q.push(entry(1_600, false, 1, 1), &mut c); // overflow
        q.push(entry(3, true, 2, 1), &mut c); // below base: rebase
        assert_eq!(pop_tasks(&mut q, &mut c), vec![2, 0, 1]);
    }

    /// Popping must not widen the window over deadlines already routed
    /// to the overflow map: after popping the 100, a push of 611 has
    /// to sort *after* the 600 parked in the overflow.
    #[test]
    fn window_growth_never_overtakes_overflow() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        q.push(entry(100, false, 0, 1), &mut c); // base anchors at 100
        q.push(entry(700, false, 1, 1), &mut c); // overflow (≥ 100 + 512)
        assert_eq!(q.pop_live(&mut c, |_| true).unwrap().task, TaskId(0));
        q.push(entry(611, false, 2, 1), &mut c);
        assert_eq!(pop_tasks(&mut q, &mut c), vec![2, 1]);
    }

    /// `front_deadline` and `for_each_due` read what `pop` would
    /// remove: the minimum deadline across window and overflow, and
    /// exactly the entries at or below a limit — unchanged by the walk.
    #[test]
    fn front_and_due_walk_see_window_and_overflow() {
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        assert_eq!(q.front_deadline(), None);
        q.for_each_due(Slot::MAX, |_| panic!("empty queue has no due entry"));
        q.push(entry(100, false, 0, 1), &mut c); // base anchors at 100
        q.push(entry(100, true, 1, 1), &mut c);
        q.push(entry(104, false, 2, 1), &mut c);
        q.push(entry(700, false, 3, 1), &mut c); // overflow (≥ 100 + 512)
        q.push(entry(9_000, false, 4, 1), &mut c); // overflow
        let due = |q: &ReadyQueue, limit: Slot| {
            let mut seen = Vec::new();
            q.for_each_due(limit, |e| seen.push(e.task.0));
            seen
        };
        assert_eq!(q.front_deadline(), Some(100));
        assert_eq!(due(&q, 99), Vec::<u32>::new());
        assert_eq!(due(&q, 100), vec![1, 0]);
        assert_eq!(due(&q, 103), vec![1, 0]);
        assert_eq!(due(&q, 700), vec![1, 0, 2, 3]);
        assert_eq!(q.len(), 5, "the walk removes nothing");
        // Drain the window: the front moves into the overflow runs.
        for _ in 0..3 {
            q.pop_live(&mut c, |_| true);
        }
        assert_eq!(q.front_deadline(), Some(700));
        assert_eq!(due(&q, 699), Vec::<u32>::new());
        assert_eq!(due(&q, 9_000), vec![3, 4]);
    }

    /// Differential check: the run queue and the reference heap pop
    /// bit-identical sequences (liveness filter included) over an
    /// adversarial interleaving of pushes, pops, and deadline ranges,
    /// with identical counters.
    #[test]
    fn radix_matches_heap_reference() {
        let (mut radix, mut heap) = (ReadyQueue::new(), HeapQueue::default());
        let (mut cr, mut ch) = (Counters::default(), Counters::default());
        // Deterministic pseudo-random stream (xorshift).
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let is_live = |e: &QueueEntry| !e.index.is_multiple_of(3);
        for round in 0..2_000u64 {
            let r = rand();
            if r % 3 < 2 {
                // Push: deadlines cluster near the round with occasional
                // far-future and (later) below-window values.
                let spread = match r % 16 {
                    0 => 4_000,  // overflow territory
                    1 => 0,      // collide exactly
                    _ => r % 97, // dense cluster
                };
                let deadline = i64::try_from(round / 4 + spread).unwrap_or(0);
                let task = u32::try_from(r % 7).unwrap_or(0);
                let e = entry(deadline, r % 2 == 0, task, round);
                radix.push(e, &mut cr);
                heap.push(e, &mut ch);
            } else {
                assert_eq!(
                    radix.pop_live(&mut cr, is_live),
                    heap.pop_live(&mut ch, is_live),
                    "pop diverged at round {round}"
                );
            }
            assert_eq!(radix.len(), heap.entries_sorted().len());
        }
        // Drain both completely.
        loop {
            let a = radix.pop_live(&mut cr, is_live);
            let b = heap.pop_live(&mut ch, is_live);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cr.heap_pushes, ch.heap_pushes);
        assert_eq!(cr.heap_pops, ch.heap_pops);
        assert_eq!(cr.stale_pops, ch.stale_pops);
        assert_eq!(radix.entries_sorted(), heap.entries_sorted());
    }

    /// Only live runs own a buffer, so a deadline front that walks the
    /// window four times over holds as many buffers as runs were live
    /// at once — through pops, compactions, a below-window push that
    /// evicts a run, and overflow runs that move in when the window
    /// drains.
    #[test]
    fn emptied_buckets_hand_their_buffers_on() {
        fn buffers(q: &ReadyQueue) -> usize {
            let held = q.buckets.iter().filter(|b| b.capacity() > 0).count();
            let occupied = (0..BUCKETS).filter(|&b| q.occupied.is_set(b)).count();
            assert_eq!(held, occupied);
            assert!(q.overflow.values().all(|run| run.capacity() > 0));
            held + q.overflow.len() + q.spare.len()
        }
        let (mut q, mut c) = (ReadyQueue::new(), Counters::default());
        // Twenty entries per deadline, three deadlines in flight; the
        // all-live compactions re-anchor the window as the engine's do.
        for t in 0..4 * DEADLINE_SLOTS {
            if t % 64 == 0 {
                q.compact_traced(&mut c, |_| true, |_| {});
            }
            for task in 0..20 {
                q.push(entry(t + 3, false, task, 0), &mut c);
            }
            if t >= 2 {
                for _ in 0..20 {
                    let popped = q.pop_live(&mut c, |_| true);
                    assert_eq!(popped.map(|e| e.priority.deadline()), Some(t + 1));
                }
            }
            assert!(q.overflow.is_empty(), "slot {t}: the window is in use");
            assert!(buffers(&q) <= 3, "slot {t}: {} buffers", buffers(&q));
        }
        let front = 4 * DEADLINE_SLOTS;
        assert_eq!(q.front_deadline(), Some(front + 1));
        q.compact_traced(&mut c, |e| e.task.0 % 2 == 0, |_| {});
        assert_eq!((q.len(), buffers(&q)), (20, 3));
        // Re-anchoring 511 slots lower moves the later deadline's run,
        // buffer and all, into the overflow map.
        q.push(entry(front - 510, false, 0, 0), &mut c);
        let held = (q.in_window, q.overflow.len(), q.spare.len(), buffers(&q));
        assert_eq!(held, (11, 1, 0, 3));
        assert_eq!(pop_tasks(&mut q, &mut c).len(), 21);
        assert_eq!((buffers(&q), q.spare.len()), (3, 3));
        // One run in the window and two beyond it take the three parked
        // buffers; the window drains and the two move in whole.
        for (deadline, tasks) in [(front, 5), (front + 900, 7), (front + 1_400, 3)] {
            for task in 0..tasks {
                q.push(entry(deadline, false, task, 0), &mut c);
            }
        }
        assert_eq!((q.overflow.len(), q.spare.len(), buffers(&q)), (2, 0, 3));
        assert_eq!(pop_tasks(&mut q, &mut c).len(), 15);
        assert_eq!((buffers(&q), q.spare.len()), (3, 3));
    }
}

/// The run queue against [`HeapQueue`], which shares no run code, at
/// `population`'s shape: bursts of up to 10⁴ equal-deadline entries in
/// ascending, descending and shuffled tie order; several overflow runs
/// inside one refilled window; compaction and reloads between them;
/// below-window bursts that evict runs into the overflow map.
/// Pops, counters, lengths, fronts and `entries_sorted` must agree.
#[cfg(test)]
mod heap_differential {
    use super::*;
    use proptest::prelude::*;

    /// `Burst(ahead, len, order, b)`: `len` entries, one per task, at
    /// deadline `front + ahead`, pushed in tie order `order` — 0
    /// ascending, 1 descending, else shuffled by that seed.
    #[derive(Clone, Debug)]
    enum Op {
        Burst(i64, u32, u64, bool),
        Pop(u32),
        Compact,
        /// The queue's own entries, `ds` slots later, loaded back in.
        Reload(i64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let burst = (0u8..8, 0i64..400, 0u32..5, 0u64..u64::MAX, 0u8..6);
        let burst = burst.prop_flat_map(|(kind, near, digits, seed, b)| {
            let ahead = match kind {
                0 | 1 => 520 + near * 4, // an overflow run
                2 => -3 * near,          // below the window
                _ => near,
            };
            let order = [0, 1, seed | 2][usize::from(b / 2)];
            (1..=10u32.pow(digits)).prop_map(move |len| Op::Burst(ahead, len, order, b % 2 == 1))
        });
        let op = (0u8..10, burst, 0u32..5_000, 0i64..2_000).prop_map(|(k, burst, n, ds)| match k {
            0..=4 => burst,
            5..=7 => Op::Pop(n),
            8 => Op::Compact,
            _ => Op::Reload(ds),
        });
        prop::collection::vec(op, 1..24)
    }

    fn is_live(e: &QueueEntry) -> bool {
        !e.index.is_multiple_of(3)
    }

    /// The heap has no compaction or reload of its own: a fresh heap of
    /// its rewritten entries, pushed uncounted.
    fn rebuilt(heap: &HeapQueue, rewrite: impl Fn(QueueEntry) -> Option<QueueEntry>) -> HeapQueue {
        let (mut fresh, mut uncounted) = (HeapQueue::default(), Counters::default());
        for e in heap.entries_sorted().into_iter().filter_map(rewrite) {
            fresh.push(e, &mut uncounted);
        }
        fresh
    }

    fn check(ops: &[Op]) {
        let (mut radix, mut heap) = (ReadyQueue::new(), HeapQueue::default());
        let (mut cr, mut ch) = (Counters::default(), Counters::default());
        let (mut front, mut index) = (1_000i64, 0u64);
        for op in ops {
            match *op {
                Op::Burst(ahead, len, order, b) => {
                    let mut tasks: Vec<u32> = (0..len).collect();
                    match order {
                        0 => {}
                        1 => tasks.reverse(),
                        // xor, then an odd multiplier: a bijection on
                        // u64, so the keys are distinct.
                        seed => tasks.sort_by_key(|&t| {
                            (u64::from(t) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        }),
                    }
                    let d = front + ahead;
                    for task in tasks {
                        index += 1;
                        let e = entry(d, b, task, index);
                        radix.push(e, &mut cr);
                        heap.push(e, &mut ch);
                    }
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        let popped = radix.pop_live(&mut cr, is_live);
                        assert_eq!(popped, heap.pop_live(&mut ch, is_live));
                        let Some(e) = popped else { break };
                        front = e.priority.deadline();
                    }
                }
                Op::Compact => {
                    let (before, len) = (cr.compacted_stale, radix.len());
                    radix.compact_traced(&mut cr, is_live, |_| {});
                    heap = rebuilt(&heap, |e| Some(e).filter(is_live));
                    let dropped = usize::try_from(cr.compacted_stale - before);
                    assert_eq!(dropped, Ok(len - radix.len()));
                }
                Op::Reload(ds) => {
                    let shift = |e: QueueEntry| {
                        let p = e.priority;
                        let (d, gd) = (p.deadline() + ds, p.group_deadline() + ds);
                        let priority = Priority::pack(d, p.b(), gd, p.tie_rank());
                        QueueEntry { priority, ..e }
                    };
                    let shifted: Vec<QueueEntry> =
                        radix.entries_sorted().into_iter().map(shift).collect();
                    radix.reload(&shifted);
                    heap = rebuilt(&heap, |e| Some(shift(e)));
                    front += ds;
                }
            }
            let sorted = heap.entries_sorted();
            let first = sorted.first().map(|e| e.priority.deadline());
            assert_eq!((radix.len(), radix.front_deadline()), (sorted.len(), first));
            if !matches!(op, Op::Pop(_)) {
                assert_eq!(radix.entries_sorted(), sorted);
            }
        }
        while let Some(e) = radix.pop_live(&mut cr, is_live) {
            assert_eq!(Some(e), heap.pop_live(&mut ch, is_live));
        }
        assert_eq!(heap.pop_live(&mut ch, is_live), None);
        let counted = |c: &Counters| (c.heap_pushes, c.heap_pops, c.stale_pops);
        assert_eq!(counted(&cr), counted(&ch));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn runs_pop_like_the_heap_at_population_shape(ops in arb_ops()) {
            check(&ops);
        }
    }

    /// The run's worst case, pinned: a 10⁴-entry burst in descending
    /// tie order is all front inserts, and pops exactly like the heap.
    #[test]
    fn descending_burst_pops_like_the_heap() {
        check(&[Op::Burst(0, 10_000, 1, false), Op::Pop(10_000)]);
    }

    /// The eviction leg by hand: two runs, then a push far enough below
    /// to leave them two windows above their buckets' slots. Keyed by
    /// those slots, the front would read 1 024 slots early once the
    /// window drains.
    #[test]
    fn evicted_runs_keep_their_own_deadline() {
        let (far, near) = (Op::Burst(400, 3, 1, false), Op::Burst(300, 2, 0, true));
        let below = Op::Burst(-900, 2, 9, false);
        check(&[far, near, below, Op::Pop(1), Op::Pop(6)]);
    }
}
