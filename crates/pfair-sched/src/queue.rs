//! The PD² ready queue: deadline-bucketed radix structure with lazy
//! invalidation.
//!
//! Because a released subtask's priority is immutable, the queue never
//! needs decrease-key; reweighting events that *halt* a subtask simply
//! leave a stale entry behind, which is skipped (and counted) when
//! popped.
//!
//! ## Radix layout
//!
//! PD² priorities order first on the deadline; the packed key's lower
//! fields (b-bit, group deadline, tie rank) only break ties *within*
//! one deadline. [`ReadyQueue`] therefore buckets entries by the
//! deadline field of the packed key over a moving 512-slot window —
//! the window [`CalendarRing`](crate::calendar::CalendarRing) keeps,
//! over the same `occupancy::Occupancy` bitmap — whose word scan locates the
//! minimum bucket. Within the window each bucket
//! holds exactly one deadline, so a small per-bucket min-heap on the
//! full entry order pops the true minimum:
//!
//! * `push` is O(1) amortized: one per-bucket heap sift (over the
//!   handful of equal-deadline entries) plus a bitmap bit, with the
//!   rare below-window push paying an O(len) rebase.
//! * `pop` is near-O(1) amortized: a masked word scan that resumes at
//!   the last popped deadline (pops between pushes are non-decreasing)
//!   plus one per-bucket heap pop.
//!
//! Deadlines more than 512 slots out ride an overflow min-heap (they
//! exceed every in-window deadline, so the minimum always lives in the
//! window while it is non-empty). When the window drains, pops come
//! straight off the overflow root and the window re-anchors just below
//! the remaining overflow minimum — entries never migrate between the
//! two structures on the pop path.
//!
//! Only occupied buckets own a heap buffer: a bucket that empties parks
//! its buffer on a spare list and the next bucket to fill takes it, so
//! the window holds as many buffers as buckets were ever occupied at
//! once. Kept per bucket they would number one for every bucket the
//! deadline front has passed over, each sized for its largest
//! equal-deadline group: 0.5 MB for 50 tasks after 512 per-slot steps and
//! next to nothing after a busy-span jump has rebuilt the queue, so the
//! footprint would depend on which driver the events let run.
//!
//! The pop sequence is bit-identical to the previous binary-heap
//! implementation, which is retained as [`HeapQueue`] — the reference
//! for differential tests and `benchmark/`'s
//! `queue.{heap,radix}_push_pop_ns.*` pair.

use crate::occupancy::{Occupancy, BUCKETS, WINDOW_SLOTS as DEADLINE_SLOTS};
use crate::overhead::Counters;
use crate::priority::Priority;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stale-entry growth factor the compaction threshold allows over the
/// live-entry bound. At most one live entry per task is ever enqueued
/// (a task's head, pushed at release or promotion), so a factor of 2
/// means compaction fires only once stale entries can outnumber live
/// ones — below that, the `O(len)` sweep would cost more than the sift
/// inflation it removes.
pub const COMPACT_GROWTH_FACTOR: usize = 2;

/// Flat slack added to the compaction threshold so tiny task sets
/// (where `2·tasks` is a handful of entries) don't compact on every
/// few pushes. 64 entries keep the heap within one cache page's worth
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

/// One deadline's entries: a min-heap on the full entry order.
type Bucket = BinaryHeap<Reverse<QueueEntry>>;

/// Min-priority ready queue with lazy invalidation: deadline-bucketed
/// radix structure (module docs). Drop-in replacement for the binary
/// heap it superseded — identical pop sequence, counter semantics, and
/// canonical [`ReadyQueue::entries_sorted`] projection.
#[derive(Clone, Debug)]
pub struct ReadyQueue {
    /// First deadline the bucket window covers.
    base: Slot,
    /// One bucket per window slot, indexed `deadline mod DEADLINE_SLOTS`.
    /// Within the window a bucket holds exactly one deadline, so a
    /// per-bucket min-heap on the full entry order pops the true
    /// minimum without the memmove a sorted `Vec` insert would pay.
    buckets: Vec<Bucket>,
    /// Buffers of emptied buckets, handed to the next bucket that fills
    /// (module docs): an unoccupied bucket has no allocation.
    spare: Vec<Bucket>,
    /// Bit per bucket: set iff the bucket is non-empty.
    occupied: Occupancy,
    /// Entries with deadlines at or beyond `base + DEADLINE_SLOTS`,
    /// kept as a min-heap (the packed key orders deadline-first, so
    /// the heap minimum is the earliest overflow deadline); popped
    /// directly when the window drains.
    overflow: Bucket,
    /// Live entry count across the buckets.
    in_window: usize,
    /// Lower bound on the minimum in-window deadline (`Slot::MAX` when
    /// the window is empty): the min scan starts here instead of at
    /// `base`, and popping at `d` raises it to `d` (the pop sequence
    /// is non-decreasing between pushes), so scan work is amortized
    /// O(1) per pop instead of O(window words).
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
            buckets: vec![BinaryHeap::new(); BUCKETS],
            spare: Vec::new(),
            occupied: Occupancy::default(),
            overflow: BinaryHeap::new(),
            in_window: 0,
            scan_min: Slot::MAX,
        }
    }

    /// The earliest overflow deadline (`Slot::MAX` when empty).
    fn overflow_min(&self) -> Slot {
        self.overflow
            .peek()
            .map_or(Slot::MAX, |Reverse(e)| e.priority.deadline())
    }

    /// Number of entries, including stale ones.
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// `true` iff no entries remain (stale or live).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bucket `b`: an [`Occupancy::bucket_of`] value, or one the bitmap
    /// handed out.
    fn bucket(&self, b: usize) -> &Bucket {
        // audit: allow(panic-reach, a bucket index is below BUCKETS, the length `new` gives the array)
        &self.buckets[b]
    }

    fn bucket_mut(&mut self, b: usize) -> &mut Bucket {
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

    /// Lowers the window anchor to `new_base`, evicting into the
    /// overflow heap the entries the shifted coverage no longer
    /// reaches (deadlines at or beyond `new_base + DEADLINE_SLOTS`).
    /// Those occupy bucket indices congruent to `[new_base,
    /// old_base)`, so the walk scans only that range's occupancy words
    /// — a below-window push costs O(evicted + words), not O(len).
    fn lower_base(&mut self, new_base: Slot) {
        let old_base = self.base;
        self.base = new_base;
        let end = old_base.min(new_base.saturating_add(DEADLINE_SLOTS));
        let mut s = new_base;
        while let Some(hit) = self.occupied.next(s, end) {
            let b = Occupancy::bucket_of(hit);
            let mut evicted = std::mem::take(self.bucket_mut(b));
            self.in_window -= evicted.len();
            self.overflow.extend(evicted.drain());
            self.spare.push(evicted);
            self.occupied.clear(b);
            s = hit + 1;
        }
    }

    /// Drops `entry` into its bucket (or the overflow list) without
    /// touching `base`. Callers guarantee `deadline ≥ base`.
    #[inline(always)]
    fn place(&mut self, entry: QueueEntry) {
        let d = entry.priority.deadline();
        if d >= self.base.saturating_add(DEADLINE_SLOTS) {
            self.overflow.push(Reverse(entry));
            return;
        }
        let b = Occupancy::bucket_of(d);
        if self.bucket(b).capacity() == 0 {
            if let Some(buffer) = self.spare.pop() {
                *self.bucket_mut(b) = buffer;
            }
        }
        // Equal-deadline groups are small (one live head per task), so
        // the per-bucket heap sift is effectively constant work.
        self.bucket_mut(b).push(Reverse(entry));
        self.occupied.set(b);
        self.in_window += 1;
        self.scan_min = self.scan_min.min(d);
    }

    /// Drains every window bucket and the overflow list into one
    /// vector, leaving the queue structurally empty. Walks the
    /// occupancy bitmap rather than all [`BUCKETS`] buckets,
    /// so the cost is O(len + occupied words) — the engine drains the
    /// window every few slots in a saturated run, and an O(bucket
    /// count) sweep here measurably regresses whole-run time.
    fn drain_all(&mut self) -> Vec<QueueEntry> {
        let mut all: Vec<QueueEntry> = Vec::with_capacity(self.len());
        // Taken out whole, which leaves the queue's own bitmap clear.
        let mut occupied = std::mem::take(&mut self.occupied);
        for b in occupied.drain() {
            let mut drained = std::mem::take(self.bucket_mut(b));
            all.extend(drained.drain().map(|Reverse(e)| e));
            self.spare.push(drained);
        }
        all.extend(self.overflow.drain().map(|Reverse(e)| e));
        self.in_window = 0;
        self.scan_min = Slot::MAX;
        all
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
            .or_else(|| self.overflow.peek().map(|Reverse(e)| e.priority.deadline()))
    }

    /// Visits every entry (stale or live, in no particular order) whose
    /// deadline field is `≤ limit`, without removing it. Cost is the
    /// occupied buckets up to `limit` plus their entries; the overflow
    /// heap is walked only when its minimum is itself due.
    pub fn for_each_due(&self, limit: Slot, mut visit: impl FnMut(&QueueEntry)) {
        let mut from = self.scan_min;
        while let Some(d) = self.next_bucket(from).filter(|d| *d <= limit) {
            for Reverse(e) in self.bucket(Occupancy::bucket_of(d)) {
                visit(e);
            }
            from = d.saturating_add(1);
        }
        if self.overflow_min() <= limit {
            for Reverse(e) in &self.overflow {
                if e.priority.deadline() <= limit {
                    visit(e);
                }
            }
        }
    }

    /// Removes and returns the minimum entry (stale or live), serving
    /// straight from the overflow heap once the window has drained.
    fn pop_min(&mut self) -> Option<QueueEntry> {
        if self.in_window == 0 {
            // The window is empty, so the global minimum is the
            // overflow heap's root (the packed key orders
            // deadline-first): pop it directly — no migration — and
            // re-anchor the empty window just below the remaining
            // overflow. Future pushes then land in buckets while the
            // window-below-overflow invariant holds by construction.
            let Reverse(entry) = self.overflow.pop()?;
            self.base = self.overflow_min().saturating_sub(DEADLINE_SLOTS);
            return Some(entry);
        }
        let d = self.next_bucket(self.scan_min)?;
        self.scan_min = d;
        let b = Occupancy::bucket_of(d);
        let bucket = self.bucket_mut(b);
        let Reverse(entry) = bucket.pop()?;
        if bucket.is_empty() {
            let buffer = std::mem::take(bucket);
            self.spare.push(buffer);
            self.occupied.clear(b);
        }
        self.in_window -= 1;
        // `base` deliberately stays put while the window is non-empty:
        // advancing it would widen the window over deadlines that were
        // routed to the overflow list under the old base, breaking the
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

    /// Drops every stale entry in one pass, rebuilding the buckets from
    /// the surviving live entries.
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
    /// reach a pop.
    pub fn compact(&mut self, counters: &mut Counters, is_live: impl FnMut(&QueueEntry) -> bool) {
        self.compact_traced(counters, is_live, |_| {});
    }

    /// [`ReadyQueue::compact`] with an observer: `on_drop` is invoked
    /// for each stale entry the sweep removes (these never reach a
    /// pop, so [`ReadyQueue::pop_live_traced`]'s observer would miss
    /// them).
    pub fn compact_traced(
        &mut self,
        counters: &mut Counters,
        mut is_live: impl FnMut(&QueueEntry) -> bool,
        mut on_drop: impl FnMut(&QueueEntry),
    ) {
        let before = self.len();
        let mut entries = self.drain_all();
        entries.retain(|e| {
            let live = is_live(e);
            if !live {
                on_drop(e);
            }
            live
        });
        counters.compactions += 1;
        counters.compacted_stale += (before - entries.len()) as u64; // audit: allow(lossy-cast, usize→u64 is lossless on the supported targets)
                                                                     // Re-place in the drained (already-reset) structure: the bucket
                                                                     // allocations are reused rather than rebuilt.
        if let Some(min) = entries.iter().map(|e| e.priority.deadline()).min() {
            self.base = min;
        }
        for entry in entries {
            self.place(entry);
        }
    }

    /// Hands `visit` every entry (stale ones included) in ascending
    /// order until it returns `false`; returns whether the walk reached
    /// the end. Buckets are visited in deadline order and the overflow
    /// heap last (its deadlines lie beyond the window's); `scratch` holds
    /// one of them at a time while it is sorted, so a caller that keeps
    /// the buffer allocates nothing.
    pub fn walk_sorted(
        &self,
        scratch: &mut Vec<QueueEntry>,
        mut visit: impl FnMut(&QueueEntry) -> bool,
    ) -> bool {
        let mut group = |heap: &Bucket| {
            scratch.clear();
            scratch.extend(heap.iter().map(|Reverse(e)| *e));
            scratch.sort_unstable();
            scratch.iter().all(&mut visit)
        };
        let mut from = self.base;
        while let Some(d) = self.next_bucket(from) {
            if !group(self.bucket(Occupancy::bucket_of(d))) {
                return false;
            }
            from = d.saturating_add(1);
        }
        group(&self.overflow)
    }

    /// Canonical persist projection: every entry (stale ones included —
    /// they carry observable cost via stale-pop counters) in ascending
    /// priority order. `QueueEntry`'s `Ord` is total over all fields,
    /// so compare-equal entries are bit-identical and the sorted vector
    /// is a canonical encoding of the queue's observable pop sequence
    /// regardless of its internal bucket layout.
    pub fn entries_sorted(&self) -> Vec<QueueEntry> {
        let mut entries: Vec<QueueEntry> = Vec::with_capacity(self.len());
        self.walk_sorted(&mut Vec::new(), |e| {
            entries.push(*e);
            true
        });
        entries
    }

    /// Moves the whole queue `ds ≥ 0` slots later without re-placing an
    /// entry: `shift` rewrites each one (it must add exactly `ds` to the
    /// deadline field and keep the order of any two entries — a uniform
    /// slot shift plus a per-task index shift does, since entries order
    /// priority, then task, then index), every bucket's heap moves to
    /// the bucket its new deadline maps to — a rotation of the bucket
    /// array by `ds mod 512`, after which the occupancy bits are read
    /// back off the buckets — and the window anchor and the scan hint
    /// move along. An order-preserving rewrite keeps each heap a heap,
    /// so the pop sequence is the shifted image of what it was.
    pub fn shift_deadlines(&mut self, ds: Slot, mut shift: impl FnMut(&mut QueueEntry)) {
        let mut rewrite = |heap: &mut Bucket| {
            let mut entries = std::mem::take(heap).into_vec();
            for Reverse(e) in &mut entries {
                let was = e.priority.deadline();
                shift(e);
                debug_assert_eq!(e.priority.deadline(), was + ds, "uneven deadline shift");
            }
            *heap = BinaryHeap::from(entries);
        };
        self.buckets.rotate_right(Occupancy::bucket_of(ds));
        self.occupied = Occupancy::default();
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                rewrite(bucket);
                self.occupied.set(b);
            }
        }
        rewrite(&mut self.overflow);
        self.base = self.base.saturating_add(ds);
        self.scan_min = self.scan_min.saturating_add(ds);
    }

    /// Rebuilds a queue from a [`ReadyQueue::entries_sorted`]
    /// projection without routing through [`ReadyQueue::push`] — the
    /// restored engine's `heap_pushes` counter is carried over verbatim
    /// by the snapshot, so re-counting these entries would double them.
    pub fn from_entries(entries: Vec<QueueEntry>) -> ReadyQueue {
        let mut q = ReadyQueue::new();
        if let Some(min) = entries.iter().map(|e| e.priority.deadline()).min() {
            q.base = min;
        }
        for entry in entries {
            q.place(entry);
        }
        q
    }
}

/// The previous binary-heap ready queue, retained as the reference
/// implementation: differential tests drive it in lockstep with the
/// radix [`ReadyQueue`] (their pop sequences must be identical), and
/// `benchmark/`'s `queue.{heap,radix}_push_pop_ns.*` pair measures the
/// two side by side. Counter semantics match `ReadyQueue` exactly.
#[derive(Clone, Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
}

impl HeapQueue {
    /// An empty queue.
    pub fn new() -> HeapQueue {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of entries, including stale ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no entries remain (stale or live).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(deadline: i64, b: bool, task: u32, index: u64) -> QueueEntry {
        QueueEntry {
            // Tie rank = task id, matching the TaskIdAsc policy's table.
            priority: Priority::pack(deadline, b, deadline, task),
            task: TaskId(task),
            index,
        }
    }

    #[test]
    fn pops_in_pd2_order() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        q.push(entry(7, false, 0, 1), &mut c);
        q.push(entry(5, false, 1, 1), &mut c);
        q.push(entry(5, true, 2, 1), &mut c);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_live(&mut c, |_| true))
            .map(|e| e.task.0)
            .collect();
        assert_eq!(order, vec![2, 1, 0]); // dl 5 b=1, dl 5 b=0, dl 7
        assert_eq!(c.heap_pushes, 3);
        assert_eq!(c.heap_pops, 3);
        assert_eq!(c.stale_pops, 0);
    }

    #[test]
    fn lazy_invalidation_skips_and_counts_stale() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
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
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        assert!(q.pop_live(&mut c, |_| true).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn compact_drops_only_stale_entries_and_counts_them() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        for i in 0..100u64 {
            q.push(entry(i64::try_from(i).unwrap() + 3, false, 0, i), &mut c);
        }
        // Everything with an odd index is stale.
        q.compact(&mut c, |e| e.index % 2 == 0);
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
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        q.push(entry(5, false, 0, 1), &mut c);
        q.push(entry(6, false, 1, 1), &mut c);
        q.compact(&mut c, |_| true);
        assert_eq!(q.len(), 2);
        assert_eq!(c.compacted_stale, 0);
    }

    /// Compaction must not reorder survivors that share a priority key:
    /// the pop order among equal keys is fixed by `QueueEntry`'s full
    /// `Ord` (priority, then task, then index), so a rebuilt queue pops
    /// the identical sequence the unswept queue would have.
    #[test]
    fn compaction_never_reorders_equal_key_survivors() {
        let mut swept = ReadyQueue::new();
        let mut c = Counters::default();
        // Three equal-priority groups; interleave pushes across groups
        // and sprinkle stale entries (odd indices) through each.
        for index in 0..24u64 {
            for (task, deadline) in [(3u32, 5i64), (1, 5), (2, 9)] {
                swept.push(
                    QueueEntry {
                        priority: Priority::pack(deadline, true, deadline, 7),
                        task: TaskId(task),
                        index,
                    },
                    &mut c,
                );
            }
        }
        let mut unswept = swept.clone();
        let is_live = |e: &QueueEntry| e.index.is_multiple_of(2);
        swept.compact(&mut c, is_live);
        let mut c2 = Counters::default();
        let pops = |q: &mut ReadyQueue, c: &mut Counters| -> Vec<(u32, u64)> {
            std::iter::from_fn(|| q.pop_live(c, is_live))
                .map(|e| (e.task.0, e.index))
                .collect()
        };
        assert_eq!(pops(&mut swept, &mut c), pops(&mut unswept, &mut c2));
    }

    /// Deadlines farther than the bucket window ride the overflow list
    /// and migrate in once the window drains — pop order still exact.
    #[test]
    fn overflow_deadlines_pop_in_order() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        q.push(entry(10, false, 0, 1), &mut c);
        q.push(entry(10_000, false, 1, 1), &mut c); // far beyond 10 + 512
        q.push(entry(700, true, 2, 1), &mut c); // also overflow
        q.push(entry(11, true, 3, 1), &mut c);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_live(&mut c, |_| true))
            .map(|e| e.task.0)
            .collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
        assert_eq!(c.heap_pops, 4);
    }

    /// A push below the current window base re-anchors the window
    /// without losing or reordering anything.
    #[test]
    fn below_window_push_rebases() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        q.push(entry(1_000, false, 0, 1), &mut c); // base anchors at 1000
        q.push(entry(1_600, false, 1, 1), &mut c); // overflow
        q.push(entry(3, true, 2, 1), &mut c); // below base: rebase
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_live(&mut c, |_| true))
            .map(|e| e.task.0)
            .collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    /// Popping must not widen the window over deadlines already routed
    /// to the overflow list: after popping the 100, a push of 611 has
    /// to sort *after* the 600 parked in the overflow.
    #[test]
    fn window_growth_never_overtakes_overflow() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        q.push(entry(100, false, 0, 1), &mut c); // base anchors at 100
        q.push(entry(700, false, 1, 1), &mut c); // overflow (≥ 100 + 512)
        assert_eq!(q.pop_live(&mut c, |_| true).unwrap().task, TaskId(0));
        q.push(entry(611, false, 2, 1), &mut c);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_live(&mut c, |_| true))
            .map(|e| e.task.0)
            .collect();
        assert_eq!(order, vec![2, 1]);
    }

    /// `front_deadline` and `for_each_due` read what `pop` would
    /// remove: the minimum deadline across window and overflow, and
    /// exactly the entries at or below a limit — unchanged by the walk.
    #[test]
    fn front_and_due_walk_see_window_and_overflow() {
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
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
            seen.sort_unstable();
            seen
        };
        assert_eq!(q.front_deadline(), Some(100));
        assert_eq!(due(&q, 99), Vec::<u32>::new());
        assert_eq!(due(&q, 100), vec![0, 1]);
        assert_eq!(due(&q, 103), vec![0, 1]);
        assert_eq!(due(&q, 700), vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 5, "the walk removes nothing");
        // Drain the window: the front moves into the overflow heap.
        for _ in 0..3 {
            q.pop_live(&mut c, |_| true);
        }
        assert_eq!(q.front_deadline(), Some(700));
        assert_eq!(due(&q, 699), Vec::<u32>::new());
        assert_eq!(due(&q, 9_000), vec![3, 4]);
    }

    /// Differential check: the radix queue and the reference heap pop
    /// bit-identical sequences (liveness filter included) over an
    /// adversarial interleaving of pushes, pops, and deadline ranges,
    /// with identical counters.
    #[test]
    fn radix_matches_heap_reference() {
        let mut radix = ReadyQueue::new();
        let mut heap = HeapQueue::new();
        let mut cr = Counters::default();
        let mut ch = Counters::default();
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
                let e = entry(
                    deadline,
                    r % 2 == 0,
                    u32::try_from(r % 7).unwrap_or(0),
                    round,
                );
                radix.push(e, &mut cr);
                heap.push(e, &mut ch);
            } else {
                assert_eq!(
                    radix.pop_live(&mut cr, is_live),
                    heap.pop_live(&mut ch, is_live),
                    "pop diverged at round {round}"
                );
            }
            assert_eq!(radix.len(), heap.len());
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

    /// Only occupied buckets own a buffer, so a deadline front that
    /// walks the window four times over holds as many buffers as
    /// buckets were occupied at once — through pops, a compaction and a
    /// below-window push alike.
    #[test]
    fn emptied_buckets_hand_their_buffers_on() {
        fn buffers(q: &ReadyQueue) -> usize {
            let held = q.buckets.iter().filter(|b| b.capacity() > 0).count();
            let occupied = (0..BUCKETS).filter(|&b| q.occupied.is_set(b)).count();
            assert_eq!(held, occupied);
            held + q.spare.len()
        }
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        // Twenty entries per deadline, three deadlines in flight; the
        // all-live compactions re-anchor the window as the engine's do.
        for t in 0..4 * DEADLINE_SLOTS {
            if t % 64 == 0 {
                q.compact(&mut c, |_| true);
            }
            for task in 0..20 {
                q.push(
                    entry(t + 3, false, task, u64::try_from(t).unwrap_or(0)),
                    &mut c,
                );
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
        q.compact(&mut c, |e| e.task.0 % 2 == 0);
        assert_eq!((q.len(), buffers(&q)), (20, 3));
        // Re-anchoring 511 slots lower evicts the later deadline to the
        // overflow heap and parks its bucket's buffer.
        q.push(entry(front - 510, false, 0, 0), &mut c);
        assert_eq!((q.in_window, q.overflow.len(), buffers(&q)), (11, 10, 3));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop_live(&mut c, |_| true))
            .map(|e| e.priority.deadline())
            .collect();
        assert_eq!(order.len(), 21);
        assert!(order.is_sorted());
        assert_eq!(buffers(&q), 3);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::overhead::Counters;
    use crate::priority::Priority;
    use pfair_core::task::TaskId;

    #[test]
    fn group_deadline_orders_equal_deadline_b1_entries() {
        // Among equal-deadline b=1 entries, the later group deadline wins.
        let mut q = ReadyQueue::new();
        let mut c = Counters::default();
        q.push(
            QueueEntry {
                priority: Priority::pack(5, true, 6, 0),
                task: TaskId(0),
                index: 1,
            },
            &mut c,
        );
        q.push(
            QueueEntry {
                priority: Priority::pack(5, true, 9, 1),
                task: TaskId(1),
                index: 1,
            },
            &mut c,
        );
        let first = q.pop_live(&mut c, |_| true).unwrap();
        assert_eq!(first.task, TaskId(1), "later group deadline is favored");
    }
}

/// In-place translation ([`ReadyQueue::shift_deadlines`]) against the
/// rebuild it replaced: a fresh queue from the shifted
/// [`ReadyQueue::entries_sorted`] list.
#[cfg(test)]
mod shift_tests {
    use super::*;
    use proptest::prelude::*;

    /// Pushes clustered near a moving front, some far ahead (overflow
    /// heap), some behind it (below-window re-anchoring); pops in
    /// between, with every third index stale.
    #[derive(Clone, Debug)]
    enum Op {
        Push { ahead: i64, task: u32, b: bool },
        Pop,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let push = (0u8..20, 0i64..90, 0u32..6, 0u8..2).prop_map(|(kind, near, task, b)| {
            let ahead = match kind {
                0 => 600 + near * 40, // beyond the bucket window
                1 => -near,           // behind the front
                _ => near,
            };
            Op::Push {
                ahead,
                task,
                b: b == 1,
            }
        });
        let op = (0u8..3, push).prop_map(|(k, push)| if k == 0 { Op::Pop } else { push });
        prop::collection::vec(op, 0..120)
    }

    fn is_live(e: &QueueEntry) -> bool {
        !e.index.is_multiple_of(3)
    }

    fn drive(q: &mut ReadyQueue, c: &mut Counters, ops: &[Op], front: i64) -> Vec<QueueEntry> {
        let mut popped = Vec::new();
        for (round, op) in (0u64..).zip(ops) {
            match *op {
                Op::Push { ahead, task, b } => {
                    let deadline = front + i64::try_from(round / 3).unwrap_or(0) + ahead;
                    let entry = QueueEntry {
                        priority: Priority::pack(deadline, b, deadline + i64::from(task), task),
                        task: TaskId(task),
                        index: round,
                    };
                    q.push(entry, c);
                }
                Op::Pop => popped.extend(q.pop_live(c, is_live)),
            }
        }
        popped
    }

    proptest! {
        #[test]
        fn in_place_shift_pops_like_a_rebuild(
            before in arb_ops(),
            after in arb_ops(),
            ds in 0i64..3_000,
            di in prop::collection::vec(0u64..1_000, 6),
        ) {
            let mut c = Counters::default();
            let mut live = ReadyQueue::new();
            drive(&mut live, &mut c, &before, 1_000);
            let shift = |e: &mut QueueEntry| {
                let p = e.priority;
                e.priority =
                    Priority::pack(p.deadline() + ds, p.b(), p.group_deadline() + ds, p.tie_rank());
                e.index += di[e.task.idx()];
            };
            // The rebuild: shift the sorted list, keep it sorted, place.
            let mut entries = live.entries_sorted();
            entries.iter_mut().for_each(shift);
            prop_assert!(entries.is_sorted(), "the shift keeps the order of entries");
            let mut rebuilt = ReadyQueue::from_entries(entries.clone());
            live.shift_deadlines(ds, shift);
            prop_assert_eq!(live.len(), rebuilt.len());
            prop_assert_eq!(live.front_deadline(), rebuilt.front_deadline());
            prop_assert_eq!(live.entries_sorted(), entries);
            // The sorted walk is the sorted list, and stops when told to.
            let mut walked = Vec::new();
            let mut scratch = Vec::new();
            prop_assert!(live.walk_sorted(&mut scratch, |e| {
                walked.push(*e);
                true
            }));
            prop_assert_eq!(&walked, &live.entries_sorted());
            let mut seen = 0;
            let whole = live.walk_sorted(&mut scratch, |_| {
                seen += 1;
                seen < 2
            });
            prop_assert_eq!((whole, seen), (live.len() < 2, live.len().min(2)));
            // From here on the two queues are indistinguishable.
            let (mut c1, mut c2) = (c, c);
            let front = 1_000 + ds;
            prop_assert_eq!(
                drive(&mut live, &mut c1, &after, front),
                drive(&mut rebuilt, &mut c2, &after, front)
            );
            prop_assert_eq!(c1, c2);
            let drain = |q: &mut ReadyQueue, c: &mut Counters| -> Vec<QueueEntry> {
                std::iter::from_fn(|| q.pop_live(c, |_| true)).collect()
            };
            prop_assert_eq!(drain(&mut live, &mut c1), drain(&mut rebuilt, &mut c2));
        }
    }
}
