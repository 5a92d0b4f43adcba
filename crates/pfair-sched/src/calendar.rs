//! A bucketed calendar queue for slot-indexed engine events.
//!
//! The engine keeps three slot → task-list indexes (releases, parked
//! enactments, rule-L departures). They were `BTreeMap<Slot, Vec<_>>`:
//! `O(log n)` per insert and per-slot probe, with the per-slot probe
//! paid on *every* slot whether or not anything is due. A calendar
//! queue exploits the access pattern instead — keys are drawn from a
//! narrow moving window just ahead of `now`, and the consumer visits
//! slots in nondecreasing order:
//!
//! - [`CalendarRing::insert`] is `O(1)` amortized: a push onto the
//!   bucket `slot mod WINDOW_SLOTS` (or onto a small overflow list for the
//!   rare far-future key — long delays, distant rule-L departures).
//! - [`CalendarRing::take`] is `O(1)` plus the entries returned: one
//!   occupancy-bitmap test rejects empty slots without touching the
//!   bucket array.
//! - [`CalendarRing::next_occupied`] — the query the tickless batching
//!   layer plans spans with — scans the occupancy bitmap a word (64
//!   slots) at a time: `O(1)` when the ring is empty (the common case
//!   in a quiet span), `O(WINDOW_SLOTS/64)` worst case.
//!
//! The window advances lazily: when `take(t)` is called past the
//! current window, every bucketed entry is already consumed (per-slot
//! mode visits every slot; tickless mode never skips a slot any ring
//! reports occupied), so rotation just rebases the window and migrates
//! newly-in-range overflow entries into buckets.
//!
//! Entries are *hints*, exactly as the BTreeMap entries were: the
//! engine re-validates each against current task state when its slot
//! fires, so stale entries (superseded pendings, moved releases) cost
//! one skipped id, never a wrong action. A stale entry can also make
//! `next_occupied` conservative (an earlier boundary than necessary) —
//! batching then splits a span, which is slower but never wrong.

use crate::occupancy::{Occupancy, BUCKETS, WINDOW_SLOTS};
use pfair_core::task::TaskId;
use pfair_core::time::{Slot, NEVER};

/// Occupied in-window buckets, projected as `(absolute slot, entries)`
/// pairs — the slot-recoverable half of a persisted ring.
pub type RingBuckets = Vec<(Slot, Vec<TaskId>)>;
/// Far-future entries beyond the window, as `(due slot, task)` pairs.
pub type RingOverflow = Vec<(Slot, TaskId)>;

/// A slot-indexed multimap over a moving window of time.
#[derive(Clone, Debug)]
pub struct CalendarRing {
    /// First slot of the current window; `take` keeps `base ≤ t`.
    base: Slot,
    /// One bucket per window slot, indexed `slot mod WINDOW_SLOTS`.
    buckets: Vec<Vec<TaskId>>,
    /// Bit per bucket: set iff the bucket is non-empty.
    occupied: Occupancy,
    /// Entries beyond the window, migrated into buckets at rotation.
    overflow: Vec<(Slot, TaskId)>,
    /// Exact minimum slot in `overflow` (`NEVER` when it is empty).
    overflow_min: Slot,
    /// Live entry count across the buckets.
    in_window: usize,
}

impl CalendarRing {
    /// An empty ring whose window starts at `start`.
    pub fn new(start: Slot) -> CalendarRing {
        CalendarRing {
            base: start,
            buckets: vec![Vec::new(); BUCKETS],
            occupied: Occupancy::default(),
            overflow: Vec::new(),
            overflow_min: NEVER,
            in_window: 0,
        }
    }

    /// Bucket `b`, an [`Occupancy::bucket_of`] value.
    fn bucket(&self, b: usize) -> &Vec<TaskId> {
        // audit: allow(panic-reach, a bucket index is below BUCKETS, the length `new` gives the array)
        &self.buckets[b]
    }

    fn bucket_mut(&mut self, b: usize) -> &mut Vec<TaskId> {
        // audit: allow(panic-reach, a bucket index is below BUCKETS, the length `new` gives the array)
        &mut self.buckets[b]
    }

    /// Registers `id` at slot `at`. `at` must not precede the last
    /// consumed slot (the engine only schedules future work).
    #[inline]
    pub fn insert(&mut self, at: Slot, id: TaskId) {
        debug_assert!(at >= self.base, "insert at {at} before window base");
        if at >= self.base.saturating_add(WINDOW_SLOTS) {
            self.overflow_min = self.overflow_min.min(at);
            self.overflow.push((at, id));
            return;
        }
        self.place(at, id);
    }

    /// Files `id` in the bucket of in-window slot `at`.
    #[inline]
    fn place(&mut self, at: Slot, id: TaskId) {
        let b = Occupancy::bucket_of(at);
        self.bucket_mut(b).push(id);
        self.occupied.set(b);
        self.in_window += 1;
    }

    /// Removes and returns every entry registered at slot `t`.
    /// Callers consume slots in nondecreasing order.
    pub fn take(&mut self, t: Slot) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.take_into(t, &mut out);
        out
    }

    /// [`CalendarRing::take`] into a caller-owned buffer: the entries
    /// registered at slot `t` are appended to `out` in insertion order
    /// and the bucket keeps its allocation for the next lap of the
    /// ring, so a consumer that visits every slot allocates nothing.
    #[inline]
    pub fn take_into(&mut self, t: Slot, out: &mut Vec<TaskId>) {
        if t >= self.base.saturating_add(WINDOW_SLOTS) {
            self.rotate(t);
        }
        debug_assert!(t >= self.base, "take at {t} before window base");
        let b = Occupancy::bucket_of(t);
        if !self.occupied.is_set(b) {
            return;
        }
        self.occupied.clear(b);
        let bucket = self.bucket_mut(b);
        let taken = bucket.len();
        out.append(bucket);
        self.in_window -= taken;
    }

    /// The earliest occupied in-window slot `≥ from`.
    fn next_in_window(&self, from: Slot) -> Option<Slot> {
        if self.in_window == 0 {
            return None;
        }
        let end = self.base.saturating_add(WINDOW_SLOTS);
        self.occupied.next(from.max(self.base), end)
    }

    /// The earliest occupied slot `≥ from`, or `None` when the ring
    /// holds nothing at or after `from`. This is exact (overflow
    /// entries included via their maintained minimum), so batching can
    /// trust a `None` to mean "nothing ahead at all".
    #[inline]
    pub fn next_occupied(&self, from: Slot) -> Option<Slot> {
        if let Some(hit) = self.next_in_window(from) {
            return Some(hit);
        }
        if self.overflow.is_empty() || self.overflow_min < from {
            // `overflow_min < from` cannot happen for in-order consumers
            // (overflow slots sit beyond the window, hence beyond `from`);
            // treat it as exhausted rather than report a past slot.
            None
        } else {
            Some(self.overflow_min)
        }
    }

    /// Hands `visit` every entry as `(slot, task)`: the window in slot
    /// order (insertion order within a slot), then the overflow list.
    pub fn for_each(&self, mut visit: impl FnMut(Slot, TaskId)) {
        let mut from = self.base;
        while let Some(slot) = self.next_in_window(from) {
            for &id in self.bucket(Occupancy::bucket_of(slot)) {
                visit(slot, id);
            }
            from = slot + 1;
        }
        for &(slot, id) in &self.overflow {
            visit(slot, id);
        }
    }

    /// Re-anchors the window at `base` and moves every entry to the slot
    /// `map` names for it (at or after `base`), dropping those it maps
    /// to `None` — in place: the entries are drained into `scratch` in
    /// [`CalendarRing::for_each`] order and re-inserted in that order,
    /// so every bucket keeps its buffer and a caller that keeps
    /// `scratch` allocates nothing. Slot for slot the result takes like
    /// a fresh ring at `base` given the same inserts.
    pub fn remap(
        &mut self,
        base: Slot,
        scratch: &mut Vec<(Slot, TaskId)>,
        mut map: impl FnMut(Slot, TaskId) -> Option<Slot>,
    ) {
        scratch.clear();
        let mut from = self.base;
        while let Some(slot) = self.next_in_window(from) {
            let bucket = self.bucket_mut(Occupancy::bucket_of(slot));
            scratch.extend(bucket.drain(..).map(|id| (slot, id)));
            from = slot + 1;
        }
        scratch.append(&mut self.overflow);
        self.base = base;
        self.occupied = Occupancy::default();
        self.overflow_min = NEVER;
        self.in_window = 0;
        for &(slot, id) in scratch.iter() {
            if let Some(to) = map(slot, id) {
                self.insert(to, id);
            }
        }
    }

    /// Total entries (bucketed + overflow).
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// `true` iff the ring holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical persist projection of the ring: the window base, the
    /// bucketed entries grouped by absolute slot in ascending slot
    /// order (insertion order preserved within a slot), and the
    /// overflow list verbatim. Each occupied bucket `b` corresponds to
    /// the unique slot `s ∈ [base, base + WINDOW_SLOTS)` with
    /// `s ≡ b (mod WINDOW_SLOTS)`, so the absolute slots are recoverable
    /// without storing the rotation offset separately —
    /// [`CalendarRing::from_parts`] rebuilds the bitmap, live count,
    /// and overflow minimum from this projection alone.
    pub fn persist_parts(&self) -> (Slot, RingBuckets, RingOverflow) {
        let mut bucketed = Vec::new();
        let mut from = self.base;
        while let Some(slot) = self.next_in_window(from) {
            bucketed.push((slot, self.bucket(Occupancy::bucket_of(slot)).clone()));
            from = slot + 1;
        }
        (self.base, bucketed, self.overflow.clone())
    }

    /// Rebuilds a ring from a [`CalendarRing::persist_parts`]
    /// projection, re-validating the window invariants: bucketed slots
    /// inside `[base, base + WINDOW_SLOTS)` with non-empty entry lists, and
    /// overflow entries strictly beyond the window.
    pub fn from_parts(
        base: Slot,
        bucketed: RingBuckets,
        overflow: RingOverflow,
    ) -> Result<CalendarRing, String> {
        let mut ring = CalendarRing::new(base);
        let end = base.saturating_add(WINDOW_SLOTS);
        for (slot, ids) in bucketed {
            if slot < base || slot >= end {
                return Err(format!(
                    "bucketed slot {slot} outside window [{base}, {end})"
                ));
            }
            if ids.is_empty() {
                return Err(format!("empty bucket recorded at slot {slot}"));
            }
            for id in ids {
                ring.insert(slot, id);
            }
        }
        for (at, id) in overflow {
            if at < end {
                return Err(format!(
                    "overflow entry at {at} inside window [{base}, {end})"
                ));
            }
            ring.insert(at, id);
        }
        Ok(ring)
    }

    /// Rebases the window at `t` and pulls newly-in-range overflow
    /// entries into buckets. Only called once `t` has moved past the
    /// whole current window, by which point every bucketed entry has
    /// been consumed (callers take slots in order and never skip an
    /// occupied one), so the buckets are empty.
    fn rotate(&mut self, t: Slot) {
        debug_assert_eq!(self.in_window, 0, "rotating over unconsumed entries");
        if self.in_window != 0 {
            // Defensive: a (contract-violating) skipped entry sits at a
            // past slot, where it could alias a future bucket. Its
            // BTreeMap equivalent — a key never queried again — would
            // never fire either; drop it rather than misfire it.
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            self.occupied = Occupancy::default();
            self.in_window = 0;
        }
        self.base = t;
        if self.overflow.is_empty() {
            return;
        }
        // Filtered in place: the list keeps its buffer from one lap of
        // the ring to the next instead of regrowing a fresh one.
        let end = t.saturating_add(WINDOW_SLOTS);
        let mut overflow = std::mem::take(&mut self.overflow);
        let mut kept_min = NEVER;
        overflow.retain(|&(at, id)| {
            if at >= end {
                kept_min = kept_min.min(at);
                return true;
            }
            debug_assert!(at >= t, "overflow entry at {at} already passed");
            if at >= t {
                self.place(at, id);
            }
            false
        });
        self.overflow = overflow;
        self.overflow_min = kept_min;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: Vec<TaskId>) -> Vec<u32> {
        v.into_iter().map(|t| t.0).collect()
    }

    #[test]
    fn take_returns_entries_in_insertion_order() {
        let mut r = CalendarRing::new(0);
        r.insert(3, TaskId(5));
        r.insert(3, TaskId(2));
        r.insert(4, TaskId(9));
        assert_eq!(ids(r.take(0)), Vec::<u32>::new());
        assert_eq!(ids(r.take(3)), vec![5, 2]);
        assert_eq!(ids(r.take(3)), Vec::<u32>::new());
        assert_eq!(ids(r.take(4)), vec![9]);
        assert!(r.is_empty());
    }

    #[test]
    fn take_into_appends_and_matches_take() {
        let mut a = CalendarRing::new(0);
        let mut b = CalendarRing::new(0);
        for r in [&mut a, &mut b] {
            r.insert(3, TaskId(5));
            r.insert(3, TaskId(2));
            r.insert(600, TaskId(9)); // overflow, migrates at rotation
        }
        let mut out = vec![TaskId(77)];
        b.take_into(2, &mut out);
        b.take_into(3, &mut out);
        assert_eq!(ids(out), vec![77, 5, 2]);
        assert_eq!(ids(a.take(3)), vec![5, 2]);
        let mut out = Vec::new();
        b.take_into(600, &mut out);
        assert_eq!(ids(out), ids(a.take(600)));
        assert!(a.is_empty() && b.is_empty());
        // The drained bucket is reusable on the next lap.
        b.insert(600 + WINDOW_SLOTS, TaskId(1));
        assert_eq!(ids(b.take(600 + WINDOW_SLOTS)), vec![1]);
    }

    #[test]
    fn next_occupied_is_exact_within_the_window() {
        let mut r = CalendarRing::new(0);
        assert_eq!(r.next_occupied(0), None);
        r.insert(130, TaskId(0));
        r.insert(5, TaskId(1));
        assert_eq!(r.next_occupied(0), Some(5));
        assert_eq!(r.next_occupied(5), Some(5));
        assert_eq!(r.next_occupied(6), Some(130));
        r.take(5);
        assert_eq!(r.next_occupied(0), Some(130));
        r.take(130);
        assert_eq!(r.next_occupied(0), None);
    }

    #[test]
    fn overflow_entries_report_and_migrate() {
        let mut r = CalendarRing::new(0);
        let far = WINDOW_SLOTS + 300; // beyond the initial window
        r.insert(far, TaskId(3));
        r.insert(far + 700, TaskId(4)); // beyond even the rotated window
        assert_eq!(r.next_occupied(0), Some(far));
        // Consuming slots in order up to `far` crosses a rotation.
        for t in 0..far {
            assert_eq!(r.take(t), Vec::new());
        }
        assert_eq!(ids(r.take(far)), vec![3]);
        assert_eq!(r.next_occupied(far + 1), Some(far + 700));
        assert_eq!(ids(r.take(far + 700)), vec![4]);
        assert!(r.is_empty());
    }

    #[test]
    fn next_occupied_scans_across_word_boundaries() {
        let mut r = CalendarRing::new(0);
        // One entry far into the window, past several bitmap words,
        // at a non-word-aligned slot.
        r.insert(389, TaskId(7));
        assert_eq!(r.next_occupied(0), Some(389));
        assert_eq!(r.next_occupied(389), Some(389));
        assert_eq!(r.next_occupied(390), None);
    }

    #[test]
    fn nonzero_base_and_unaligned_rotation() {
        let mut r = CalendarRing::new(37);
        r.insert(37, TaskId(0));
        assert_eq!(ids(r.take(37)), vec![0]);
        // Jump far ahead (in-order: every slot between is empty).
        let late = 37 + 3 * WINDOW_SLOTS + 11;
        r.insert(40, TaskId(1));
        assert_eq!(ids(r.take(40)), vec![1]);
        for t in 41..late {
            assert!(r.take(t).is_empty());
        }
        r.insert(late + 2, TaskId(5));
        assert_eq!(r.next_occupied(late), Some(late + 2));
        assert_eq!(ids(r.take(late + 2)), vec![5]);
    }

    #[test]
    fn interleaved_insert_take_streams() {
        // Inserts race ahead of takes, as the engine's release chain
        // does: each consumed release schedules the next.
        let mut r = CalendarRing::new(0);
        r.insert(0, TaskId(0));
        let mut got = Vec::new();
        for t in 0..2_000 {
            for id in r.take(t) {
                got.push(t);
                r.insert(t + 7, id); // successor release
            }
        }
        assert_eq!(got, (0..2_000).step_by(7).collect::<Vec<i64>>());
    }

    /// In-place translation ([`CalendarRing::remap`]) against the
    /// rebuild it replaced — a fresh ring at the target given the mapped
    /// entries in projection order: window, overflow list, shifted and
    /// kept hints ahead of the target, dropped ones behind it.
    mod remap {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn in_place_remap_takes_like_a_rebuild(
                start in 0i64..2_000,
                consumed in 0i64..700,
                inserts in prop::collection::vec((0i64..1_500, 0u32..8), 0..60),
                ds in 0i64..4_000,
                moving in prop::collection::vec(0u8..2, 8),
            ) {
                // A ring in mid-run: window rotated by `consumed` takes,
                // entries in buckets and on the overflow list.
                let mut ring = CalendarRing::new(start);
                let now = start + consumed;
                for t in start..now {
                    ring.take(t);
                }
                for &(ahead, id) in &inserts {
                    ring.insert(now + ahead, TaskId(id));
                }
                let to = now + ds;
                let map = |slot: Slot, id: TaskId| {
                    if moving[id.idx()] == 1 {
                        Some(slot + ds)
                    } else {
                        (slot >= to).then_some(slot)
                    }
                };
                let mut walked = Vec::new();
                ring.for_each(|slot, id| walked.push((slot, id)));
                let (_, buckets, overflow) = ring.persist_parts();
                let projected: Vec<(Slot, TaskId)> = buckets
                    .into_iter()
                    .flat_map(|(slot, ids)| ids.into_iter().map(move |id| (slot, id)))
                    .chain(overflow)
                    .collect();
                prop_assert_eq!(&walked, &projected);
                let mut rebuilt = CalendarRing::new(to);
                for &(slot, id) in &projected {
                    if let Some(slot) = map(slot, id) {
                        rebuilt.insert(slot, id);
                    }
                }
                let mut scratch = vec![(7, TaskId(7))];
                ring.remap(to, &mut scratch, map);
                prop_assert_eq!(ring.len(), rebuilt.len());
                prop_assert_eq!(ring.persist_parts(), rebuilt.persist_parts());
                let (base, buckets, overflow) = ring.persist_parts();
                let mut restored = CalendarRing::from_parts(base, buckets, overflow)
                    .expect("a remapped ring is a valid projection");
                // Same answers, slot for slot, until all three are empty.
                let mut t = to;
                while !rebuilt.is_empty() {
                    prop_assert_eq!(ring.next_occupied(t), rebuilt.next_occupied(t));
                    t = rebuilt.next_occupied(t).expect("a non-empty ring has a next slot");
                    let due = rebuilt.take(t);
                    prop_assert_eq!(&ring.take(t), &due);
                    prop_assert_eq!(&restored.take(t), &due);
                }
                prop_assert!(ring.is_empty() && restored.is_empty());
            }
        }
    }
}
