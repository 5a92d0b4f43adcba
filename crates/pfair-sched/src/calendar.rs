//! A bucketed calendar queue for slot-indexed engine events.
//!
//! The engine's task slab keeps two slot → task-list indexes over its
//! columns (releases, and parked enactments and rule-L departures).
//! They were `BTreeMap<Slot, Vec<_>>`: `O(log n)` per insert and per-slot
//! probe, with the per-slot probe paid on *every* slot whether or not
//! anything is due. A calendar queue exploits the access pattern
//! instead — keys are drawn from a narrow moving window just ahead of
//! `now`, and the consumer visits slots in nondecreasing order:
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
//! A sparse ring — fewer than `SPARE_BUFFERS` entries in its window —
//! parks the buffer of a bucket a take or a clear empties on a spare
//! list for the next bucket that opens with none, the ready queue's
//! idiom, while the list holds fewer than `SPARE_BUFFERS`. So a small
//! engine, whose few releases spread over the whole window, keeps about
//! one buffer per bucket occupied at once, not one per bucket its
//! window has passed over. A dense ring occupies every bucket again
//! within a lap, so each bucket keeps its buffer in place.
//!
//! Entries are *hints*: the engine re-validates each against the slab's
//! columns when its slot fires, so stale entries (superseded pendings,
//! moved releases) cost one skipped id, never a wrong action. A stale
//! entry can also make `next_occupied` conservative (an earlier
//! boundary than necessary) — batching then splits a span, which is
//! slower but never wrong. Where the clock jumps (a busy-span jump, a
//! snapshot restore) the slab re-files each ring from its columns:
//! [`CalendarRing::clear`] at the new `now`, then an insert per live
//! entry, into the buffers the ring already holds.

use crate::occupancy::{Occupancy, BUCKETS, WINDOW_SLOTS};

/// The most emptied buckets' buffers a ring keeps on its spare list,
/// and the fewest entries that make a ring dense (module docs).
const SPARE_BUFFERS: usize = 64;
use pfair_core::task::TaskId;
use pfair_core::time::{Slot, NEVER};

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
    /// Buffers a sparse ring's emptied buckets parked, for the next
    /// bucket that opens with none; at most [`SPARE_BUFFERS`].
    spare: Vec<Vec<TaskId>>,
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
            spare: Vec::new(),
        }
    }

    /// Bucket `b`, an [`Occupancy::bucket_of`] value.
    fn bucket_mut(&mut self, b: usize) -> &mut Vec<TaskId> {
        // audit: allow(panic-reach, a bucket index is below BUCKETS, the length `new` gives the array)
        &mut self.buckets[b]
    }

    /// Registers `id` at slot `at`. `at` must not precede the last
    /// consumed slot (the engine only schedules future work).
    // `always`: with the hint alone the spare-buffer branch in `place`
    // keeps this out of line in `Engine<P>::step_slot` (DESIGN.md "One
    // quantum"), as it does `take_into`.
    #[inline(always)]
    pub fn insert(&mut self, at: Slot, id: TaskId) {
        debug_assert!(at >= self.base, "insert at {at} before window base");
        if at >= self.base.saturating_add(WINDOW_SLOTS) {
            self.overflow_min = self.overflow_min.min(at);
            self.overflow.push((at, id));
            return;
        }
        self.place(at, id);
    }

    /// Files `id` in the bucket of in-window slot `at`; a bucket with no
    /// buffer (so empty) takes a spare one if there is one.
    #[inline(always)]
    fn place(&mut self, at: Slot, id: TaskId) {
        let b = Occupancy::bucket_of(at);
        if self.bucket_mut(b).capacity() == 0 {
            self.unpark(b);
        }
        self.bucket_mut(b).push(id);
        self.occupied.set(b);
        self.in_window += 1;
    }

    /// Gives the empty bucket `b` a spare buffer, if there is one. Out of
    /// line, as [`CalendarRing::park`], so that `place` and `take_into`
    /// stay small enough to inline into the slot pipeline.
    #[inline(never)]
    fn unpark(&mut self, b: usize) {
        if let Some(buffer) = self.spare.pop() {
            *self.bucket_mut(b) = buffer;
        }
    }

    /// Whether an emptied bucket's buffer goes to the spare list: the
    /// ring is sparse and the list not full (module docs).
    #[inline]
    fn parks(&self) -> bool {
        self.in_window < SPARE_BUFFERS && self.spare.len() < SPARE_BUFFERS
    }

    /// Moves the emptied bucket `b`'s buffer onto the spare list, for a
    /// ring that [`CalendarRing::parks`].
    #[inline(never)]
    fn park(&mut self, b: usize) {
        let buffer = std::mem::take(self.bucket_mut(b));
        if buffer.capacity() > 0 {
            self.spare.push(buffer);
        }
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
    /// and the bucket's buffer is parked for the next bucket that opens
    /// or kept in place, so a consumer that visits every slot allocates
    /// nothing once the buffers have grown to the slots' sizes.
    #[inline(always)]
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
        if self.parks() {
            self.park(b);
        }
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

    /// Empties the ring and re-anchors its window at `base`, in place:
    /// every bucket's buffer is parked or kept and the overflow list
    /// keeps its own, so a ring refilled to a like size allocates
    /// nothing. Slot for slot it then takes like a fresh ring at `base`
    /// given the same inserts.
    pub fn clear(&mut self, base: Slot) {
        let mut from = self.base;
        while let Some(slot) = self.next_in_window(from) {
            let b = Occupancy::bucket_of(slot);
            self.bucket_mut(b).clear();
            if self.parks() {
                self.park(b);
            }
            from = slot + 1;
        }
        self.overflow.clear();
        self.base = base;
        self.occupied = Occupancy::default();
        self.overflow_min = NEVER;
        self.in_window = 0;
    }

    /// Total entries (bucketed + overflow).
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// `true` iff the ring holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebases the window at `t` and pulls newly-in-range overflow
    /// entries into buckets. Only called once `t` has moved past the
    /// whole current window, by which point every bucketed entry has
    /// been consumed (callers take slots in order and never skip an
    /// occupied one), so the buckets are empty.
    fn rotate(&mut self, t: Slot) {
        debug_assert_eq!(self.in_window, 0, "rotating over unconsumed entries");
        // `clear` empties the buckets defensively: a (contract-violating)
        // skipped entry sits at a past slot, where it could alias a future
        // bucket, and its BTreeMap equivalent — a key never queried again
        // — would never fire either. The overflow list is set aside and
        // filtered in place, so it keeps its buffer from lap to lap.
        let mut overflow = std::mem::take(&mut self.overflow);
        self.clear(t);
        let end = t.saturating_add(WINDOW_SLOTS);
        overflow.retain(|&(at, id)| {
            if at >= end {
                self.overflow_min = self.overflow_min.min(at);
                return true;
            }
            debug_assert!(at >= t, "overflow entry at {at} already passed");
            if at >= t {
                self.place(at, id);
            }
            false
        });
        self.overflow = overflow;
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

    /// Clear-and-refile in place ([`CalendarRing::clear`], then
    /// inserts) against a fresh ring at the new base given the same
    /// inserts, from a ring in mid-run: window rotated by `consumed`
    /// takes, entries in buckets and on the overflow list.
    mod refile {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn cleared_ring_takes_like_a_fresh_one(
                start in 0i64..2_000,
                consumed in 0i64..700,
                inserts in prop::collection::vec((0i64..1_500, 0u32..8), 0..60),
                ds in 0i64..4_000,
                refiled in prop::collection::vec((0i64..1_500, 0u32..8), 0..60),
            ) {
                let mut ring = CalendarRing::new(start);
                let now = start + consumed;
                for t in start..now {
                    ring.take(t);
                }
                for &(ahead, id) in &inserts {
                    ring.insert(now + ahead, TaskId(id));
                }
                let to = now + ds;
                ring.clear(to);
                prop_assert!(ring.is_empty());
                let mut fresh = CalendarRing::new(to);
                for &(ahead, id) in &refiled {
                    ring.insert(to + ahead, TaskId(id));
                    fresh.insert(to + ahead, TaskId(id));
                }
                // Same answers, slot for slot, until both are empty.
                while let Some(t) = fresh.next_occupied(to) {
                    prop_assert_eq!(ring.len(), fresh.len());
                    prop_assert_eq!(ring.next_occupied(to), Some(t));
                    prop_assert_eq!(ring.take(t), fresh.take(t));
                }
                prop_assert!(ring.is_empty());
            }
        }
    }
}
