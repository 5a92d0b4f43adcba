//! The occupancy bitmap of a 512-slot moving window.
//!
//! [`ReadyQueue`](crate::queue::ReadyQueue) buckets entries by deadline
//! and [`CalendarRing`](crate::calendar::CalendarRing) by due slot, both
//! over a window of [`WINDOW_SLOTS`] slots `[base, base + 512)` mapped
//! onto 512 buckets by `slot mod 512`. One bit per bucket says whether
//! the bucket holds anything, so "the earliest occupied slot at or after
//! `from`" is a masked scan over at most eight words. The window is a
//! multiple of 64, so slots that share `s div 64` share a word and their
//! bits sit in slot order: one masked word covers slots `s ..= s | 63`.
//!
//! This is the one place that indexes the words; the two structures
//! index their own bucket arrays by [`Occupancy::bucket_of`].

use pfair_core::time::Slot;

/// Bucketed span in slots. Must be a power of two (the bucket map is
/// `slot mod WINDOW_SLOTS`) and a multiple of 64 (module docs). 512
/// covers every deadline spread a feasible ready set produces (a window
/// length is at most the weight's period) and every release / enactment
/// horizon the reweighting rules produce for the weights in this repo's
/// experiments; what lies farther out (long IS delays, distant rule-L
/// departures) rides each structure's overflow list.
pub(crate) const WINDOW_SLOTS: Slot = 512;
/// The same span as a bucket count.
pub(crate) const BUCKETS: usize = 512;
/// Bitmap words (64 buckets per word).
const WORDS: usize = BUCKETS / 64;

/// Bit per bucket: set iff the owner's bucket is non-empty.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Occupancy {
    words: [u64; WORDS],
}

impl Occupancy {
    /// The bucket `slot` maps to, below [`BUCKETS`].
    // audit: prove(overflow-bounds)
    #[inline]
    pub(crate) fn bucket_of(slot: Slot) -> usize {
        usize::try_from(slot.rem_euclid(WINDOW_SLOTS)).unwrap_or(0)
    }

    /// The word holding bucket `b`'s bit.
    #[inline]
    fn word(&self, b: usize) -> u64 {
        // audit: allow(panic-reach, the word index is reduced mod WORDS)
        self.words[b / 64 % WORDS]
    }

    /// The same to write to, with the bit's mask.
    #[inline]
    fn word_mut(&mut self, b: usize) -> (&mut u64, u64) {
        // audit: allow(panic-reach, the word index is reduced mod WORDS)
        (&mut self.words[b / 64 % WORDS], 1u64 << (b % 64))
    }

    /// Marks bucket `b` occupied.
    #[inline]
    pub(crate) fn set(&mut self, b: usize) {
        let (word, mask) = self.word_mut(b);
        *word |= mask;
    }

    /// Marks bucket `b` empty.
    #[inline]
    pub(crate) fn clear(&mut self, b: usize) {
        let (word, mask) = self.word_mut(b);
        *word &= !mask;
    }

    /// Whether bucket `b` is marked occupied.
    #[inline]
    pub(crate) fn is_set(&self, b: usize) -> bool {
        self.word(b) & (1u64 << (b % 64)) != 0
    }

    /// The earliest slot in `[from, end)` whose bucket is occupied.
    /// The range must lie inside one window (`end − from ≤ 512`), where
    /// slot and bucket correspond one to one.
    #[inline]
    pub(crate) fn next(&self, from: Slot, end: Slot) -> Option<Slot> {
        let mut s = from;
        while s < end {
            let bit = s.rem_euclid(64);
            let word = self.word(Self::bucket_of(s));
            let masked = word & (u64::MAX << usize::try_from(bit).unwrap_or(0));
            if masked != 0 {
                let hit = s + i64::from(masked.trailing_zeros()) - bit;
                // A hit at or past `end` belongs to the stretch beyond
                // the range; everything in range is clear.
                return (hit < end).then_some(hit);
            }
            s = s + 64 - bit;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A window at `base` with the given offsets occupied, and the same
    /// as a set of slots.
    fn window(base: Slot, offsets: &[i64]) -> (Occupancy, BTreeSet<Slot>) {
        let mut occ = Occupancy::default();
        let model: BTreeSet<Slot> = offsets.iter().map(|o| base + o).collect();
        for &slot in &model {
            occ.set(Occupancy::bucket_of(slot));
        }
        (occ, model)
    }

    proptest! {
        /// `next` against a `BTreeSet` of the occupied slots: any base
        /// (aligned to nothing), any sub-range of the window.
        #[test]
        fn next_matches_a_set_of_slots(
            base in -5_000i64..5_000,
            offsets in prop::collection::vec(0i64..WINDOW_SLOTS, 0..40),
            from in 0i64..=WINDOW_SLOTS,
            len in 0i64..=WINDOW_SLOTS,
        ) {
            let (occ, model) = window(base, &offsets);
            let (from, end) = (base + from, (base + from + len).min(base + WINDOW_SLOTS));
            prop_assert_eq!(occ.next(from, end), model.range(from..end).next().copied());
            for &slot in &model {
                prop_assert!(occ.is_set(Occupancy::bucket_of(slot)));
            }
        }

        /// `clear` undoes `set`, and leaves every other bit as it was.
        #[test]
        fn clear_matches_a_set_of_buckets(
            base in -5_000i64..5_000,
            offsets in prop::collection::vec(0i64..WINDOW_SLOTS, 0..40),
            cleared in prop::collection::vec(0i64..WINDOW_SLOTS, 0..40),
        ) {
            let (mut occ, model) = window(base, &offsets);
            let mut buckets: BTreeSet<usize> =
                model.iter().map(|&s| Occupancy::bucket_of(s)).collect();
            for &o in &cleared {
                let b = Occupancy::bucket_of(base + o);
                occ.clear(b);
                buckets.remove(&b);
                prop_assert!(!occ.is_set(b));
            }
            for b in 0..BUCKETS {
                prop_assert_eq!(occ.is_set(b), buckets.contains(&b));
            }
        }
    }

    /// The cases the word scan can get wrong, by name.
    #[test]
    fn next_at_the_edges() {
        // Unaligned base; hits on the last bit of a word and the first
        // of the next.
        let base = 37;
        let (occ, _) = window(base, &[63 - 37, 64 - 37, 300]);
        assert_eq!(occ.next(base, base + WINDOW_SLOTS), Some(63));
        assert_eq!(occ.next(64, base + WINDOW_SLOTS), Some(64));
        assert_eq!(occ.next(65, base + WINDOW_SLOTS), Some(base + 300));
        assert_eq!(occ.next(base + 301, base + WINDOW_SLOTS), None);
        // A set bit just past `end`, in the word the scan is reading.
        assert_eq!(occ.next(65, base + 300), None);
        assert_eq!(occ.next(65, base + 301), Some(base + 300));
        // The window wraps the bucket array: the slot before the
        // window's end sits in the bucket before the base's.
        let (occ, _) = window(base, &[WINDOW_SLOTS - 1]);
        assert_eq!(Occupancy::bucket_of(base + WINDOW_SLOTS - 1), 36);
        assert_eq!(
            occ.next(base, base + WINDOW_SLOTS),
            Some(base + WINDOW_SLOTS - 1)
        );
        assert_eq!(occ.next(base, base + WINDOW_SLOTS - 1), None);
        // Empty window, empty range, negative slots.
        assert_eq!(Occupancy::default().next(base, base + WINDOW_SLOTS), None);
        assert_eq!(occ.next(base + 5, base + 5), None);
        let (occ, _) = window(-700, &[1, 511]);
        assert_eq!(occ.next(-700, -188), Some(-699));
        assert_eq!(occ.next(-698, -188), Some(-189));
    }
}
