//! Dense-id arena primitives: word-scanned membership bitmaps and
//! inline small vectors.
//!
//! The engine keys every per-task table by the small dense integer
//! inside [`TaskId`](crate::task::TaskId). Hot per-slot questions —
//! "which tasks are present?", "which tasks ran last slot?" — are
//! one-bit-per-task facts, so they live in an [`IdBitmap`]: a `u64`
//! word vector scanned with `trailing_zeros`, the same occupancy-map
//! idiom the calendar ring and radix ready queue already use for slot
//! buckets. A membership sweep over 10⁶ tasks touches ~16 KB of words
//! instead of walking 10⁶ heterogeneous structs.
//!
//! The per-task rows themselves hold short queues — the two or three
//! subtask records a task keeps, the same few subtasks its `I_SW`
//! tracker follows. An [`InlineVec`] stores those inside the row, so a
//! task in steady state owns no heap block for them and a release
//! touches one contiguous run of cache lines. What a row holds only in
//! exceptional states — the records past the inline three, the
//! intervals of an intra-sporadic suspension — sits behind a
//! [`ThinVec`], one pointer wide while empty where a `Vec` is three.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Bits per occupancy word.
const WORD_BITS: usize = 64;

/// A fixed-universe bitmap over dense ids `0..len`.
///
/// All operations are panic-free: out-of-range ids read as absent and
/// ignore writes (the caller's id validation lives at admission, not
/// here). Equality is structural, so two bitmaps over the same
/// universe compare bit for bit — the busy-span verifier relies on
/// this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdBitmap {
    words: Vec<u64>,
    len: usize,
}

impl IdBitmap {
    /// An all-clear bitmap over ids `0..len`.
    pub fn new(len: usize) -> IdBitmap {
        IdBitmap {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of ids in the universe (not the popcount).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the universe to `len` ids (no-op when already that big);
    /// new ids start clear.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(WORD_BITS), 0);
        }
    }

    /// Whether `id` is set (absent ids read `false`).
    pub fn get(&self, id: usize) -> bool {
        if id >= self.len {
            return false;
        }
        self.words
            .get(id / WORD_BITS)
            .is_some_and(|w| w & (1u64 << (id % WORD_BITS)) != 0)
    }

    /// Sets or clears `id`; out-of-range ids are ignored.
    pub fn set(&mut self, id: usize, value: bool) {
        if id >= self.len {
            return;
        }
        if let Some(w) = self.words.get_mut(id / WORD_BITS) {
            let bit = 1u64 << (id % WORD_BITS);
            if value {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    /// Number of set ids.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            // audit: allow(lossy-cast, u32 popcount→usize is lossless on the supported targets)
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
    }

    /// The set ids, ascending — a word scan, not a per-id probe.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = wi * WORD_BITS;
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                // audit: allow(lossy-cast, trailing_zeros of a u64 is at most 64)
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(base + bit)
            })
        })
    }
}

/// A `Vec` for a list that is nearly always empty, one pointer wide:
/// the vector itself lives in a box that the first write allocates.
/// Reads go through the slice it derefs to (empty while unallocated);
/// writes through [`ThinVec::vec_mut`], or [`ThinVec::allocated_mut`]
/// for those that have nothing to do on an unallocated list. Equality,
/// `Debug` and `Clone` see the elements only: an emptied list equals a
/// fresh one, and its clone owns no heap block.
// The extra allocation clippy warns of is the trade: it is paid in the
// exceptional state, and every other row is two words smaller.
#[allow(clippy::box_collection)]
pub struct ThinVec<T>(Option<Box<Vec<T>>>);

impl<T> ThinVec<T> {
    /// An empty list (no allocation).
    pub const fn new() -> ThinVec<T> {
        ThinVec(None)
    }

    /// The vector, allocated (empty) if this is the first write.
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        self.0.get_or_insert_with(Box::default)
    }

    /// The vector, if a write ever allocated it. Emptied, it keeps its
    /// capacity for the next excursion.
    pub fn allocated_mut(&mut self) -> Option<&mut Vec<T>> {
        self.0.as_deref_mut()
    }
}

impl<T> Default for ThinVec<T> {
    fn default() -> Self {
        ThinVec::new()
    }
}

impl<T> Deref for ThinVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Some(vec) => vec,
            None => &[],
        }
    }
}

impl<T> DerefMut for ThinVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Some(vec) => vec,
            None => &mut [],
        }
    }
}

impl<T> From<Vec<T>> for ThinVec<T> {
    fn from(vec: Vec<T>) -> Self {
        ThinVec((!vec.is_empty()).then(|| Box::new(vec)))
    }
}

impl<T: Clone> Clone for ThinVec<T> {
    fn clone(&self) -> Self {
        ThinVec::from(self.to_vec())
    }
}

impl<T: PartialEq> PartialEq for ThinVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for ThinVec<T> {}

impl<T: fmt::Debug> fmt::Debug for ThinVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A queue of `Copy` records that lives inside its owner while it
/// holds at most `N` of them and moves to the heap beyond that.
///
/// The operations are the ones the engine's record queues use:
/// [`push_back`](InlineVec::push_back), [`pop_front`](InlineVec::pop_front)
/// / [`drop_front`](InlineVec::drop_front), and everything a slice
/// offers (it derefs to `[T]`, front first). Either all records are in
/// the inline array or all are in `spill`, so the contents are always
/// one contiguous slice; dropping back to `N` records moves them inline
/// again (the spill buffer keeps its capacity for the next excursion).
/// No operation panics and none is `unsafe`. Equality and `Debug` see
/// the records only, never the representation.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    inline: [T; N],
    /// Records held in `inline`; 0 while spilled.
    len: usize,
    /// Every record, once there are more than `N`; empty otherwise.
    spill: ThinVec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty queue (no allocation).
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            spill: ThinVec::new(),
        }
    }

    /// The records, front first.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            self.inline.get(..self.len).unwrap_or_default()
        } else {
            &self.spill
        }
    }

    /// The records, front first, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            self.inline.get_mut(..self.len).unwrap_or_default()
        } else {
            &mut self.spill
        }
    }

    /// The most recently pushed record.
    #[inline]
    pub fn back(&self) -> Option<&T> {
        self.as_slice().last()
    }

    /// Appends a record; the `N + 1`-th moves the queue to the heap.
    #[inline]
    pub fn push_back(&mut self, value: T) {
        if self.spill.is_empty() {
            if let Some(slot) = self.inline.get_mut(self.len) {
                *slot = value;
                self.len += 1;
                return;
            }
        }
        self.push_spilled(value);
    }

    /// [`InlineVec::push_back`] past the inline array: onto the heap,
    /// taking the inline records along the first time.
    #[cold]
    fn push_spilled(&mut self, value: T) {
        if self.spill.is_empty() {
            // Only a full inline array gets here (`len == N`).
            self.spill.vec_mut().extend_from_slice(&self.inline);
            self.len = 0;
        }
        self.spill.vec_mut().push(value);
    }

    /// Removes and returns the front record.
    pub fn pop_front(&mut self) -> Option<T> {
        let front = self.as_slice().first().copied()?;
        self.drop_front(1);
        Some(front)
    }

    /// Removes the first `n` records (all of them if there are fewer).
    #[inline]
    pub fn drop_front(&mut self, n: usize) {
        if !self.spill.is_empty() {
            return self.drop_front_spilled(n);
        }
        let n = n.min(self.len);
        if let Some(live) = self.inline.get_mut(..self.len) {
            live.copy_within(n.., 0);
        }
        self.len -= n;
    }

    /// [`InlineVec::drop_front`] on the heap; what is left moves back
    /// inline once it fits.
    #[cold]
    fn drop_front_spilled(&mut self, n: usize) {
        let Some(spill) = self.spill.allocated_mut() else {
            return;
        };
        spill.drain(..n.min(spill.len()));
        if spill.len() <= N {
            self.len = spill.len();
            for (slot, value) in self.inline.iter_mut().zip(spill.drain(..)) {
                *slot = value;
            }
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for value in iter {
            v.push_back(value);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = core::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = IdBitmap::new(130);
        assert!(!b.get(0));
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn out_of_range_reads_absent_and_ignores_writes() {
        let mut b = IdBitmap::new(10);
        b.set(10, true);
        b.set(1000, true);
        assert!(!b.get(10));
        assert!(!b.get(1000));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn iter_ones_is_ascending_and_word_spanning() {
        let mut b = IdBitmap::new(200);
        for id in [3, 5, 63, 64, 65, 127, 128, 199] {
            b.set(id, true);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 5, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn grow_preserves_bits_and_clears_new_ids() {
        let mut b = IdBitmap::new(4);
        b.set(2, true);
        b.grow(300);
        assert_eq!(b.len(), 300);
        assert!(b.get(2));
        assert!(!b.get(299));
        b.set(299, true);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![2, 299]);
    }

    #[test]
    fn equality_is_structural() {
        let mut a = IdBitmap::new(70);
        let mut b = IdBitmap::new(70);
        a.set(69, true);
        assert_ne!(a, b);
        b.set(69, true);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod thin_vec_tests {
    use super::*;

    /// One pointer wide, nothing allocated before the first write; an
    /// emptied list keeps its buffer, equals a fresh list and clones
    /// to one that owns nothing.
    #[test]
    fn empty_lists_are_one_word_and_own_nothing() {
        assert_eq!(size_of::<ThinVec<(i64, i64)>>(), size_of::<usize>());
        let mut v: ThinVec<u32> = ThinVec::new();
        assert!(v.is_empty() && v.allocated_mut().is_none());
        assert_eq!(format!("{v:?}"), "[]");
        v.vec_mut().extend([3, 1, 2]);
        v.sort_unstable();
        assert_eq!(*v, [1, 2, 3]);
        assert_eq!(v.clone(), v);
        assert_eq!(ThinVec::from(vec![1, 2, 3]), v);
        v.allocated_mut().expect("written to").clear();
        assert!(v.0.as_ref().is_some_and(|vec| vec.capacity() >= 3));
        assert_eq!(v, ThinVec::new());
        assert!(v.clone().0.is_none());
        assert!(ThinVec::<u32>::from(Vec::new()).0.is_none());
    }
}

#[cfg(test)]
mod inline_vec_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// One queue operation of the model test.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push(u32),
        PopFront,
        DropFront(usize),
        /// Add to every element through `iter_mut`.
        Bump(u32),
        /// Overwrite the element at `position % len` through `IndexMut`.
        Set(usize, u32),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        // Five pushes to three removals, one of which takes several
        // elements: the length wanders around N, so a 60-op script
        // crosses the inline boundary in both directions.
        let op = (0u8..9, 0u32..1000, 0usize..7).prop_map(|(kind, v, n)| match kind {
            0..=4 => Op::Push(v),
            5 | 6 => Op::PopFront,
            7 => Op::DropFront(n),
            _ if n % 2 == 0 => Op::Bump(v),
            _ => Op::Set(n, v),
        });
        prop::collection::vec(op, 0..60)
    }

    /// Applies `ops` to an `InlineVec<u32, N>` and a `VecDeque<u32>` and
    /// compares everything observable after every step.
    fn check_against_model<const N: usize>(ops: &[Op]) {
        let mut v: InlineVec<u32, N> = InlineVec::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        for &op in ops {
            match op {
                Op::Push(x) => {
                    v.push_back(x);
                    model.push_back(x);
                }
                Op::PopFront => assert_eq!(v.pop_front(), model.pop_front()),
                Op::DropFront(n) => {
                    v.drop_front(n);
                    model.drain(..n.min(model.len()));
                }
                Op::Bump(by) => {
                    for x in &mut v {
                        *x = x.wrapping_add(by);
                    }
                    for x in &mut model {
                        *x = x.wrapping_add(by);
                    }
                }
                Op::Set(at, x) => {
                    if !model.is_empty() {
                        let at = at % model.len();
                        v[at] = x;
                        model[at] = x;
                    }
                }
            }
            assert_eq!(v.len(), model.len());
            assert_eq!(v.is_empty(), model.is_empty());
            assert_eq!(v.back(), model.back());
            assert!(v.iter().eq(model.iter()));
            assert!((&v).into_iter().eq(model.iter()));
            for i in 0..model.len() {
                assert_eq!(v[i], model[i]);
                assert_eq!(v.get(i), model.get(i));
            }
            assert_eq!(v.get(model.len()), None);
            // Equality and clones see the elements, not where they live.
            let rebuilt: InlineVec<u32, N> = model.iter().copied().collect();
            assert_eq!(&v, &rebuilt);
            assert_eq!(&v.clone(), &v);
            assert_eq!(format!("{v:?}"), format!("{model:?}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_vecdeque_at_n3(ops in arb_ops()) {
            check_against_model::<3>(&ops);
        }

        #[test]
        fn matches_vecdeque_at_n1(ops in arb_ops()) {
            check_against_model::<1>(&ops);
        }
    }

    /// The boundary walked by hand: inline → spill → inline → spill,
    /// with the spilled elements in order at every step.
    #[test]
    fn crosses_the_inline_boundary_both_ways() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        for x in 1..=3 {
            v.push_back(x);
        }
        assert!(v.spill.is_empty(), "three elements stay inline");
        v.push_back(4);
        v.push_back(5);
        assert_eq!(v.as_slice(), [1, 2, 3, 4, 5]);
        assert_eq!(v.spill.len(), 5, "past N everything lives in the spill");
        assert_eq!(v.pop_front(), Some(1));
        assert_eq!(v.as_slice(), [2, 3, 4, 5]);
        assert_eq!(v.pop_front(), Some(2));
        assert!(v.spill.is_empty(), "back at N the elements move inline");
        assert_eq!(v.as_slice(), [3, 4, 5]);
        v.push_back(6);
        assert_eq!(v.as_slice(), [3, 4, 5, 6]);
        v.drop_front(9);
        assert!(v.is_empty());
        assert_eq!(v.pop_front(), None);
        assert_eq!(v.back(), None);
    }

    /// A fresh queue owns no heap block, and neither does its clone.
    #[test]
    fn inline_queues_do_not_allocate() {
        let mut v: InlineVec<u64, 3> = InlineVec::new();
        v.push_back(7);
        v.push_back(8);
        v.push_back(9);
        assert!(v.spill.0.is_none());
        assert!(v.clone().spill.0.is_none());
    }
}
