//! Discrete time: quanta and slots.
//!
//! Under Pfair scheduling processor time is allocated in unit-length
//! *quanta*; the half-open interval `[t, t+1)` is *slot* `t`, and "time
//! `t`" means the start of slot `t` (paper §2). All scheduling decisions
//! happen at slot boundaries, so plain signed integers are the natural
//! representation. Signed (rather than unsigned) arithmetic keeps window
//! expressions such as `d(T_i) − b(T_i)` and drift bookkeeping free of
//! underflow hazards.

/// A slot index / quantum-boundary time. Slot `t` is the interval `[t, t+1)`.
pub type Slot = i64;

// Checked narrowing between the domains slot math moves through: window
// and lag quantities are computed exactly in `i128`, stored in `Slot`,
// and used to index per-slot tables as `usize`, with subtask ranks in
// `u64`. Each helper makes the narrowing explicit and loud — a value
// outside the target range means corrupted scheduling state (horizons
// in this repository are far below 2^63), and the panic says which
// conversion failed.

/// Narrows an exact `i128` window/lag quantity to a `Slot`.
#[inline]
pub fn slot_from_i128(x: i128) -> Slot {
    // audit: allow(panic-reach, slot quantities stay within the horizon enforced at admission)
    Slot::try_from(x).expect("slot quantity exceeds the i64 range")
}

/// Converts a non-negative `Slot` to a container index.
#[inline]
pub fn slot_index(t: Slot) -> usize {
    // audit: allow(panic-reach, slot quantities stay within the horizon enforced at admission)
    usize::try_from(t).expect("slot is not a valid container index")
}

/// Converts a container index to the `u64` subtask-rank domain.
#[inline]
pub fn rank_from_index(i: usize) -> u64 {
    // audit: allow(panic, infallible on the supported 64-bit targets)
    u64::try_from(i).expect("index exceeds u64")
}

/// Converts a `u64` subtask index/rank to a container index.
#[inline]
pub fn index_from_rank(i: u64) -> usize {
    // audit: allow(panic, ranks are horizon-bounded; out-of-range means corrupted state)
    usize::try_from(i).expect("subtask rank exceeds usize")
}

/// Sentinel for "never" (e.g., the halt time of a subtask that is never
/// halted, `H(T_j) = ∞` in the paper).
pub const NEVER: Slot = Slot::MAX;

/// The slot a [`NEVER`]-sentinel field holds, if any (the sentinel
/// keeps such fields one word wide where an `Option<Slot>` takes two).
#[inline]
pub fn ever(slot: Slot) -> Option<Slot> {
    (slot != NEVER).then_some(slot)
}

/// A [`NEVER`]-sentinel field moved `ds` slots later: the sentinel stays
/// put, and `None` reports an overflowing shift.
#[inline]
pub fn shift_ever(slot: Slot, ds: Slot) -> Option<Slot> {
    if slot == NEVER {
        Some(NEVER)
    } else {
        slot.checked_add(ds)
    }
}

/// Inclusive-exclusive slot range `[start, end)`, used for windows and
/// measurement intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotRange {
    /// First slot of the range.
    pub start: Slot,
    /// One past the last slot of the range.
    pub end: Slot,
}

impl SlotRange {
    /// Creates `[start, end)`. Empty ranges (`start >= end`) are permitted.
    pub fn new(start: Slot, end: Slot) -> SlotRange {
        SlotRange { start, end }
    }

    /// Number of slots in the range (zero for empty ranges).
    pub fn len(&self) -> i64 {
        (self.end - self.start).max(0)
    }

    /// `true` iff the range contains no slots.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// `true` iff slot `t` lies in `[start, end)`.
    pub fn contains(&self, t: Slot) -> bool {
        self.start <= t && t < self.end
    }

    /// Iterates over the slots of the range.
    pub fn iter(&self) -> impl Iterator<Item = Slot> {
        self.start..self.end
    }

    /// The intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: &SlotRange) -> SlotRange {
        SlotRange::new(self.start.max(other.start), self.end.min(other.end))
    }

    /// `true` iff the two ranges share at least one slot.
    pub fn overlaps(&self, other: &SlotRange) -> bool {
        !self.intersect(other).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = SlotRange::new(3, 7);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(3));
        assert!(r.contains(6));
        assert!(!r.contains(7));
        assert!(!r.contains(2));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn empty_ranges() {
        let r = SlotRange::new(5, 5);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        let r = SlotRange::new(7, 3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn intersect_and_overlap() {
        let a = SlotRange::new(0, 10);
        let b = SlotRange::new(5, 15);
        assert_eq!(a.intersect(&b), SlotRange::new(5, 10));
        assert!(a.overlaps(&b));
        let c = SlotRange::new(10, 12);
        assert!(!a.overlaps(&c)); // [0,10) and [10,12) share no slot
    }
}

#[cfg(test)]
mod more_time_tests {
    use super::*;

    #[test]
    fn never_is_max() {
        assert_eq!(NEVER, Slot::MAX);
        const { assert!(NEVER > 1_000_000_000) };
    }

    #[test]
    fn intersect_is_commutative_and_idempotent() {
        let a = SlotRange::new(2, 9);
        let b = SlotRange::new(5, 14);
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert_eq!(a.intersect(&a), a);
    }
}
