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
    #[expect(clippy::disallowed_methods, reason = "slots stay within the horizon")]
    Slot::try_from(x).expect("slot quantity exceeds the i64 range")
}

/// Converts a non-negative `Slot` to a container index.
#[inline]
pub fn slot_index(t: Slot) -> usize {
    #[expect(clippy::disallowed_methods, reason = "slots stay within the horizon")]
    usize::try_from(t).expect("slot is not a valid container index")
}

/// Converts a container index to the `u64` subtask-rank domain.
#[inline]
pub fn rank_from_index(i: usize) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "infallible on 64-bit targets")]
    u64::try_from(i).expect("index exceeds u64")
}

/// Converts a `u64` subtask index/rank to a container index.
#[inline]
pub fn index_from_rank(i: u64) -> usize {
    #[expect(clippy::disallowed_methods, reason = "ranks are horizon-bounded")]
    usize::try_from(i).expect("subtask rank exceeds usize")
}

/// Slots from `from` to `to`: what a task that has kept weight `w` since
/// joining at `from` has been given by `to` in every ideal, in units of
/// `w`. The engine admits no slot outside the packed priority key's band
/// (`±2⁴⁶`), so the difference cannot overflow.
// audit: prove(overflow-bounds)
// audit: assume(from in -70368744177664..=70368744177664)
// audit: assume(to in -70368744177664..=70368744177664)
#[inline]
pub fn slots_since(from: Slot, to: Slot) -> Slot {
    to - from
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_max() {
        assert_eq!(NEVER, Slot::MAX);
        const { assert!(NEVER > 1_000_000_000) };
    }
}
