// Fixture: unchecked wide-integer arithmetic outside the quarantine.
// Expected: raw-arithmetic-quarantine at lines 6, 11;
//           audit-annotation at line 18 (unused allow). The cast
//           itself at line 6 is clippy's `as_conversions`.
pub fn lag_numerator(num: i128, den: i128, t: i64) -> i128 {
    num * t as i128
}

pub fn horizon_pad(t: i64) -> i64 {
    // A suffixed literal operand is a raw wide add.
    t + 10_000i64
}

pub fn checked_is_fine(num: i128, t: i128) -> Option<i128> {
    num.checked_mul(t) // not flagged: checked_* is the sanctioned form
}

// audit: allow(raw-arithmetic, stale: the line below no longer does arithmetic)
pub fn nothing_here(t: i64) -> i64 {
    t
}
