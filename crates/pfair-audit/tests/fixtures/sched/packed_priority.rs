// Fixture: a packed PD² priority key built without the sanctioned
// conversions — the deadline bias is raw suffixed-literal arithmetic
// flowing through bare `as` width changes, and unpacking panics on
// out-of-band keys instead of propagating the invariant.
// Expected: no audit finding (the casts at lines 9, 10 and 16 and
//           the unwrap at line 17 are clippy's; the add at line 9 is
//           no lint's).
pub fn pack_key(deadline: i64, b: bool, tie: u32) -> u128 {
    let biased = (deadline + 70368744177664i64) as u128;
    let low = (tie as u128) | (u128::from(!b) << 32);
    (biased << 33) | low
}

/// Recover the deadline field, panicking on out-of-band keys.
pub fn unpack_deadline(key: u128) -> i64 {
    let field = (key >> 33) as i64;
    field.checked_sub(70368744177664).unwrap()
}
