// Fixture: a closed-form interval jump (the `advance_to` idiom) written
// without the sanctioned helpers — raw wide arithmetic for the
// completion count, a lossy slot cast, and a panic instead of a
// documented invariant.
// Expected: no audit finding (the casts at lines 9 and 11 and the
//           unwrap at line 16 are clippy's; the arithmetic at lines
//           9 and 10 is no lint's).
pub fn completion_slots(rem_num: i128, swt_den: i64, cum: i128) -> i64 {
    let scaled = rem_num * swt_den as i128;
    let k = scaled / (cum + 1i128);
    k as i64
}

/// Jump the tracker total, panicking instead of surfacing the invariant.
pub fn jump_total(per_interval: &[i64], k: usize) -> i64 {
    *per_interval.get(k).unwrap()
}
