// Fixture: the dense task-slab hot-column scan (PR 10's storage
// layout) written against the invariants — a float mean over the
// next-release column, a lossy cast from bitmap word index into the
// slot domain with raw offset arithmetic, and a panicking cold-row
// lookup.
// Expected: no-float-in-scheduling at line 10 (the casts at lines
//           10 and 15 and the unwrap at line 20 are clippy's; the
//           offset arithmetic at line 15 is no lint's).
pub fn mean_release(next_release: &[i64], present: i64) -> i64 {
    (next_release.iter().sum::<i64>() as f64 / present as f64) as i64
}

/// Next-release column offset of set bit `bit` within word `word`.
pub fn release_offset(word: usize, bit: u32) -> i64 {
    word as i64 * 64 + i64::from(bit)
}

/// Cold row of `task`, panicking when the id was never admitted.
pub fn cold_row(rows: &[(u32, u64)], task: u32) -> u64 {
    rows.iter().find(|(t, _)| *t == task).expect("admitted id").1
}
