// Fixture: annotation hygiene.
// Expected: audit-annotation at line 4 (unknown lint name) and at
//           line 5 (an allow that suppresses nothing).
// audit: allow(flaot, typo in the lint name)
// audit: allow(float, stale: the line below holds no float)
pub fn nothing_here(t: i64) -> i64 {
    t
}
