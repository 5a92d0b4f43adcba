// Fixture: annotation hygiene.
// Expected: audit-annotation at line 4 (unknown lint name) and at
//           line 5 (an allow that suppresses nothing).
// audit: allow(panik-reach, typo in the lint name)
// audit: allow(panic-reach, stale: nothing below can panic)
pub fn nothing_here(t: i64) -> i64 {
    t
}
