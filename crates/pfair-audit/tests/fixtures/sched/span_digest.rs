// Fixture: scaling a verified span digest by the jump count (the
// exact-aggregate observability idiom) written against the invariants —
// a float estimate of the scaled schedule total, a lossy cast back
// into the counter domain, raw arithmetic for the per-period release
// total, and a panicking per-task lookup in the digest.
// Expected: no-float-in-scheduling at line 10 (the casts at lines
//           10 and 15 and the unwrap at line 20 are clippy's; the
//           product at line 15 is no lint's).
pub fn scaled_schedules(per_period: u64, periods: u64) -> u64 {
    (per_period as f64 * periods as f64) as u64
}

/// Releases contributed by `periods` repetitions of one task's delta.
pub fn scaled_releases(per_period: i64, periods: u32) -> i64 {
    per_period * periods as i64
}

/// One task's per-period delta, panicking when it is not in the digest.
pub fn task_delta(per_task: &[(u32, u64)], task: u32) -> u64 {
    per_task.iter().find(|(t, _)| *t == task).expect("task").1
}
