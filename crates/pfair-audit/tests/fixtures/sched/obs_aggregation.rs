// Fixture: probe-metrics aggregation (the pfair-obs histogram/registry
// idiom) written against the observability invariants — float bucket
// math, lossy index casts, and a panicking lookup in the aggregation
// path.
// Expected: no-float-in-scheduling at lines 8 and 9 (their casts
//           and the unwrap at line 14 are clippy's).
pub fn bucket_of(value: u64) -> usize {
    let log = (value as f64).log2();
    (log / 2.0f64) as usize
}

/// Total of one named counter, panicking when the name is missing.
pub fn counter_total(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(n, _)| n == name).unwrap().1
}
