// Fixture: the same path written in the sanctioned form — the gate is
// a checked narrowing that surfaces as a value, and the cross product
// carries the ±2³¹ contracts the interval pass can discharge (the
// product stays below 2⁶² in magnitude).
// Expected: no findings.
pub fn narrow(x: i128) -> Option<i64> {
    i32::try_from(x).ok().map(i64::from)
}

/// Cross product `a·d` inside the gate.
// audit: prove(overflow-bounds)
// audit: assume(a in -2147483648..=2147483647)
// audit: assume(d in 1..=2147483647)
pub fn cross_small(a: i64, d: i64) -> i64 {
    a * d
}

/// `a/b ? c/d` for components that pass the gate, `None` otherwise.
pub fn cmp_small(a: i128, b: i128, c: i128, d: i128) -> Option<core::cmp::Ordering> {
    let lhs = cross_small(narrow(a)?, narrow(d)?);
    let rhs = cross_small(narrow(c)?, narrow(b)?);
    Some(lhs.cmp(&rhs))
}
