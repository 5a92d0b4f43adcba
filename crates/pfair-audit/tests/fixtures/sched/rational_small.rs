// Fixture: the small-operand rational path (native `i64` arithmetic
// inside a ±2³¹ gate) written against the invariants — a float
// magnitude test for the gate, components narrowed with `as` into a
// raw cross product, a panicking narrowing, and a proof obligation
// whose contract is one bit too wide for the product it covers.
// Expected: no-float-in-scheduling + no-lossy-casts at line 11;
//           no-lossy-casts + raw-arithmetic-quarantine at line 16;
//           no-panic-in-library at line 21;
//           overflow-interval at line 29.
pub fn fits_gate(num: i128) -> bool {
    (num as f64).abs() < 2147483648.0
}

/// Cross product `a·d` of two components narrowed out of `i128`.
pub fn cross(a: i128, d: i128) -> i64 {
    a as i64 * d as i64
}

/// Narrows a component, panicking outside the gate.
pub fn narrow(x: i128) -> i64 {
    i64::try_from(x).expect("component outside the gate")
}

/// Cross product `a·d` of components "inside the gate".
// audit: prove(overflow-bounds)
// audit: assume(a in -4294967296..=4294967295)
// audit: assume(d in 1..=4294967295)
pub fn cross_small(a: i64, d: i64) -> i64 {
    a * d
}
