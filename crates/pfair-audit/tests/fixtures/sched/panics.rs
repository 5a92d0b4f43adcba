// Fixture: panicking calls in library code.
// Expected: no-panic-in-library at lines 4, 9, 13, 21, 25.
pub fn pick(v: &[u64]) -> u64 {
    let first = v.first().unwrap();
    *first
}

pub fn must(v: Option<u64>) -> u64 {
    v.expect("scheduling state corrupted")
}

pub fn bail() {
    panic!("unreachable slot");
}

// audit: allow(panic, overflow here is documented API contract, as in rational.rs)
pub fn documented(v: Option<u64>) -> u64 { v.expect("documented invariant") }

// The path forms panic just like the method calls.
pub fn firsts(v: Vec<Option<u64>>) -> Vec<u64> {
    v.into_iter().map(Option::unwrap).collect()
}

pub fn parsed(r: Result<u64, String>) -> u64 {
    Result::expect(r, "parse failed")
}

#[test]
fn in_test_code_unwrap_is_fine() {
    let v = Some(3u64).unwrap();
    assert_eq!(v, 3);
}
