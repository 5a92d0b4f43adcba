//! Known-bad: nondeterminism sources in scheduling code — hash-order
//! collections, wall-clock reads, and pointer-derived values.

use std::collections::HashMap;

pub struct SlotIndex {
    pub by_task: HashMap<u32, u64>,
}

pub fn fresh_index() -> SlotIndex {
    SlotIndex {
        by_task: HashMap::new(),
    }
}

pub fn entropy(v: &[u8]) -> usize {
    let started = std::time::Instant::now();
    let _ = started;
    v.as_ptr() as usize
}

// Sources outside item signatures and inside macro arguments.
pub fn stamped(label: &str) -> String {
    let seen: HashMap<u32, u64> = fresh_index().by_task;
    format!("{label}: {} at {:?}", seen.len(), std::time::Instant::now())
}
