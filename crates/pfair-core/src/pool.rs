//! Deterministic scoped-thread fan-out over independent jobs.
//!
//! Promoted here from the experiment harness so library code — the
//! shard supervisor in `pfair-sched` in particular — can fan work
//! across a hand-rolled worker pool built on `std::thread::scope` (the
//! workspace is offline, so no rayon) and get results **in input
//! order**, byte-identical to a serial `map`. Determinism is by
//! construction, not by luck:
//!
//! * work is claimed by atomic index, so scheduling order varies, but
//!   each result is stored at its item's index;
//! * the merged vector is sorted by index before being returned;
//! * with one worker (or one item) the pool is bypassed entirely and
//!   the closure runs on the calling thread, serially.
//!
//! Every caller passes its worker count to [`par_map_threads`]: a shard
//! spec's width, or a CLI `--threads` value falling back to the
//! machine's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on `threads` workers, returning results in
/// input order (identical to `items.into_iter().map(f)`). The
/// determinism tests compare pools of different widths; the shard
/// supervisor threads its spec's width through here.
///
/// Panics in `f` are propagated to the caller, as they would be
/// serially — a failed assertion inside one run still aborts the sweep.
pub fn par_map_threads<I, O, F>(threads: usize, items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Ownership of each item moves to whichever worker claims its
    // index; a Mutex<Option<I>> per slot transfers it without unsafe.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, O)> = Vec::with_capacity(n);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "a poisoned slot means a sibling worker already panicked; that panic is re-raised to the caller, so this is never the first failure; and the atomic counter hands each index to exactly one worker"
                        )]
                        let item = slots[i]
                            .lock()
                            .expect("a worker panicked while claiming an item")
                            .take()
                            .expect("each index is claimed exactly once");
                        local.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => tagged.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Restore input order: each result carries its item's index.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 4, 7] {
            let got = par_map_threads(workers, items.clone(), |x| x * x + 1);
            assert_eq!(got, expected, "order broken at {workers} workers");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_threads(4, empty, |x| x).is_empty());
        assert_eq!(par_map_threads(4, vec![9u64], |x| x + 1), vec![10]);
    }

    #[test]
    fn worker_count_never_exceeds_item_count() {
        // 100 workers over 3 items must still produce all 3 results.
        let got = par_map_threads(100, vec![1u64, 2, 3], |x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }
}
