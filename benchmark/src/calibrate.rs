//! A reference kernel that tells how fast the machine is right now.
//!
//! The sandbox this benchmark runs in changes speed in episodes. In a
//! calm half hour ten 20 s runs of one workload agree within 5 %; in a
//! bad one whole runs land in a slow phase and the same ten runs spread
//! 15–35 % (quartile distance over median), whatever statistic is taken
//! over the repetitions of one run. Wall time equals CPU time throughout,
//! so it is contention on the host, not descheduling; and there are no
//! hardware counters in the guest to count instructions instead.
//!
//! So every timed phase is bracketed by samples of this kernel, and its
//! wall time is scaled by `NOMINAL_S ÷ (kernel seconds around it)`: a
//! repetition that ran while the machine was 1.25× slow is credited 1.25×
//! less time. On a machine at nominal speed the scale is 1 and calibrated
//! time is wall time; above 1 the machine is faster than typical. Over the same bad half hour this brought the
//! spread of the fastest repetition from 15–31 % down to 8–11 %. It does
//! not remove the noise: the workloads slow down more than the kernel
//! does (1.6× against 1.25×), which is why the bounds in
//! `BENCHMARK.json` are as wide as they are.
//!
//! The kernel — a binary heap of 16 384 128-bit keys, popped and
//! refilled — was the steadiest predictor of six candidates (rational
//! arithmetic, heaps of two sizes, L2- and L3-sized pointer walks,
//! unpredictable branches). It uses the standard library only, no code of
//! the crates under test, and belongs to the benchmark, which a change
//! claiming a gain may not edit: it is the same work on both sides of
//! every comparison.

use std::collections::BinaryHeap;
use std::time::Instant;

/// Seconds a typical pass takes on the 2.1 GHz Xeon guests this was
/// written on (9.5 ms in their calmest phases, 15 ms in slow ones). Only
/// a convention: it makes calibrated seconds read like wall seconds.
pub const NOMINAL_S: f64 = 0.0115;

const ENTRIES: usize = 16_384;
const ROUNDS: usize = 160_000;

pub struct Calibrator {
    heap: BinaryHeap<u128>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            heap: BinaryHeap::with_capacity(ENTRIES),
            state: 0x9e37_79b9_7f4a_7c15,
        };
        for _ in 0..ENTRIES {
            let key = c.xorshift();
            c.heap.push(u128::from(key));
        }
        c
    }

    fn xorshift(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn pass(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let top = self.heap.pop().unwrap_or(0);
            let fresh = self.xorshift();
            self.heap.push((top >> 1) + u128::from(fresh >> 1));
        }
        started.elapsed().as_secs_f64()
    }

    /// Seconds the kernel takes now: one pass to pull it back into the
    /// caches the workload just emptied, then the faster of two.
    pub fn sample(&mut self) -> f64 {
        self.pass();
        self.pass().min(self.pass())
    }

    /// Runs `work` between two samples. Returns its result and the
    /// factor that turns wall seconds measured inside it into calibrated
    /// seconds.
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample();
        let result = work();
        let after = self.sample();
        (result, scale(before, after))
    }
}

/// The calibration factor of a phase bracketed by two samples.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_nominal_speed_and_shrinks_when_slow() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert!((scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_heap_keeps_its_population() {
        let mut c = Calibrator::new();
        let ((), factor) = c.bracket(|| ());
        assert_eq!(c.heap.len(), ENTRIES);
        assert!(factor > 0.0);
    }
}
