//! Reusable workload generators and the paper's worked systems.
//!
//! The benchmarks, stress tests, and experiment ablations all need
//! adaptable task systems with controlled shapes. This module provides
//! the standard ones:
//!
//! * [`sawtooth`] — periodic up/down cycles per task, phase-staggered;
//! * [`churn`] — tasks continuously join and leave (the dynamic-system
//!   setting of Srinivasan & Anderson's rules J/L);
//! * [`random_adaptive`] — seeded random joins/reweights/delays for
//!   fuzz-style stress, always policed to feasibility;
//! * [`synthetic_population`] — `10⁵–10⁶` light aligned tasks for
//!   shard-supervisor scale-out runs.
//!
//! and the task systems of the paper's figures, built once for the
//! tests, the experiments and the examples that replay them:
//!
//! * [`fig6_base`] — Fig. 6's T plus 19 weight-3/20 tasks (Theorem 5);
//! * [`fig8`] — Fig. 8's T plus 35 weight-1/10 tasks, T asking for 1/2
//!   (Theorem 3);
//! * [`fig9`] — Fig. 9's EPDF counterexample (Theorem 4).

use crate::event::{Event, EventKind, Workload};
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `n` tasks cycling `lo → hi → lo` weights with period `period`,
/// phase-staggered so the system's total demand stays smooth.
pub fn sawtooth(
    n: u32,
    lo: (i128, i128),
    hi: (i128, i128),
    period: Slot,
    horizon: Slot,
) -> Workload {
    let mut w = Workload::new();
    for i in 0..n {
        w.join(i, 0, lo.0, lo.1);
        let phase = (period * Slot::from(i)) / Slot::from(n.max(1));
        let mut t = phase.max(1);
        while t + period / 2 < horizon {
            w.reweight(i, t, hi.0, hi.1);
            w.reweight(i, t + period / 2, lo.0, lo.1);
            t += period;
        }
    }
    w
}

/// Continuous join/leave churn: `n_slots`-long run where a rotating
/// population of `alive` tasks (from a pool of `pool`) each stays for
/// `lifetime` slots.
pub fn churn(pool: u32, alive: u32, lifetime: Slot, n_slots: Slot) -> Workload {
    let mut w = Workload::new();
    let alive = alive.min(pool);
    for i in 0..pool {
        let mut t = (Slot::from(i) * lifetime) / Slot::from(alive.max(1));
        while t < n_slots {
            w.join(i, t, 1, 2 * i128::from(alive));
            let leave_at = (t + lifetime).min(n_slots - 1);
            if leave_at > t {
                w.leave(i, leave_at);
            }
            t += lifetime * Slot::from(pool) / Slot::from(alive.max(1));
        }
    }
    w
}

/// Seeded random adaptive workload: `n` tasks, random light weights,
/// `events` random reweights/delays spread over `[1, horizon)`.
/// Intended to run with policing enabled (requests may sum past `m`).
pub fn random_adaptive(n: u32, events: u32, horizon: Slot, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Workload::new();
    let rand_weight = {
        move |rng: &mut ChaCha8Rng| -> (i128, i128) {
            let den = rng.gen_range(3i128..=40);
            let num = rng.gen_range(1i128..=(den / 2).max(1));
            (num, den)
        }
    };
    for i in 0..n {
        let (num, den) = rand_weight(&mut rng);
        w.join(i, rng.gen_range(0..horizon / 4), num, den);
    }
    for _ in 0..events {
        let task = rng.gen_range(0..n);
        let at = rng.gen_range(1..horizon);
        if rng.gen_bool(0.85) {
            let (num, den) = rand_weight(&mut rng);
            w.reweight(task, at, num, den);
        } else {
            w.delay(task, at, rng.gen_range(1..6));
        }
    }
    w
}

/// Every window length [`synthetic_population`] draws from divides
/// this slot count, so any horizon that is a multiple of it closes
/// every task's final window exactly: in a miss-free run each task of
/// weight `1/L` is scheduled exactly `horizon / L` times. The
/// shard-count determinism suite leans on that alignment.
pub const POPULATION_ALIGNMENT: Slot = 8192;

/// Population-scale workload: `n` tasks joining at slot 0 with weights
/// `1/L`, `L` a power of two drawn deterministically (ChaCha8, seeded)
/// from `{512, …, 8192}`.
///
/// Shaped for [`crate::shard::ShardSet`] runs at `10⁵–10⁶` tasks: the
/// light power-of-two weights keep expected total utilization at
/// `n · 31/40960` (< 0.1 % each), so per-shard utilization stays
/// bounded and easy to provision — size `shards × processors_per_shard`
/// at or above the joins' total weight and every shard admits its
/// members under condition (W). All joins land at slot 0 and every window
/// divides [`POPULATION_ALIGNMENT`], making aligned horizons exact
/// (see the constant's docs). Fully deterministic in `(n, seed)`.
pub fn synthetic_population(n: u32, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Workload::with_capacity(usize::try_from(n).unwrap_or_default());
    for i in 0..n {
        // `1/den` is in lowest terms: built without a reduction, so the
        // generator's cost does not hang on `Rational::new` being inlined.
        let den = 512i64 << rng.gen_range(0u32..5);
        if let Some(weight) = Weight::one_over(den) {
            let (at, task) = (0, TaskId(i));
            let kind = EventKind::Join(weight);
            w.push(Event { at, task, kind });
        }
    }
    w
}

/// The Fig. 6 base system on four processors: task T (id 0) of weight
/// `t_weight`, then 19 weight-3/20 tasks (ids 1..=19), all joining at 0.
pub fn fig6_base(t_weight: (i128, i128)) -> Workload {
    let mut w = Workload::new();
    w.join(0, 0, t_weight.0, t_weight.1); // T
    for i in 1..=19 {
        w.join(i, 0, 3, 20);
    }
    w
}

/// The Fig. 8 system on four processors: T (id 0) and 35 more tasks
/// (ids 1..=35), all of weight 1/10, with T asking for 1/2 at time 4.
/// Under PD²-LJ, T cannot leave before `d(T_1) + b(T_1) = 10` and
/// accumulates drift 24/10 (Theorem 3).
pub fn fig8() -> Workload {
    let mut w = Workload::new();
    w.join(0, 0, 1, 10); // T
    for i in 1..=35 {
        w.join(i, 0, 1, 10);
    }
    w.reweight(0, 4, 1, 2);
    w
}

/// The Fig. 9 system on two processors: set A (ids 0..10, weight 1/7,
/// leaving at 7), B (ids 10..12, 1/6, leaving at 6), C (ids 12..14,
/// 1/14, joining at 6) and D (ids 14..19, 1/21 → 1/3 at 7). Under EPDF
/// with `I_PS`-projected deadlines a task in D misses at time 9
/// (Theorem 4); the system itself is feasible.
pub fn fig9() -> Workload {
    let mut w = Workload::new();
    let mut id = 0u32;
    for _ in 0..10 {
        w.join(id, 0, 1, 7);
        w.leave(id, 7);
        id += 1;
    }
    for _ in 0..2 {
        w.join(id, 0, 1, 6);
        w.leave(id, 6);
        id += 1;
    }
    for _ in 0..2 {
        w.join(id, 6, 1, 14);
        id += 1;
    }
    for _ in 0..5 {
        w.join(id, 0, 1, 21);
        w.reweight(id, 7, 1, 3); // deadline projection jumps 21 → 9
        id += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};

    #[test]
    fn synthetic_population_is_deterministic_and_bounded() {
        let a = synthetic_population(2000, 7);
        assert_eq!(
            a.sorted_events(),
            synthetic_population(2000, 7).sorted_events()
        );
        assert_ne!(
            a.sorted_events(),
            synthetic_population(2000, 8).sorted_events()
        );
        assert!(a.sorted_events().iter().all(|e| {
            e.at == 0
                && matches!(e.kind, crate::event::EventKind::Join(w)
                    if w.value().numer() == 1
                        && [512, 1024, 2048, 4096, 8192].contains(&w.value().denom()))
        }));
    }

    #[test]
    fn sawtooth_alternates() {
        let w = sawtooth(4, (1, 20), (1, 5), 40, 300);
        let r = simulate(SimConfig::oi(2, 300), &w);
        assert!(r.is_miss_free());
        assert!(r.counters.reweight_initiations > 20);
    }

    #[test]
    fn churn_joins_and_leaves() {
        let w = churn(6, 3, 30, 200);
        let r = simulate(SimConfig::oi(2, 200), &w);
        assert!(r.is_miss_free(), "misses: {:?}", r.misses);
    }

    #[test]
    fn random_adaptive_is_deterministic_and_safe() {
        let a = random_adaptive(6, 30, 200, 9);
        let b = random_adaptive(6, 30, 200, 9);
        assert_eq!(a.sorted_events(), b.sorted_events());
        let r = simulate(SimConfig::oi(2, 200), &a);
        assert!(r.is_miss_free());
    }
}
