//! Reusable synthetic workload generators.
//!
//! The benchmarks, stress tests, and experiment ablations all need
//! adaptable task systems with controlled shapes. This module provides
//! the standard ones:
//!
//! * [`uniform`] — `n` equal-weight tasks, the static baseline;
//! * [`burst`] — every task requests a new weight at the same instant
//!   (the `Ω(max(N, M log N))` simultaneous-reweight scenario of §6);
//! * [`ramp`] — one light task climbs to a target weight through many
//!   small steps (the up-ramp that punishes coarse-grained schemes);
//! * [`sawtooth`] — periodic up/down cycles per task, phase-staggered;
//! * [`churn`] — tasks continuously join and leave (the dynamic-system
//!   setting of Srinivasan & Anderson's rules J/L);
//! * [`random_adaptive`] — seeded random joins/reweights/delays for
//!   fuzz-style stress, always policed to feasibility;
//! * [`synthetic_population`] — `10⁵–10⁶` light aligned tasks for
//!   shard-supervisor scale-out runs (PR 10).

use crate::event::Workload;
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `n` tasks of weight `num/den` joining at time 0.
pub fn uniform(n: u32, num: i128, den: i128) -> Workload {
    let mut w = Workload::new();
    for i in 0..n {
        w.join(i, 0, num, den);
    }
    w
}

/// [`uniform`] plus one simultaneous reweight of *every* task at `at`.
pub fn burst(n: u32, num: i128, den: i128, at: Slot, to_num: i128, to_den: i128) -> Workload {
    let mut w = uniform(n, num, den);
    for i in 0..n {
        w.reweight(i, at, to_num, to_den);
    }
    w
}

/// One task ramping from `1/from_den` to `1/to_den` (`to_den <
/// from_den`) in `steps` multiplicative steps starting at `start`,
/// `gap` slots apart, beside `n_background` weight-1/4 tasks.
pub fn ramp(
    from_den: i128,
    to_den: i128,
    steps: u32,
    start: Slot,
    gap: Slot,
    n_background: u32,
) -> Workload {
    assert!(to_den < from_den && to_den >= 2);
    let mut w = Workload::new();
    w.join(0, 0, 1, from_den);
    for i in 0..n_background {
        w.join(i + 1, 0, 1, 4);
    }
    // Geometric interpolation of denominators: float math is confined to
    // *choosing* integer weight parameters; the chosen weights are exact.
    // audit: allow(float, workload-generation knob; the produced weights are exact integers)
    let ratio = (from_den as f64 / to_den as f64).powf(1.0 / f64::from(steps)); // audit: allow(lossy-cast, workload-generation knob)
    for k in 1..=steps {
        // audit: allow(float, workload-generation knob; the produced weights are exact integers)
        let interp = (from_den as f64) / ratio.powi(k as i32); // audit: allow(lossy-cast, workload-generation knob)
                                                               // audit: allow(float, workload-generation knob; the produced weights are exact integers)
        let den = interp.round().max(to_den as f64) as i128; // audit: allow(lossy-cast, workload-generation knob)
        w.reweight(0, start + gap * Slot::from(k), 1, den.max(2));
    }
    w
}

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
        // audit: allow(float, RNG event-mix probability; not scheduling arithmetic)
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
/// at or above [`join_utilization`] and every shard admits its members
/// under condition (W). All joins land at slot 0 and every window
/// divides [`POPULATION_ALIGNMENT`], making aligned horizons exact
/// (see the constant's docs). Fully deterministic in `(n, seed)`.
pub fn synthetic_population(n: u32, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Workload::new();
    for i in 0..n {
        let den = 512i128 << rng.gen_range(0u32..5);
        w.join(i, 0, 1, den);
    }
    w
}

/// Total requested utilization of the joins in a workload (a quick
/// feasibility sniff for generated workloads).
pub fn join_utilization(w: &Workload) -> Rational {
    use crate::event::EventKind;
    w.sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Join(weight) => Some(weight.value()),
            _ => None,
        })
        .fold(Rational::ZERO, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use pfair_core::rational::rat;

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
        let util = join_utilization(&a);
        assert!(util >= rat(2000, 8192) && util <= rat(2000, 512));
        assert!(a
            .sorted_events()
            .iter()
            .all(|e| e.at == 0 && matches!(e.kind, crate::event::EventKind::Join(_))));
    }

    #[test]
    fn uniform_and_burst_run_clean() {
        let r = simulate(SimConfig::oi(2, 60), &uniform(8, 1, 4));
        assert!(r.is_miss_free());
        let r = simulate(SimConfig::oi(2, 60), &burst(8, 1, 8, 10, 1, 5));
        assert!(r.is_miss_free());
        assert_eq!(r.counters.reweight_initiations, 8);
    }

    #[test]
    fn ramp_climbs_monotonically() {
        let w = ramp(40, 3, 10, 5, 8, 2);
        let mut last = rat(1, 40);
        for e in w.sorted_events() {
            if let crate::event::EventKind::Reweight(wt) = e.kind {
                assert!(wt.value() >= last, "ramp must not descend");
                last = wt.value();
            }
        }
        let r = simulate(SimConfig::oi(2, 200), &w);
        assert!(r.is_miss_free());
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

    #[test]
    fn join_utilization_sums() {
        let w = uniform(4, 1, 4);
        assert_eq!(join_utilization(&w), rat(1, 1));
    }
}
