//! Benchmark-owned input generation.
//!
//! Every weight comes from a denominator set with a small lcm (divisors
//! of 480, of 12, of 1440): the engine sums weights as exact `i128`
//! rationals, and a prototype drawing denominators from 40..=200 (or
//! pairwise-coprime periods) overflowed inside `Rational::checked_add`.
//! Leaves are permanent and replaced by fresh-id joins: re-joining the
//! same id made `mean_pct_of_ideal` read above 1000 % in the prototype,
//! which is a correctness issue's business, not a benchmark's.

use crate::rng::SplitMix64;
use pfair_core::time::Slot;
use pfair_sched::event::{EventKind, Workload};

/// Divisors of 480 from 8 up: `1/d` and `3/(2d)` are both light.
const STORM_DENS: [i128; 18] = [
    8, 10, 12, 15, 16, 20, 24, 30, 32, 40, 48, 60, 80, 96, 120, 160, 240, 480,
];
/// Static weight-3/4 background tasks of the storm.
const STORM_HEAVY: u32 = 8;
/// Weights of the saturated steady leg, as `(count, denominator)`:
/// 12/2 + 18/3 + 8/4 + 12/6 = 16 processors exactly, 50 tasks.
const SATURATED_MIX: [(u32, i128); 4] = [(12, 2), (18, 3), (8, 4), (12, 6)];
/// Processors of the saturated steady leg.
pub const SATURATED_PROCESSORS: u32 = 16;
/// Periods of the sparse steady leg (all divide 1440).
const SPARSE_PERIODS: [i128; 10] = [96, 120, 144, 160, 180, 240, 288, 360, 480, 720];
/// Tasks and processors of the sparse steady leg.
const SPARSE_TASKS: u32 = 64;
pub const SPARSE_PROCESSORS: u32 = 4;

/// `reweight_storm`: `tasks` light tasks (denominators dealt round-robin
/// from the divisors of 480, so utilization does not depend on the seed)
/// toggling `1/d ↔ 3/(2d)` at gaps uniform in `1..=2·mean_gap − 1`, 7 % of
/// events IS delays, 3 % permanent leaves each replaced a few slots later
/// by a fresh-id join of the same denominator, plus eight static
/// weight-3/4 tasks. Returns the workload and `m = ⌈mean utilization⌉`,
/// which keeps most slots fully busy with policing clamping the peaks.
pub fn reweight_storm(seed: u64, tasks: u32, horizon: Slot, mean_gap: u64) -> (Workload, u32) {
    let mut rng = SplitMix64::new(seed);
    let mut w = Workload::new();
    // Mean utilization in units of 1/1920: a toggling task averages
    // (1/d + 3/(2d))/2 = 2400/(1920·d), an integer for every d.
    let mut util_1920 = i128::from(STORM_HEAVY) * 1440;
    for i in 0..STORM_HEAVY {
        w.join(tasks + i, 0, 3, 4);
    }
    let mut next_fresh = tasks + STORM_HEAVY;
    for first in 0..tasks {
        let d = STORM_DENS[first as usize % STORM_DENS.len()];
        util_1920 += 2400 / d;
        let weight = |high: bool| if high { (3, 2 * d) } else { (1, d) };
        let (mut id, mut t) = (first, 0);
        let mut high = rng.below(2) == 1;
        w.join(id, t, weight(high).0, weight(high).1);
        loop {
            t += 1 + rng.below(2 * mean_gap - 1) as Slot;
            if t >= horizon {
                break;
            }
            match rng.below(100) {
                0..=6 => {
                    w.delay(id, t, 1 + rng.below(5) as u32);
                }
                7..=9 => {
                    w.leave(id, t);
                    id = next_fresh;
                    next_fresh += 1;
                    t += 1 + rng.below(20) as Slot;
                    if t >= horizon {
                        break;
                    }
                    w.join(id, t, weight(high).0, weight(high).1);
                }
                _ => {
                    high = !high;
                    w.reweight(id, t, weight(high).0, weight(high).1);
                }
            }
        }
    }
    let processors = u32::try_from((util_1920 + 1919) / 1920).expect("utilization fits u32");
    (w, processors)
}

/// The storm's static twin: the slot-0 joins only, every later event
/// stripped.
pub fn static_twin(w: &Workload) -> Workload {
    let mut twin = Workload::new();
    for e in w.sorted_events() {
        if e.at == 0 && matches!(e.kind, EventKind::Join(_)) {
            twin.push(e);
        }
    }
    twin
}

/// One reweight every `every` slots, alternating: a random task moves
/// to `away(base)`, and at the next event moves back. The system
/// stays within one task of its base mix, so a run's cost does not
/// wander with the seed.
fn toggle_events(
    w: &mut Workload,
    rng: &mut SplitMix64,
    base: &[i128],
    horizon: Slot,
    every: Slot,
    mut away: impl FnMut(&mut SplitMix64, i128) -> i128,
) {
    let mut moved: Option<u32> = None;
    let mut t = every;
    while t < horizon {
        match moved.take() {
            Some(id) => {
                w.reweight(id, t, 1, base[id as usize]);
            }
            None => {
                let id = rng.below(base.len() as u64) as u32;
                w.reweight(id, t, 1, away(rng, base[id as usize]));
                moved = Some(id);
            }
        }
        t += every;
    }
}

/// `steady_spans`/`saturated`: 50 tasks filling 16 processors exactly;
/// every `every` slots one task drops to a lighter weight from
/// {1/3, 1/4, 1/6, 1/12} or returns to its own.
pub fn steady_saturated(seed: u64, horizon: Slot, every: Slot) -> Workload {
    let mut rng = SplitMix64::new(seed);
    let mut w = Workload::new();
    let base: Vec<i128> = SATURATED_MIX
        .iter()
        .flat_map(|&(count, den)| (0..count).map(move |_| den))
        .collect();
    for (id, &den) in base.iter().enumerate() {
        w.join(id as u32, 0, 1, den);
    }
    toggle_events(&mut w, &mut rng, &base, horizon, every, |rng, den| {
        let lighter: Vec<i128> = [3, 4, 6, 12].into_iter().filter(|&d| d > den).collect();
        rng.pick(&lighter)
    });
    w
}

/// `steady_spans`/`sparse`: 64 tasks of weight `1/p`, periods dealt
/// round-robin from 96…720, on 4 processors; every `every` slots one
/// task moves to a random period from the set or returns to its own.
pub fn steady_sparse(seed: u64, horizon: Slot, every: Slot) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_5eed);
    let mut w = Workload::new();
    let base: Vec<i128> = (0..SPARSE_TASKS as usize)
        .map(|i| SPARSE_PERIODS[i % SPARSE_PERIODS.len()])
        .collect();
    for (id, &period) in base.iter().enumerate() {
        w.join(id as u32, 0, 1, period);
    }
    toggle_events(&mut w, &mut rng, &base, horizon, every, |rng, _| {
        rng.pick(&SPARSE_PERIODS)
    });
    w
}

/// FNV-1a over the workload's `sorted_events()`, so a changed generator
/// (the library's or this file's) shows in the results.
pub fn input_digest(w: &Workload) -> u64 {
    let mut h = Fnv::new();
    for e in w.sorted_events() {
        h.u64(e.at as u64);
        h.u64(u64::from(e.task.0));
        match e.kind {
            EventKind::Join(wt) => h.tagged(1, wt.value().numer(), wt.value().denom()),
            EventKind::Reweight(wt) => h.tagged(2, wt.value().numer(), wt.value().denom()),
            EventKind::Leave => h.u64(3),
            EventKind::Delay(by) => h.tagged(4, i128::from(by), 1),
        }
    }
    h.finish()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn tagged(&mut self, tag: u64, num: i128, den: i128) {
        self.u64(tag);
        self.bytes(&num.to_le_bytes());
        self.bytes(&den.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let storm = |s| input_digest(&reweight_storm(s, 64, 500, 50).0);
        assert_eq!(storm(1), storm(1));
        assert_ne!(storm(1), storm(2));
        let sat = |s| input_digest(&steady_saturated(s, 20_000, 500));
        assert_eq!(sat(1), sat(1));
        assert_ne!(sat(1), sat(2));
        let sparse = |s| input_digest(&steady_sparse(s, 20_000, 500));
        assert_eq!(sparse(1), sparse(1));
        assert_ne!(sparse(1), sparse(2));
    }

    #[test]
    fn storm_replaces_leavers_with_fresh_ids() {
        let (w, m) = reweight_storm(3, 256, 2_000, 50);
        let events = w.sorted_events();
        let mut joined = std::collections::BTreeSet::new();
        let mut leaves = 0;
        for e in &events {
            match e.kind {
                EventKind::Join(_) => assert!(joined.insert(e.task.0), "id joined twice"),
                EventKind::Leave => leaves += 1,
                _ => {}
            }
        }
        assert!(leaves > 0);
        assert!(joined.len() > 256 + 8);
        assert!(m >= 6);
        assert_eq!(static_twin(&w).sorted_events().len(), 256 + 8);
    }

    #[test]
    fn saturated_mix_fills_its_processors() {
        let total: i128 = SATURATED_MIX
            .iter()
            .map(|&(c, d)| i128::from(c) * 12 / d)
            .sum();
        assert_eq!(total, 12 * i128::from(SATURATED_PROCESSORS));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
