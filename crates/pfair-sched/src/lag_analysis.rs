//! System-level LAG analysis over recorded runs.
//!
//! `LAG(τ, t)` — the task set's total lag against the clairvoyant ideal
//! (paper Eqn (1)) — is the quantity the correctness proof manipulates:
//! a deadline miss forces `LAG(τ, t_d) = 1` (Lemma 5(c)), and LAG can
//! only increase across a slot with a *hole* (an idle processor,
//! Lemma 4). This module computes the LAG series and per-slot hole
//! counts from a history-enabled [`SimResult`], making those proof
//! quantities observable for any run.

use crate::trace::SimResult;
use pfair_core::rational::Rational;
use pfair_core::time::slot_index;

/// Per-slot system series derived from a run's histories.
#[derive(Clone, Debug)]
pub struct SystemSeries {
    /// `LAG(τ, t)` for `t = 0..=horizon` (length `horizon + 1`).
    pub lag: Vec<Rational>,
    /// Idle processors ("holes") in each slot (length `horizon`).
    pub holes: Vec<u32>,
    /// Scheduled quanta in each slot (length `horizon`).
    pub scheduled: Vec<u32>,
}

impl SystemSeries {
    /// The maximum LAG value reached.
    pub fn max_lag(&self) -> Rational {
        self.lag.iter().copied().max().unwrap_or(Rational::ZERO)
    }

    /// Slots across which LAG strictly increased.
    pub fn lag_increase_slots(&self) -> Vec<usize> {
        (0..self.lag.len().saturating_sub(1))
            .filter(|&t| self.lag[t + 1] > self.lag[t])
            .collect()
    }

    /// Lemma 4 as a predicate: every LAG increase happened across a slot
    /// with a hole.
    pub fn lemma4_holds(&self) -> bool {
        self.lag_increase_slots()
            .iter()
            .all(|&t| self.holes.get(t).is_some_and(|h| *h > 0))
    }
}

/// Computes the system series from a history-enabled result.
///
/// # Panics
/// Panics if histories were not recorded.
pub fn system_series(result: &SimResult) -> SystemSeries {
    let n = slot_index(result.horizon);
    let mut ideal = vec![Rational::ZERO; n];
    let mut scheduled = vec![0u32; n];
    for task in &result.tasks {
        #[expect(clippy::disallowed_methods, reason = "callers enable record_history")]
        let hist = task
            .history
            .as_ref()
            .expect("system_series requires record_history");
        for (t, a) in hist.icsw_per_slot().iter().enumerate() {
            if t < n {
                ideal[t] += *a;
            }
        }
        for s in &hist.scheduled_slots {
            let idx = slot_index(*s);
            if idx < n {
                scheduled[idx] += 1;
            }
        }
    }
    let mut lag = Vec::with_capacity(n + 1);
    let mut acc = Rational::ZERO;
    lag.push(acc);
    for t in 0..n {
        acc += ideal[t] - Rational::from_int(i128::from(scheduled[t]));
        lag.push(acc);
    }
    let holes = scheduled
        .iter()
        .map(|s| result.processors.saturating_sub(*s))
        .collect();
    SystemSeries {
        lag,
        holes,
        scheduled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::event::Workload;
    use crate::workloads;
    use pfair_core::rational::rat;

    #[test]
    fn full_utilization_has_no_holes_and_bounded_lag() {
        let mut w = Workload::new();
        for i in 0..4 {
            w.join(i, 0, 1, 2);
        }
        let r = simulate(SimConfig::oi(2, 40).with_history(), &w);
        let s = system_series(&r);
        assert!(s.holes.iter().all(|h| *h == 0));
        assert!(s.max_lag() < rat(1, 1), "miss-free ⇒ LAG < 1 (Lemma 5)");
        assert!(s.lemma4_holds());
        assert_eq!(s.scheduled.iter().map(|x| u64::from(*x)).sum::<u64>(), 80);
    }

    #[test]
    fn underloaded_system_has_holes_but_lemma4_still_holds() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 3);
        let r = simulate(SimConfig::oi(2, 30).with_history(), &w);
        let s = system_series(&r);
        assert!(s.holes.iter().any(|h| *h > 0));
        assert!(s.lemma4_holds());
    }

    #[test]
    fn reweighted_run_lag_stays_under_one() {
        let w = workloads::sawtooth(5, (1, 20), (1, 5), 40, 300);
        let r = simulate(SimConfig::oi(2, 300).with_history(), &w);
        assert!(r.is_miss_free());
        let s = system_series(&r);
        assert!(s.lemma4_holds());
        assert!(
            s.max_lag() < rat(1, 1),
            "a miss-free schedule keeps LAG below one quantum: {}",
            s.max_lag()
        );
    }
}
