//! Lag and LAG: allocation error of an actual schedule against an ideal.
//!
//! For schedules `S` (actual) and `I` (ideal),
//! `lag(S, I, T, t) = A(I, T, 0, t) − A(S, T, 0, t)` measures how far
//! task `T` has fallen behind (positive) or run ahead (negative) of its
//! ideal allocation; `LAG` sums lag over a task set (paper §2, Eqn (1)).
//! A schedule is Pfair iff every task's lag stays strictly inside
//! `(−1, 1)` at all times.
//!
//! These helpers operate on recorded per-slot series (ideal fractional
//! allocations and actual integral allocations), which is how the
//! simulation engine exposes its traces.

use crate::rational::Rational;

/// Per-slot-boundary lag series of one task.
///
/// Given the ideal per-slot allocations `ideal[t] = A(I, T, t)` and the
/// actual per-slot allocations `actual[t] = A(S, T, t)` (0 or 1 quantum
/// under a Pfair scheduler), returns `lags[t] = lag(T, t)` for
/// `t = 0..=n`, so `lags[0] == 0` and `lags` has one more entry than the
/// inputs.
///
/// # Panics
/// Panics if the two series have different lengths.
pub fn lag_series(ideal: &[Rational], actual: &[u32]) -> Vec<Rational> {
    assert_eq!(ideal.len(), actual.len(), "series length mismatch");
    let mut lags = Vec::with_capacity(ideal.len() + 1);
    let mut lag = Rational::ZERO;
    lags.push(lag);
    for (i, a) in ideal.iter().zip(actual.iter()) {
        lag += *i - Rational::from_int(i128::from(*a));
        lags.push(lag);
    }
    lags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn lag_accumulates_ideal_minus_actual() {
        // Weight-1/2 task scheduled in slots 0 and 2 (windows [0,2), [2,4)).
        let ideal = vec![rat(1, 2); 4];
        let actual = vec![1, 0, 1, 0];
        let lags = lag_series(&ideal, &actual);
        assert_eq!(
            lags,
            vec![
                Rational::ZERO,
                rat(-1, 2),
                Rational::ZERO,
                rat(-1, 2),
                Rational::ZERO,
            ]
        );
    }

    #[test]
    fn pfair_bound_violated_when_a_quantum_is_late() {
        // Same task never scheduled: lag reaches 1 at t = 2, 2 at t = 4.
        let ideal = vec![rat(1, 2); 4];
        let actual = vec![0, 0, 0, 0];
        let lags = lag_series(&ideal, &actual);
        assert_eq!(lags.last(), Some(&rat(2, 1)));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(lag_series(&[], &[]), vec![Rational::ZERO]);
    }
}
