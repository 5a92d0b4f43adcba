//! Feasibility and schedulability analysis.
//!
//! Pfair scheduling's central result (Baruah, Gehrke & Plaxton \[3\])
//! makes multiprocessor feasibility a pure utilization test: a periodic
//! task set is schedulable on `M` processors iff its total weight is at
//! most `M` — condition (W) of the paper, extended to adaptable systems
//! by policing weight-change requests. This module provides that test,
//! the overflow-checked lcm the busy-span batcher folds over task
//! periods, and the hyperperiod for exact whole-schedule assertions.
//!
//! ```
//! use pfair_core::{rat, Weight};
//! use pfair_core::analysis::{hyperperiod, is_feasible, min_processors};
//!
//! let set = [Weight::new(rat(8, 11)), Weight::new(rat(8, 11)), Weight::new(rat(6, 11))];
//! assert!(is_feasible(&set, 2));      // Σ = 2 exactly
//! assert_eq!(min_processors(&set), 2);
//! assert_eq!(hyperperiod(&set), 11);
//! ```

use crate::rational::{Rational, Units};
use crate::weight::Weight;

/// Total weight (utilization) of a task set.
pub fn total_weight(weights: &[Weight]) -> Rational {
    weights
        .iter()
        .fold(Rational::ZERO, |acc, w| acc + w.value())
}

/// The Pfair feasibility test: schedulable on `processors` iff the
/// total weight is at most `M` (and, trivially, every weight ≤ 1,
/// which [`Weight`] already guarantees).
pub fn is_feasible(weights: &[Weight], processors: u32) -> bool {
    total_weight(weights) <= Rational::from_int(i128::from(processors))
}

/// The minimum number of processors on which the set is feasible:
/// `⌈Σ weights⌉`.
pub fn min_processors(weights: &[Weight]) -> u32 {
    // Saturating: a set whose total weight exceeds u32::MAX processors
    // is out of scope for every caller (and for the paper).
    u32::try_from(total_weight(weights).ceil().max(0)).unwrap_or(u32::MAX)
}

/// Overflow-checked least common multiple of two positive integers:
/// `None` when `lcm(a, b)` does not fit in `i128` (or an argument is
/// non-positive, for which no lcm is defined here).
///
/// The engine's busy-span batcher folds this over task periods to find
/// the steady-state repeat length; near-coprime denominators can push
/// the product past any fixed width, so the overflow must surface as a
/// value (the span is simply not batched), never as wraparound.
pub fn checked_lcm(a: i128, b: i128) -> Option<i128> {
    if a <= 0 || b <= 0 {
        return None;
    }
    Units::new(a).checked_lcm(Units::new(b)).map(Units::get)
}

/// The hyperperiod of a task set: the least common multiple of the
/// weights' periods (denominators in lowest terms). Over one
/// hyperperiod, a weight-`e/p` task receives exactly
/// `hyperperiod · e / p` quanta, and the window pattern repeats.
///
/// # Panics
/// Panics on an empty set (no hyperperiod exists), or if the least
/// common multiple overflows `i128`.
pub fn hyperperiod(weights: &[Weight]) -> i128 {
    assert!(!weights.is_empty(), "hyperperiod of an empty task set");
    let periods = weights.iter().map(|w| Units::new(w.value().denom()));
    periods.fold(Units::new(1), Units::lcm).get()
}

/// Classifies a task set for the reweighting rules: all-light sets can
/// reweight freely; sets with heavy tasks schedule correctly but those
/// tasks must keep their weights (paper §2/§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetClass {
    /// Every weight ≤ 1/2: the full reweighting machinery applies.
    AllLight,
    /// Some weight > 1/2: heavy tasks are static.
    ContainsHeavy,
}

/// Classifies the set.
pub fn classify(weights: &[Weight]) -> SetClass {
    if weights.iter().all(|w| w.is_light()) {
        SetClass::AllLight
    } else {
        SetClass::ContainsHeavy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn w(n: i128, d: i128) -> Weight {
        Weight::new(rat(n, d))
    }

    #[test]
    fn feasibility_is_a_utilization_test() {
        let set = [w(1, 2), w(1, 2), w(1, 2), w(1, 2)];
        assert!(is_feasible(&set, 2));
        assert!(!is_feasible(&set, 1));
        assert_eq!(min_processors(&set), 2);
    }

    #[test]
    fn exactly_full_is_feasible() {
        // The classic 8/11 + 8/11 + 6/11 = 2 set.
        let set = [w(8, 11), w(8, 11), w(6, 11)];
        assert!(is_feasible(&set, 2));
        assert_eq!(total_weight(&set), rat(2, 1));
        assert_eq!(min_processors(&set), 2);
    }

    #[test]
    fn hyperperiod_is_lcm_of_periods() {
        assert_eq!(hyperperiod(&[w(1, 2), w(1, 3)]), 6);
        assert_eq!(hyperperiod(&[w(5, 16), w(2, 5)]), 80);
        assert_eq!(hyperperiod(&[w(3, 20), w(1, 2)]), 20);
        // Reduction matters: 2/4 has period 2.
        assert_eq!(hyperperiod(&[w(2, 4)]), 2);
    }

    #[test]
    fn classification() {
        assert_eq!(classify(&[w(1, 2), w(3, 20)]), SetClass::AllLight);
        assert_eq!(classify(&[w(1, 2), w(2, 3)]), SetClass::ContainsHeavy);
    }

    #[test]
    #[should_panic(expected = "empty task set")]
    fn empty_hyperperiod_panics() {
        let _ = hyperperiod(&[]);
    }

    #[test]
    fn checked_lcm_agrees_with_unchecked_in_range() {
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(7, 7), Some(7));
        assert_eq!(checked_lcm(1, 1), Some(1));
        assert_eq!(checked_lcm(0, 3), None);
        assert_eq!(checked_lcm(-2, 3), None);
    }

    #[test]
    fn checked_lcm_surfaces_overflow() {
        // Two large coprime values whose product exceeds i128.
        let a = (1i128 << 80) + 1; // odd
        let b = 1i128 << 79; // power of two, coprime with a
        assert_eq!(checked_lcm(a, b), None);
        // i128::MAX is its own lcm with 1 and with itself.
        assert_eq!(checked_lcm(i128::MAX, 1), Some(i128::MAX));
        assert_eq!(checked_lcm(i128::MAX, i128::MAX), Some(i128::MAX));
    }

    mod prop {
        use super::super::checked_lcm;
        use proptest::prelude::*;

        /// Euclid, as the reference the shared implementation is held to.
        fn gcd(mut a: i128, mut b: i128) -> i128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }

        proptest! {
            /// Near `i128::MAX` the checked lcm either returns the exact
            /// lcm (verified divisible by both arguments) or `None` —
            /// never a wrapped value.
            #[test]
            fn checked_lcm_near_i128_max(
                a in (i128::MAX - 1_000_000)..i128::MAX,
                b in (0i128..2_000_000).prop_map(|x| {
                    // Half the domain small, half hugging i128::MAX.
                    if x < 1_000_000 { x + 1 } else { i128::MAX - (x - 1_000_000) }
                }),
            ) {
                match checked_lcm(a, b) {
                    Some(l) => {
                        prop_assert!(l > 0);
                        prop_assert_eq!(l % a, 0);
                        prop_assert_eq!(l % b, 0);
                        // Minimality against the closed form.
                        prop_assert_eq!(l, a / gcd(a, b) * b);
                    }
                    None => {
                        // Overflow is genuine: the exact product of the
                        // reduced pair does not fit.
                        let red = a / gcd(a, b);
                        prop_assert!(red.checked_mul(b).is_none());
                    }
                }
            }

            /// In the small domain the checked and unchecked versions
            /// agree exactly.
            #[test]
            fn checked_lcm_agrees_small(a in 1i128..10_000, b in 1i128..10_000) {
                prop_assert_eq!(checked_lcm(a, b), Some(a / gcd(a, b) * b));
            }
        }
    }
}
