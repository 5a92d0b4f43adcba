//! The one-unit sum against the exact `Rational` sum.
//!
//! [`Accumulator`] counts in a unit that only gets finer and folds into
//! its base only where a recount, or an add, would leave `i64`. Two sums
//! are walked through random unit changes (`refine`), counts in any unit
//! (`add_units`) and rationals (`plus`), each beside the plain sum of
//! what it was given. After every step each value is the exact sum, a
//! refinement leaves a multiple of the unit asked for, the difference
//! (`minus`) is the difference of the values, and equality is equality
//! of the values. The units are divisors of 5 040 and two primes near
//! 2²⁸ and 2²⁹, whose lcm with the others leaves `i64`: those cases take
//! the fold path, and a case that never meets one never folds.
//!
//! `PROPTEST_CASES` raises the case count (CI runs this file in release
//! mode with more).

use pfair_core::rational::{Accumulator, Rational, Units};
use proptest::prelude::*;

/// Divisors of 5 040, then two primes: 2²⁸ − 57 and 2²⁹ − 3.
const UNITS: [i64; 11] = [1, 2, 3, 8, 12, 15, 16, 60, 5040, 268_435_399, 536_870_909];

/// Units below this index divide 5 040.
const SMALL: usize = 9;

/// One step: `0` refines, `1` adds a count, `2` adds a rational; the
/// unit's index; the count or numerator; which of the two sums.
type Step = (u8, usize, i64, u8);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..3, 0usize..UNITS.len(), -(1i64 << 20)..=1 << 20, 0u8..2),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn one_unit_sum_is_the_exact_sum(steps in steps()) {
        let mut sums = [Accumulator::new(), Accumulator::new()];
        let mut exact = [Rational::ZERO; 2];
        let mut only_small = true;
        for (op, unit_at, n, which) in steps {
            let unit = Units::new(UNITS[unit_at]);
            only_small &= unit_at < SMALL;
            let i = usize::from(which);
            match op {
                0 => {
                    sums[i].refine(unit);
                    prop_assert_eq!(sums[i].unit().get() % unit.get(), 0);
                }
                1 => {
                    sums[i].add_units(Units::new(n), unit);
                    exact[i] += Units::new(n).over(unit);
                    prop_assert_eq!(sums[i].unit().get() % unit.get(), 0);
                }
                _ => {
                    let r = Units::new(n).over(unit);
                    sums[i] = sums[i].clone().plus(r);
                    exact[i] += r;
                }
            }
            for (sum, exact) in sums.iter().zip(exact) {
                prop_assert_eq!(sum.finish(), exact);
                prop_assert_eq!(sum.checked_finish(), Some(exact));
                prop_assert!(!only_small || !sum.is_folded(), "folded below i64: {:?}", sum);
            }
            let [a, b] = &sums;
            prop_assert_eq!(a.minus(b), a.finish() - b.finish());
            prop_assert_eq!(b.minus(a), exact[1] - exact[0]);
            prop_assert_eq!(a == b, exact[0] == exact[1]);
            prop_assert_eq!(a.clone(), Accumulator::from(exact[0]));
        }
    }
}
