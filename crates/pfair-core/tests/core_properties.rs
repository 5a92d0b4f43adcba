//! Property-based tests of the core model invariants:
//!
//! * Rational arithmetic laws (the exactness everything rests on).
//! * Window-structure facts used throughout the paper's proofs.
//! * The appendix's allocation facts AF1–AF4 for the `I_SW`/`I_CSW`
//!   trackers under randomized weights, separations, weight changes,
//!   and halts.

use pfair_core::ideal::{IswReference, IswTracker};
use pfair_core::rational::{rat, Rational};
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, group_deadline, window_in_era, window_len};
use proptest::prelude::*;

fn arb_rat() -> impl Strategy<Value = Rational> {
    (-2000i128..=2000, 1i128..=400).prop_map(|(n, d)| rat(n, d))
}

fn arb_weight() -> impl Strategy<Value = Weight> {
    (1i128..=30, 2i128..=60).prop_map(|(n, d)| Weight::new(rat(n.min(d), d.max(n))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- rational laws -------------------------------------------------

    #[test]
    fn rational_add_is_commutative_and_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn rational_mul_distributes(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rational_sub_is_inverse_of_add(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a + b - b, a);
        prop_assert_eq!(a - a, Rational::ZERO);
    }

    #[test]
    fn rational_ordering_is_total_and_compatible(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a < b, (b - a).is_positive());
        prop_assert_eq!(a == b, (a - b).is_zero());
    }

    #[test]
    fn floor_ceil_bracket(a in arb_rat()) {
        let f = Rational::from_int(a.floor());
        let c = Rational::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!((c - f) <= Rational::ONE);
        prop_assert_eq!(a.is_integer(), f == c);
    }

    #[test]
    fn div_floor_ceil_int_consistency(n in 0i128..500, num in 1i128..40, den in 1i128..80) {
        let w = rat(num.min(den), den.max(num)); // weight ≤ 1
        let fl = w.div_floor_int(n);
        let ce = w.div_ceil_int(n);
        prop_assert!(fl <= ce);
        // fl = ⌊n/w⌋ means fl·w ≤ n < (fl+1)·w.
        prop_assert!(w * fl <= Rational::from_int(n));
        prop_assert!(w * (fl + 1) > Rational::from_int(n) || w * fl == Rational::from_int(n));
    }

    // ---- window facts --------------------------------------------------

    #[test]
    fn window_lengths_bracket_inverse_weight(w in arb_weight(), k in 1u64..200) {
        let len = window_len(w, k);
        let inv = w.value().recip();
        // ⌈1/w⌉ ≤ |w(T_i)| ≤ ⌈1/w⌉ + 1 (standard Pfair fact).
        prop_assert!(Rational::from_int(i128::from(len)) >= inv.ceil().into());
        prop_assert!(len <= inv.ceil() as i64 + 1);
    }

    #[test]
    fn consecutive_windows_overlap_exactly_b(w in arb_weight(), k in 1u64..100) {
        let a = window_in_era(w, k, 0);
        let b = window_in_era(w, k + 1, a.next_release());
        let overlap = a.deadline - b.release;
        prop_assert_eq!(overlap, if a.b { 1 } else { 0 });
    }

    #[test]
    fn windows_tile_one_quantum_each(w in arb_weight()) {
        // Over one period p (weight e/p), exactly e subtasks complete.
        let e = w.value().numer() as u64;
        let p = w.value().denom() as i64;
        let last = window_in_era(
            w,
            e,
            (1..e).fold(0i64, |r, k| window_in_era(w, k, r).next_release()),
        );
        prop_assert_eq!(last.deadline, p);
        prop_assert!(!last.b); // e/w = p is an integer
    }

    #[test]
    fn group_deadline_bounds(w in arb_weight(), k in 1u64..60) {
        let win = window_in_era(w, k, 0);
        let gd = group_deadline(w, k, 0);
        prop_assert!(gd >= win.deadline - 1);
        if w.is_light() {
            prop_assert_eq!(gd, win.deadline);
        } else {
            // The cascade cannot extend past the end of the period after
            // the subtask's own deadline (a b = 0 boundary exists there).
            let p = w.value().denom() as i64;
            prop_assert!(gd <= win.deadline + p);
        }
    }

    // ---- I_SW tracker invariants (AF1–AF4) ------------------------------

    /// Drives one task's tracker with random separations and a single
    /// mid-run weight change, checking AF1 (per-slot allocation ≤ swt)
    /// and completion/accounting invariants.
    #[test]
    fn isw_af_invariants(
        w0 in arb_weight(),
        w1 in arb_weight(),
        seps in prop::collection::vec(0i64..3, 4..10),
        change_at_subtask in 2usize..4,
    ) {
        let horizon = 400i64;
        let mut tr = IswTracker::new(w0.value(), 0);
        // Build the release chain with separations; enact a weight
        // change at the completion of subtask `change_at_subtask` by
        // simply switching swt at its deadline (a decrease-style era).
        let mut release = 0i64;
        let mut weight = w0;
        let mut era_base = 0u64;
        let mut change_slot = i64::MAX;
        let mut sub_windows = Vec::new();
        for (i, sep) in seps.iter().enumerate() {
            let index = i as u64 + 1;
            let rank = index - era_base;
            let win = window_in_era(weight, rank, release);
            let era_first = rank == 1;
            let pred_b = if era_first { false } else { b_bit(weight, rank - 1) };
            sub_windows.push((index, win, era_first, pred_b));
            // Weight change after the chosen subtask: new era.
            if i + 1 == change_at_subtask {
                change_slot = win.deadline;
                era_base = index;
                weight = w1;
                release = win.deadline + 1;
            } else {
                release = win.next_release() + sep;
            }
            // Stop adding once a subtask might not complete within the
            // horizon: windows are at most den + 1 ≤ 61 slots long here.
            if release > horizon - 70 {
                break;
            }
        }
        let n = sub_windows.len();
        let mut completions = 0usize;
        // Each subtask is added at its release, as the usage protocol
        // asks: the tracker retires all but the last two records.
        let mut pending = sub_windows.iter().peekable();
        for t in 0..horizon {
            if t == change_slot {
                tr.set_swt(w1.value());
            }
            while let Some((index, win, era_first, pred_b)) =
                pending.next_if(|(_, win, _, _)| win.release == t)
            {
                tr.add_subtask(*index, win.release, *era_first, *pred_b);
            }
            let (slot_alloc, done) = tr.advance_to(t + 1);
            // AF1: per-slot task allocation never exceeds swt.
            prop_assert!(slot_alloc <= tr.swt(), "slot {}: {} > {}", t, slot_alloc, tr.swt());
            prop_assert!(!slot_alloc.is_negative());
            completions += done.len();
        }
        // Every added subtask eventually completes with exactly one
        // quantum (AF3-adjacent: D exists and ≤ its era deadline).
        prop_assert_eq!(completions, n);
        prop_assert_eq!(tr.isw_total(), Rational::from_int(n as i128));
        prop_assert_eq!(tr.icsw_total(), tr.isw_total()); // nothing halted
    }

    /// Halting: I_CSW takes back exactly the halted subtask's accruals
    /// (AF4: zero allocations outside [r, D)).
    #[test]
    fn halt_accounting(w in arb_weight(), halt_after in 1i64..6) {
        // The per-slot breakdown comes from the independent reference,
        // driven alongside.
        let mut tr = IswTracker::new(w.value(), 0);
        let mut reference = IswReference::new(w.value(), 0);
        tr.add_subtask(1, 0, true, false);
        reference.ref_add(1, 0, true, false);
        let halt_at = halt_after.min(window_in_era(w, 1, 0).deadline - 1);
        for t in 0..halt_at {
            prop_assert_eq!(tr.advance_to(t + 1).0, reference.ref_step(|_, _, _| ()));
        }
        let cum_before = reference.ref_sub(1).unwrap().cum;
        prop_assume!(cum_before < Rational::ONE); // still incomplete
        prop_assert_eq!(tr.halt(1, halt_at), cum_before);
        let halted = reference.ref_halt(1).unwrap();
        let per_slot_sum = halted
            .slots
            .iter()
            .fold(Rational::ZERO, |a, (_, x)| a + *x);
        prop_assert_eq!(per_slot_sum, cum_before);
        // After the halt, the subtask accrues nothing.
        for t in halt_at..halt_at + 5 {
            let (alloc, _) = tr.advance_to(t + 1);
            prop_assert_eq!(alloc, Rational::ZERO);
        }
        prop_assert_eq!(tr.icsw_total(), Rational::ZERO);
    }
}

// ---- overflow boundaries: operands near ±i128::MAX ----------------------
//
// The Rational contract is "exact or a descriptive panic — never a silent
// wrap". These properties drive the constructor, Neg/abs, Div, ceiling,
// and comparison paths with components within 10^6 of the i128 extremes,
// where the pre-audit implementation either wrapped (`unsigned_abs() as
// i128` on i128::MIN) or overflowed while negating (`-num` in Neg/ceil).

fn arb_huge() -> impl Strategy<Value = i128> {
    (0i128..=1_000_000).prop_map(|k| i128::MAX - k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn construction_normalizes_huge_components(n in arb_huge(), d in arb_huge()) {
        let r = rat(n, d);
        prop_assert!(r.denom() > 0);
        // Reduced form: re-normalizing is a no-op.
        prop_assert_eq!(rat(r.numer(), r.denom()), r);
        // Sign normalization moves the sign to the numerator, exactly.
        prop_assert_eq!(rat(n, -d), -r);
        prop_assert_eq!(rat(-n, d), -r);
    }

    #[test]
    fn neg_abs_roundtrip_huge(n in arb_huge(), d in arb_huge()) {
        let r = rat(n, d);
        prop_assert_eq!(-(-r), r);
        prop_assert_eq!(r.abs(), r);
        prop_assert_eq!((-r).abs(), r);
    }

    #[test]
    fn identities_hold_at_huge_magnitudes(n in arb_huge(), d in arb_huge()) {
        let r = rat(n, d);
        prop_assert_eq!(r + Rational::ZERO, r);
        prop_assert_eq!(r - r, Rational::ZERO);
        prop_assert_eq!(r * Rational::ONE, r);
        // Div cross-reduces, so even r/r with huge components is exact.
        prop_assert_eq!(r / r, Rational::ONE);
        prop_assert_eq!(r.recip().recip(), r);
    }

    #[test]
    fn ordering_is_exact_at_the_extremes(a in arb_huge(), b in arb_huge()) {
        // Huge numerators over den = 1: ordering matches the integers.
        prop_assert_eq!(
            Rational::from_int(a).cmp(&Rational::from_int(b)),
            a.cmp(&b)
        );
        // Huge denominators: 1/a vs 1/b inverts the order.
        prop_assert_eq!(rat(1, a).cmp(&rat(1, b)), b.cmp(&a));
    }

    #[test]
    fn ceil_survives_min_numerator(k in 1i128..=500_000) {
        // Odd denominator keeps the reduced numerator at exactly
        // i128::MIN (gcd(2^127, odd) = 1); the old `-((-num).div_euclid(d))`
        // ceiling overflowed here.
        let d = 2 * k + 1;
        let r = Rational::new(i128::MIN, d);
        prop_assert_eq!(r.numer(), i128::MIN);
        prop_assert_eq!(r.floor(), i128::MIN.div_euclid(d));
        prop_assert_eq!(r.ceil(), r.floor() + 1); // never exact for d > 1 odd
    }

    #[test]
    fn int_division_near_max(n in arb_huge(), k in 1i128..1000) {
        let w = Rational::from_int(k);
        let fl = w.div_floor_int(n);
        let ce = w.div_ceil_int(n);
        prop_assert_eq!(fl, n.div_euclid(k));
        prop_assert!(ce == fl || ce == fl + 1);
        prop_assert_eq!(ce == fl, n % k == 0);
    }
}

/// The documented overflow panics fire with their advertised messages —
/// overflow is loud, never a wrap.
#[test]
fn overflow_panics_are_descriptive() {
    fn panics_with(f: impl FnOnce() + std::panic::UnwindSafe, needle: &str) {
        let err = std::panic::catch_unwind(f).expect_err("operation should panic");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains(needle),
            "panic message {msg:?} lacks {needle:?}"
        );
    }

    let min = Rational::from_int(i128::MIN);
    let max = Rational::from_int(i128::MAX);
    panics_with(
        || {
            let _ = -min;
        },
        "Rational::neg overflow",
    );
    panics_with(
        || {
            let _ = min.abs();
        },
        "Rational::abs overflow",
    );
    panics_with(
        || {
            let _ = Rational::new(i128::MIN, -1);
        },
        "Rational::new overflow",
    );
    panics_with(
        || {
            let _ = max + max;
        },
        "Rational add overflow",
    );
    panics_with(
        || {
            let _ = max * max;
        },
        "Rational mul overflow",
    );
    // cmp cross-multiplies: MAX/2 vs (MAX-2)/3 needs MAX·3.
    panics_with(
        || {
            let _ = rat(i128::MAX, 2).cmp(&rat(i128::MAX - 2, 3));
        },
        "Rational cmp overflow",
    );
}

/// i128::MIN numerators that reduce stay exact.
#[test]
fn min_numerator_reduces_exactly() {
    let r = Rational::new(i128::MIN, 2);
    assert_eq!(r, Rational::from_int(i128::MIN / 2));
    assert_eq!(Rational::new(i128::MIN, 4).denom(), 1);
}
