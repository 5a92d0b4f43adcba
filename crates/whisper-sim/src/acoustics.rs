//! The correlation cost model: acoustic distance → task weight.
//!
//! Whisper localizes a speaker by correlating the white-noise signal it
//! emits against what each microphone receives; the time shift of the
//! correlation peak gives the distance. The cost of one tracking update
//! is dominated by accumulate-and-multiply operations over the
//! correlation search window, and that window grows with
//!
//! 1. the **distance** (a longer flight time means more candidate
//!    shifts to test), and
//! 2. **occlusion** (a blocked line of sight degrades the previous
//!    prediction, so a much larger space must be searched — the paper's
//!    motivation for shares varying by up to two orders of magnitude).
//!
//! The paper calibrated this cost by timing the accumulate-and-multiply
//! kernel on the simulated 2.7 GHz testbed; here the same calibration is
//! expressed analytically (DESIGN.md, substitution 1):
//!
//! ```text
//! d_eff        = d · (OCCLUSION_FACTOR if the pole blocks the pair)
//! window(d_eff)= W_BASE + W_SLOPE · d_eff          search window
//! weight       = clamp(window · K / f_cpu · f_track, [W_MIN, 1/3])
//!                (f_cpu = 2.7 GHz, f_track = 1 kHz per pair)
//! ```
//!
//! Constants are anchored so that (i) the maximum weight is the paper's
//! 1/3, reached at an effective distance of [`SATURATION_DISTANCE_M`],
//! (ii) the minimum weight is about 1/40 (an order-of-magnitude dynamic
//! range, as in the paper's runs), and (iii) a three-speaker scenario at
//! the paper's geometry keeps the four-processor system *nearly* loaded
//! — the paper notes there is not enough capacity for worst-case static
//! allocation, so condition-(W) policing matters.
//!
//! Weights are quantized onto a fixed denominator so exact rational
//! bookkeeping stays cheap over long runs, and are re-quantized only
//! when the *effective* distance has moved 5 cm (the paper's sixth
//! simplifying assumption; an occlusion onset moves it a lot at once).

use pfair_core::rational::Rational;
use pfair_core::weight::Weight;

/// Distance hysteresis: a task reweights only when its effective
/// acoustic distance has changed by 5 cm (paper §5, assumption 6).
pub const REWEIGHT_DISTANCE_M: f64 = 0.05;
/// Effective-distance multiplier while the pole blocks the pair: the
/// degraded prediction widens the correlation search.
pub const OCCLUSION_FACTOR: f64 = 1.8;
/// Effective distance at which the weight saturates at 1/3.
pub const SATURATION_DISTANCE_M: f64 = 0.60;
/// Distance over which the correlation cost grows by one order of
/// magnitude: the exponential steepness of the search-space growth.
/// With the room geometry this spans roughly one decade of weights per
/// run — "the variance can be as much as two orders of magnitude"
/// (paper §1) bounded by the 1/3 cap and the tracking floor here.
pub const DECADE_DISTANCE_M: f64 = 0.40;

/// Fixed denominator for quantized weights. 2520 = lcm(1..=9) keeps the
/// rationals produced by mixing quantized weights small.
pub const WEIGHT_DENOM: i128 = 2520;
/// Minimum quantized weight (≈ 1/101): the near-field tracking floor.
pub const MIN_WEIGHT_NUM: i128 = 25;
/// Maximum quantized weight: exactly 1/3 (the paper's Whisper bound).
pub const MAX_WEIGHT_NUM: i128 = WEIGHT_DENOM / 3;

/// Effective acoustic distance: the direct distance, stretched by the
/// prediction penalty while occluded.
pub fn effective_distance(direct: f64, occluded: bool) -> f64 {
    if occluded {
        direct * OCCLUSION_FACTOR
    } else {
        direct
    }
}

/// The unquantized processor share demanded at effective distance `d`:
/// exponential growth (one decade per [`DECADE_DISTANCE_M`]) between the
/// tracking floor and the 1/3 cap reached at [`SATURATION_DISTANCE_M`].
/// The exponential shape is what makes the workload genuinely adaptive:
/// a 5 cm step changes the weight by a constant *factor* (≈ 23%), so a
/// speaker receding from a microphone ramps its task through an order of
/// magnitude of weights — the regime in which coarse-grained reweighting
/// falls behind.
pub fn raw_weight(d_eff: f64) -> f64 {
    let w_min = MIN_WEIGHT_NUM as f64 / WEIGHT_DENOM as f64;
    let w_max = 1.0 / 3.0;
    (w_max * 10f64.powf((d_eff - SATURATION_DISTANCE_M) / DECADE_DISTANCE_M)).clamp(w_min, w_max)
}

/// The quantized task weight at effective distance `d_eff`.
pub fn weight_at(d_eff: f64) -> Weight {
    let q = (raw_weight(d_eff) * WEIGHT_DENOM as f64).round() as i128;
    let q = q.clamp(MIN_WEIGHT_NUM, MAX_WEIGHT_NUM);
    Weight::new(Rational::new(q, WEIGHT_DENOM))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn calibration_anchors_max_weight_to_one_third() {
        assert_eq!(weight_at(SATURATION_DISTANCE_M).value(), rat(1, 3));
        assert_eq!(weight_at(10.0).value(), rat(1, 3)); // saturated
    }

    #[test]
    fn weight_is_monotone_in_distance() {
        let mut last = weight_at(0.0);
        for step in 1..=40 {
            let d = f64::from(step) * 0.05;
            let w = weight_at(d);
            assert!(w >= last, "weight should not decrease with distance");
            last = w;
        }
    }

    #[test]
    fn dynamic_range_is_about_an_order_of_magnitude() {
        let lo = weight_at(0.0).to_f64();
        let hi = weight_at(SATURATION_DISTANCE_M).to_f64();
        let ratio = hi / lo;
        assert!(
            (5.0..=40.0).contains(&ratio),
            "dynamic range {ratio} outside the paper's order-of-magnitude regime"
        );
    }

    #[test]
    fn all_weights_are_light_and_at_most_one_third() {
        for step in 0..=40 {
            let d = f64::from(step) * 0.05;
            let w = weight_at(d);
            assert!(w.is_light());
            assert!(w.value() <= rat(1, 3));
            assert!(w.value() >= rat(MIN_WEIGHT_NUM, WEIGHT_DENOM));
        }
    }

    #[test]
    fn occlusion_stretches_the_effective_distance() {
        let d = 0.5;
        assert!(effective_distance(d, true) > effective_distance(d, false));
        // An occlusion onset at mid-range jumps well past the 5 cm
        // hysteresis — the sudden large reweights the paper's motivation
        // describes.
        assert!(effective_distance(d, true) - d > REWEIGHT_DISTANCE_M);
        // And it can push the weight to the 1/3 cap.
        assert_eq!(weight_at(effective_distance(d, true)).value(), rat(1, 3));
    }

    #[test]
    fn worst_case_exceeds_static_capacity() {
        // "There is not sufficient capacity on the assumed system to
        // statically allocate each task the capacity it needs to perform
        // all calculations in the worst case" (paper §5): 12 pair-tasks
        // at the occluded/far-field maximum of 1/3 each want 4.0 — the
        // full four-processor capacity — while typical demand is well
        // below it, so adaptation (not static allocation) is required.
        let worst = 12.0 * weight_at(2.0).to_f64();
        assert!((worst - 4.0).abs() < 1e-9);
        let corner_dists = [0.46, 0.71, 0.96]; // near / typical / far
        let typical: f64 = corner_dists
            .iter()
            .map(|d| weight_at(*d).to_f64())
            .sum::<f64>()
            / 3.0
            * 12.0;
        assert!(
            typical < 3.9,
            "typical load {typical} should leave adaptation headroom"
        );
        assert!(
            typical > 2.0,
            "typical load {typical} should keep the system stressed"
        );
    }
}
