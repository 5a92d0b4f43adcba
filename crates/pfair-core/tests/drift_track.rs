//! The compact drift track against a plain `Vec<DriftSample>`.
//!
//! [`DriftTrack`] stores a sample in one 24-byte entry while its
//! numerator and denominator fit `i64`, and in three entries when they
//! do not. The reference below is what the track stored before that:
//! every sample whole, in a vector, read by the obvious loops. Every
//! case records the same samples into both and compares everything a
//! caller can see: the decoded samples from either end, the count, the
//! JSON bytes in both layouts and their decoding back, `at(t)` at every
//! slot around the track, `max_abs`, the per-event deltas and their
//! maximum, `append` at every cut, `clone_from` over another track, and
//! the `Debug` text.
//!
//! The draws mix components at the edges of the encoding: `i64::MIN`
//! and `i64::MAX` halves, denominators 2⁶³ − 1 (the widest narrow one)
//! and 2⁶³ (the narrowest wide one), `i128` extremes, and random values
//! of every width. Where the reference's arithmetic would overflow
//! `i128` (a delta between two extremes, the magnitude of `i128::MIN`,
//! the cross products comparing two extremes), that figure is not
//! compared: both sides would panic, by `Rational`'s contract.
//!
//! `PROPTEST_CASES` raises the case count (CI runs this file in release
//! mode with more).

use pfair_core::drift::{DriftSample, DriftTrack};
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use pfair_json::{FromJson, Json, JsonWriter, ToJson};
use proptest::prelude::*;

const I64_MIN: i128 = -(1 << 63);
const I64_MAX: i128 = (1 << 63) - 1;

/// Numerators at the edges of the narrow form and of `i128`.
const NUMERATORS: [i128; 11] = [
    0,
    1,
    -1,
    I64_MIN,
    I64_MAX,
    I64_MIN - 1,
    I64_MAX + 1,
    -(1 << 64),
    i128::MIN,
    i128::MIN + 1,
    i128::MAX,
];

/// Positive denominators at the same edges.
const DENOMINATORS: [i128; 7] = [
    1,
    2,
    I64_MAX,
    I64_MAX + 1,
    1 << 64,
    i128::MAX - 1,
    i128::MAX,
];

/// A component: one of `specials` half the time, else one anywhere in
/// `lo..i128::MAX`, one within `i64`, or (most often) a small value.
fn component(specials: &'static [i128], lo: i128) -> impl Strategy<Value = i128> {
    (
        0..2 * specials.len(),
        -50i128..50,
        I64_MIN..=I64_MAX,
        lo..i128::MAX,
    )
        .prop_map(move |(pick, small, narrow, any)| match specials.get(pick) {
            Some(&special) => special,
            None => match pick - specials.len() {
                0 => any,
                1 => narrow,
                _ => small,
            },
        })
}

fn arb_drift() -> impl Strategy<Value = Rational> {
    (
        component(&NUMERATORS, i128::MIN),
        component(&DENOMINATORS, 1),
    )
        .prop_map(|(num, den)| Rational::new(num, den.max(1)))
}

/// Samples in time order (equal slots allowed, as `record` allows),
/// starting anywhere in `Slot`'s range.
fn arb_samples() -> impl Strategy<Value = Vec<DriftSample>> {
    (
        prop::collection::vec((0i64..4, arb_drift()), 0..12),
        (0usize..3, -1_000i64..1_000),
    )
        .prop_map(|(steps, (edge, start))| {
            let total: i64 = steps.iter().map(|(gap, _)| gap).sum();
            let mut at = [start, i64::MIN, i64::MAX - total][edge];
            steps
                .into_iter()
                .map(|(gap, drift)| {
                    at += gap;
                    DriftSample { at, drift }
                })
                .collect()
        })
}

fn track_of(samples: &[DriftSample]) -> DriftTrack {
    let mut track = DriftTrack::new();
    for s in samples {
        track.record(s.at, s.drift);
    }
    track
}

/// The rendering the track had when it held its samples in a vector.
fn reference_json(samples: &[DriftSample], mut w: JsonWriter) -> String {
    w.begin_object().field("samples", samples);
    w.end_object();
    w.into_string()
}

fn reference_at(samples: &[DriftSample], t: Slot) -> Rational {
    (samples.iter().rev())
        .find(|s| s.at <= t)
        .map_or(Rational::ZERO, |s| s.drift)
}

/// `|r|`, or `None` where it overflows `i128`.
fn magnitude(r: Rational) -> Option<Rational> {
    r.numer().checked_abs().map(|n| Rational::new(n, r.denom()))
}

/// The per-event deltas, or `None` where one overflows `i128`.
fn reference_deltas(samples: &[DriftSample]) -> Option<Vec<Rational>> {
    let mut prev = Rational::ZERO;
    samples
        .iter()
        .map(|s| {
            let d = s.drift.checked_sub(prev)?;
            prev = s.drift;
            Some(d)
        })
        .collect()
}

/// The largest magnitude, or `None` where one, or a comparison of two,
/// overflows.
fn reference_max_abs(values: &[Rational]) -> Option<Rational> {
    values.iter().try_fold(Rational::ZERO, |m, &v| {
        let v = magnitude(v)?;
        Some(if m.checked_cmp(&v)?.is_lt() { v } else { m })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compact_track_matches_a_vector_of_samples(
        samples in arb_samples(),
        (cut, other) in (0usize..13, arb_samples()),
    ) {
        let track = track_of(&samples);

        // Decoding, from either end, and the count.
        let forward: Vec<DriftSample> = track.samples().collect();
        prop_assert_eq!(&forward, &samples);
        let mut backward: Vec<DriftSample> = track.samples().rev().collect();
        backward.reverse();
        prop_assert_eq!(&backward, &samples);
        prop_assert_eq!(track.len(), samples.len());
        prop_assert_eq!(track.is_empty(), samples.is_empty());
        prop_assert!((&track).into_iter().eq(samples.iter().copied()));
        prop_assert_eq!(format!("{track:?}"), format!("{samples:?}"));

        // The JSON bytes, and their decoding back to an equal track.
        let compact = track.to_json_compact();
        prop_assert_eq!(&compact, &reference_json(&samples, JsonWriter::compact()));
        prop_assert_eq!(track.to_json_pretty(), reference_json(&samples, JsonWriter::pretty()));
        let parsed = Json::parse(&compact).expect("the rendering parses");
        prop_assert_eq!(DriftTrack::from_json(&parsed).expect("decodes"), track.clone());
        let mut reversed = samples.clone();
        reversed.reverse();
        if reversed.windows(2).any(|w| w[0].at > w[1].at) {
            let text = reference_json(&reversed, JsonWriter::compact());
            let err = DriftTrack::from_json(&Json::parse(&text).expect("parses"))
                .expect_err("samples out of time order are refused");
            prop_assert_eq!(err.message, "drift samples out of time order");
        }

        // `at(t)` at every slot the track covers, and one either side.
        if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
            let from = first.at.saturating_sub(1);
            let to = last.at.saturating_add(1);
            for t in from..=to {
                prop_assert_eq!(track.at(t), reference_at(&samples, t), "at({})", t);
            }
        }
        prop_assert_eq!(track.at(Slot::MIN), reference_at(&samples, Slot::MIN));
        prop_assert_eq!(track.at(Slot::MAX), reference_at(&samples, Slot::MAX));

        // The maxima, where the reference's arithmetic stays in `i128`.
        let drifts: Vec<Rational> = samples.iter().map(|s| s.drift).collect();
        if let Some(max) = reference_max_abs(&drifts) {
            prop_assert_eq!(track.max_abs(), max);
        }
        if let Some(deltas) = reference_deltas(&samples) {
            prop_assert!(track.per_event_deltas().eq(deltas.iter().copied()));
            if let Some(max) = reference_max_abs(&deltas) {
                prop_assert_eq!(track.max_abs_delta(), max);
            }
        }

        // Appending the tail at any cut rebuilds the whole track, and
        // empties the tail.
        let cut = cut.min(samples.len());
        let mut head = track_of(&samples[..cut]);
        let mut tail = track_of(&samples[cut..]);
        head.append(&mut tail);
        prop_assert_eq!(&head, &track);
        prop_assert!(tail.is_empty());

        // `clone_from` over a track holding other samples.
        let mut copy = track_of(&other);
        copy.clone_from(&track);
        prop_assert_eq!(&copy, &track);
        prop_assert!(copy.samples().eq(samples.iter().copied()));
        prop_assert_eq!(track_of(&other) == track, other == samples);
    }
}
