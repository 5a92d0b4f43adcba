//! Drift: the permanent allocation error caused by reweighting.
//!
//! When a task reweights, practical schemes cannot enact the change
//! instantaneously; the allocation lost (or gained) relative to the
//! instantaneous ideal `I_PS` shifts the center of the task's lag-bound
//! range. That shift is the *drift* (paper §4.1, Eqn (5)):
//!
//! ```text
//! drift(T, t) = A(I_PS, T, 0, u) − A(I_CSW, T, 0, u)
//! ```
//!
//! where `u` is the release of the last era-opening subtask (`Id(T_i) = i`)
//! at or before `t` (or `u = t` before the task's first subtask). Drift
//! is therefore piecewise constant, changing only at era boundaries; a
//! reweighting scheme is **fine-grained** iff the per-event change in
//! drift is bounded by a constant (PD²-OI guarantees 2, Theorem 5), and
//! **coarse-grained** otherwise (PD²-LJ's per-event drift grows with
//! `1/weight`, Theorem 3).
//!
//! The simulation engine records one [`DriftSample`] per era boundary —
//! evaluating `A(I_PS, …)` and `A(I_CSW, …)` exactly at the boundary —
//! and this module answers queries over those samples. Because drift is
//! only ever read at these boundaries, the engine does not need per-slot
//! tracker state: it advances the ideal trackers in closed form to each
//! boundary (an event-driven synchronization) and samples there, which
//! yields bit-identical values to per-slot accumulation.
//!
//! ```
//! use pfair_core::drift::DriftTrack;
//! use pfair_core::rat;
//!
//! let mut track = DriftTrack::new();
//! track.record(0, rat(0, 1));              // join: zero drift
//! track.record(10, rat(3, 2) - rat(1, 1)); // Fig. 6(b): drift 1/2 from t = 10
//! assert_eq!(track.at(9), rat(0, 1));
//! assert_eq!(track.at(10), rat(1, 2));
//! assert_eq!(track.max_abs_delta(), rat(1, 2)); // fine-grained: ≤ 2
//! ```

use crate::rational::Rational;
use crate::time::Slot;

/// Drift value established at an era boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriftSample {
    /// `u`: the release slot of the era-opening subtask.
    pub at: Slot,
    /// `drift(T, t)` for all `t` from `u` until the next sample.
    pub drift: Rational,
}

/// One stored entry: 24 bytes, where a [`DriftSample`] takes 48.
///
/// A sample whose numerator and denominator both fit `i64` is one
/// entry, `{ at, num, den }` with `den > 0`. Any other sample is three
/// entries with `den == 0`: a marker `{ at, 0, 0 }`, then the
/// numerator's high and low 64-bit halves in the `at` and `num` of the
/// next entry, then the denominator's in the one after. A sample is
/// stored narrow if and only if it fits, so equal tracks hold equal
/// entries; and a wide sample is three `den == 0` entries from either
/// end, so the track decodes forward and backward alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    at: i64,
    num: i64,
    den: i64,
}

/// `v`'s high half and the bits of its low half, as `i64`s.
#[inline]
fn split(v: i128) -> (i64, i64) {
    // An arithmetic shift by 64 leaves a value in `i64`'s range, and the
    // mask one in `u64`'s: neither conversion can fail.
    let high = i64::try_from(v >> 64).unwrap_or_default();
    let low = u64::try_from(v & i128::from(u64::MAX)).unwrap_or_default();
    (high, low.cast_signed())
}

/// The `i128` whose halves [`split`] returned.
#[inline]
fn join(high: i64, low: i64) -> i128 {
    (i128::from(high) << 64) | i128::from(low.cast_unsigned())
}

impl Entry {
    #[inline]
    fn narrow(&self) -> DriftSample {
        DriftSample {
            at: self.at,
            drift: Rational::from_canonical(i128::from(self.num), i128::from(self.den)),
        }
    }

    /// The sample a marker and its two continuation entries encode.
    fn wide(marker: &Entry, num: &Entry, den: &Entry) -> DriftSample {
        DriftSample {
            at: marker.at,
            drift: Rational::from_canonical(join(num.at, num.num), join(den.at, den.num)),
        }
    }
}

/// The samples of a [`DriftTrack`], in time order, decoded one at a
/// time: what [`DriftTrack::samples`] returns.
#[derive(Clone, Debug)]
pub struct Samples<'a> {
    rest: &'a [Entry],
}

impl Iterator for Samples<'_> {
    type Item = DriftSample;

    #[inline]
    fn next(&mut self) -> Option<DriftSample> {
        let (sample, rest) = match self.rest {
            [e, rest @ ..] if e.den != 0 => (e.narrow(), rest),
            [marker, num, den, rest @ ..] => (Entry::wide(marker, num, den), rest),
            _ => return None,
        };
        self.rest = rest;
        Some(sample)
    }
}

impl DoubleEndedIterator for Samples<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<DriftSample> {
        let (rest, sample) = match self.rest {
            [rest @ .., e] if e.den != 0 => (rest, e.narrow()),
            [rest @ .., marker, num, den] => (rest, Entry::wide(marker, num, den)),
            _ => return None,
        };
        self.rest = rest;
        Some(sample)
    }
}

impl std::iter::FusedIterator for Samples<'_> {}

/// Piecewise-constant drift history of a single task.
///
/// The samples are stored 24 bytes each while their components fit
/// `i64`, and exactly in three such entries when they do not (see
/// `Entry`); [`DriftTrack::samples`] decodes them.
#[derive(Default, PartialEq, Eq)]
pub struct DriftTrack {
    entries: Vec<Entry>,
}

impl std::fmt::Debug for DriftTrack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.samples()).finish()
    }
}

impl Clone for DriftTrack {
    fn clone(&self) -> Self {
        DriftTrack {
            entries: self.entries.clone(),
        }
    }

    /// Into the buffer this track already holds.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl<'a> IntoIterator for &'a DriftTrack {
    type Item = DriftSample;
    type IntoIter = Samples<'a>;

    fn into_iter(self) -> Samples<'a> {
        self.samples()
    }
}

impl pfair_json::ToJson for DriftSample {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object()
            .field("at", &self.at)
            .field("drift", &self.drift);
        w.end_object();
    }
}

impl pfair_json::FromJson for DriftSample {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        Ok(DriftSample {
            at: value.field("at")?,
            drift: value.field("drift")?,
        })
    }
}

impl pfair_json::ToJson for DriftTrack {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object().key("samples");
        self.write_samples(w);
        w.end_object();
    }
}

impl pfair_json::FromJson for DriftTrack {
    /// Re-validates the time-ordering invariant of the samples.
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        use pfair_json::{Json, JsonError};
        let field = |message: &str| JsonError::new(format!("field `samples`: {message}"));
        let items = match value.get("samples") {
            Some(Json::Array(items)) => items,
            Some(_) => return Err(field("expected an array")),
            None => return Err(JsonError::new("missing field `samples`")),
        };
        let mut track = DriftTrack {
            entries: Vec::with_capacity(items.len()),
        };
        for item in items {
            let sample = DriftSample::from_json(item).map_err(|e| field(&e.message))?;
            if track.last_at().is_some_and(|last| last > sample.at) {
                return Err(JsonError::new("drift samples out of time order"));
            }
            track.push(sample);
        }
        Ok(track)
    }
}

impl DriftTrack {
    /// An empty track (drift 0 everywhere).
    pub fn new() -> DriftTrack {
        DriftTrack {
            entries: Vec::new(),
        }
    }

    /// Records the drift established at era boundary `u`:
    /// `A(I_PS, T, 0, u) − A(I_CSW, T, 0, u)`, which the caller takes
    /// once and may report too.
    ///
    /// # Panics
    /// Panics if samples are recorded out of time order.
    #[inline]
    pub fn record(&mut self, u: Slot, drift: Rational) {
        if let Some(last) = self.last_at() {
            // audit: allow(panic-reach, monotone-time invariant of the drift track, a violation is an engine bug)
            assert!(last <= u, "drift samples must be recorded in time order");
        }
        if self.entries.is_empty() {
            // Most tasks never reweight and keep the one sample their
            // join records: give it a one-entry block, not the four a
            // first `push` would reserve.
            self.entries.reserve_exact(1);
        }
        self.push(DriftSample { at: u, drift });
    }

    /// Before a sample at `u` of a run that ends at `end`: where the
    /// buffer is full and holds four entries or more, grows it by what
    /// the track's pace so far predicts up to `end` — as many entries
    /// again per slot as it holds per slot since its first sample, and
    /// an eighth more — by at least half and at most eight times what
    /// it holds. A
    /// task that keeps changing at a steady pace then regrows its buffer
    /// twice a run, to four entries and to about its run's count,
    /// instead of at every doubling; one that changed once or twice
    /// keeps the four entries its second sample took, and a static one
    /// its one.
    pub fn reserve_until(&mut self, u: Slot, end: Slot) {
        let held = self.entries.len();
        if held < 4 || held < self.entries.capacity() {
            return;
        }
        let since = self.entries.first().map_or(u, |e| e.at);
        let (elapsed, ahead) = (u.saturating_sub(since), end.saturating_sub(u).max(0));
        // `held` entries over `elapsed` slots, projected over `ahead`,
        // and an eighth more: a pace read off a few samples is rough.
        let held_wide = i128::try_from(held).unwrap_or(i128::MAX);
        let paced = held_wide.saturating_mul(i128::from(ahead)) / i128::from(elapsed).max(1);
        let paced = usize::try_from(paced).unwrap_or(usize::MAX);
        let paced = paced.saturating_add(paced / 8 + 1);
        self.entries
            .reserve_exact(paced.clamp(held / 2, held.saturating_mul(8)));
    }

    /// Appends `sample`'s entries, narrow if its components fit `i64`.
    #[inline]
    fn push(&mut self, sample: DriftSample) {
        let DriftSample { at, drift } = sample;
        match (i64::try_from(drift.numer()), i64::try_from(drift.denom())) {
            (Ok(num), Ok(den)) => self.entries.push(Entry { at, num, den }),
            _ => {
                let (num_high, num_low) = split(drift.numer());
                let (den_high, den_low) = split(drift.denom());
                self.entries.extend([
                    Entry { at, num: 0, den: 0 },
                    Entry {
                        at: num_high,
                        num: num_low,
                        den: 0,
                    },
                    Entry {
                        at: den_high,
                        num: den_low,
                        den: 0,
                    },
                ]);
            }
        }
    }

    /// The slot of the latest sample.
    #[inline]
    fn last_at(&self) -> Option<Slot> {
        self.samples().next_back().map(|s| s.at)
    }

    /// `drift(T, t)`: the most recent sample at or before `t`, or zero if
    /// no era boundary has occurred yet.
    #[inline]
    pub fn at(&self, t: Slot) -> Rational {
        self.samples()
            .rev()
            .find(|s| s.at <= t)
            .map_or(Rational::ZERO, |s| s.drift)
    }

    /// All recorded samples, in time order.
    #[inline]
    pub fn samples(&self) -> Samples<'_> {
        Samples {
            rest: &self.entries,
        }
    }

    /// Writes the samples as a bare JSON array, each decoded as it is
    /// written: the `samples` member of the track's own rendering.
    pub fn write_samples(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_array();
        for sample in self.samples() {
            pfair_json::ToJson::write_json(&sample, w);
        }
        w.end_array();
    }

    /// The number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples().count()
    }

    /// No sample recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Moves `other`'s samples to the end of this track, leaving `other`
    /// empty; an empty track takes `other`'s buffer whole. The samples
    /// are taken as they stand: `other`'s must not precede this track's.
    pub fn append(&mut self, other: &mut DriftTrack) {
        if self.entries.is_empty() {
            std::mem::swap(&mut self.entries, &mut other.entries);
        } else {
            self.entries.append(&mut other.entries);
        }
    }

    /// Releases the growth slack of the sample buffer — for a track
    /// that is done recording and about to be kept in a result.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// The drift *added* by each reweighting event: successive
    /// differences of the samples (the first sample differs from the
    /// implicit zero before it). Theorem 5 bounds each of these by 2 in
    /// absolute value under PD²-OI.
    pub fn per_event_deltas(&self) -> impl Iterator<Item = Rational> + '_ {
        self.samples().scan(Rational::ZERO, |prev, s| {
            let d = s.drift - *prev;
            *prev = s.drift;
            Some(d)
        })
    }

    /// The largest absolute drift value ever reached.
    pub fn max_abs(&self) -> Rational {
        self.samples()
            .map(|s| s.drift.abs())
            .fold(Rational::ZERO, Rational::max)
    }

    /// The largest absolute per-event drift delta.
    pub fn max_abs_delta(&self) -> Rational {
        self.per_event_deltas()
            .map(Rational::abs)
            .fold(Rational::ZERO, Rational::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn deltas(track: &DriftTrack) -> Vec<Rational> {
        track.per_event_deltas().collect()
    }

    /// A task changing every 100 slots of a 2 400-slot run takes a
    /// one-entry block at its join, four entries at its first change and
    /// its run's worth at its fourth, and never grows again; a static
    /// one keeps its one entry.
    #[test]
    fn a_steady_changer_grows_its_buffer_three_times() {
        let mut track = DriftTrack::new();
        let mut capacities = vec![];
        for u in (0..2_400).step_by(100) {
            track.reserve_until(u, 2_400);
            track.record(u, rat(u.into(), 7));
            let capacity = track.entries.capacity();
            if capacities.last() != Some(&capacity) {
                capacities.push(capacity);
            }
        }
        assert_eq!(track.len(), 24);
        assert_eq!(capacities, [1, 4, 27]);
        let mut static_row = DriftTrack::new();
        static_row.reserve_until(0, 2_400);
        static_row.record(0, Rational::ZERO);
        assert_eq!(static_row.entries.capacity(), 1);
    }

    /// Fig. 6(b): drift of T is 0 at t = 9 and 1/2 from t = 10 (the rule-O
    /// reweighting event at time 10 halts T_2, losing its 1/2 I_CSW
    /// allocation).
    #[test]
    fn fig6b_drift_steps_at_era_boundary() {
        let mut track = DriftTrack::new();
        track.record(0, Rational::ZERO); // join
        track.record(10, rat(3, 2) - Rational::ONE); // reweight enacted at 10
        assert_eq!(track.at(9), Rational::ZERO);
        assert_eq!(track.at(10), rat(1, 2));
        assert_eq!(track.at(100), rat(1, 2));
        assert_eq!(deltas(&track), vec![Rational::ZERO, rat(1, 2)]);
    }

    /// Fig. 6(d): T (2/5 → 3/20 at t = 1) is decreased by rule I. Over
    /// `[0, 4)` `I_PS` gives it 2/5 in slot 0 and 3/20 in each of slots
    /// 1–3, A(I_PS, 0, 4) = 17/20, while `I_CSW` gives T_1 its whole
    /// quantum, A(I_CSW, 0, 4) = 1: the era opened at 4 starts at drift
    /// −3/20, a weight decrease's negative drift.
    #[test]
    fn fig6d_negative_drift() {
        let mut track = DriftTrack::new();
        track.record(0, Rational::ZERO); // join
        let ps = rat(2, 5) + rat(3, 20).mul_int(3);
        assert_eq!(ps, rat(17, 20));
        track.record(4, ps - Rational::ONE);
        assert_eq!(track.at(3), Rational::ZERO);
        assert_eq!(track.at(4), rat(-3, 20));
        assert_eq!(track.at(100), rat(-3, 20));
        assert_eq!(deltas(&track), vec![Rational::ZERO, rat(-3, 20)]);
        assert_eq!(track.max_abs(), rat(3, 20));
        assert_eq!(track.max_abs_delta(), rat(3, 20));
    }

    /// Fig. 8 / Theorem 3: under PD²-LJ the drift of the 1/10 → 1/2 task
    /// reaches 24/10 in one event — a per-event delta far above the OI
    /// bound of 2.
    #[test]
    fn fig8_lj_per_event_delta() {
        let mut track = DriftTrack::new();
        track.record(0, Rational::ZERO);
        track.record(10, rat(17, 5) - Rational::ONE);
        assert_eq!(deltas(&track), vec![Rational::ZERO, rat(24, 10)]);
        assert_eq!(track.max_abs_delta(), rat(24, 10));
        assert!(track.max_abs_delta() > rat(2, 1));
    }

    #[test]
    fn empty_track_is_zero() {
        let track = DriftTrack::new();
        assert_eq!(track.at(1_000), Rational::ZERO);
        assert_eq!(track.max_abs(), Rational::ZERO);
        assert_eq!(track.max_abs_delta(), Rational::ZERO);
        assert!(track.is_empty());
        assert_eq!(track.per_event_deltas().count(), 0);
    }

    /// A sample takes one entry while its components fit `i64` (a
    /// denominator of 2⁶³ − 1 does) and three once one does not (2⁶³),
    /// and decodes to itself from either end.
    #[test]
    fn a_sample_is_wide_exactly_when_it_does_not_fit() {
        let fits = Rational::new(i128::from(i64::MIN), i128::from(i64::MAX));
        let past = Rational::new(-1, 1 << 63);
        let extreme = Rational::new(i128::MIN + 1, i128::MAX - 1);
        let mut track = DriftTrack::new();
        for (at, drift) in [(0, fits), (1, past), (2, extreme), (3, Rational::ONE)] {
            track.record(at, drift);
        }
        assert_eq!(track.entries.len(), 1 + 3 + 3 + 1);
        let forward: Vec<DriftSample> = track.samples().collect();
        let mut backward: Vec<DriftSample> = track.samples().rev().collect();
        backward.reverse();
        assert_eq!(forward, backward);
        let drifts: Vec<Rational> = forward.iter().map(|s| s.drift).collect();
        assert_eq!(drifts, [fits, past, extreme, Rational::ONE]);
        assert_eq!(track.len(), 4);
        assert_eq!(track.at(2), extreme);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_samples_panic() {
        let mut track = DriftTrack::new();
        track.record(10, Rational::ZERO);
        track.record(5, Rational::ZERO);
    }
}
