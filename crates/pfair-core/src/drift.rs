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
//! track.record(0, rat(0, 1), rat(0, 1));   // join: zero drift
//! track.record(10, rat(3, 2), rat(1, 1));  // Fig. 6(b): drift 1/2 from t = 10
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

/// Piecewise-constant drift history of a single task.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriftTrack {
    samples: Vec<DriftSample>,
}

impl pfair_json::ToJson for DriftSample {
    fn to_json(&self) -> pfair_json::Json {
        pfair_json::obj([("at", self.at.to_json()), ("drift", self.drift.to_json())])
    }

    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object();
        w.key("at");
        self.at.write_json(w);
        w.key("drift");
        self.drift.write_json(w);
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
    fn to_json(&self) -> pfair_json::Json {
        pfair_json::obj([("samples", self.samples.to_json())])
    }
}

impl pfair_json::FromJson for DriftTrack {
    /// Re-validates the time-ordering invariant of the samples.
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let samples: Vec<DriftSample> = value.field("samples")?;
        if samples.windows(2).any(|w| w[0].at > w[1].at) {
            return Err(pfair_json::JsonError::new(
                "drift samples out of time order",
            ));
        }
        Ok(DriftTrack { samples })
    }
}

impl DriftTrack {
    /// An empty track (drift 0 everywhere).
    pub fn new() -> DriftTrack {
        DriftTrack {
            samples: Vec::new(),
        }
    }

    /// Records the drift established at era boundary `u`:
    /// `ps_total − icsw_total`, both evaluated over `[0, u)`.
    ///
    /// # Panics
    /// Panics if samples are recorded out of time order.
    #[inline]
    pub fn record(&mut self, u: Slot, ps_total: Rational, icsw_total: Rational) {
        if let Some(last) = self.samples.last() {
            // audit: allow(panic-reach, monotone-time invariant of the drift track, a violation is an engine bug)
            assert!(last.at <= u, "drift samples must be recorded in time order");
        }
        if self.samples.is_empty() {
            // Most tasks never reweight and keep the one sample their
            // join records: give it a one-sample block, not the four a
            // first `push` would reserve.
            self.samples.reserve_exact(1);
        }
        self.samples.push(DriftSample {
            at: u,
            drift: ps_total - icsw_total,
        });
    }

    /// `drift(T, t)`: the most recent sample at or before `t`, or zero if
    /// no era boundary has occurred yet.
    #[inline]
    pub fn at(&self, t: Slot) -> Rational {
        self.samples
            .iter()
            .rev()
            .find(|s| s.at <= t)
            .map_or(Rational::ZERO, |s| s.drift)
    }

    /// All recorded samples, in time order.
    pub fn samples(&self) -> &[DriftSample] {
        &self.samples
    }

    /// Releases the growth slack of the sample buffer — for a track
    /// that is done recording and about to be kept in a result.
    pub fn shrink_to_fit(&mut self) {
        self.samples.shrink_to_fit();
    }

    /// Consumes the track into its samples, in time order.
    pub fn into_samples(self) -> Vec<DriftSample> {
        self.samples
    }

    /// The drift *added* by each reweighting event: successive
    /// differences of the samples (the first sample differs from the
    /// implicit zero before it). Theorem 5 bounds each of these by 2 in
    /// absolute value under PD²-OI.
    pub fn per_event_deltas(&self) -> Vec<Rational> {
        let mut prev = Rational::ZERO;
        self.samples
            .iter()
            .map(|s| {
                let d = s.drift - prev;
                prev = s.drift;
                d
            })
            .collect()
    }

    /// The largest absolute drift value ever reached.
    pub fn max_abs(&self) -> Rational {
        self.samples
            .iter()
            .map(|s| s.drift.abs())
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// The largest absolute per-event drift delta.
    pub fn max_abs_delta(&self) -> Rational {
        self.per_event_deltas()
            .into_iter()
            .map(Rational::abs)
            .max()
            .unwrap_or(Rational::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    /// Fig. 6(b): drift of T is 0 at t = 9 and 1/2 from t = 10 (the rule-O
    /// reweighting event at time 10 halts T_2, losing its 1/2 I_CSW
    /// allocation).
    #[test]
    fn fig6b_drift_steps_at_era_boundary() {
        let mut track = DriftTrack::new();
        track.record(0, Rational::ZERO, Rational::ZERO); // join
        track.record(10, rat(3, 2), Rational::ONE); // reweight enacted at 10
        assert_eq!(track.at(9), Rational::ZERO);
        assert_eq!(track.at(10), rat(1, 2));
        assert_eq!(track.at(100), rat(1, 2));
        assert_eq!(track.per_event_deltas(), vec![Rational::ZERO, rat(1, 2)]);
    }

    /// Fig. 6(d): a weight decrease can produce negative drift (−3/20).
    #[test]
    fn fig6d_negative_drift() {
        let mut track = DriftTrack::new();
        track.record(0, Rational::ZERO, Rational::ZERO);
        track.record(4, rat(2, 5) + rat(3, 3 * 20), Rational::ONE); // placeholder values
                                                                    // What matters structurally: negative drift is representable and
                                                                    // max_abs sees it.
        let mut t2 = DriftTrack::new();
        t2.record(4, rat(17, 20), Rational::ONE);
        assert_eq!(t2.at(4), rat(-3, 20));
        assert_eq!(t2.max_abs(), rat(3, 20));
    }

    /// Fig. 8 / Theorem 3: under PD²-LJ the drift of the 1/10 → 1/2 task
    /// reaches 24/10 in one event — a per-event delta far above the OI
    /// bound of 2.
    #[test]
    fn fig8_lj_per_event_delta() {
        let mut track = DriftTrack::new();
        track.record(0, Rational::ZERO, Rational::ZERO);
        track.record(10, rat(17, 5), Rational::ONE);
        assert_eq!(track.per_event_deltas(), vec![Rational::ZERO, rat(24, 10)]);
        assert_eq!(track.max_abs_delta(), rat(24, 10));
        assert!(track.max_abs_delta() > rat(2, 1));
    }

    #[test]
    fn empty_track_is_zero() {
        let track = DriftTrack::new();
        assert_eq!(track.at(1_000), Rational::ZERO);
        assert_eq!(track.max_abs(), Rational::ZERO);
        assert!(track.per_event_deltas().is_empty());
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_samples_panic() {
        let mut track = DriftTrack::new();
        track.record(10, Rational::ZERO, Rational::ZERO);
        track.record(5, Rational::ZERO, Rational::ZERO);
    }
}
