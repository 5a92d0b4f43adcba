//! Task weights (processor shares).
//!
//! A task `T` with integer execution cost `e` and period `p` has weight
//! `wt(T) = e/p`, with `0 < wt(T) ≤ 1`. The paper (and this library's
//! reweighting rules) restrict attention to *light* tasks, those of
//! weight at most `1/2`; heavy tasks need the group-deadline machinery
//! deferred to the first author's dissertation. The [`Weight`] type
//! enforces the open-closed range `(0, 1]` at construction, and
//! [`Weight::is_light`] distinguishes the supported class.

use crate::rational::Rational;
use core::fmt;

/// A validated task weight: a rational in `(0, 1]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Weight(Rational);

impl pfair_json::ToJson for Weight {
    fn to_json(&self) -> pfair_json::Json {
        self.0.to_json()
    }
}

impl pfair_json::FromJson for Weight {
    /// Deserialization re-validates the `(0, 1]` range, so untrusted
    /// data cannot construct an out-of-range weight.
    fn from_json(value: &pfair_json::Json) -> Result<Weight, pfair_json::JsonError> {
        let value = Rational::from_json(value)?;
        Weight::try_new(value).map_err(|e| pfair_json::JsonError::new(e.to_string()))
    }
}

/// Error returned when a ratio outside `(0, 1]` is used as a weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightRangeError(pub Rational);

impl fmt::Display for WeightRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "weight {} outside (0, 1]", self.0)
    }
}

impl std::error::Error for WeightRangeError {}

impl Weight {
    /// The maximum weight the fine-grained reweighting rules support
    /// (`1/2`; see paper §2, "we focus exclusively on tasks with weight
    /// at most 1/2").
    pub fn half() -> Weight {
        Weight(Rational::new(1, 2))
    }

    /// Validates `value ∈ (0, 1]`.
    #[inline]
    pub fn try_new(value: Rational) -> Result<Weight, WeightRangeError> {
        if value.is_positive() && value <= Rational::ONE {
            Ok(Weight(value))
        } else {
            Err(WeightRangeError(value))
        }
    }

    /// Constructs a weight, panicking when `value ∉ (0, 1]`. Preferred in
    /// tests and example code; library paths use [`Weight::try_new`].
    pub fn new(value: Rational) -> Weight {
        // audit: allow(panic, documented panicking constructor; library paths use try_new)
        Weight::try_new(value).expect("weight out of range")
    }

    /// Constructs the weight `e/p` of a periodic task with execution cost
    /// `e` and period `p`.
    pub fn from_ratio(e: i128, p: i128) -> Weight {
        Weight::new(Rational::new(e, p))
    }

    /// The underlying rational value.
    #[inline]
    pub fn value(self) -> Rational {
        self.0
    }

    /// `true` iff the weight is at most `1/2` (the class the reweighting
    /// rules of this library support).
    #[inline]
    pub fn is_light(self) -> bool {
        self.0 <= Rational::new(1, 2)
    }

    /// `true` iff the weight exceeds `1/2`.
    #[inline]
    pub fn is_heavy(self) -> bool {
        !self.is_light()
    }

    /// Lossy conversion for statistics/plotting.
    #[inline]
    // audit: allow(float, report-only conversion; never feeds scheduling)
    pub fn to_f64(self) -> f64 {
        self.0.to_f64()
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Weight> for Rational {
    fn from(w: Weight) -> Rational {
        w.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn range_validation() {
        assert!(Weight::try_new(rat(1, 2)).is_ok());
        assert!(Weight::try_new(Rational::ONE).is_ok());
        assert!(Weight::try_new(rat(1, 1000)).is_ok());
        assert_eq!(
            Weight::try_new(Rational::ZERO),
            Err(WeightRangeError(Rational::ZERO))
        );
        assert_eq!(Weight::try_new(rat(3, 2)), Err(WeightRangeError(rat(3, 2))));
        assert_eq!(
            Weight::try_new(rat(-1, 2)),
            Err(WeightRangeError(rat(-1, 2)))
        );
    }

    #[test]
    fn light_heavy_split() {
        assert!(Weight::from_ratio(1, 2).is_light());
        assert!(Weight::from_ratio(3, 19).is_light());
        assert!(Weight::from_ratio(2, 3).is_heavy());
        assert!(Weight::from_ratio(1, 1).is_heavy());
        assert_eq!(Weight::half().value(), rat(1, 2));
    }

    #[test]
    fn periodic_ratio_constructor() {
        // A periodic task with e = 5, p = 16 has weight 5/16 (Fig. 1).
        assert_eq!(Weight::from_ratio(5, 16).value(), rat(5, 16));
        // Reduction happens: 2/4 == 1/2.
        assert_eq!(Weight::from_ratio(2, 4), Weight::half());
    }

    #[test]
    fn display_and_error_display() {
        assert_eq!(format!("{}", Weight::from_ratio(3, 19)), "3/19");
        let err = Weight::try_new(rat(5, 2)).unwrap_err();
        assert_eq!(format!("{err}"), "weight 5/2 outside (0, 1]");
    }
}
