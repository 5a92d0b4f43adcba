//! Task weights (processor shares).
//!
//! A task `T` with integer execution cost `e` and period `p` has weight
//! `wt(T) = e/p`, with `0 < wt(T) ≤ 1`. The paper (and this library's
//! reweighting rules) restrict attention to *light* tasks, those of
//! weight at most `1/2`; heavy tasks need the group-deadline machinery
//! deferred to the first author's dissertation. The [`Weight`] type
//! enforces the open-closed range `(0, 1]` at construction, and
//! [`Weight::is_light`] distinguishes the supported class. Its reduced
//! components must fit `i64`: a task's exact bookkeeping is priced in
//! 64-bit integers (DESIGN.md, "The arithmetic budget").

use crate::rational::Rational;
use core::cmp::Ordering;
use core::fmt;
use core::num::NonZeroI64;

/// A validated task weight: a rational in `(0, 1]` whose reduced
/// components fit `i64`.
///
/// Stored narrow — 16 bytes, and 16 as an `Option<Weight>` through the
/// nonzero denominator — because every task holds its weights for the
/// whole run: its scheduling weight, its `I_PS` weight, its admission
/// commitment and the weights its events ask for. [`Weight::value`]
/// hands back the exact [`Rational`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Weight {
    num: i64,
    den: NonZeroI64,
}

impl pfair_json::ToJson for Weight {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        self.value().write_json(w);
    }
}

impl pfair_json::FromJson for Weight {
    /// Deserialization re-validates the `(0, 1]` range and the 64-bit
    /// components, so untrusted data cannot construct a weight the
    /// type could not hold.
    fn from_json(value: &pfair_json::Json) -> Result<Weight, pfair_json::JsonError> {
        let value = Rational::from_json(value)?;
        Weight::try_new(value).map_err(|e| pfair_json::JsonError::new(e.to_string()))
    }
}

/// Error returned when a ratio is not a weight: outside `(0, 1]`, or in
/// it with a reduced component beyond `i64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightRangeError(pub Rational);

impl fmt::Display for WeightRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        if r.is_positive() && r <= Rational::ONE {
            write!(f, "weight {r} has a denominator beyond 64 bits")
        } else {
            write!(f, "weight {r} outside (0, 1]")
        }
    }
}

impl std::error::Error for WeightRangeError {}

impl Weight {
    /// Weight one: a whole processor.
    pub const ONE: Weight = Weight {
        num: 1,
        den: match NonZeroI64::new(1) {
            Some(one) => one,
            None => NonZeroI64::MAX,
        },
    };

    /// Validates `value ∈ (0, 1]` with reduced components in `i64`.
    #[inline]
    pub fn try_new(value: Rational) -> Result<Weight, WeightRangeError> {
        if !value.is_positive() || value > Rational::ONE {
            return Err(WeightRangeError(value));
        }
        // `0 < num ≤ den`, so the denominator is the wider component.
        match (i64::try_from(value.numer()), i64::try_from(value.denom())) {
            (Ok(num), Ok(den)) => NonZeroI64::new(den)
                .map(|den| Weight { num, den })
                .ok_or(WeightRangeError(value)),
            _ => Err(WeightRangeError(value)),
        }
    }

    /// `1/den` for a positive `den`, built as it stands: a unit fraction
    /// is in lowest terms, so nothing is reduced. `None` for `den < 1`.
    #[inline]
    pub const fn one_over(den: i64) -> Option<Weight> {
        match NonZeroI64::new(den) {
            Some(den) if den.get() > 0 => Some(Weight { num: 1, den }),
            _ => None,
        }
    }

    /// Constructs a weight, panicking when [`Weight::try_new`] refuses
    /// `value`. Preferred in tests and example code; library paths use
    /// [`Weight::try_new`].
    pub fn new(value: Rational) -> Weight {
        #[expect(
            clippy::disallowed_methods,
            reason = "documented panicking constructor; the trackers take only weights the engine admitted"
        )]
        Weight::try_new(value).expect("weight out of range")
    }

    /// The underlying rational value.
    #[inline]
    pub fn value(self) -> Rational {
        Rational::from_canonical(i128::from(self.num), i128::from(self.den.get()))
    }

    /// The reduced numerator.
    #[inline]
    pub fn numer(self) -> i64 {
        self.num
    }

    /// The reduced denominator (the task's period for `e/p` in lowest
    /// terms).
    #[inline]
    pub fn denom(self) -> i64 {
        self.den.get()
    }

    /// `true` iff the weight is at most `1/2` (the class the reweighting
    /// rules of this library support).
    #[inline]
    pub fn is_light(self) -> bool {
        // `num ≤ den`, so `den − num` cannot overflow.
        self.num <= self.den.get() - self.num
    }

    /// `true` iff the weight exceeds `1/2`.
    #[inline]
    pub fn is_heavy(self) -> bool {
        !self.is_light()
    }

    /// Lossy conversion for statistics/plotting.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "report-only conversion; never feeds scheduling"
    )]
    pub fn to_f64(self) -> f64 {
        self.value().to_f64()
    }

    /// A share that may be zero, as a rational: `None` reads `0`. The
    /// engine's weight columns and ledgers hold `Option<Weight>` where a
    /// task's share is absent, and their interchange form has always
    /// written that absence as the rational zero.
    #[inline]
    pub fn share(w: Option<Weight>) -> Rational {
        w.map_or(Rational::ZERO, Weight::value)
    }

    /// The inverse of [`Weight::share`]: zero is `None`, anything else
    /// must be a weight.
    pub fn try_share(r: Rational) -> Result<Option<Weight>, WeightRangeError> {
        if r.is_zero() {
            return Ok(None);
        }
        Weight::try_new(r).map(Some)
    }
}

impl PartialOrd for Weight {
    #[inline]
    fn partial_cmp(&self, other: &Weight) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    /// By value: the cross products of two 64-bit fractions fit `i128`.
    #[inline]
    fn cmp(&self, other: &Weight) -> Ordering {
        let lhs = i128::from(self.num) * i128::from(other.den.get());
        let rhs = i128::from(other.num) * i128::from(self.den.get());
        lhs.cmp(&rhs)
    }
}

const _: () = {
    assert!(core::mem::size_of::<Weight>() == 16);
    assert!(core::mem::size_of::<Option<Weight>>() == 16);
};

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
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
    fn unit_fractions_need_no_reduction() {
        assert_eq!(Weight::one_over(512), Some(Weight::new(rat(1, 512))));
        assert_eq!(Weight::one_over(1), Some(Weight::ONE));
        assert_eq!(
            Weight::one_over(i64::MAX).map(Weight::denom),
            Some(i64::MAX)
        );
        assert_eq!(Weight::one_over(0), None);
        assert_eq!(Weight::one_over(-3), None);
    }

    #[test]
    fn light_heavy_split() {
        assert!(Weight::new(rat(1, 2)).is_light());
        assert!(Weight::new(rat(3, 19)).is_light());
        assert!(Weight::new(rat(2, 3)).is_heavy());
        assert!(Weight::new(rat(1, 1)).is_heavy());
    }

    #[test]
    fn display_and_error_display() {
        assert_eq!(format!("{}", Weight::new(rat(3, 19))), "3/19");
        let err = Weight::try_new(rat(5, 2)).unwrap_err();
        assert_eq!(format!("{err}"), "weight 5/2 outside (0, 1]");
    }

    /// Components beyond `i64` are refused, and the message says so;
    /// `i64::MAX` itself is a denominator.
    #[test]
    fn denominators_beyond_64_bits_are_refused() {
        let edge = rat(1, i128::from(i64::MAX));
        assert_eq!(Weight::new(edge).value(), edge);
        assert_eq!(Weight::new(edge).denom(), i64::MAX);
        for den in [1i128 << 63, (1 << 64) + 1] {
            let err = Weight::try_new(rat(1, den)).unwrap_err();
            assert_eq!(err, WeightRangeError(rat(1, den)));
            assert_eq!(
                format!("{err}"),
                format!("weight 1/{den} has a denominator beyond 64 bits")
            );
        }
    }

    /// Ordering is by value, not by component.
    #[test]
    fn order_is_by_value() {
        let (third, half) = (Weight::new(rat(1, 3)), Weight::new(rat(1, 2)));
        assert!(third < half);
        assert!(Weight::new(rat(2, 5)) > third);
        assert_eq!(Weight::new(rat(2, 4)).cmp(&half), Ordering::Equal);
        assert_eq!(half.max(third), half);
        assert!(Weight::new(rat(1, 2)).is_light());
        assert!(Weight::new(rat(2, 3)).is_heavy());
    }

    #[test]
    fn shares_read_absence_as_zero() {
        assert_eq!(Weight::share(None), Rational::ZERO);
        assert_eq!(Weight::try_share(Rational::ZERO), Ok(None));
        let w = Weight::new(rat(3, 19));
        assert_eq!(Weight::try_share(Weight::share(Some(w))), Ok(Some(w)));
        assert!(Weight::try_share(rat(3, 2)).is_err());
    }
}
