//! The interval domain for the overflow pass's abstract interpreter.
//!
//! Values are ranges `[lo, hi]` over the extended integers
//! (`-∞ ≤ lo ≤ hi ≤ +∞`) with finite bounds carried in `i128` — wide
//! enough that every workspace integer type embeds exactly. All
//! transfer functions are *sound over-approximations*: the concrete
//! result of an operation on values drawn from the input intervals
//! always lies inside the output interval. A finite corner that
//! overflows `i128` widens to the matching infinity, so "exceeds
//! `i128`" is representable and triggers containment failures rather
//! than silent wraparound inside the analyzer itself.

use std::cmp::Ordering;

/// One end of an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// Below every integer.
    NegInf,
    /// An exact finite bound.
    Int(i128),
    /// Above every integer.
    PosInf,
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Bound) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bound {
    fn cmp(&self, other: &Bound) -> Ordering {
        use Bound::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) | (_, PosInf) => Ordering::Less,
            (_, NegInf) | (PosInf, _) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
        }
    }
}

impl Bound {
    fn finite(self) -> Option<i128> {
        match self {
            Bound::Int(v) => Some(v),
            _ => None,
        }
    }
}

/// Extended-integer addition; a finite overflow widens toward the
/// overflow direction. `-∞ + +∞` cannot arise from valid intervals and
/// conservatively yields the full line via the caller's corner sweep.
fn ext_add(a: Bound, b: Bound) -> Bound {
    use Bound::*;
    match (a, b) {
        (NegInf, PosInf) | (PosInf, NegInf) => PosInf, // unreachable for valid intervals
        (NegInf, _) | (_, NegInf) => NegInf,
        (PosInf, _) | (_, PosInf) => PosInf,
        (Int(x), Int(y)) => match x.checked_add(y) {
            Some(v) => Int(v),
            None if x > 0 => PosInf,
            None => NegInf,
        },
    }
}

/// Extended-integer multiplication with the standard `±∞ · 0 = 0`
/// convention (sound for corner products).
fn ext_mul(a: Bound, b: Bound) -> Bound {
    use Bound::*;
    let sign = |b: &Bound| match b {
        NegInf => -1,
        PosInf => 1,
        Int(v) => match v.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        },
    };
    match (a, b) {
        (Int(x), Int(y)) => match x.checked_mul(y) {
            Some(v) => Int(v),
            None if (x > 0) == (y > 0) => PosInf,
            None => NegInf,
        },
        _ => match sign(&a) * sign(&b) {
            0 => Int(0),
            s if s > 0 => PosInf,
            _ => NegInf,
        },
    }
}

fn ext_neg(a: Bound) -> Bound {
    match a {
        Bound::NegInf => Bound::PosInf,
        Bound::PosInf => Bound::NegInf,
        Bound::Int(v) => v.checked_neg().map_or(Bound::PosInf, Bound::Int),
    }
}

/// An inclusive integer range; the lattice element of the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower end.
    pub lo: Bound,
    /// Upper end.
    pub hi: Bound,
}

/// The unbounded interval (no information).
pub const TOP: Interval = Interval {
    lo: Bound::NegInf,
    hi: Bound::PosInf,
};

impl Interval {
    /// The single point `v`.
    pub fn exact(v: i128) -> Interval {
        Interval {
            lo: Bound::Int(v),
            hi: Bound::Int(v),
        }
    }

    /// The inclusive range `[lo, hi]`.
    pub fn range(lo: i128, hi: i128) -> Interval {
        Interval {
            lo: Bound::Int(lo.min(hi)),
            hi: Bound::Int(lo.max(hi)),
        }
    }

    /// The full range of a primitive integer type, given bit width and
    /// signedness (as from [`crate::ast::int_type_bits`]).
    pub fn of_type(bits: u32, signed: bool) -> Interval {
        if signed {
            match bits {
                128 => Interval::range(i128::MIN, i128::MAX),
                b => {
                    let hi = (1i128 << (b - 1)) - 1;
                    Interval::range(-hi - 1, hi)
                }
            }
        } else {
            match bits {
                128 => Interval {
                    lo: Bound::Int(0),
                    // u128::MAX exceeds i128; the top is "beyond i128".
                    hi: Bound::PosInf,
                },
                b => Interval::range(0, (1i128 << b) - 1),
            }
        }
    }

    /// True when every value of `self` lies inside `other`.
    pub fn subset_of(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// True when `0` is a possible value.
    pub fn contains_zero(&self) -> bool {
        self.lo <= Bound::Int(0) && Bound::Int(0) <= self.hi
    }

    /// True when both ends are finite.
    pub fn is_bounded(&self) -> bool {
        matches!((self.lo, self.hi), (Bound::Int(_), Bound::Int(_)))
    }

    /// Smallest interval containing both.
    pub fn union(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Intersection; empty intersections collapse to the tighter
    /// input's nearest point (sound for the refinement uses here).
    pub fn intersect(self, o: Interval) -> Interval {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo, hi: lo }
        }
    }

    /// `self + o`.
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: ext_add(self.lo, o.lo),
            hi: ext_add(self.hi, o.hi),
        }
    }

    /// `-self`.
    pub fn neg(self) -> Interval {
        Interval {
            lo: ext_neg(self.hi),
            hi: ext_neg(self.lo),
        }
    }

    /// `self - o`.
    pub fn sub(self, o: Interval) -> Interval {
        self.add(o.neg())
    }

    /// `self * o` via the four corner products.
    pub fn mul(self, o: Interval) -> Interval {
        let corners = [
            ext_mul(self.lo, o.lo),
            ext_mul(self.lo, o.hi),
            ext_mul(self.hi, o.lo),
            ext_mul(self.hi, o.hi),
        ];
        Interval {
            lo: corners.iter().copied().min().unwrap_or(Bound::NegInf),
            hi: corners.iter().copied().max().unwrap_or(Bound::PosInf),
        }
    }

    /// `self / o` (truncating); [`TOP`] when the divisor may be zero or
    /// either side is unbounded in a way the corners cannot capture.
    pub fn div(self, o: Interval) -> Interval {
        if o.contains_zero() {
            return TOP;
        }
        let (Some(sl), Some(sh), Some(ol), Some(oh)) = (
            self.lo.finite(),
            self.hi.finite(),
            o.lo.finite(),
            o.hi.finite(),
        ) else {
            // An unbounded dividend divided by a nonzero divisor stays
            // unbounded; a bounded dividend over an unbounded divisor
            // is within ±|dividend|.
            if let (Some(sl), Some(sh)) = (self.lo.finite(), self.hi.finite()) {
                let m = sl.abs().max(sh.abs());
                return Interval::range(-m, m);
            }
            return TOP;
        };
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        let mut widened = false;
        for a in [sl, sh] {
            for b in [ol, oh] {
                match a.checked_div(b) {
                    Some(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    None => widened = true, // i128::MIN / -1
                }
            }
        }
        if widened {
            Interval {
                lo: Bound::Int(lo.min(0)),
                hi: Bound::PosInf,
            }
        } else {
            Interval::range(lo, hi)
        }
    }

    /// `self % o` (truncating remainder): magnitude strictly below the
    /// divisor's, sign following the dividend.
    pub fn rem(self, o: Interval) -> Interval {
        if o.contains_zero() {
            return TOP;
        }
        let (Some(ol), Some(oh)) = (o.lo.finite(), o.hi.finite()) else {
            return TOP;
        };
        let m = ol.abs().max(oh.abs()).saturating_sub(1);
        let lo = if self.lo >= Bound::Int(0) { 0 } else { -m };
        let hi = if self.hi <= Bound::Int(0) { 0 } else { m };
        Interval::range(lo, hi).intersect_if_finite(self)
    }

    /// `self.rem_euclid(o)`: always in `[0, max|o| − 1]`.
    pub fn rem_euclid(self, o: Interval) -> Interval {
        if o.contains_zero() {
            return TOP;
        }
        let (Some(ol), Some(oh)) = (o.lo.finite(), o.hi.finite()) else {
            return TOP;
        };
        Interval::range(0, ol.abs().max(oh.abs()).saturating_sub(1))
    }

    /// Tightens by `self` when `self` is finite and nonnegative (a
    /// small nonnegative dividend bounds its own remainder).
    fn intersect_if_finite(self, orig: Interval) -> Interval {
        if orig.is_bounded() && orig.lo >= Bound::Int(0) {
            self.intersect(orig)
        } else {
            self
        }
    }

    /// `self << o` for nonnegative shift amounts.
    pub fn shl(self, o: Interval) -> Interval {
        let (Some(kl), Some(kh)) = (o.lo.finite(), o.hi.finite()) else {
            return TOP;
        };
        if kl < 0 || kh > 127 {
            return TOP;
        }
        let shift = |v: i128, k: i128| -> Bound {
            match v.checked_shl(k as u32) {
                // checked_shl only guards the shift amount; recover the
                // magnitude loss by round-tripping.
                Some(r) if r >> (k as u32) == v => Bound::Int(r),
                _ if v >= 0 => Bound::PosInf,
                _ => Bound::NegInf,
            }
        };
        let (Some(sl), Some(sh)) = (self.lo.finite(), self.hi.finite()) else {
            return TOP;
        };
        let corners = [shift(sl, kl), shift(sl, kh), shift(sh, kl), shift(sh, kh)];
        Interval {
            lo: corners.iter().copied().min().unwrap_or(Bound::NegInf),
            hi: corners.iter().copied().max().unwrap_or(Bound::PosInf),
        }
    }

    /// `self >> o` (arithmetic shift) for nonnegative shift amounts.
    pub fn shr(self, o: Interval) -> Interval {
        let (Some(kl), Some(kh)) = (o.lo.finite(), o.hi.finite()) else {
            return TOP;
        };
        if kl < 0 || kh > 127 {
            return TOP;
        }
        let (Some(sl), Some(sh)) = (self.lo.finite(), self.hi.finite()) else {
            // A right shift never grows magnitude.
            return self;
        };
        let corners = [sl >> kl, sl >> kh, sh >> kl, sh >> kh];
        Interval::range(
            corners.iter().copied().min().unwrap_or(i128::MIN),
            corners.iter().copied().max().unwrap_or(i128::MAX),
        )
    }

    /// `self & o`. Precise only for a nonnegative mask side: the result
    /// then lies in `[0, mask_hi]` regardless of the other operand.
    pub fn bitand(self, o: Interval) -> Interval {
        let mask_hi = |iv: &Interval| -> Option<i128> {
            match (iv.lo, iv.hi) {
                (Bound::Int(l), Bound::Int(h)) if l >= 0 => Some(h),
                _ => None,
            }
        };
        match (mask_hi(&self), mask_hi(&o)) {
            (Some(a), Some(b)) => Interval::range(0, a.min(b)),
            (Some(a), None) => Interval::range(0, a),
            (None, Some(b)) => Interval::range(0, b),
            (None, None) => TOP,
        }
    }

    /// `self | o` for nonnegative operands: at least the larger
    /// operand, at most the all-ones cover of both.
    pub fn bitor(self, o: Interval) -> Interval {
        let (Bound::Int(sl), Bound::Int(sh), Bound::Int(ol), Bound::Int(oh)) =
            (self.lo, self.hi, o.lo, o.hi)
        else {
            return TOP;
        };
        if sl < 0 || ol < 0 {
            return TOP;
        }
        Interval::range(sl.max(ol), ones_cover(sh.max(oh)))
    }

    /// `self ^ o` for nonnegative operands.
    pub fn bitxor(self, o: Interval) -> Interval {
        let (Bound::Int(sl), Bound::Int(sh), Bound::Int(ol), Bound::Int(oh)) =
            (self.lo, self.hi, o.lo, o.hi)
        else {
            return TOP;
        };
        if sl < 0 || ol < 0 {
            return TOP;
        }
        Interval::range(0, ones_cover(sh.max(oh)))
    }

    /// `self.clamp(lo, hi)` with constant clamp bounds.
    pub fn clamp(self, lo: i128, hi: i128) -> Interval {
        let c = |b: Bound| -> i128 {
            match b {
                Bound::NegInf => lo,
                Bound::PosInf => hi,
                Bound::Int(v) => v.clamp(lo, hi),
            }
        };
        Interval::range(c(self.lo), c(self.hi))
    }

    /// `self.min(o)` / `self.max(o)` as method transfer functions.
    pub fn min_val(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    /// See [`Interval::min_val`].
    pub fn max_val(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// `self.abs()`.
    pub fn abs(self) -> Interval {
        let n = self.neg();
        let flipped = Interval {
            lo: self.lo.max(n.lo).max(Bound::Int(0)),
            hi: self.hi.max(n.hi),
        };
        Interval {
            lo: Bound::Int(0).max(if self.contains_zero() {
                Bound::Int(0)
            } else {
                flipped.lo
            }),
            hi: flipped.hi,
        }
    }
}

/// Smallest all-ones value `≥ v` (`0` for nonpositive `v`): the upper
/// bound of any bitwise-or of values `≤ v`.
fn ones_cover(v: i128) -> i128 {
    if v <= 0 {
        return 0;
    }
    let mut m = v;
    let mut s = 1u32;
    while s < 128 {
        m |= m >> s;
        s *= 2;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_mul_track_corners() {
        let a = Interval::range(-3, 5);
        let b = Interval::range(2, 4);
        assert_eq!(a.add(b), Interval::range(-1, 9));
        assert_eq!(a.mul(b), Interval::range(-12, 20));
    }

    #[test]
    fn overflow_widens_to_infinity() {
        let big = Interval::exact(i128::MAX);
        let sum = big.add(Interval::exact(1));
        assert_eq!(sum.hi, Bound::PosInf);
        let prod = big.mul(Interval::exact(2));
        assert_eq!(prod.hi, Bound::PosInf);
    }

    #[test]
    fn type_ranges_and_subset() {
        let i64r = Interval::of_type(64, true);
        assert!(Interval::range(i128::from(i64::MIN), i128::from(i64::MAX)).subset_of(&i64r));
        assert!(!Interval::exact(i128::from(i64::MAX) + 1).subset_of(&i64r));
        let u64r = Interval::of_type(64, false);
        assert!(Interval::exact(i128::from(u64::MAX)).subset_of(&u64r));
        assert!(!Interval::exact(-1).subset_of(&u64r));
    }

    #[test]
    fn shifts_model_packing() {
        // The packed-priority pattern: a 47-bit field shifted to bit 80
        // stays within u128.
        let field = Interval::range(0, (1 << 47) - 1);
        let shifted = field.shl(Interval::exact(80));
        assert!(shifted.subset_of(&Interval::of_type(128, false)));
        assert_eq!(shifted.lo, Bound::Int(0));
        // A 64-bit field at bit 80 exceeds any 128-bit value.
        let wide = Interval::range(0, i128::from(i64::MAX));
        let over = wide.shl(Interval::exact(80));
        assert_eq!(over.hi, Bound::PosInf);
    }

    #[test]
    fn masks_and_rem_euclid_bound_indices() {
        let x = TOP;
        assert_eq!(x.bitand(Interval::exact(511)), Interval::range(0, 511));
        assert_eq!(x.rem_euclid(Interval::exact(512)), Interval::range(0, 511));
        assert_eq!(x.rem(Interval::exact(64)).lo, Bound::Int(-63));
    }

    #[test]
    fn clamp_and_div() {
        let x = TOP.clamp(-(1 << 46), 1 << 46);
        assert_eq!(x, Interval::range(-(1 << 46), 1 << 46));
        assert_eq!(
            Interval::range(10, 100).div(Interval::exact(10)),
            Interval::range(1, 10)
        );
        assert_eq!(Interval::range(10, 100).div(Interval::range(-1, 1)), TOP);
    }

    #[test]
    fn bitor_covers_packed_fields() {
        let hi_field = Interval::range(0, (1 << 47) - 1).shl(Interval::exact(80));
        let lo_field = Interval::range(0, (1 << 32) - 1);
        let packed = hi_field.bitor(lo_field);
        assert!(packed.subset_of(&Interval::of_type(128, false)));
    }

    #[test]
    fn min_max_abs() {
        let a = Interval::range(-5, 10);
        assert_eq!(a.min_val(Interval::exact(3)), Interval::range(-5, 3));
        assert_eq!(a.max_val(Interval::exact(3)), Interval::range(3, 10));
        assert_eq!(a.abs(), Interval::range(0, 10));
        assert_eq!(Interval::range(3, 7).abs(), Interval::range(3, 7));
        assert_eq!(Interval::range(-7, -3).abs(), Interval::range(3, 7));
    }
}
