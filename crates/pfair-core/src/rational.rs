//! Exact rational arithmetic on `i128`.
//!
//! Every quantity the Pfair machinery reasons about — task weights,
//! per-slot ideal allocations, lag, drift — is a ratio of two integers
//! (weights are `e/p` with integer execution cost and period, and ideal
//! allocations are sums, differences, and min/max of weights). The
//! correctness arguments in the paper (windows, completion times,
//! drift bounds) are exact-arithmetic arguments; floating point would
//! silently break window boundaries such as `⌈i/wt⌉` for weights like
//! `3/19`. This module provides the small, overflow-checked rational
//! type used throughout the workspace.
//!
//! Invariants maintained by every constructor and operator:
//! * the denominator is strictly positive,
//! * numerator and denominator are coprime (`gcd == 1`),
//! * `0/x` normalizes to `0/1`.
//!
//! All arithmetic is overflow-checked and panics with a descriptive
//! message on overflow; with `i128` components and the gcd-normalized
//! representation, overflow is unreachable for the workloads in this
//! repository (denominators stay below ~10^7 over 10^4-slot horizons).
//!
//! ## Small operands
//!
//! Those workloads' components are in fact tiny, and the checked `i128`
//! code pays for its width on every operation (128-bit multiplies and,
//! inside the gcd and the window quotients, the `__umodti3` /
//! `__divti3` software division). So `new`, `+`, `−`, `·`,
//! [`Rational::mul_int`], `cmp` and the window quotients
//! ([`Rational::div_floor_int`], [`Rational::div_ceil_int`],
//! [`Rational::rank_window`]) first test whether every component
//! involved lies in `−2³¹ ..= 2³¹ − 1`; if so they run in native `i64`
//! — products stay below 2⁶², sums below 2⁶³, so nothing can wrap (the
//! `*_small` functions carry that proof for the static audit) — with a
//! binary `u64` gcd and the hardware divider. Otherwise they fall
//! through to the checked `i128` code.
//! Both compute the canonical form of the same exact value, which is
//! unique, so the result is identical bit for bit; and since nothing
//! inside the gate can overflow, every documented panic still fires
//! exactly where it did.
//!
//! ## Era units
//!
//! Between two weight changes the ideal trackers do not compute on
//! `Rational`s at all: every quantity there is an integer multiple of
//! one `1/unit`, so [`Units`] counts the multiples and [`Accumulator`]
//! sums them — integer adds, one multiply and one division per subtask,
//! no gcd — in checked native `i64` under the same overflow contract,
//! and a `Rational` is built only where a value is read.
//!
//! ```
//! use pfair_core::rational::{rat, Rational};
//!
//! // The paper's window boundary for weight 3/19: d(T_2) = ⌈2/(3/19)⌉.
//! let w = rat(3, 19);
//! assert_eq!(w.div_ceil_int(2), 13);
//! // Exact accumulation — no floating-point drift.
//! let total = (0..19).fold(Rational::ZERO, |acc, _| acc + w);
//! assert_eq!(total, rat(3, 1));
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0` and `gcd(|num|, den) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl pfair_json::ToJson for Rational {
    /// Serializes structurally as `{"num": …, "den": …}` — the codec is
    /// integer-exact, so components survive beyond `f64` precision.
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object()
            .field("num", &self.num)
            .field("den", &self.den);
        w.end_object();
    }
}

impl pfair_json::FromJson for Rational {
    /// Deserialization validates and renormalizes: a zero denominator is
    /// rejected and unreduced or negative-denominator input is brought
    /// to canonical form, so the type invariants survive untrusted data.
    fn from_json(value: &pfair_json::Json) -> Result<Rational, pfair_json::JsonError> {
        let num: i128 = value.field("num")?;
        let den: i128 = value.field("den")?;
        if den == 0 {
            return Err(pfair_json::JsonError::new("Rational with zero denominator"));
        }
        Ok(Rational::new(num, den))
    }
}

/// Greatest common divisor of two unsigned integers (Euclid).
///
/// Operates on `u128` so that `i128::MIN.unsigned_abs()` (= 2^127) is a
/// valid operand — taking magnitudes in the signed domain would wrap.
// audit: prove(overflow-bounds)
#[inline]
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b; // audit: allow(panic-reach, loop guard keeps b nonzero); allow(overflow-interval, the while guard keeps b nonzero, branch refinement is outside the interval domain)
        a = b;
        b = r;
    }
    a
}

/// Greatest common divisor of two `u64`s by the binary algorithm:
/// shifts and subtractions only, no division.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `gcd(|a|, b)` for `b > 0`, as a positive `i64` divisor.
#[inline]
fn gcd_small(a: i64, b: i64) -> i64 {
    // The gcd divides the positive `b`, so it fits and is at least 1.
    i64::try_from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()))
        .unwrap_or(1)
        .max(1)
}

/// The small-operand gate: `x` as an `i64` when it lies in
/// `−2³¹ ..= 2³¹ − 1`.
#[inline]
fn small(x: i128) -> Option<i64> {
    i32::try_from(x).ok().map(i64::from)
}

/// `num/den` in lowest terms, for `den > 0`.
#[inline]
fn reduced_small(num: i64, den: i64) -> Rational {
    let g = gcd_small(num, den);
    if g == 1 {
        return Rational {
            num: i128::from(num),
            den: i128::from(den),
        };
    }
    Rational {
        num: i128::from(num / g), // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
        den: i128::from(den / g), // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
    }
}

/// [`Rational::new`] inside the gate (`den ≠ 0`).
// audit: prove(overflow-bounds)
// audit: assume(num in -2147483648..=2147483647)
// audit: assume(den in -2147483648..=2147483647)
#[inline]
fn new_small(num: i64, den: i64) -> Rational {
    if den < 0 {
        reduced_small(-num, -den)
    } else {
        reduced_small(num, den)
    }
}

/// `a/b + c/d` inside the gate, for canonical operands (`a ⟂ b`,
/// `c ⟂ d`). With `g = gcd(b, d)` and `t = a·(d/g) + c·(b/g)`, `t` is
/// coprime to both `b/g` and `d/g`, so the only factor the sum can
/// still share with its denominator divides `g` (Knuth, TAOCP 4.5.1):
/// coprime denominators need no reduction at all, and otherwise the
/// reducing gcd runs against `g` instead of the full product. `c` may
/// be a negated numerator (`−(−2³¹) = 2³¹`), hence the symmetric bound.
// audit: prove(overflow-bounds)
// audit: assume(a in -2147483648..=2147483648)
// audit: assume(b in 1..=2147483647)
// audit: assume(c in -2147483648..=2147483648)
// audit: assume(d in 1..=2147483647)
// audit: assume(g in 1..=2147483647)
// audit: assume(g2 in 1..=2147483647)
#[inline]
fn add_small(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if b == d {
        return reduced_small(a + c, b);
    }
    let g = gcd_small(b, d);
    if g == 1 {
        return Rational {
            num: i128::from(a * d + c * b),
            den: i128::from(b * d),
        };
    }
    let bg = b / g; // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
    let dg = d / g; // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
    let t = a * dg + c * bg;
    let g2 = gcd_small(t, g);
    let dg2 = d / g2; // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
    Rational {
        num: i128::from(t / g2), // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
        den: i128::from(bg * dg2),
    }
}

/// `a/b · c/d` inside the gate.
// audit: prove(overflow-bounds)
// audit: assume(a in -2147483648..=2147483647)
// audit: assume(b in 1..=2147483647)
// audit: assume(c in -2147483648..=2147483647)
// audit: assume(d in 1..=2147483647)
#[inline]
fn mul_small(a: i64, b: i64, c: i64, d: i64) -> Rational {
    reduced_small(a * c, b * d)
}

/// `a/b · n` inside the gate; canonical without a final reduction for
/// the reason given at [`Rational::mul_int`].
// audit: prove(overflow-bounds)
// audit: assume(a in -2147483648..=2147483647)
// audit: assume(b in 1..=2147483647)
// audit: assume(n in -2147483648..=2147483647)
// audit: assume(g in 1..=2147483647)
#[inline]
fn mul_int_small(a: i64, b: i64, n: i64) -> Rational {
    let g = gcd_small(n, b);
    let ng = n / g; // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
    Rational {
        num: i128::from(a * ng),
        den: i128::from(b / g), // audit: allow(panic-reach, gcd_small returns a divisor of a positive denominator, at least 1)
    }
}

/// `a/b ? c/d` inside the gate.
// audit: prove(overflow-bounds)
// audit: assume(a in -2147483648..=2147483647)
// audit: assume(b in 1..=2147483647)
// audit: assume(c in -2147483648..=2147483647)
// audit: assume(d in 1..=2147483647)
#[inline]
fn cmp_small(a: i64, b: i64, c: i64, d: i64) -> Ordering {
    (a * d).cmp(&(c * b))
}

/// `⌊n · den / num⌋` inside the gate: truncation, one less when the
/// (negative) product leaves a remainder. `num.max(1)` is the divisor
/// itself (`num ≥ 1` by the caller's positivity assert) in the form the
/// panic-reach pass reads as nonzero.
// audit: prove(overflow-bounds)
// audit: assume(n in -2147483648..=2147483647)
// audit: assume(num in 1..=2147483647)
// audit: assume(den in 1..=2147483647)
#[inline]
fn div_floor_small(n: i64, num: i64, den: i64) -> i64 {
    let a = n * den;
    let q = a / num.max(1);
    if a % num.max(1) < 0 {
        q - 1
    } else {
        q
    }
}

/// `⌈n · den / num⌉` inside the gate (see [`div_floor_small`]).
// audit: prove(overflow-bounds)
// audit: assume(n in -2147483648..=2147483647)
// audit: assume(num in 1..=2147483647)
// audit: assume(den in 1..=2147483647)
#[inline]
fn div_ceil_small(n: i64, num: i64, den: i64) -> i64 {
    let a = n * den;
    let q = a / num.max(1);
    if a % num.max(1) > 0 {
        q + 1
    } else {
        q
    }
}

/// [`Rational::rank_window`] inside the gate, for a rank `k ≥ 1`: with
/// `a = k · den`, `⌈k/w⌉ = ⌊a / num⌋ + [a mod num ≠ 0]` and
/// `⌊(k − 1)/w⌋ = (a − den) / num` — the dividend is non-negative, so
/// truncation is the floor — two native divisions in all.
// audit: prove(overflow-bounds)
// audit: assume(k in 1..=2147483647)
// audit: assume(num in 1..=2147483647)
// audit: assume(den in 1..=2147483647)
#[inline]
fn rank_window_small(k: i64, num: i64, den: i64) -> (i64, bool) {
    let a = k * den;
    let b = a % num.max(1) != 0;
    let ceil = if b {
        a / num.max(1) + 1
    } else {
        a / num.max(1)
    };
    (ceil - (a - den) / num.max(1), b)
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Constructs `num/den`, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[inline]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "Rational with zero denominator"); // audit: allow(panic-reach, documented contract: zero denominators and non-positive divisors panic)
        if let (Some(n), Some(d)) = (small(num), small(den)) {
            return new_small(n, d);
        }
        Rational::new_wide(num, den)
    }

    /// Normalization in checked `i128` — any components, `den ≠ 0`.
    #[inline]
    fn new_wide(num: i128, den: i128) -> Rational {
        let (num, den) = if den < 0 {
            #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
            let num = num
                .checked_neg()
                .expect("Rational::new overflow: numerator is i128::MIN");
            #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
            let den = den
                .checked_neg()
                .expect("Rational::new overflow: denominator is i128::MIN");
            (num, den)
        } else {
            (num, den)
        };
        // g divides the (positive) denominator, so it always fits in i128.
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        #[expect(clippy::disallowed_methods, reason = "gcds of denominators fit i128")]
        let g = i128::try_from(g).expect("Rational::new: gcd exceeds i128");
        if g <= 1 {
            Rational { num, den }
        } else {
            Rational {
                num: num / g, // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
                den: den / g, // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
            }
        }
    }

    /// `num/den` from components already in canonical form (`den > 0`,
    /// coprime): what a narrow copy of a `Rational` hands back.
    #[inline]
    pub(crate) const fn from_canonical(num: i128, den: i128) -> Rational {
        Rational { num, den }
    }

    /// Constructs the integer `n` as a rational.
    #[inline]
    pub const fn from_int(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// The numerator of the reduced form (sign-carrying).
    #[inline]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the reduced form (always positive).
    #[inline]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// `true` iff the value is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` iff the value is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// `true` iff the value is an integer.
    #[inline]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Absolute value.
    ///
    /// # Panics
    /// Panics if the numerator is `i128::MIN`.
    #[inline]
    pub fn abs(self) -> Rational {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let num = self
            .num
            .checked_abs()
            .expect("Rational::abs overflow: numerator is i128::MIN");
        Rational { num, den: self.den }
    }

    /// Largest integer `≤ self` (mathematical floor, correct for negatives).
    #[inline]
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `≥ self` (mathematical ceiling, correct for negatives).
    #[inline]
    pub fn ceil(self) -> i128 {
        // floor + 1 unless exact; avoids negating the numerator, which
        // would overflow for i128::MIN. `q + 1` cannot overflow: den ≥ 2
        // whenever the remainder is nonzero, so q < i128::MAX.
        let q = self.num.div_euclid(self.den);
        // audit: allow(panic-reach, den is nonzero by the Rational::new contract)
        if self.num % self.den == 0 {
            q
        } else {
            q + 1
        }
    }

    /// Reciprocal `den/num`.
    ///
    /// # Panics
    /// Panics if the value is zero.
    #[inline]
    pub fn recip(self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero"); // audit: allow(panic-reach, documented contract: zero denominators and non-positive divisors panic)
        Rational::new(self.den, self.num)
    }

    /// `self · n` for an integer factor, cross-reducing `gcd(n, den)`
    /// once and skipping the normalizing gcd entirely: the result of
    /// multiplying a canonical `num/den` by the coprime pair
    /// `(n/g) / (den/g)` is already in lowest terms. Agrees exactly with
    /// `self * Rational::from_int(n)` (proptested), one gcd cheaper —
    /// this is the per-interval multiply of the closed-form tracker
    /// advancement, where `n` is a slot count.
    ///
    /// # Panics
    /// Panics if the product numerator overflows `i128`.
    #[inline]
    pub fn mul_int(self, n: i64) -> Rational {
        if let (Some((a, b)), Ok(n)) = (self.small_parts(), i32::try_from(n)) {
            return mul_int_small(a, b, i64::from(n));
        }
        self.mul_int_wide(n)
    }

    /// Integer multiple in checked `i128` — any operands.
    #[inline]
    fn mul_int_wide(self, n: i64) -> Rational {
        let n = i128::from(n);
        #[expect(clippy::disallowed_methods, reason = "gcds of denominators fit i128")]
        let g = i128::try_from(gcd(n.unsigned_abs(), self.den.unsigned_abs()))
            .expect("Rational mul_int: gcd exceeds i128");
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let num = self
            .num
            .checked_mul(n / g) // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
            .expect("Rational mul_int overflow");
        // gcd(num·(n/g), den/g) = 1: num ⟂ den by canonical form and
        // (n/g) ⟂ (den/g) by construction, so no reduction is needed.
        Rational {
            num,
            den: self.den / g, // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
        }
    }

    /// Both components as `i64`s when they pass the small-operand gate
    /// (module docs).
    #[inline]
    fn small_parts(self) -> Option<(i64, i64)> {
        small(self.num).zip(small(self.den))
    }

    /// `self + rhs`, or `None` if an intermediate overflows `i128` —
    /// the form for sums of untrusted length, such as a ledger of every
    /// admitted weight. The `+` operator panics there instead.
    #[inline]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), rhs.small_parts()) {
            return Some(add_small(a, b, c, d));
        }
        self.add_wide(rhs)
    }

    /// `self − rhs`, or `None` on overflow ([`Rational::checked_add`]).
    #[inline]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), rhs.small_parts()) {
            return Some(add_small(a, b, -c, d));
        }
        self.add_wide(Rational {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Addition in checked `i128` — any operands; `None` on overflow.
    #[inline]
    fn add_wide(self, rhs: Rational) -> Option<Rational> {
        if self.den == rhs.den {
            // Same-denominator fast path: a/d + c/d = (a+c)/d, skipping
            // the denominator gcd and the two cross-multiplies. The
            // general path below degenerates to exactly this when b = d
            // (g = d collapses both scale factors to 1), so the result
            // and the overflow point are identical — only the reduction
            // inside `new` remains.
            return Some(Rational::new(self.num.checked_add(rhs.num)?, self.den));
        }
        // a/b + c/d = (a*d + c*b) / (b*d); reduce via g = gcd(b, d) first to
        // keep intermediates small (the classic Knuth trick). The gcd
        // divides a positive denominator, so it fits.
        let g = i128::try_from(gcd(self.den.unsigned_abs(), rhs.den.unsigned_abs())).ok()?;
        let (b, d) = (self.den / g, rhs.den / g); // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
        let num = self
            .num
            .checked_mul(d)?
            .checked_add(rhs.num.checked_mul(b)?)?;
        Some(Rational::new(num, self.den.checked_mul(d)?))
    }

    /// Checked multiplication used by the operator impls.
    #[inline]
    fn product(self, rhs: Rational) -> Rational {
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), rhs.small_parts()) {
            return mul_small(a, b, c, d);
        }
        self.mul_wide(rhs)
    }

    /// Multiplication in checked `i128` — any operands.
    #[inline]
    fn mul_wide(self, rhs: Rational) -> Rational {
        // Cross-reduce before multiplying to keep intermediates small.
        // Each gcd divides a positive denominator, so both fit in i128.
        #[expect(clippy::disallowed_methods, reason = "gcds of denominators fit i128")]
        let g1 = i128::try_from(gcd(self.num.unsigned_abs(), rhs.den.unsigned_abs()))
            .expect("Rational mul: gcd exceeds i128");
        #[expect(clippy::disallowed_methods, reason = "gcds of denominators fit i128")]
        let g2 = i128::try_from(gcd(rhs.num.unsigned_abs(), self.den.unsigned_abs()))
            .expect("Rational mul: gcd exceeds i128");
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let num = (self.num / g1) // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
            .checked_mul(rhs.num / g2) // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
            .expect("Rational mul overflow");
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let den = (self.den / g2) // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
            .checked_mul(rhs.den / g1) // audit: allow(panic-reach, divisor is a gcd or a normalized denominator, both nonzero by construction)
            .expect("Rational mul overflow");
        Rational::new(num, den)
    }

    /// The minimum of two rationals.
    #[inline]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    #[inline]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Lossy conversion to `f64` (for statistics and plotting only; never
    /// used in scheduling decisions).
    #[inline]
    #[expect(
        clippy::as_conversions,
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "the one exact-to-float conversion, for reporting only"
    )]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `⌊n / self⌋` for an integer `n` — the floor of `n` divided by this
    /// rational, computed exactly. Used for subtask releases
    /// `r(T_i) = ⌊(i−1)/wt⌋`.
    ///
    /// # Panics
    /// Panics if `self` is not strictly positive.
    #[inline]
    pub fn div_floor_int(self, n: i128) -> i128 {
        assert!(self.is_positive(), "div_floor_int by non-positive rational"); // audit: allow(panic-reach, documented contract: zero denominators and non-positive divisors panic)
        if let (Some(n), Some((num, den))) = (small(n), self.small_parts()) {
            return i128::from(div_floor_small(n, num, den));
        }
        self.div_floor_int_wide(n)
    }

    /// Floor quotient in checked `i128` — any operands, `self > 0`.
    #[inline]
    fn div_floor_int_wide(self, n: i128) -> i128 {
        // n / (num/den) = n*den / num
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let prod = n.checked_mul(self.den).expect("div_floor_int overflow");
        prod.div_euclid(self.num)
    }

    /// `⌈n / self⌉` for an integer `n` — the ceiling of `n` divided by this
    /// rational, computed exactly. Used for subtask deadlines
    /// `d(T_i) = ⌈i/wt⌉`.
    ///
    /// # Panics
    /// Panics if `self` is not strictly positive.
    #[inline]
    pub fn div_ceil_int(self, n: i128) -> i128 {
        assert!(self.is_positive(), "div_ceil_int by non-positive rational"); // audit: allow(panic-reach, documented contract: zero denominators and non-positive divisors panic)
        if let (Some(n), Some((num, den))) = (small(n), self.small_parts()) {
            return i128::from(div_ceil_small(n, num, den));
        }
        self.div_ceil_int_wide(n)
    }

    /// Ceiling quotient in checked `i128` — any operands, `self > 0`.
    #[inline]
    fn div_ceil_int_wide(self, n: i128) -> i128 {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let prod = n.checked_mul(self.den).expect("div_ceil_int overflow");
        // Same negation-free ceiling as `Rational::ceil`.
        let q = prod.div_euclid(self.num);
        // audit: allow(panic-reach, num is positive by the caller's assert)
        if prod % self.num == 0 {
            q
        } else {
            q + 1
        }
    }

    /// The window of the rank-`k` subtask (`k ≥ 1`) of a task of this
    /// weight, relative to its release: the length
    /// `⌈k/self⌉ − ⌊(k − 1)/self⌋` (the bracketed term of Eqn (2)) and
    /// the b-bit `⌈k/self⌉ ≠ ⌊k/self⌋` (Eqn (3)) — what every subtask
    /// release computes. Inside the gate the three quotients share one
    /// product and cost two native divisions; outside it they are the
    /// three [`Rational::div_ceil_int`] / [`Rational::div_floor_int`]
    /// calls the definition spells.
    ///
    /// # Panics
    /// Panics if `self` is not strictly positive.
    #[inline]
    pub fn rank_window(self, k: u64) -> (i128, bool) {
        if let (Ok(k), Some((num, den))) = (i32::try_from(k), self.small_parts()) {
            if k >= 1 && num >= 1 {
                let (len, b) = rank_window_small(i64::from(k), num, den);
                return (i128::from(len), b);
            }
        }
        let k = i128::from(k);
        let deadline = self.div_ceil_int(k);
        (
            deadline - self.div_floor_int(k - 1),
            deadline != self.div_floor_int(k),
        )
    }
}

/// A quantity counted in *era units*: the numerator `n` of `n/unit`,
/// where the positive `unit` is kept once by whoever owns the era (an
/// ideal tracker, an [`Accumulator`]) instead of beside every value.
///
/// Within one era of an ideal schedule every allocation is an integer
/// multiple of `1/unit` (DESIGN.md, "The era-unit invariant"), so the
/// bookkeeping needs integer adds, one multiply and one division per
/// subtask and no gcd at all; a canonical [`Rational`] is built only
/// where a value is read ([`Units::over`]). Counts are native `i64`: the
/// engine admits a weight only if every count its era can reach fits
/// (DESIGN.md, "The arithmetic budget"). Same contract as `Rational`
/// beyond that: every operation is overflow-checked and panics with the
/// module's documented messages instead of wrapping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Units(i64);

impl Units {
    /// Nothing.
    pub const ZERO: Units = Units(0);

    /// `n` units.
    #[inline]
    pub const fn new(n: i64) -> Units {
        Units(n)
    }

    /// The count itself.
    #[inline]
    pub const fn get(self) -> i64 {
        self.0
    }

    /// `true` iff the count is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` iff the count is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// `true` iff the count is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `r`'s reduced denominator as a unit, `None` if it does not fit
    /// `i64`.
    #[inline]
    pub fn checked_denom(r: Rational) -> Option<Units> {
        i64::try_from(r.den).ok().map(Units)
    }

    /// [`Units::checked_denom`] under the module's overflow contract.
    ///
    /// # Panics
    /// Panics if the denominator does not fit `i64`.
    #[inline]
    pub fn denom(r: Rational) -> Units {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        Units::checked_denom(r).expect("Rational mul overflow")
    }

    /// `r` counted in `unit`s, for a `unit` that is a multiple of `r`'s
    /// denominator (otherwise the count would not be an integer);
    /// `None` if the count overflows `i64`.
    #[inline]
    pub fn checked_of(r: Rational, unit: Units) -> Option<Units> {
        let unit = i128::from(unit.0);
        debug_assert!(unit % r.den == 0, "{r} is not a multiple of 1/{unit}");
        let count = if r.den == unit {
            r.num
        } else {
            // `den` is positive by the `Rational` invariant.
            r.num.checked_mul(unit / r.den.max(1))?
        };
        i64::try_from(count).ok().map(Units)
    }

    /// [`Units::checked_of`] under the module's overflow contract.
    ///
    /// # Panics
    /// Panics if the count overflows `i64`.
    #[inline]
    pub fn of(r: Rational, unit: Units) -> Units {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        Units::checked_of(r, unit).expect("Rational mul_int overflow")
    }

    /// The value `self/unit` in canonical form — the one gcd of a
    /// quantity kept in era units, paid where it is read.
    ///
    /// # Panics
    /// Panics if `unit` is zero.
    #[inline]
    pub fn over(self, unit: Units) -> Rational {
        Rational::new(i128::from(self.0), i128::from(unit.0))
    }

    /// The denominator of `self/unit` in lowest terms, for a positive
    /// `unit`.
    #[inline]
    pub fn denom_over(self, unit: Units) -> Units {
        if self.0 == 0 {
            return Units(1);
        }
        // `gcd_small` is at least 1 already; `.max(1)` is the form the
        // panic-reach pass reads as nonzero.
        Units(unit.0 / gcd_small(self.0, unit.0).max(1))
    }

    /// `gcd(|self|, unit)` for a positive `unit`: the largest divisor of
    /// `unit` that the count is a whole multiple of (`unit` itself for a
    /// zero count). Where one divides the other — a rate of one, an
    /// allocation the unit's divisor goes into — that is a remainder,
    /// not a gcd.
    #[inline]
    pub fn gcd(self, unit: Units) -> Units {
        // `unit` is positive; `.max(1)` is that in the form the
        // panic-reach pass reads as nonzero.
        if self.0 % unit.0.max(1) == 0 {
            return unit;
        }
        let count = self.0.unsigned_abs();
        if unit.0.unsigned_abs().is_multiple_of(count) {
            // It divides the positive `unit`, so it fits.
            return Units(i64::try_from(count).unwrap_or(1));
        }
        Units(gcd_small(self.0, unit.0))
    }

    /// The least common multiple of two positive units, `None` if it
    /// overflows `i64`.
    #[inline]
    pub fn checked_lcm(self, other: Units) -> Option<Units> {
        debug_assert!(self.0 > 0 && other.0 > 0, "units are positive");
        // Units are positive; `.max(1)` is that in the form the
        // panic-reach pass reads as nonzero.
        if self.0 % other.0.max(1) == 0 {
            return Some(self);
        }
        if other.0 % self.0.max(1) == 0 {
            return Some(other);
        }
        (self.0 / gcd_small(self.0, other.0).max(1))
            .checked_mul(other.0)
            .map(Units)
    }

    /// The same quantity counted in `to` instead of `from`, for a `to`
    /// that is a multiple of the quantity's reduced denominator.
    ///
    /// # Panics
    /// Panics if the count overflows `i64`.
    #[inline]
    pub fn rescaled(self, from: Units, to: Units) -> Units {
        if self.0 == 0 || from == to {
            return self;
        }
        match self.exactly_in(from, to) {
            Some(count) => count,
            None => Units::of(self.over(from), to),
        }
    }

    /// The same quantity counted in `to` instead of `from`, when one unit
    /// is a multiple of the other and the count comes out whole: one
    /// multiply or one division, no gcd. `None` otherwise, or if the
    /// count overflows `i64`.
    #[inline]
    pub fn exactly_in(self, from: Units, to: Units) -> Option<Units> {
        // Units are positive; `.max(1)` is that in the form the
        // panic-reach pass reads as nonzero.
        let (from, to) = (from.0, to.0);
        if to % from.max(1) == 0 {
            return self.0.checked_mul(to / from.max(1)).map(Units);
        }
        let k = if from % to.max(1) == 0 {
            from / to.max(1)
        } else {
            0
        };
        (k > 0 && self.0 % k.max(1) == 0).then(|| Units(self.0 / k.max(1)))
    }

    /// `self · n` for a slot count `n`.
    ///
    /// # Panics
    /// Panics if the product overflows `i64`.
    #[inline]
    pub fn times(self, n: i64) -> Units {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        Units(self.0.checked_mul(n).expect("Rational mul_int overflow"))
    }

    /// Whole slots until a quantity growing by `rate` per slot has
    /// covered `self`: `⌈self / rate⌉` — the one spelling of "slots
    /// until `I_SW` completes the subtask". `0` for a non-positive
    /// `self`, and `i64::MAX` ("never") for a non-positive `rate`.
    #[inline]
    pub fn slots_at(self, rate: Units) -> i64 {
        if self.0 <= 0 {
            return 0;
        }
        if rate.0 <= 0 {
            return i64::MAX;
        }
        ceil_div_positive(self.0, rate.0)
    }
}

/// `⌈a / b⌉` for positive operands, as `(a − 1) / b + 1`: neither step
/// can overflow. `b.max(1)` is `b` itself in the form the panic-reach
/// pass reads as nonzero.
// audit: prove(overflow-bounds)
// audit: assume(a in 1..=9223372036854775807)
// audit: assume(b in 1..=9223372036854775807)
#[inline]
fn ceil_div_positive(a: i64, b: i64) -> i64 {
    (a - 1) / b.max(1) + 1
}

impl Add for Units {
    type Output = Units;
    /// # Panics
    /// Panics if the sum overflows `i128`.
    #[inline]
    fn add(self, rhs: Units) -> Units {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let sum = self.0.checked_add(rhs.0).expect("Rational add overflow");
        Units(sum)
    }
}

impl AddAssign for Units {
    #[inline]
    fn add_assign(&mut self, rhs: Units) {
        *self = *self + rhs;
    }
}

impl Sub for Units {
    type Output = Units;
    /// # Panics
    /// Panics if the difference overflows `i128`.
    #[inline]
    fn sub(self, rhs: Units) -> Units {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let difference = self.0.checked_sub(rhs.0).expect("Rational add overflow");
        Units(difference)
    }
}

/// Exact running sum in one unit that only gets finer: a count of
/// `1/unit`s, plus a canonical base that is zero until a recount would
/// leave `i64`.
///
/// Every sum on the reweight path is one: the ideal trackers' totals,
/// the halted loss, admission's `Σ committed`. A caller adds a count in
/// its own unit ([`Accumulator::add_units`]); the accumulator counts in a
/// multiple of every unit it has been given, so an add is one multiply
/// and one checked `i64` add, and two sums that saw the same
/// denominators count alike: their difference is one integer difference
/// and one reduction ([`Accumulator::minus`]). The unit changes only in
/// a refinement ([`Accumulator::refine`]), so an owner that adds in one
/// unit keeps the factor between the two ([`Accumulator::per`]) and
/// divides nothing per add. A refinement recounts the sum into
/// `lcm(unit, new)` while the lcm and the recounted count fit `i64`; past
/// that the count folds into the base and counting restarts in the new
/// unit, and an add whose count would leave `i64` folds too, keeping the
/// unit: the one place a gcd runs before the value is read
/// ([`Accumulator::finish`]). The base is boxed, so a sum that never
/// folds is three words and no `Rational`. Beyond the base the module's
/// overflow contract holds: a base that leaves `i128` panics with its
/// documented message. Equality compares values, not representations.
#[derive(Clone, Debug)]
pub struct Accumulator {
    /// What folded in; `None` for zero.
    base: Option<Box<Rational>>,
    num: Units,
    unit: Units,
}

impl Accumulator {
    /// An empty sum (zero, counting in whole units).
    #[inline]
    pub const fn new() -> Accumulator {
        Accumulator {
            base: None,
            num: Units::ZERO,
            unit: Units(1),
        }
    }

    /// The unit the sum counts in: a multiple of every unit it was given
    /// since it last folded.
    #[inline]
    pub const fn unit(&self) -> Units {
        self.unit
    }

    /// `n/unit`, counting in `unit`, for a positive `unit`.
    #[inline]
    pub const fn of(n: Units, unit: Units) -> Accumulator {
        debug_assert!(unit.is_positive(), "units are positive");
        Accumulator {
            base: None,
            num: n,
            unit,
        }
    }

    /// The sum as `(count, unit)`, when nothing is folded into the base.
    #[inline]
    pub fn counted(&self) -> Option<(Units, Units)> {
        self.base.is_none().then_some((self.num, self.unit))
    }

    /// Whether a count has ever folded into the base.
    #[inline]
    pub fn is_folded(&self) -> bool {
        self.base.is_some()
    }

    /// The sum recounted in `lcm(self.unit, unit)`, `None` if the lcm or
    /// the count leaves `i64`.
    #[inline]
    fn recounted(&self, unit: Units) -> Option<(Units, Units)> {
        let fine = self.unit.checked_lcm(unit)?;
        // Units are positive; `.max(1)` is that in the form the
        // panic-reach pass reads as nonzero.
        let count = self.num.0.checked_mul(fine.0 / self.unit.0.max(1))?;
        Some((Units(count), fine))
    }

    /// Counts in a multiple of `unit` from now on: the sum is recounted
    /// in `lcm(self.unit, unit)` (one multiply), or, where that leaves
    /// `i64`, folded into the base to count afresh in `unit`. No work
    /// when `unit` divides the unit already.
    ///
    /// # Panics
    /// Panics if `unit` is not positive, or if a fold leaves `i128` (same
    /// contract as `Rational` addition).
    pub fn refine(&mut self, unit: Units) {
        assert!(unit.is_positive(), "Rational with zero denominator"); // audit: allow(panic-reach, documented contract: zero denominators and non-positive divisors panic)
        if self.unit.0 % unit.0.max(1) == 0 {
            return;
        }
        match self.recounted(unit) {
            Some((num, fine)) => (self.num, self.unit) = (num, fine),
            None => {
                self.fold(Rational::ZERO);
                self.unit = unit;
            }
        }
    }

    /// Adds `n/unit`, refining to `unit` first if the sum does not count
    /// in a multiple of it.
    ///
    /// # Panics
    /// As [`Accumulator::refine`].
    #[inline]
    pub fn add_units(&mut self, n: Units, unit: Units) {
        let per = self.per(unit);
        self.add_units_per(n, unit, per);
    }

    /// How many of the sum's units make one `unit`, refining to `unit`
    /// first if that is not whole: one division, whose remainder says
    /// whether it is. The unit changes only in a refinement, so an owner
    /// that adds in one unit many times keeps this and adds with
    /// [`Accumulator::add_units_per`], dividing nothing.
    ///
    /// # Panics
    /// As [`Accumulator::refine`].
    #[inline]
    pub fn per(&mut self, unit: Units) -> i64 {
        if unit == self.unit {
            return 1;
        }
        // Units are positive; `.max(1)` is that in the form the
        // panic-reach pass reads as nonzero.
        if self.unit.0 % unit.0.max(1) != 0 {
            self.refine(unit);
        }
        self.unit.0 / unit.0.max(1)
    }

    /// Adds `n/unit`, for the `per` that [`Accumulator::per`] gave for
    /// `unit` with no refinement since: one multiply and one add, and a
    /// fold where the count would leave `i64`.
    #[inline]
    pub fn add_units_per(&mut self, n: Units, unit: Units, per: i64) {
        debug_assert_eq!(unit.0.checked_mul(per), Some(self.unit.0), "a stale `per`");
        match n.0.checked_mul(per).and_then(|n| self.num.0.checked_add(n)) {
            Some(sum) => self.num = Units(sum),
            None => self.fold(n.over(unit)),
        }
    }

    /// The sum so far plus `r` into the base; counting restarts at zero
    /// in the same unit.
    #[cold]
    #[inline(never)]
    fn fold(&mut self, r: Rational) {
        let sum = self.finish() + r;
        self.base = (!sum.is_zero()).then(|| Box::new(sum));
        self.num = Units::ZERO;
    }

    /// The sum with `r` added: counted where `r`'s components fit `i64`,
    /// folded into the base otherwise.
    ///
    /// # Panics
    /// As [`Accumulator::refine`].
    #[must_use]
    pub fn plus(mut self, r: Rational) -> Accumulator {
        match (i64::try_from(r.num), Units::checked_denom(r)) {
            (Ok(n), Some(unit)) => self.add_units(Units(n), unit),
            _ => self.fold(r),
        }
        self
    }

    /// `self − other` in canonical form. Two sums that count in one unit,
    /// or where one unit is the other's multiple, and have folded nothing
    /// differ by one integer difference and one reduction; others by the
    /// difference of their values.
    ///
    /// # Panics
    /// On overflow (same contract as `Rational` subtraction).
    #[inline]
    pub fn minus(&self, other: &Accumulator) -> Rational {
        if self.base.is_none() && other.base.is_none() {
            let (a, b) = (i128::from(self.num.0), i128::from(other.num.0));
            let (u, v) = (self.unit.0, other.unit.0);
            // Units are positive; `.max(1)` is that in the form the
            // panic-reach pass reads as nonzero. Each product of two
            // `i64`s, and their difference, fits `i128`.
            if u == v {
                return Rational::new(a - b, i128::from(u));
            }
            if u % v.max(1) == 0 {
                return Rational::new(a - b * i128::from(u / v.max(1)), i128::from(u));
            }
            if v % u.max(1) == 0 {
                return Rational::new(a * i128::from(v / u.max(1)) - b, i128::from(v));
            }
        }
        self.finish() - other.finish()
    }

    /// The exact sum so far in canonical form.
    ///
    /// # Panics
    /// On overflow (same contract as `Rational` addition).
    #[inline]
    pub fn finish(&self) -> Rational {
        match &self.base {
            None => self.num.over(self.unit),
            Some(base) if self.num.is_zero() => **base,
            Some(base) => **base + self.num.over(self.unit),
        }
    }

    /// [`Accumulator::finish`], `None` where the sum leaves `i128`.
    #[inline]
    pub fn checked_finish(&self) -> Option<Rational> {
        let counted = self.num.over(self.unit);
        match &self.base {
            None => Some(counted),
            Some(base) => base.checked_add(counted),
        }
    }
}

impl PartialEq for Accumulator {
    fn eq(&self, other: &Accumulator) -> bool {
        if self.base.is_none() && other.base.is_none() && self.unit == other.unit {
            return self.num == other.num;
        }
        self.finish() == other.finish()
    }
}

impl Eq for Accumulator {}

impl From<Rational> for Accumulator {
    /// A sum that starts at `r`: counted in `den(r)` where its components
    /// fit `i64`.
    fn from(r: Rational) -> Accumulator {
        Accumulator::new().plus(r)
    }
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator::new()
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    #[inline]
    fn add(self, rhs: Rational) -> Rational {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        self.checked_add(rhs).expect("Rational add overflow")
    }
}

impl AddAssign for Rational {
    #[inline]
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    #[inline]
    fn sub(self, rhs: Rational) -> Rational {
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), rhs.small_parts()) {
            return add_small(a, b, -c, d);
        }
        self + -rhs
    }
}

impl SubAssign for Rational {
    #[inline]
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    /// # Panics
    /// Panics if the numerator is `i128::MIN`.
    #[inline]
    fn neg(self) -> Rational {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        let num = self
            .num
            .checked_neg()
            .expect("Rational::neg overflow: numerator is i128::MIN");
        Rational { num, den: self.den }
    }
}

impl Mul for Rational {
    type Output = Rational;
    #[inline]
    fn mul(self, rhs: Rational) -> Rational {
        self.product(rhs)
    }
}

impl Mul<i128> for Rational {
    type Output = Rational;
    #[inline]
    fn mul(self, rhs: i128) -> Rational {
        self.product(Rational::from_int(rhs))
    }
}

impl Div for Rational {
    type Output = Rational;
    #[inline]
    fn div(self, rhs: Rational) -> Rational {
        self.product(rhs.recip())
    }
}

impl PartialOrd for Rational {
    #[inline]
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    #[inline]
    fn cmp(&self, other: &Rational) -> Ordering {
        #[expect(clippy::disallowed_methods, reason = "documented overflow panic")]
        self.checked_cmp(other).expect("Rational cmp overflow")
    }
}

impl Rational {
    /// The ordering of `self` and `other`, or `None` if the cross
    /// products overflow `i128` ([`Rational::checked_add`]'s form).
    #[inline]
    pub fn checked_cmp(&self, other: &Rational) -> Option<Ordering> {
        if let (Some((a, b)), Some((c, d))) = (self.small_parts(), other.small_parts()) {
            return Some(cmp_small(a, b, c, d));
        }
        self.cmp_wide(other)
    }

    /// Comparison in checked `i128` — any operands; `None` on overflow.
    #[inline]
    fn cmp_wide(&self, other: &Rational) -> Option<Ordering> {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0).
        let lhs = self.num.checked_mul(other.den)?;
        let rhs = other.num.checked_mul(self.den)?;
        Some(lhs.cmp(&rhs))
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Convenience constructor: `rat(3, 19)` is `3/19`.
#[inline]
pub fn rat(num: i128, den: i128) -> Rational {
    Rational::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_reduces_and_fixes_sign() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, -7), Rational::ZERO);
        assert_eq!(rat(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn add_sub_mul_div_basic() {
        assert_eq!(rat(1, 3) + rat(1, 6), rat(1, 2));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(3, 19) * rat(19, 3), Rational::ONE);
        assert_eq!(rat(5, 16) / rat(5, 16), Rational::ONE);
        assert_eq!(-rat(3, 4), rat(-3, 4));
    }

    #[test]
    fn floor_ceil_handle_negatives() {
        assert_eq!(rat(7, 2).floor(), 3);
        assert_eq!(rat(7, 2).ceil(), 4);
        assert_eq!(rat(-7, 2).floor(), -4);
        assert_eq!(rat(-7, 2).ceil(), -3);
        assert_eq!(rat(6, 2).floor(), 3);
        assert_eq!(rat(6, 2).ceil(), 3);
        assert_eq!(Rational::ZERO.floor(), 0);
        assert_eq!(Rational::ZERO.ceil(), 0);
    }

    #[test]
    fn div_floor_ceil_int_match_paper_window_math() {
        // Weight 5/16 (Fig. 1): r(T_2) = ⌊1/(5/16)⌋ = 3, d(T_2) = ⌈2/(5/16)⌉ = 7.
        let w = rat(5, 16);
        assert_eq!(w.div_floor_int(1), 3);
        assert_eq!(w.div_ceil_int(2), 7);
        // Weight 2/5: d(T_1) = ⌈1/(2/5)⌉ = 3.
        assert_eq!(rat(2, 5).div_ceil_int(1), 3);
        // Exact division has floor == ceil.
        assert_eq!(rat(1, 4).div_floor_int(2), 8);
        assert_eq!(rat(1, 4).div_ceil_int(2), 8);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(rat(1, 3) < rat(2, 5));
        assert!(rat(3, 19) < rat(2, 5));
        assert!(rat(-1, 2) < Rational::ZERO);
        assert_eq!(rat(10, 20).cmp(&rat(1, 2)), Ordering::Equal);
        assert_eq!(rat(1, 3).max(rat(2, 5)), rat(2, 5));
        assert_eq!(rat(1, 3).min(rat(2, 5)), rat(1, 3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", rat(3, 19)), "3/19");
        assert_eq!(format!("{}", rat(4, 2)), "2");
        assert_eq!(format!("{}", rat(-1, 2)), "-1/2");
    }

    #[test]
    fn to_f64_is_close() {
        assert!((rat(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn recip_and_integer_checks() {
        assert_eq!(rat(3, 19).recip(), rat(19, 3));
        assert!(rat(4, 2).is_integer());
        assert!(!rat(5, 2).is_integer());
        assert!(rat(1, 2).is_positive());
        assert!(rat(-1, 2).is_negative());
    }

    #[test]
    fn same_denominator_add_reduces_canonically() {
        // The fast path still ends at `new`, so sums that reduce must
        // come out in lowest terms.
        assert_eq!(rat(1, 6) + rat(1, 6), rat(1, 3));
        assert_eq!(rat(5, 6) + rat(1, 6), Rational::ONE);
        assert_eq!(rat(1, 6) - rat(1, 6), Rational::ZERO);
        assert_eq!(rat(1, 6) - rat(5, 6), rat(-2, 3));
        // Near-overflow same-denominator operands stay exact.
        let d = i128::MAX;
        assert_eq!(
            Rational::new(i128::MAX - 3, d) + Rational::new(2, d),
            Rational::new(i128::MAX - 1, d)
        );
    }

    #[test]
    fn mul_int_matches_general_multiplication() {
        assert_eq!(rat(3, 20).mul_int(0), Rational::ZERO);
        assert_eq!(rat(3, 20).mul_int(20), rat(3, 1));
        assert_eq!(rat(3, 20).mul_int(7), rat(21, 20));
        assert_eq!(rat(-3, 20).mul_int(5), rat(-3, 4));
        assert_eq!(rat(3, 20).mul_int(-5), rat(-3, 4));
        // Result is canonical without a final reduction.
        let r = rat(25, 2520).mul_int(504);
        assert_eq!((r.numer(), r.denom()), (5, 1));
    }

    #[test]
    fn accumulator_matches_chained_addition() {
        let terms = [rat(3, 19), rat(2, 19), rat(5, 16), rat(-1, 2), rat(7, 19)];
        let mut acc = Accumulator::new();
        let mut chained = Rational::ZERO;
        for t in terms {
            let unit = Units::checked_denom(t).expect("a small denominator");
            acc.add_units(Units::of(t, unit), unit);
            chained += t;
            assert_eq!(acc.finish(), chained);
        }
        assert!(!acc.is_folded());
        assert_eq!(acc.unit(), Units::new(19 * 16));
        assert_eq!(Accumulator::new().finish(), Rational::ZERO);
    }

    /// The unit only gets finer: what was counted is recounted in the
    /// lcm, nothing folds, and equality sees through the representation.
    #[test]
    fn accumulator_counts_in_a_finer_unit() {
        let mut acc = Accumulator::from(rat(1, 3));
        acc.refine(Units::new(19));
        for n in [3, 2, 7] {
            acc.add_units(Units::new(n), Units::new(19));
        }
        assert_eq!(acc.unit(), Units::new(57));
        assert_eq!(acc.finish(), rat(1, 3) + rat(12, 19));
        let other = Accumulator::from(acc.finish());
        assert_eq!(acc, other);
        assert_ne!(acc, other.clone().plus(rat(1, 19)));
        acc.add_units(Units::new(2), Units::new(5));
        assert_eq!(acc.unit(), Units::new(285));
        assert_eq!(acc.finish(), rat(1, 3) + rat(12, 19) + rat(2, 5));
        assert_eq!(
            acc.clone().plus(rat(1, 2)).finish(),
            acc.finish() + rat(1, 2)
        );
        assert!(!acc.is_folded());
        assert_eq!(acc.minus(&other), rat(2, 5));
    }

    /// Tasks toggling `1/12 ↔ 1/8 ↔ 1/15` count in 120ths from the
    /// second change on, and never fold.
    #[test]
    fn toggling_denominators_leave_the_base_zero() {
        let mut acc = Accumulator::new();
        let mut exact = Rational::ZERO;
        for round in 0..300_i64 {
            let den = [12, 8, 15][usize::try_from(round % 3).expect("small")];
            acc.refine(Units::new(den));
            acc.add_units(Units::new(round), Units::new(den));
            exact += rat(i128::from(round), i128::from(den));
            assert_eq!(acc.finish(), exact);
        }
        assert!(acc.base.is_none());
        assert_eq!(acc.unit(), Units::new(120));
    }

    /// Past `i64` a recount folds into the base, and so does an add;
    /// the sum stays exact either way.
    #[test]
    fn accumulator_folds_only_past_i64() {
        let big = Units::new((1 << 40) + 15);
        let mut acc = Accumulator::new();
        acc.add_units(Units::new(3), big);
        acc.refine(Units::new((1 << 30) + 3));
        assert!(acc.is_folded());
        assert_eq!(acc.finish(), Units::new(3).over(big));
        let mut acc = Accumulator::new();
        acc.add_units(Units::new(i64::MAX - 1), Units::new(1));
        acc.add_units(Units::new(2), Units::new(1));
        assert!(acc.is_folded());
        assert_eq!(acc.finish(), Rational::from_int(i128::from(i64::MAX) + 1));
    }

    #[test]
    #[should_panic(expected = "Rational add overflow")]
    fn accumulator_overflow_is_descriptive() {
        let mut acc = Accumulator::from(Rational::from_int(i128::MAX));
        acc.add_units(Units::new(1), Units::new(1));
        let _ = acc.finish();
    }

    #[test]
    fn units_arithmetic_is_exact() {
        let unit = Units::new(95);
        // Fig. 7: X_2 holds 5/19 when its weight becomes 2/5.
        let cum = Units::of(rat(5, 19), unit);
        let rate = Units::of(rat(2, 5), unit);
        assert_eq!((cum.get(), rate.get()), (25, 38));
        let remaining = unit - cum;
        assert_eq!(remaining.slots_at(rate), 2);
        assert_eq!((remaining - rate.times(1)).over(unit), rat(32, 95));
        assert_eq!(cum.denom_over(unit), Units::new(19));
        assert_eq!(Units::ZERO.denom_over(unit), Units::new(1));
        assert_eq!(Units::new(19).checked_lcm(Units::new(5)), Some(unit));
        assert_eq!(unit.checked_lcm(Units::new(19)), Some(unit));
        assert_eq!(cum.rescaled(unit, Units::new(19)), Units::new(5));
        assert_eq!(cum.rescaled(unit, Units::new(190)), Units::new(50));
        // Ceiling division: exact, inexact, nothing left, never.
        assert_eq!(Units::new(76).slots_at(rate), 2);
        assert_eq!(Units::new(77).slots_at(rate), 3);
        assert_eq!(Units::ZERO.slots_at(rate), 0);
        assert_eq!(remaining.slots_at(Units::ZERO), i64::MAX);
    }

    /// Counts up to `i64::MAX` stay exact, and what does not fit is
    /// `None` or a panic instead of a wrapped value.
    #[test]
    fn units_wide_operands_stay_exact() {
        let big = Units::new(1 << 60);
        assert_eq!(big.times(3).get(), 3 << 60);
        assert_eq!(Units::new(3 << 60).slots_at(big), 3);
        assert_eq!(Units::new((3 << 60) + 1).slots_at(big), 4);
        assert_eq!(Units::new(i64::MAX).slots_at(Units::new(1)), i64::MAX);
        assert_eq!(Units::new(i64::MAX).slots_at(Units::new(i64::MAX)), 1);
        let (p, q) = (Units::new(2_147_483_629), Units::new(2_147_483_647));
        let unit = p.checked_lcm(q).expect("a 62-bit lcm");
        assert_eq!(unit.get(), 2_147_483_629 * 2_147_483_647);
        let third = Units::of(rat(1, 2_147_483_629), unit);
        assert_eq!(third, q);
        assert_eq!(third.rescaled(unit, p), Units::new(1));
        assert_eq!(third.denom_over(unit), p);
        assert_eq!(Units::new(1 << 62).checked_lcm(Units::new(3)), None);
        assert_eq!(
            Units::checked_of(rat(1, 2), Units::new(1 << 62)),
            Some(Units::new(1 << 61))
        );
        assert_eq!(
            Units::checked_of(rat(1, 1), Units::new(i64::MAX)),
            Some(Units::new(i64::MAX))
        );
        assert_eq!(Units::checked_of(rat(2, 1), Units::new(i64::MAX)), None);
        assert_eq!(
            Units::checked_denom(rat(1, i128::from(i64::MAX))),
            Some(Units::new(i64::MAX))
        );
        assert_eq!(Units::checked_denom(rat(1, 1 << 63)), None);
    }

    #[test]
    #[should_panic(expected = "Rational mul_int overflow")]
    fn units_times_overflow_panics() {
        let _ = Units::new(i64::MAX / 2).times(3);
    }

    #[test]
    #[should_panic(expected = "Rational add overflow")]
    fn units_add_overflow_panics() {
        let _ = Units::new(i64::MAX) + Units::new(1);
    }
}

/// The small-operand path against the checked `i128` path it shadows:
/// operands are drawn on both sides of the `±2³¹` gate and exactly at
/// it, negatives and zero included, and every gated operation must
/// return the wide path's value bit for bit (derived `==` compares the
/// stored components, so a non-canonical result cannot pass).
#[cfg(test)]
mod small_path_tests {
    use super::*;
    use proptest::prelude::*;

    const EDGE_HI: i128 = i32::MAX as i128;
    const EDGE_LO: i128 = i32::MIN as i128;

    /// One component: tiny, mid-range, straddling either edge of the
    /// gate (offset 0 is the edge itself), halfway in (so products of
    /// reduced operands approach 2⁶²), or far outside.
    fn arb_component() -> impl Strategy<Value = i128> {
        (0u8..7, -40i128..=40).prop_map(|(zone, k)| match zone {
            0 => k,
            1 => k * 1_000_003,
            2 => EDGE_HI + k,
            3 => EDGE_LO + k,
            4 => EDGE_HI - k.abs(),
            5 => EDGE_LO + k.abs(),
            _ => (1 << 40) + k,
        })
    }

    fn arb_operand() -> impl Strategy<Value = Rational> {
        (arb_component(), arb_component())
            .prop_map(|(n, d)| Rational::new(n, if d == 0 { 1 } else { d }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn new_matches_the_wide_path(n in arb_component(), d in arb_component()) {
            prop_assume!(d != 0);
            let r = Rational::new(n, d);
            prop_assert_eq!(r, Rational::new_wide(n, d));
            prop_assert!(r.den > 0);
            prop_assert_eq!(gcd(r.num.unsigned_abs(), r.den.unsigned_abs()), 1);
        }

        #[test]
        fn add_sub_mul_match_the_wide_path(a in arb_operand(), b in arb_operand()) {
            prop_assert_eq!(Some(a + b), a.add_wide(b));
            prop_assert_eq!(Some(a - b), a.add_wide(-b));
            prop_assert_eq!(a * b, a.mul_wide(b));
        }

        #[test]
        fn mul_int_matches_the_wide_path(a in arb_operand(), n in arb_component()) {
            let n = i64::try_from(n).expect("components fit i64");
            prop_assert_eq!(a.mul_int(n), a.mul_int_wide(n));
        }

        #[test]
        fn cmp_matches_the_wide_path(a in arb_operand(), b in arb_operand()) {
            prop_assert_eq!(Some(a.cmp(&b)), a.cmp_wide(&b));
        }

        #[test]
        fn div_int_matches_the_wide_path(a in arb_operand(), n in arb_component()) {
            prop_assume!(a.is_positive());
            prop_assert_eq!(a.div_floor_int(n), a.div_floor_int_wide(n));
            prop_assert_eq!(a.div_ceil_int(n), a.div_ceil_int_wide(n));
        }

        /// The fused window against the three checked quotients of its
        /// definition, rank 0 (outside the gate) included.
        #[test]
        fn rank_window_matches_the_wide_path(a in arb_operand(), k in arb_component()) {
            prop_assume!(a.is_positive());
            let rank = k.unsigned_abs();
            let k = u64::try_from(rank).expect("components fit u64");
            let rank = i128::from(k);
            let deadline = a.div_ceil_int_wide(rank);
            let wide = (
                deadline - a.div_floor_int_wide(rank - 1),
                deadline != a.div_floor_int_wide(rank),
            );
            prop_assert_eq!(a.rank_window(k), wide);
        }

        /// `Units::slots_at` is the ceiling of the exact quotient, small
        /// operands and ones near `i64::MAX` alike.
        #[test]
        fn slots_at_is_the_exact_ceiling(a in arb_component(), b in arb_component(), wide in 0u32..2) {
            prop_assume!(a > 0 && b > 0);
            let (a, b) = (a << (22 * wide), b << (22 * wide));
            let (a, b) = (i64::try_from(a).expect("fits"), i64::try_from(b).expect("fits"));
            let k = Units::new(a).slots_at(Units::new(b));
            prop_assert_eq!(i128::from(k), Rational::new(a.into(), b.into()).ceil());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A unit's gcd with a count is the reduced denominator's
        /// complement.
        #[test]
        fn unit_gcd_is_the_denominator_complement(unit in 0usize..12, n in -50i64..=50) {
            const UNITS: [i64; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 48, 60, 240, 5040];
            let unit = Units::new(UNITS[unit]);
            let g = Units::new(n).gcd(unit);
            prop_assert_eq!(unit.get() / g.get(), Units::new(n).denom_over(unit).get());
        }
    }

    /// A refinement recounts in the lcm and leaves the base alone; a
    /// unit the sum already counts in a multiple of is no work.
    #[test]
    fn refine_recounts_in_the_lcm() {
        let mut acc = Accumulator::new();
        acc.refine(Units::new(8));
        acc.add_units(Units::new(3), Units::new(8));
        acc.refine(Units::new(16));
        assert_eq!((acc.base.is_none(), acc.num), (true, Units::new(6)));
        acc.add_units(Units::new(2), Units::new(16));
        acc.refine(Units::new(4));
        assert_eq!((acc.unit, acc.num), (Units::new(16), Units::new(8)));
        acc.refine(Units::new(6));
        assert_eq!(
            (acc.base.is_none(), acc.unit, acc.num),
            (true, Units::new(48), Units::new(24))
        );
        assert_eq!(
            Units::new(6).exactly_in(Units::new(8), Units::new(4)),
            Some(Units::new(3))
        );
        assert_eq!(Units::new(5).exactly_in(Units::new(8), Units::new(4)), None);
        assert_eq!(
            Units::new(5).exactly_in(Units::new(8), Units::new(12)),
            None
        );
        assert_eq!(
            Units::new(1 << 62).exactly_in(Units::new(1), Units::new(4)),
            None
        );
        let (x, y) = (Accumulator::from(rat(1, 3)), Accumulator::new());
        assert_eq!(x.minus(&y), rat(1, 3));
        assert_eq!(Units::new(1).gcd(Units::new(480)), Units::new(1));
        assert_eq!(Units::new(-6).gcd(Units::new(4)), Units::new(2));
        assert_eq!(Units::ZERO.gcd(Units::new(7)), Units::new(7));
    }

    /// Within 10⁶ of `i128::MAX`, far above the operands above.
    fn arb_huge() -> impl Strategy<Value = i128> {
        (0i128..=1_000_000).prop_map(|k| i128::MAX - k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Near-overflow cancellation: the integers share denominator 1,
        /// and opposite signs make the sum representable, so the
        /// same-denominator path must add them exactly.
        #[test]
        fn same_den_add_huge_cancellation(j in arb_huge(), k in arb_huge()) {
            let sum = Rational::from_int(j) + Rational::from_int(-k);
            prop_assert_eq!(sum, Rational::from_int(j - k));
            let diff = Rational::from_int(j) - Rational::from_int(k);
            prop_assert_eq!(diff, sum);
        }

        /// `mul_int` divides the multiplier by `gcd(n, den)` *before* the
        /// multiply, so a huge numerator times its own denominator is
        /// exact even though the naive product would overflow.
        #[test]
        fn mul_int_cancels_before_multiplying(n in arb_huge(), d in 2i64..=1000) {
            let r = Rational::new(n, i128::from(d));
            prop_assert_eq!(r.mul_int(d), Rational::from_int(n));
            prop_assert_eq!(r.mul_int(0), Rational::ZERO);
        }
    }

    /// The gate itself: `i32::MIN` and `i32::MAX` are inside, their
    /// outer neighbours are not, and `new(i32::MIN, i32::MIN)` — whose
    /// sign fix-up negates both edges — stays exact.
    #[test]
    fn gate_edges() {
        assert_eq!(small(EDGE_HI), Some(i64::from(i32::MAX)));
        assert_eq!(small(EDGE_LO), Some(i64::from(i32::MIN)));
        assert_eq!(small(EDGE_HI + 1), None);
        assert_eq!(small(EDGE_LO - 1), None);
        assert_eq!(Rational::new(EDGE_LO, EDGE_LO), Rational::ONE);
        let r = Rational::new(EDGE_HI, EDGE_LO);
        assert_eq!((r.numer(), r.denom()), (-EDGE_HI, -EDGE_LO));
        assert_eq!(r, Rational::new_wide(EDGE_HI, EDGE_LO));
    }

    /// The quotient gates at their edges: the largest in-gate product
    /// (`(2³¹ − 1)²` over 1), negative dividends on either side of an
    /// exact multiple, and the first operands outside.
    #[test]
    fn quotient_gate_edges() {
        let unit = Rational::new(1, EDGE_HI);
        assert_eq!(unit.div_floor_int(EDGE_HI), EDGE_HI * EDGE_HI);
        assert_eq!(unit.div_ceil_int(EDGE_LO), EDGE_LO * EDGE_HI);
        assert_eq!(unit.rank_window(u64::from(u32::MAX >> 1)), (EDGE_HI, false));
        let w = Rational::new(EDGE_HI, EDGE_HI - 1);
        for n in [
            EDGE_LO,
            -EDGE_HI,
            -1,
            0,
            1,
            EDGE_HI,
            EDGE_HI + 1,
            EDGE_LO - 1,
        ] {
            assert_eq!(w.div_floor_int(n), w.div_floor_int_wide(n), "floor {n}");
            assert_eq!(w.div_ceil_int(n), w.div_ceil_int_wide(n), "ceil {n}");
        }
        // 3/19 (Fig. 3): −1/w = −6⅓, so ⌊·⌋ = −7 and ⌈·⌉ = −6.
        assert_eq!(rat(3, 19).div_floor_int(-1), -7);
        assert_eq!(rat(3, 19).div_ceil_int(-1), -6);
        assert_eq!(rat(3, 19).div_floor_int(-3), -19);
        assert_eq!(rat(3, 19).div_ceil_int(-3), -19);
    }

    #[test]
    fn binary_gcd_matches_euclid() {
        for (a, b) in [
            (0, 0),
            (0, 7),
            (7, 0),
            (12, 18),
            (1 << 40, 1 << 20),
            (97, 89),
        ] {
            assert_eq!(u128::from(gcd_u64(a, b)), gcd(u128::from(a), u128::from(b)));
        }
        assert_eq!(gcd_u64(u64::MAX, u64::MAX - 1), 1);
        assert_eq!(gcd_u64(1 << 63, 1 << 62), 1 << 62);
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;
    use pfair_json::{FromJson, Json, ToJson};

    fn from_str<T: FromJson>(text: &str) -> Result<T, pfair_json::JsonError> {
        T::from_json(&Json::parse(text).expect("test JSON parses"))
    }

    #[test]
    fn roundtrip_and_normalization() {
        let a = rat(-3, 19);
        let json = a.to_json_compact();
        let back: Rational = from_str(&json).unwrap();
        assert_eq!(back, a);
        // Unreduced / sign-denormalized input is canonicalized.
        let odd: Rational = from_str(r#"{"num":2,"den":-4}"#).unwrap();
        assert_eq!(odd, rat(-1, 2));
    }

    #[test]
    fn zero_denominator_rejected() {
        let r: Result<Rational, _> = from_str(r#"{"num":1,"den":0}"#);
        assert!(r.is_err());
    }

    #[test]
    fn huge_components_survive_exactly() {
        // Beyond f64's 2^53 integer precision: a float-backed codec
        // would corrupt these; the exact-integer codec must not.
        let big = Rational::new(i128::MAX - 1, i128::MAX);
        let back: Rational = from_str(&big.to_json_compact()).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn out_of_range_weight_rejected() {
        use crate::weight::Weight;
        let ok: Weight = from_str(r#"{"num":1,"den":2}"#).unwrap();
        assert_eq!(ok.value(), rat(1, 2));
        let bad: Result<Weight, _> = from_str(r#"{"num":3,"den":2}"#);
        assert!(bad.is_err());
        let zero: Result<Weight, _> = from_str(r#"{"num":0,"den":2}"#);
        assert!(zero.is_err());
    }
}
