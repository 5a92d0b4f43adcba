//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so the handful of external dependencies are vendored as minimal
//! API-compatible stubs (see `stubs/README.md`). This one covers exactly
//! the surface the workspace uses: `Rng::gen_range` over integer and
//! `f64` ranges, `Rng::gen_bool`, and `SeedableRng::seed_from_u64`.
//!
//! The generator behind the trait is a SplitMix64 — deterministic for a
//! given seed, statistically fine for workload generation, and *not*
//! the real ChaCha stream. Experiments seeded identically will produce
//! different (but equally valid) random workloads than under the real
//! crates.

use core::ops::{Range, RangeInclusive};

/// Types that can produce a uniformly distributed value in a range.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform draw from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        // 53 uniform mantissa bits, same construction as rand's f64 draw.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore> Rng for R {}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.abs_diff(self.start) as u128;
                let off = (rng.next_u64() as u128) % span;
                self.start.wrapping_add(off as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = end.abs_diff(start) as u128 + 1;
                let off = ((rng.next_u64() as u128) % span) as $t;
                start.wrapping_add(off)
            }
        }
    )*};
}

impl_int_ranges!(i64, u64, i32, u32, usize, i128);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u64);
    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Fixed(42);
        for _ in 0..1000 {
            let v = rng.gen_range(3i128..=40);
            assert!((3..=40).contains(&v));
            let w = rng.gen_range(0i64..7);
            assert!((0..7).contains(&w));
            let f = rng.gen_range(-0.02f64..0.02);
            assert!((-0.02..0.02).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Fixed(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
