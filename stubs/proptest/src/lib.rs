//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's tests
//! use: the [`Strategy`] trait with `prop_map`/`prop_flat_map`, range
//! and tuple strategies, [`Just`], `prop::collection::vec`, the
//! [`proptest!`] macro (including `#![proptest_config(..)]` headers),
//! and the `prop_assert*`/`prop_assume!` assertion macros.
//!
//! Differences from the real crate, by design:
//! * **No shrinking.** A failing case panics with the sampled inputs
//!   printed; it is not minimized.
//! * **Deterministic seeding.** Each test derives its RNG seed from its
//!   module path and name, so failures reproduce exactly on re-run.
//! * `prop_assume!` skips the current case without replacement, so a
//!   heavily-assuming test runs fewer effective cases than `cases`.
//! * `PROPTEST_CASES` overrides every config's case count, an explicit
//!   [`ProptestConfig::with_cases`] included.

use core::fmt::Debug;
use core::ops::{Range, RangeInclusive};

/// Deterministic per-test random source (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary string (test name) via FNV-1a.
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u128) -> u128 {
        debug_assert!(span > 0);
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        wide % span
    }
}

/// Run-time configuration accepted by `#![proptest_config(..)]`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases, or as many as the
    /// `PROPTEST_CASES` environment variable names when it is set.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        let raised = std::env::var("PROPTEST_CASES").ok();
        let cases = raised.and_then(|v| v.parse().ok()).unwrap_or(cases);
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy: Sized {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.abs_diff(self.start) as u128;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = end.abs_diff(start) as u128 + 1;
                start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_range_strategies!(i8, i16, i32, i64, i128, u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// The `prop::` namespace (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use core::fmt::Debug;
        use core::ops::{Range, RangeInclusive};

        /// An inclusive size range for generated collections.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> SizeRange {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> SizeRange {
                assert!(r.end > r.start, "empty vec size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange { lo: n, hi: n }
            }
        }

        /// Strategy for `Vec`s whose length lies in `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `prop::collection::vec(element, len_range)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64 + 1;
                let len = self.size.lo + (rng.next_u64() % span) as usize;
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when the precondition does not hold. Only
/// valid directly inside a `proptest!` test body (it expands to
/// `continue` targeting the case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` sampled iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { [$crate::ProptestConfig::default()] $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ([$cfg:expr]) => {};
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                // Pre-render the sampled inputs; printed only when the
                // body panics (the guard is disarmed on success). Sampling
                // goes through a temporary so `$arg` may be any
                // irrefutable pattern (e.g. `(m, ws) in strat`).
                let mut inputs = String::new();
                $(
                    let sampled = $crate::Strategy::sample(&($strat), &mut rng);
                    inputs.push_str(&format!(
                        concat!("  ", stringify!($arg), " = {:?}\n"),
                        &sampled
                    ));
                    let $arg = sampled;
                )+
                let guard = $crate::CaseReporter { case, inputs };
                { $body }
                guard.disarm();
            }
        }
        $crate::__proptest_fns! { [$cfg] $($rest)* }
    };
}

/// Drop guard that prints the failing case's inputs while unwinding.
pub struct CaseReporter {
    /// Zero-based index of the running case.
    pub case: u32,
    /// Pre-rendered sampled inputs.
    pub inputs: String,
}

impl CaseReporter {
    /// Forgets the guard after a successful case.
    pub fn disarm(self) {
        core::mem::forget(self);
    }
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        eprintln!(
            "proptest case #{} failed with inputs:\n{}",
            self.case, self.inputs
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    fn arb_pair() -> impl Strategy<Value = (i64, i64)> {
        (0i64..100).prop_flat_map(|a| (Just(a), a..a + 10))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3i128..=40, y in 0u32..7) {
            prop_assert!((3..=40).contains(&x));
            prop_assert!(y < 7, "y = {}", y);
        }

        #[test]
        fn flat_map_dependency_holds(p in arb_pair()) {
            prop_assert!(p.1 >= p.0 && p.1 < p.0 + 10);
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0i64..5, 2..=6)) {
            prop_assert!(v.len() >= 2 && v.len() <= 6);
            prop_assert!(v.iter().all(|x| (0..5).contains(x)));
        }

        #[test]
        fn assume_skips(n in 0i64..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
