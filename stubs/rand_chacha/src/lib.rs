//! Offline stand-in for `rand_chacha`.
//!
//! Provides a type named [`ChaCha8Rng`] so workspace code and tests can
//! keep their `use rand_chacha::ChaCha8Rng` imports, but the stream is
//! SplitMix64, not ChaCha: this build environment cannot fetch the real
//! crate, and nothing in the workspace depends on the actual ChaCha
//! keystream — only on seeded determinism.

use rand::{RngCore, SeedableRng};

/// Deterministic seeded generator (SplitMix64 core).
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    state: u64,
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        ChaCha8Rng {
            state: seed.wrapping_add(0x9e3779b97f4a7c15),
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Vigna): passes BigCrush, one add + two xorshift-multiplies.
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn usable_through_rng_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let v = rng.gen_range(0i64..100);
        assert!((0..100).contains(&v));
    }
}
