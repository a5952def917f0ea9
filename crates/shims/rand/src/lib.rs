//! Minimal offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this workspace vendors
//! the tiny slice of the `rand` 0.8 API that the simulator and the safety
//! explorer use: [`SeedableRng::seed_from_u64`], [`Rng::gen_bool`] and
//! [`Rng::gen_range`] over integer ranges, backed by a deterministic
//! xoshiro256** generator seeded through splitmix64.
//!
//! Determinism matters more than statistical quality here: both users are
//! *seeded* simulations whose whole point is reproducible runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Types constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of pseudo-random values.
pub trait Rng {
    /// The next 64 raw bits.
    fn next_u64(&mut self) -> u64;

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 bits of mantissa are plenty for the probabilities used here.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// A uniform value from `range`. Panics on an empty range, like the
    /// real `rand`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Ranges that can be sampled uniformly. Implemented for half-open and
/// inclusive ranges of the integer types the workspace uses.
pub trait SampleRange<T> {
    /// Draws one uniform value.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

fn sample_u64<R: Rng + ?Sized>(rng: &mut R, lo: u64, span: u64) -> u64 {
    // Debiased multiply-shift (Lemire). `span` is the number of values.
    debug_assert!(span > 0);
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        let (hi, lo_mul) = {
            let wide = (v as u128) * (span as u128);
            ((wide >> 64) as u64, wide as u64)
        };
        if lo_mul <= zone {
            return lo + hi;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + sample_u64(rng, 0, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64 + 1; // may wrap to 0 for full u64 range
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo + sample_u64(rng, 0, span) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

/// Pre-built generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A deterministic xoshiro256** generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0usize..5);
            assert!(w < 5);
            let x = rng.gen_range(1u64..=3);
            assert!((1..=3).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((1_500..3_500).contains(&hits), "p=0.25 gave {hits}/10000");
    }
}
