//! Offline stand-in for the `rand` crate.
//!
//! Provides the seeded, deterministic subset the workspace uses:
//! `StdRng` (an xoshiro256**-style generator seeded via SplitMix64),
//! the `Rng`/`SeedableRng` trait surface (`gen_range`, `gen_bool`,
//! `gen`, `fill`), and the free `random::<T>()` function. Determinism
//! for a given seed is guaranteed across runs and platforms, which is
//! what the simulator's fault-injection machinery relies on.

use std::ops::Range;

/// Seedable generator constructors.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly by [`Rng::gen`] / [`random`].
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample(rng: &mut dyn RngCore) -> Self;
}

/// Types with uniform sampling over a half-open range.
pub trait SampleUniform: Sized {
    /// Draws a value in `[start, end)`.
    fn sample_in(rng: &mut dyn RngCore, start: Self, end: Self) -> Self;
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value in the range.
    fn sample_range(self, rng: &mut dyn RngCore) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_range(self, rng: &mut dyn RngCore) -> T {
        T::sample_in(rng, self.start, self.end)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut dyn RngCore) -> $t {
                rng.next_u64() as $t
            }
        }
        impl SampleUniform for $t {
            fn sample_in(rng: &mut dyn RngCore, start: $t, end: $t) -> $t {
                assert!(start < end, "gen_range called with empty range");
                let span = (end as i128 - start as i128) as u128;
                // Multiply-shift bounded sampling; bias is negligible for
                // simulation purposes and determinism is what matters.
                let hi = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                (start as i128 + hi) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample(rng: &mut dyn RngCore) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut dyn RngCore) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl SampleUniform for f64 {
    fn sample_in(rng: &mut dyn RngCore, start: f64, end: f64) -> f64 {
        start + f64::sample(rng) * (end - start)
    }
}

/// High-level sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Uniform value in `range` (exclusive upper bound).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_range(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::sample(self) < p
    }

    /// Uniformly distributed value of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Fills `dest` with uniform bytes.
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore> Rng for R {}

/// The standard deterministic generator (xoshiro256** core).
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        StdRng {
            s: [
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
            ],
        }
    }
}

impl RngCore for StdRng {
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

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use super::StdRng;
}

/// One value drawn from a process-global generator.
///
/// Unlike the real crate this is *seeded per process* from the address
/// of a stack local mixed with a monotonically increasing counter — not
/// cryptographic, but unique enough for test-file naming, its only use
/// in this workspace.
pub fn random<T: Standard>() -> T {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let marker = 0u8;
    let seed = (&marker as *const u8 as u64)
        ^ COUNTER.fetch_add(0x9e37_79b9, Ordering::Relaxed)
        ^ std::process::id() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    // Skip the first output, which correlates with the weak seed.
    let _ = rng.next_u64();
    T::sample(&mut rng)
}

/// Re-exports mirroring `rand::prelude`.
pub mod prelude {
    pub use super::{random, Rng, RngCore, SeedableRng, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fill_covers_every_byte() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = [0u8; 37];
        rng.fill(&mut buf[..]);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
