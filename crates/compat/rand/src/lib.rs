//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate provides the exact API surface the simulator uses: [`rngs::StdRng`]
//! seeded via [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over integer
//! ranges, [`distributions::UniformIndex`] for repeated draws from one index
//! range, and [`seq::SliceRandom`] (`shuffle`/`choose`).
//!
//! The generator is xoshiro256** seeded through splitmix64 — deterministic,
//! reproducible, and statistically solid for scheduling/permutation use.
//! It is **not** the upstream `StdRng` stream: seeds produce different (but
//! equally reproducible) sequences.

#![forbid(unsafe_code)]

/// Core RNG interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next pseudorandom `u64`.
    fn next_u64(&mut self) -> u64;
}

/// Construction of RNGs from seeds.
pub trait SeedableRng: Sized {
    /// Builds an RNG from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing randomness helpers (blanket-implemented for every RNG).
pub trait Rng: RngCore {
    /// Uniform sample from a range (`low..high` or `low..=high`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Uniform `bool` with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Range-sampling support for [`Rng::gen_range`], and [`UniformIndex`]
/// for repeated draws from one index range.
///
/// [`UniformIndex`]: distributions::UniformIndex
pub mod distributions {
    use super::RngCore;

    /// A range that can produce a uniform sample of `T`.
    pub trait SampleRange<T> {
        /// Draws one uniform sample.
        fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
    }

    macro_rules! impl_sample_range {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for core::ops::Range<$t> {
                fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
                fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return lo + rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    impl_sample_range!(u8, u16, u32, u64, usize);

    /// Repeated uniform draws of an index in `0..len`: the value
    /// `gen_range(0..len)` returns from the same draw, without its
    /// division.
    ///
    /// [`new`](Self::new) computes the 128-bit reciprocal
    /// `c = ⌈2¹²⁸ / len⌉` once. [`sample`](Self::sample) then takes the
    /// remainder `x mod len` of a draw `x` as the high 64 bits of
    /// `((c·x) mod 2¹²⁸)·len`: four 64-bit multiplications instead of a
    /// 64-bit `%`. This is exact for every 64-bit numerator and divisor
    /// (Lemire, Kaser and Kurz, *Faster remainder by direct computation*,
    /// 2019, Theorem 1 with `F = 128 = N + log₂ 2⁶⁴`).
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::distributions::UniformIndex;
    /// use rand::rngs::StdRng;
    /// use rand::{Rng, SeedableRng};
    ///
    /// let pick = UniformIndex::new(5);
    /// let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
    /// for _ in 0..100 {
    ///     assert_eq!(pick.sample(&mut a), b.gen_range(0..5usize));
    /// }
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct UniformIndex {
        len: u64,
        /// `⌈2¹²⁸ / len⌉ mod 2¹²⁸` (0 for `len = 1`, whose remainder is 0).
        recip: u128,
    }

    impl UniformIndex {
        /// A sampler over `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero, as `gen_range(0..0)` does.
        #[inline]
        pub fn new(len: usize) -> Self {
            Self::over(len as u64)
        }

        #[inline]
        fn over(len: u64) -> Self {
            assert!(len > 0, "cannot sample empty range");
            Self {
                len,
                recip: (u128::MAX / u128::from(len)).wrapping_add(1),
            }
        }

        /// The range's length.
        #[inline]
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// Always `false`: the range holds at least one index.
        #[inline]
        pub fn is_empty(&self) -> bool {
            false
        }

        /// `rng.next_u64() % len`.
        #[inline]
        pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
            self.rem(rng.next_u64()) as usize
        }

        /// `x % len`, by the reciprocal.
        #[inline]
        fn rem(&self, x: u64) -> u64 {
            let low = self.recip.wrapping_mul(u128::from(x));
            let d = u128::from(self.len);
            // The high 64 bits of the 192-bit product `low · len`; the sum
            // is below 2¹²⁸, since `(2⁶⁴ − 1)² + 2⁶⁴ − 1 < 2¹²⁸`.
            let mid = ((low >> 64) * d) + (((low as u64 as u128) * d) >> 64);
            (mid >> 64) as u64
        }
    }

    #[cfg(test)]
    mod tests {
        use super::UniformIndex;

        /// `rem` equals `%` on the divisors and draws that a reciprocal is
        /// most likely to get wrong: the smallest divisors, powers of two,
        /// both neighbours of `2³²`, and `u64::MAX`, each against 0,
        /// `len − 1`, `len`, `len + 1`, `2·len`, `u64::MAX` and 256
        /// pseudo-random draws.
        #[test]
        fn remainder_equals_the_division() {
            let mut lens: Vec<u64> = vec![1, 2, 3, 5, 7, 10, 16, 1000];
            lens.extend((1..64).map(|k| 1u64 << k));
            lens.extend((1..64).map(|k| (1u64 << k) + 1));
            lens.extend((2..64).map(|k| (1u64 << k) - 1));
            lens.extend([(1 << 32) - 1, 1 << 32, (1 << 32) + 1]);
            lens.extend([u64::MAX / 3, u64::MAX - 1, u64::MAX]);
            for &len in &lens {
                let s = UniformIndex::over(len);
                let mut draws = vec![
                    0,
                    1,
                    len - 1,
                    len,
                    len.wrapping_add(1),
                    len.wrapping_mul(2),
                    len.wrapping_mul(2).wrapping_sub(1),
                    u64::MAX - 1,
                    u64::MAX,
                ];
                let mut x = len ^ 0x9E37_79B9_7F4A_7C15;
                for _ in 0..256 {
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(1);
                    draws.push(x);
                }
                for x in draws {
                    assert_eq!(s.rem(x), x % len, "{x} % {len}");
                }
            }
        }

        /// `sample` consumes one draw and returns its remainder.
        #[test]
        fn sample_is_the_remainder_of_one_draw() {
            use crate::rngs::StdRng;
            use crate::{RngCore, SeedableRng};
            for len in [1usize, 2, 3, 16, 17, 1 << 40, usize::MAX] {
                let s = UniformIndex::new(len);
                let (mut a, mut b) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
                for _ in 0..1000 {
                    assert_eq!(s.sample(&mut a) as u64, b.next_u64() % len as u64);
                }
            }
        }

        #[test]
        #[should_panic(expected = "empty range")]
        fn empty_range_panics() {
            let _ = UniformIndex::new(0);
        }
    }
}

/// Named RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (stand-in for rand's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed with splitmix64, as the xoshiro authors advise.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
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
}

/// Sequence helpers (`shuffle`, `choose`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice randomisation, mirroring rand's trait of the same name.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Uniformly chosen element, or `None` when empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn reproducible_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen_range(0..1000u64), b.gen_range(0..1000u64));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(5..10usize);
            assert!((5..10).contains(&v));
            let w = rng.gen_range(3..=4u32);
            assert!((3..=4).contains(&w));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u64> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle virtually never is the identity"
        );
    }

    #[test]
    fn choose_covers_elements() {
        let mut rng = StdRng::seed_from_u64(9);
        let v = [1, 2, 3];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*v.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
