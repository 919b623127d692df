//! Minimal, deterministic, API-compatible subset of the `rand` crate (v0.8 surface).
//!
//! The build container has no network route to a crates registry, so the workspace
//! vendors exactly the `rand` API the SLiMFast crates use:
//!
//! * [`rngs::StdRng`] + [`SeedableRng::seed_from_u64`]
//! * [`Rng::gen`], [`Rng::gen_range`] (half-open and inclusive integer ranges, f64 ranges),
//!   [`Rng::gen_bool`]
//! * [`seq::SliceRandom::shuffle`] (Fisher–Yates)
//! * [`distributions::WeightedIndex`] / [`distributions::Distribution`]
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — high-quality, fast, and fully
//! deterministic per seed, which is all the reproduction needs. The stream differs from
//! upstream `StdRng` (ChaCha12), so swapping the real crate back in will change sampled
//! values but not any API.

#![forbid(unsafe_code)]

/// A random number generator: the single entry point is a uniform `u64` stream; every
/// other sampling method derives from it.
pub trait Rng {
    /// Returns the next value of the underlying uniform `u64` stream.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` from its standard distribution
    /// (`f64` ∈ [0, 1), `bool` fair, integers uniform over their full range).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_uniform(self)
    }

    /// Returns `true` with probability `p`. Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0,1]");
        f64::sample_standard(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type samplable from its "standard" distribution via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the standard distribution of `Self`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// A range samplable uniformly via [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_uniform<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased uniform integer in `[0, n)` by rejection sampling on the top bits.
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "empty range");
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    // Lemire-style rejection: reject the final partial block of the u64 space.
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_uniform<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_uniform<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64 + 1;
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                }
                start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_uniform<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_signed_range!(i64, i32);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_uniform<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::sample_standard(rng);
        let v = self.start + u * (self.end - self.start);
        // Guard against round-up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// An RNG constructible from a seed.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` convenience seed.
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    //! Concrete generator types.

    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic RNG: xoshiro256++ seeded via SplitMix64.
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
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s.iter().all(|&w| w == 0) {
                // xoshiro must not start from the all-zero state.
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

pub mod seq {
    //! Sequence-related sampling helpers.

    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly random element, or `None` if the slice is empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod distributions {
    //! Distribution types samplable through an [`Rng`].

    use super::{Rng, Standard};
    use std::borrow::Borrow;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Error constructing a [`WeightedIndex`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WeightedError {
        /// No weights were provided.
        NoItem,
        /// A weight was negative or NaN.
        InvalidWeight,
        /// All weights were zero.
        AllWeightsZero,
    }

    impl std::fmt::Display for WeightedError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                WeightedError::NoItem => write!(f, "no weights provided"),
                WeightedError::InvalidWeight => write!(f, "negative or NaN weight"),
                WeightedError::AllWeightsZero => write!(f, "all weights are zero"),
            }
        }
    }

    impl std::error::Error for WeightedError {}

    /// Samples indices proportionally to a weight vector (CDF inversion).
    #[derive(Debug, Clone)]
    pub struct WeightedIndex {
        cumulative: Vec<f64>,
        total: f64,
    }

    impl WeightedIndex {
        /// Builds the distribution from non-negative weights.
        pub fn new<I>(weights: I) -> Result<Self, WeightedError>
        where
            I: IntoIterator,
            I::Item: Borrow<f64>,
        {
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for w in weights {
                let w = *w.borrow();
                if !w.is_finite() || w < 0.0 {
                    return Err(WeightedError::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(WeightedError::NoItem);
            }
            if total <= 0.0 {
                return Err(WeightedError::AllWeightsZero);
            }
            Ok(WeightedIndex { cumulative, total })
        }
    }

    impl Distribution<usize> for WeightedIndex {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
            let u = f64::sample_standard(rng);
            let target = self.total * u;
            match self
                .cumulative
                .binary_search_by(|c| c.partial_cmp(&target).expect("finite cumulative weights"))
            {
                // On an exact boundary hit, step past zero-weight entries.
                Ok(i) | Err(i) => {
                    let mut i = i.min(self.cumulative.len() - 1);
                    while self.cumulative[i] <= target && i + 1 < self.cumulative.len() {
                        i += 1;
                    }
                    // `target` can round up to exactly `total`; if the weight list ends in
                    // zero weights the walk above then lands on one of them — step back to
                    // the last index that actually carries weight.
                    while i > 0 && self.cumulative[i] == self.cumulative[i - 1] {
                        i -= 1;
                    }
                    i
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0f64..5.0);
            assert!((-2.0..5.0).contains(&f));
            let i = rng.gen_range(1usize..=4);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(13);
        let dist = WeightedIndex::new([0.0, 1.0, 0.0, 3.0]).unwrap();
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        // ~1:3 ratio.
        let ratio = counts[3] as f64 / counts[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_index_never_returns_a_zero_weight_index_on_extreme_draws() {
        // With total = 2.0 the largest possible draw u = 1 - 2^-53 makes `total * u`
        // round up to exactly 2.0, which lands past the last positive-weight bucket.
        struct MaxRng;
        impl Rng for MaxRng {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let dist = WeightedIndex::new([2.0, 0.0]).unwrap();
        assert_eq!(dist.sample(&mut MaxRng), 0);
        let dist = WeightedIndex::new([1.0, 1.0, 0.0, 0.0]).unwrap();
        assert_eq!(dist.sample(&mut MaxRng), 1);
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(17);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((0.29..0.31).contains(&frac), "frac {frac}");
    }
}
