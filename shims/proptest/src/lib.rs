//! Minimal, deterministic, API-compatible subset of the `proptest` crate.
//!
//! The build container has no network route to a crates registry, so the workspace
//! vendors exactly the proptest surface its property tests use:
//!
//! * the [`proptest!`] macro (with an optional `#![proptest_config(..)]` header),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, implemented for numeric
//!   ranges, tuples (arity 2–6), and [`strategy::Just`],
//! * [`collection::vec`] with exact or ranged lengths,
//! * [`test_runner::ProptestConfig::with_cases`].
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics with the seed and
//! case number so it can be replayed, which is enough signal for this workspace. Cases are
//! generated from a deterministic per-test seed, so test runs are reproducible.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Configuration and the deterministic RNG driving generation.

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property is checked against.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic generator (SplitMix64) used to drive all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from a seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next value of the uniform `u64` stream.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, n)`; `n` must be positive.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "empty range");
            // Multiply-shift; bias is negligible for test-case generation.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// FNV-1a hash of a test path, used as the per-test base seed.
    pub fn fnv1a(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;

    /// A recipe for generating values of an output type.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn sample_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Maps generated values to a *strategy* and samples from it (dependent
        /// generation).
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn sample_value(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.sample_value(rng)).sample_value(rng)
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    start + rng.below((end - start) as u64 + 1) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(usize, u64, u32, u16, u8);

    macro_rules! impl_signed_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_signed_strategy!(i64, i32);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn sample_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let v = self.start + rng.unit_f64() * (self.end - self.start);
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample_value(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, G)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// A length specification: an exact size or a half-open range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy generating `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose elements are drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min
                + if span > 1 {
                    rng.below(span) as usize
                } else {
                    0
                };
            (0..len).map(|_| self.element.sample_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual `use proptest::prelude::*` surface.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*)
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*)
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }` becomes a
/// `#[test]` that checks the body against `cases` random instantiations of its strategies.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        // Like real proptest, the macro adds `#[test]` itself; callers must not.
        $(#[$meta])*
        #[test]
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let __base_seed = $crate::test_runner::fnv1a(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__config.cases {
                let __seed = __base_seed ^ (__case as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
                let mut __rng = $crate::test_runner::TestRng::new(__seed);
                $(
                    let $pat = $crate::strategy::Strategy::sample_value(&($strat), &mut __rng);
                )+
                let __run = || -> () { $body };
                if ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run)).is_err() {
                    panic!(
                        "property {} failed at case {} (seed {:#x}); \
                         the panic above shows the assertion",
                        stringify!($name), __case, __seed
                    );
                }
            }
        }
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
}
