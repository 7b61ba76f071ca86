//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate implements the subset of proptest the test-suite uses: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`/`prop_flat_map`,
//! integer-range and tuple strategies, [`Just`], `any::<T>()`,
//! [`collection::vec`]/[`collection::btree_set`], [`prop_oneof!`],
//! [`prop_assert!`]/[`prop_assert_eq!`], and [`ProptestConfig`].
//!
//! Differences from upstream: cases are drawn from a deterministic
//! per-test RNG (derived from the test name), and failing cases are
//! reported but **not shrunk**.

#![forbid(unsafe_code)]

use std::fmt;

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Test-runner plumbing used by the [`proptest!`] expansion.
pub mod test_runner {
    use std::fmt;

    /// A failed property case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic RNG driving case generation (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG seeded from an arbitrary label (the test name).
        pub fn from_label(label: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            Self { state: h }
        }

        /// Next pseudorandom `u64`.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw below `bound` (`bound > 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

use test_runner::TestRng;

/// A generator of values of type `Value`.
///
/// Unlike upstream proptest there is no shrinking: `generate` draws one
/// value per case.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then generates from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (bounded retries).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
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

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter {:?} rejected 1000 consecutive values",
            self.whence
        );
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The full-domain strategy for `T` (see [`any`]).
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy generating any `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S0 0);
    (S0 0, S1 1);
    (S0 0, S1 1, S2 2);
    (S0 0, S1 1, S2 2, S3 3);
    (S0 0, S1 1, S2 2, S3 3, S4 4);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6, S7 7);
}

/// Union of boxed strategies, sampled uniformly (see [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over the given options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T> fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} options)", self.options.len())
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Collection strategies (`prop::collection::{vec, btree_set}`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Generates `Vec`s with lengths drawn from `size` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Generates `BTreeSet`s: `size` draws the number of *insertions*
    /// (duplicates collapse, as in upstream proptest).
    pub fn btree_set<S>(element: S, size: std::ops::Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_label(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    // The immediately-invoked closure gives `?`/early-return
                    // semantics to the test body, mirroring real proptest.
                    #[allow(clippy::redundant_closure_call)]
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!("proptest {} failed at case {}/{}: {}",
                               stringify!($name), case + 1, config.cases, e);
                    }
                }
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($pat in $strat),+) $body)*
        }
    };
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), l, r
        );
    }};
}

/// Fails the current property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case when the assumption fails (the shim counts the
/// case as passed rather than re-drawing, unlike upstream).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Add(u64),
        Del(u64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 1usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn tuples_and_just((a, b) in (1u32..=5, Just(7u64))) {
            prop_assert!((1..=5).contains(&a));
            prop_assert_eq!(b, 7);
        }

        #[test]
        fn flat_map_respects_dependency((n, m) in (2usize..=6).prop_flat_map(|m| (m..=2 * m, Just(m)))) {
            prop_assert!(n >= m && n <= 2 * m);
        }

        #[test]
        fn collections_sized(v in prop::collection::vec(0u64..100, 1..5),
                             s in prop::collection::btree_set(1u64..=20, 0..10)) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(s.len() < 10);
        }

        #[test]
        fn oneof_and_map(op in prop_oneof![
            (1u64..=9).prop_map(Op::Add),
            (1u64..=9).prop_map(Op::Del),
        ]) {
            match op {
                Op::Add(v) | Op::Del(v) => prop_assert!((1..=9).contains(&v)),
            }
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(seed in any::<u64>()) {
            let _ = seed;
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_numbers() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
