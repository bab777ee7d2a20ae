//! Offline stand-in for the `proptest` crate.
//!
//! The real proptest cannot be fetched in this build environment, so this
//! crate provides the API subset the workspace's property tests use:
//! deterministic random generation (SplitMix64 seeded per test), the
//! [`Strategy`] trait with `prop_map`, ranges, tuples, `Just`,
//! `collection::vec`, `sample::Index`, `prop_oneof!`, and the `proptest!`
//! macro. There is **no shrinking**: a failing case panics with the seed
//! and iteration number so it can be reproduced.

use std::ops::{Range, RangeInclusive};

/// Deterministic 64-bit RNG (SplitMix64). Good enough statistical quality
/// for property generation and trivially reproducible.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift rejection-free mapping; bias is negligible for
        // test-case generation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of values of type `Value`.
///
/// Unlike real proptest there is no value tree / shrinking; a strategy just
/// draws a value from the RNG.
pub trait Strategy {
    /// The type of value this strategy generates.
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

    /// Boxes this strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Type-erased strategy, cheaply cloneable.
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Produces the canonical strategy for a type (see [`Arbitrary`]).
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`Arbitrary::arbitrary`].
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-range strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-range strategy for primitive types.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(std::marker::PhantomData)
            }
        }
    )*};
}

impl_any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Strategy for AnyPrimitive<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrimitive<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyPrimitive(std::marker::PhantomData)
    }
}

impl Strategy for AnyPrimitive<[u8; 4]> {
    type Value = [u8; 4];
    fn generate(&self, rng: &mut TestRng) -> [u8; 4] {
        rng.next_u64().to_le_bytes()[..4].try_into().unwrap()
    }
}

impl Arbitrary for [u8; 4] {
    type Strategy = AnyPrimitive<[u8; 4]>;
    fn arbitrary() -> Self::Strategy {
        AnyPrimitive(std::marker::PhantomData)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty range strategy");
                (lo + rng.below((hi - lo) as u64) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start() as i128;
                let hi = *self.end() as i128;
                assert!(lo <= hi, "empty range strategy");
                (lo + rng.below((hi - lo + 1) as u64) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $S:ident),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Size bound for [`vec()`]: a fixed size or a range of sizes.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S` and length in `L`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with element strategy `S` and size in `L`.
    pub struct BTreeSetStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates ordered sets of up to the drawn size (duplicates collapse,
    /// so the set may come out smaller, as in real proptest).
    pub fn btree_set<S, L>(element: S, len: L) -> BTreeSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Ord,
        L: SizeRange,
    {
        BTreeSetStrategy { element, len }
    }

    impl<S, L> Strategy for BTreeSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Ord,
        L: SizeRange,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::bool` subset.
pub mod bool {
    use super::*;

    /// Strategy for `bool` that is `true` with probability `p`.
    #[derive(Clone, Copy, Debug)]
    pub struct Weighted(f64);

    /// Generates `true` with probability `probability_true`.
    pub fn weighted(probability_true: f64) -> Weighted {
        Weighted(probability_true)
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.unit_f64() < self.0
        }
    }
}

/// `proptest::option` subset.
pub mod option {
    use super::*;

    /// Strategy for `Option<T>`: ~75 % `Some`, like real proptest's default.
    pub struct OptionStrategy<S>(S);

    /// Wraps `inner`'s values in `Some` three times out of four.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// `proptest::sample` subset.
pub mod sample {
    use super::*;

    /// An index into a collection of as-yet-unknown size.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// Projects this index into `[0, len)`; `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            ((self.0 as u128 * len as u128) >> 64) as usize
        }
    }

    /// Strategy for [`Index`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IndexStrategy;

    impl Strategy for IndexStrategy {
        type Value = Index;
        fn generate(&self, rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }

    impl Arbitrary for Index {
        type Strategy = IndexStrategy;
        fn arbitrary() -> Self::Strategy {
            IndexStrategy
        }
    }
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config with a specific case count.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Everything a test module normally imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::collection;
    pub use crate::sample;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

/// FNV-1a over the test name: stable per-test seed.
#[doc(hidden)]
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
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

/// Chooses uniformly among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let choices = vec![$($crate::Strategy::boxed($strategy)),+];
        $crate::OneOf { choices }
    }};
}

/// Strategy built by [`prop_oneof!`].
pub struct OneOf<T> {
    /// The alternatives; one is drawn uniformly per case.
    pub choices: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.choices.len() as u64) as usize;
        self.choices[i].generate(rng)
    }
}

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body `cases` times with generated
/// inputs. Failures panic with the case number (deterministic: rerun
/// reproduces the same inputs).
#[macro_export]
macro_rules! proptest {
    // With a config header.
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::new($crate::seed_for(stringify!($name)));
                for case in 0..config.cases {
                    let _ = case;
                    $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)+
                    $body
                }
            }
        )*
    };
    // Without a config header: default config.
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = (10u32..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (-20i8..=20).generate(&mut rng);
            assert!((-20..=20).contains(&w));
            let f = (0.0f64..1.0).generate(&mut rng);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn oneof_covers_all_choices() {
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = TestRng::new(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn vec_len_respected(v in collection::vec(any::<u8>(), 0..16usize)) {
            prop_assert!(v.len() < 16);
        }

        fn tuple_and_map((a, b) in (any::<u16>(), 1u16..16).prop_map(|(x, y)| (x, y))) {
            prop_assert!((1..16).contains(&b));
            let _ = a;
        }

        fn index_in_bounds(ix in any::<sample::Index>(), len in 1usize..50) {
            prop_assert!(ix.index(len) < len);
        }
    }
}
