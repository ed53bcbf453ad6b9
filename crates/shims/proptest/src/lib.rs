//! Offline drop-in shim for the subset of the `proptest` API this workspace
//! uses: the `proptest!` macro over named `arg in strategy` bindings, the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, `any::<T>()`, integer/float range
//! strategies, tuple strategies, `collection::vec` and `array::uniform{4,6}`,
//! plus `prop_assert*` / `prop_assume` and [`ProptestConfig`].
//!
//! Semantics: each property runs for `ProptestConfig::cases` random cases
//! drawn from a per-test deterministic seed. Failing cases panic with the
//! sampled inputs via the standard assertion message; there is no shrinking
//! (the real crate's minimization is a developer convenience, not part of
//! the checked property).

/// Configuration for a `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Strategies: how to sample values of a type.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A source of random values of an output type.
    pub trait Strategy {
        /// The type of sampled values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps sampled values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rand::RngCore::next_u64(rng) as $t
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rand::RngCore::next_u64(rng) & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut StdRng) -> [u8; N] {
            core::array::from_fn(|_| u8::arbitrary(rng))
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    /// Any value of `T` (matching `proptest::prelude::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident/$i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A/0, B/1);
        (A/0, B/1, C/2);
        (A/0, B/1, C/2, D/3);
        (A/0, B/1, C/2, D/3, E/4);
        (A/0, B/1, C/2, D/3, E/4, F/5);
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// A `Vec` with a length drawn from `len` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Fixed-size array strategies (`proptest::array`).
pub mod array {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;

    /// The strategy returned by the `uniformN` constructors.
    pub struct UniformArray<S, const N: usize> {
        element: S,
    }

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];

        fn sample(&self, rng: &mut StdRng) -> [S::Value; N] {
            core::array::from_fn(|_| self.element.sample(rng))
        }
    }

    macro_rules! uniform_ctor {
        ($($name:ident => $n:literal),*) => {$(
            /// An array of independent draws from `element`.
            pub fn $name<S: Strategy>(element: S) -> UniformArray<S, $n> {
                UniformArray { element }
            }
        )*};
    }

    uniform_ctor!(uniform4 => 4, uniform6 => 6);
}

/// The common import surface (`proptest::prelude`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

// The `proptest!` expansion needs `rand` paths without requiring consumers
// to depend on it themselves.
#[doc(hidden)]
pub use rand as __rand;

/// Deterministic per-test seed derived from the test's name.
#[doc(hidden)]
pub fn __seed_for(name: &str) -> u64 {
    // FNV-1a: stable across runs and platforms (unlike DefaultHasher's
    // unspecified algorithm, which could change between std releases).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Asserts a property-scoped condition (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Rejects the current case (it is resampled, not counted as run).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return false;
        }
    };
}

/// Defines property tests: `proptest! { #[test] fn p(x in 0u32..10) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    { ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block )* } => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(
                $crate::__seed_for(concat!(module_path!(), "::", stringify!($name))),
            );
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __cfg.cases {
                __attempts += 1;
                assert!(
                    __attempts <= __cfg.cases.saturating_mul(100).max(1000),
                    "property {} rejected too many cases via prop_assume",
                    stringify!($name),
                );
                $(
                    let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                )*
                #[allow(clippy::redundant_closure_call)]
                let __ran = (move || -> bool { $body true })();
                if __ran {
                    __accepted += 1;
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl crate::strategy::Strategy<Value = u64> {
        any::<u64>().prop_map(|v| v & !1)
    }

    proptest! {
        #[test]
        fn ranges_respected(a in 3u32..9, b in 0u64..=4, f in 0.5f64..0.75) {
            prop_assert!((3..9).contains(&a));
            prop_assert!(b <= 4);
            prop_assert!((0.5..0.75).contains(&f));
        }

        #[test]
        fn tuples_and_maps_compose(v in (0u32..10, 0u32..10).prop_map(|(x, y)| x + y)) {
            prop_assert!(v < 19);
        }

        #[test]
        fn named_strategy_fns_work(e in arb_even()) {
            prop_assert_eq!(e % 2, 0);
        }

        #[test]
        fn collections_and_arrays(v in collection::vec(any::<u8>(), 0..17),
                                  a in crate::array::uniform4(1u32..5)) {
            prop_assert!(v.len() < 17);
            prop_assert!(a.iter().all(|&x| (1..5).contains(&x)));
        }

        #[test]
        fn assume_rejects_without_counting(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn config_caps_cases(_x in 0u32..10) {
            // Runs exactly 5 cases; nothing to assert beyond not diverging.
        }
    }

    #[test]
    fn seeds_differ_per_test_name() {
        assert_ne!(crate::__seed_for("a::b"), crate::__seed_for("a::c"));
    }
}
