//! Vendored stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]`), [`Strategy`]
//! with `prop_map`, range / tuple / `any::<T>()` strategies,
//! [`collection::vec`], [`prop_oneof!`], and the `prop_assert*` macros.
//! Cases are generated from a deterministic per-test RNG; there is **no
//! shrinking** — on failure the full generated inputs are printed
//! instead. See the `parking_lot` shim for why external deps are
//! vendored.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic RNG handed to strategies; seeded per (test, case).
pub struct TestRng(StdRng);

impl TestRng {
    /// Build the RNG for one case of one named test.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draw a uniformly random value of the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The `any::<T>()` strategy.
pub struct Any<T>(PhantomData<T>);

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($n:ident . $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Uniform choice between boxed alternative strategies ([`prop_oneof!`]).
pub struct OneOf<V> {
    alternatives: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Build from the macro-collected alternatives.
    pub fn new(alternatives: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs at least one arm");
        Self { alternatives }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let pick = (rng.next_u64() as usize) % self.alternatives.len();
        self.alternatives[pick].generate(rng)
    }
}

/// Erase a strategy's concrete type (used by [`prop_oneof!`]).
pub fn boxed<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(strategy)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Acceptable length specifications for [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.0.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.0.gen_range(self.clone())
        }
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Strategy yielding `Vec`s of `element` with a length from `size`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Just,
        ProptestConfig, Strategy,
    };
}

/// Uniform choice among strategy expressions with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($strategy)),+])
    };
}

/// Fallible assertion: fails the current case without panicking the
/// generation machinery (no shrinking here, so it simply reports).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed at {}:{}: {}", file!(), line!(), stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed at {}:{}: {}", file!(), line!(), format!($($fmt)+)),
            );
        }
    };
}

/// Fallible equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {:?} != {:?}",
                file!(), line!(), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {:?} != {:?}: {}",
                file!(), line!(), l, r, format!($($fmt)+)
            ));
        }
    }};
}

/// Fallible inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {:?} == {:?}",
                file!(), line!(), l, r
            ));
        }
    }};
}

/// Define property tests: generates a `#[test]` per function, running
/// `cases` deterministic random cases, printing the generated inputs on
/// failure.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases as u64 {
                let mut __rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let mut __inputs = ::std::string::String::new();
                $(
                    let __value = $crate::Strategy::generate(&($strategy), &mut __rng);
                    __inputs.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), __value
                    ));
                    let $arg = __value;
                )+
                let __outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "proptest {} failed on case {}/{}:\n{}\ninputs:\n{}",
                        stringify!($name), __case, __cfg.cases, __msg, __inputs
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Toy {
        A(u64),
        B(u8, bool),
    }

    fn toy() -> impl Strategy<Value = Toy> {
        prop_oneof![
            (0u64..100).prop_map(Toy::A),
            (any::<u8>(), any::<bool>()).prop_map(|(x, b)| Toy::B(x, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(x in 3u64..17, y in -4i64..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(toy(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()), "len = {}", v.len());
        }

        #[test]
        fn map_applies(t in (1u8..5).prop_map(|n| n * 2)) {
            prop_assert_eq!(t % 2, 0);
            prop_assert!((2..10).contains(&t));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::for_case("x", 0);
        let mut b = crate::TestRng::for_case("x", 0);
        let s = 0u64..1000;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    #[should_panic(expected = "proptest")]
    fn failure_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner();
    }
}
