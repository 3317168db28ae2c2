//! Offline stand-in for the `proptest` crate (API subset).
//!
//! This build environment has no access to a crates.io registry, so the
//! workspace vendors the exact surface its property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, range and
//! tuple strategies, a character-class string strategy,
//! [`collection::vec`], [`option::of`], [`bool::ANY`], and the
//! `proptest!` / `prop_oneof!` / `prop_assert!` / `prop_assert_eq!`
//! macros.
//!
//! Semantics: each test runs `ProptestConfig::cases` random cases seeded
//! deterministically from the test's name, and assertion failures panic
//! like ordinary `assert!`. There is **no shrinking** and no failure
//! persistence — a failing case reports its generated values via the
//! assertion message only.

pub mod test_runner {
    //! Deterministic case generation and run configuration.

    /// Per-test configuration (subset of the real type).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Deterministic random source for strategies (xorshift64*).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds a generator from a test name, so each property test has
        /// a stable, reproducible case sequence.
        pub fn for_test(name: &str) -> TestRng {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h | 1 }
        }

        /// Next raw word.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use std::ops::Range;
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
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

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Uniform choice among alternative strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `arms`; must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    /// `&str` strategies are a regex subset: a single character class with
    /// a repetition count, e.g. `"[a-zA-Z0-9 ']{1,20}"`.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (chars, min, max) = parse_class_pattern(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| chars[rng.below(chars.len() as u64) as usize])
                .collect()
        }
    }

    /// Parses `[class]{min,max}` into (alphabet, min, max).
    fn parse_class_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
        fn bad(pattern: &str) -> ! {
            panic!("unsupported string strategy pattern: {pattern:?} (shim supports only `[class]{{min,max}}`)")
        }
        let rest = pattern.strip_prefix('[').unwrap_or_else(|| bad(pattern));
        let (class, rest) = rest.split_once(']').unwrap_or_else(|| bad(pattern));
        let counts = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .unwrap_or_else(|| bad(pattern));
        let (min, max) = counts.split_once(',').unwrap_or_else(|| bad(pattern));
        let min: usize = min.trim().parse().unwrap_or_else(|_| bad(pattern));
        let max: usize = max.trim().parse().unwrap_or_else(|_| bad(pattern));
        assert!(min <= max, "bad repetition in {pattern:?}");
        let cs: Vec<char> = class.chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (lo, hi) = (cs[i] as u32, cs[i + 2] as u32);
                assert!(lo <= hi, "bad char range in {pattern:?}");
                for c in lo..=hi {
                    alphabet.push(char::from_u32(c).unwrap());
                }
                i += 3;
            } else {
                alphabet.push(cs[i]);
                i += 1;
            }
        }
        assert!(!alphabet.is_empty(), "empty char class in {pattern:?}");
        (alphabet, min, max)
    }

    macro_rules! impl_tuple_strategy {
        ($($S:ident/$idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(S0/0);
    impl_tuple_strategy!(S0/0, S1/1);
    impl_tuple_strategy!(S0/0, S1/1, S2/2);
    impl_tuple_strategy!(S0/0, S1/1, S2/2, S3/3);
    impl_tuple_strategy!(S0/0, S1/1, S2/2, S3/3, S4/4);
    impl_tuple_strategy!(S0/0, S1/1, S2/2, S3/3, S4/4, S5/5);
}

pub mod collection {
    //! Collection strategies.

    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `Vec`s whose length is drawn from `size` (half-open,
    /// matching proptest's `Range<usize> -> SizeRange` conversion).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod bool {
    //! `bool` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The uniform `bool` strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(bindings) { body }` becomes a
/// `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($params:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                for __case in 0..__config.cases {
                    let _ = __case;
                    $crate::__proptest_bind!(__rng; $($params)*);
                    $body
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; mut $var:ident in $strat:expr, $($rest:tt)*) => {
        let mut $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $var:ident in $strat:expr, $($rest:tt)*) => {
        let $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; mut $var:ident in $strat:expr) => {
        let mut $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident; $var:ident in $strat:expr) => {
        let $var = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
}

/// Asserts a condition inside a property test (no shrinking: plain panic).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (no shrinking: plain panic).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniformly chooses among alternative strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_maps() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges_and_maps");
        let s = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
    }

    #[test]
    fn string_class_pattern() {
        let mut rng = crate::test_runner::TestRng::for_test("string_class_pattern");
        let s: &'static str = "[a-c0-1 ']{2,5}";
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..=5).contains(&v.chars().count()), "{v:?}");
            assert!(v.chars().all(|c| "abc01 '".contains(c)), "{v:?}");
        }
    }

    #[test]
    fn oneof_union_covers_arms() {
        let mut rng = crate::test_runner::TestRng::for_test("oneof");
        let s = prop_oneof![(0u32..1).prop_map(|_| "a"), (0u32..1).prop_map(|_| "b")];
        let mut seen_a = false;
        let mut seen_b = false;
        for _ in 0..100 {
            match s.generate(&mut rng) {
                "a" => seen_a = true,
                _ => seen_b = true,
            }
        }
        assert!(seen_a && seen_b);
    }

    #[test]
    fn vec_and_option() {
        let mut rng = crate::test_runner::TestRng::for_test("vec_and_option");
        let s = crate::collection::vec(0u8..3, 1..4);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..=3).contains(&v.len()));
        }
        let o = crate::option::of(0u8..3);
        let nones = (0..400).filter(|_| o.generate(&mut rng).is_none()).count();
        assert!(nones > 40 && nones < 200, "{nones}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself works end to end, including `mut` bindings.
        #[test]
        fn macro_roundtrip(mut xs in crate::collection::vec(0u8..10, 0..6), flip in crate::bool::ANY) {
            if flip {
                xs.reverse();
            }
            prop_assert!(xs.len() < 6);
            prop_assert_eq!(xs.iter().filter(|&&x| x >= 10).count(), 0, "values {:?}", xs);
        }
    }
}
