//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim provides
//! the subset of proptest the workspace's property tests use: the
//! [`proptest!`] macro, range and [`any`] strategies, the
//! [`collection`] combinators (`vec`, `btree_map`), `prop_assert!` /
//! `prop_assert_eq!`, and [`ProptestConfig::with_cases`].
//!
//! Unlike real proptest there is no shrinking: a failing case panics
//! with its case index, and cases are generated deterministically from
//! the test name, so failures replay exactly.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG handed to strategies (deterministic per test name and case).
pub type TestRng = StdRng;

/// Build the deterministic RNG for one test case.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Run configuration (only the case count is honored).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property (an explicit count
    /// wins over `PROPTEST_CASES`, as in real proptest).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Cases per property when a test does not set its own count.
const DEFAULT_CASES: u32 = 64;

impl Default for ProptestConfig {
    /// 64 cases, or the `PROPTEST_CASES` environment variable
    /// when it holds a number — real proptest's override, so
    /// `PROPTEST_CASES=512 cargo test` runs every default-configured
    /// property deeper. An unparseable value warns and is ignored.
    fn default() -> Self {
        let cases = match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.trim().parse().unwrap_or_else(|_| {
                eprintln!("proptest: ignoring PROPTEST_CASES={v:?} (not a number)");
                DEFAULT_CASES
            }),
            Err(_) => DEFAULT_CASES,
        };
        ProptestConfig { cases }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated input type.
    type Value;

    /// Generate one input.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u64, u32, u16, u8, usize, i64, i32);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.gen_range(self.clone())
    }
}

/// Strategy for "any value of `T`" ([`any`]).
pub struct AnyStrategy<T>(core::marker::PhantomData<fn() -> T>);

/// The `any::<T>()` strategy: uniform over the whole type.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

/// Types with a canonical [`any`] strategy.
pub trait Arbitrary: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u64, u32, u16, u8, usize, i64, i32);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        use rand::RngCore;
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy yielding `Vec`s of `element` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// `vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy yielding `BTreeMap`s with a target entry count in `size`.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: core::ops::Range<usize>,
    }

    /// `btree_map(key, value, len_range)`.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: core::ops::Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = std::collections::BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            // Duplicate keys collapse, as in real proptest (the map may
            // come out smaller than `len`).
            (0..len)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs $cfg; $($rest)*);
    };
    (@funcs $cfg:expr; ) => {};
    (@funcs $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut proptest_rng = $crate::case_rng(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut proptest_rng);)*
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!("property {} failed at case {case}: {message}", stringify!($name));
                }
            }
        }
        $crate::proptest!(@funcs $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Assert inside a property body (fails the current case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let left = $a;
        let right = $b;
        if left != right {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {} (left: {left:?}, right: {right:?})",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let left = $a;
        let right = $b;
        if left != right {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn vec_lengths_respected(xs in crate::collection::vec(any::<u64>(), 3..10)) {
            prop_assert!(xs.len() >= 3 && xs.len() < 10, "len {}", xs.len());
        }

        #[test]
        fn ranges_respected(x in 10u64..20, y in 0usize..5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y < 5);
            prop_assert_eq!(x, x);
        }

        #[test]
        fn btree_map_bounds(m in crate::collection::btree_map(0u64..50, 1u64..10, 1..20)) {
            prop_assert!(m.len() < 20);
            for (k, v) in &m {
                prop_assert!(*k < 50 && (1..10).contains(v));
            }
        }
    }

    #[test]
    fn proptest_cases_sets_the_default_count() {
        // One test owns the variable, so no other test can observe it
        // mid-change.
        std::env::set_var("PROPTEST_CASES", "512");
        assert_eq!(crate::ProptestConfig::default().cases, 512);
        assert_eq!(crate::ProptestConfig::with_cases(4).cases, 4);
        std::env::set_var("PROPTEST_CASES", "many");
        assert_eq!(crate::ProptestConfig::default().cases, crate::DEFAULT_CASES);
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(crate::ProptestConfig::default().cases, crate::DEFAULT_CASES);
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::Strategy;
        let s = crate::collection::vec(crate::any::<u64>(), 0..100);
        let a = s.generate(&mut crate::case_rng("t", 3));
        let b = s.generate(&mut crate::case_rng("t", 3));
        assert_eq!(a, b);
    }
}
