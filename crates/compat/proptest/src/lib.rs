//! Offline, dependency-free shim of the parts of `proptest` this workspace uses.
//! The build container has no crates.io access, so this crate is vendored in-tree;
//! it is **not** the real `proptest`.
//!
//! Supported surface:
//!
//! * the [`proptest!`] macro with an optional `#![proptest_config(...)]` header and
//!   any number of `#[test] fn name(arg in strategy, ...) { body }` items;
//! * strategies: integer / float / `usize` ranges (half-open and inclusive), tuples
//!   of strategies, and [`collection::vec`](prop::collection::vec);
//! * [`prop_assert!`] / [`prop_assert_eq!`] (panic-based — failures fail the test
//!   and report the failing case number and seed; there is no shrinking).
//!
//! Each case derives its RNG seed from the test name and case index (plus the
//! `PROPTEST_SEED` environment variable if set), so runs are deterministic and
//! reproducible while still varying across cases.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;

/// Subset of proptest's run configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to execute per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values for one test argument.
pub trait Strategy {
    /// Type of the generated value.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;
}

impl<T: rand::SampleUniform> Strategy for core::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        rand::Rng::gen_range(rng, self.start..self.end)
    }
}

impl<T: rand::SampleUniform> Strategy for core::ops::RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        rand::Rng::gen_range(rng, *self.start()..=*self.end())
    }
}

/// A strategy producing a fixed value (proptest's `Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// The `prop` namespace (`prop::collection::vec`, ...).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::SmallRng;
        use rand::Rng;

        /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
        pub struct VecStrategy<S> {
            element: S,
            min_len: usize,
            max_len_exclusive: usize,
        }

        /// Length specifications accepted by [`vec()`].
        pub trait IntoSizeRange {
            /// Lower bound (inclusive) and upper bound (exclusive).
            fn bounds(&self) -> (usize, usize);
        }

        impl IntoSizeRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self + 1)
            }
        }

        impl IntoSizeRange for core::ops::Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                (self.start, self.end)
            }
        }

        impl IntoSizeRange for core::ops::RangeInclusive<usize> {
            fn bounds(&self) -> (usize, usize) {
                (*self.start(), *self.end() + 1)
            }
        }

        /// `prop::collection::vec(element, len)` — a vector of `element` draws.
        pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
            let (min_len, max_len_exclusive) = len.bounds();
            assert!(min_len < max_len_exclusive, "empty length range");
            VecStrategy {
                element,
                min_len,
                max_len_exclusive,
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
                let n = rng.gen_range(self.min_len..self.max_len_exclusive);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Deterministic per-test, per-case seed (FNV-1a over the test name, mixed with the
/// case index and the optional `PROPTEST_SEED` environment override).
pub fn case_seed(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let env: u64 = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    h ^ env ^ (((case as u64) << 32) | case as u64)
}

/// `proptest::prelude` subset.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

/// Assert a condition inside a property; failure reports the proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!($($fmt)+);
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            panic!($($fmt)+);
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// The `proptest! { ... }` item macro: expands each contained function into a
/// `#[test]` that runs `cases` random cases of the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; do not invoke directly.
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..cfg.cases {
                    let __seed = $crate::case_seed(stringify!($name), __case);
                    let mut __rng =
                        <::rand::rngs::SmallRng as ::rand::SeedableRng>::seed_from_u64(__seed);
                    $(
                        let $arg = $crate::Strategy::generate(&($strat), &mut __rng);
                    )+
                    let __guard = $crate::CaseReporter {
                        test: stringify!($name),
                        case: __case,
                        seed: __seed,
                    };
                    $body
                    ::core::mem::forget(__guard);
                }
            }
        )*
    };
}

/// Prints the failing case context when a property panics (armed via `Drop` during
/// each case, defused with `mem::forget` on success).
pub struct CaseReporter {
    /// Test function name.
    pub test: &'static str,
    /// Zero-based case index.
    pub case: u32,
    /// RNG seed of the failing case.
    pub seed: u64,
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest-shim: test `{}` failed at case {} (seed {:#x}); \
                 re-run with PROPTEST_SEED to vary cases",
                self.test, self.case, self.seed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let s = prop::collection::vec(5u64..10, 2..6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| (5..10).contains(x)));
        }
        let t = (1u64..4, 0.5f64..2.0);
        for _ in 0..200 {
            let (a, b) = t.generate(&mut rng);
            assert!((1..4).contains(&a));
            assert!((0.5..2.0).contains(&b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_expands_and_runs(x in 1u64..100, v in prop::collection::vec(0u64..5, 1..4)) {
            prop_assert!((1..100).contains(&x));
            prop_assert_eq!(v.len(), v.len());
            prop_assert!(!v.is_empty(), "vec should be non-empty, got {:?}", v);
        }
    }
}
