//! Minimal, API-compatible subset of `proptest` for offline builds.
//!
//! Supports the strategies the workspace's property tests use — integer/float
//! ranges, `prop::collection::vec`, `prop::sample::select`, tuples, `prop_map`
//! and `prop_flat_map` — plus the [`proptest!`] macro and the `prop_assert*`
//! family. Inputs are sampled from a deterministic per-test stream (seeded from
//! the test's source location), so failures reproduce across runs. Unlike the
//! real proptest there is **no shrinking**: a failing case panics with the
//! values the `prop_assert*` message interpolates. A block without an explicit
//! `proptest_config` runs 32 cases, or as many as `PROPTEST_CASES` names.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 stream driving all strategies of one test case.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = Self { state: seed };
        let _ = rng.next_u64();
        rng
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a hash of a test identifier, used to give each test its own stream.
pub fn seed_for(ident: &str, case: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in ident.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ case.wrapping_mul(0x9e3779b97f4a7c15)
}

/// Run-time configuration for one `proptest!` block.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    /// 32 cases, or as many as the `PROPTEST_CASES` environment variable
    /// names. [`ProptestConfig::with_cases`] is not affected by it.
    fn default() -> Self {
        Self {
            cases: cases_from(std::env::var("PROPTEST_CASES").ok().as_deref()),
        }
    }
}

/// The case count a `PROPTEST_CASES` value asks for; 32 when it is unset or
/// not a positive integer.
fn cases_from(var: Option<&str>) -> u32 {
    var.and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(32)
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Samples one value from the strategy.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms sampled values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Samples a value, then samples from the strategy `f` derives from it.
    fn prop_flat_map<O, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        O: Strategy,
        F: Fn(Self::Value) -> O,
    {
        FlatMap { inner: self, f }
    }

    /// Builds a recursive strategy: `recurse` maps a strategy for the inner
    /// levels to a strategy for the level above, applied `depth` times over
    /// `self` as the leaf.
    ///
    /// Unlike the real proptest there is no size-driven early termination —
    /// every sample composes exactly `depth` levels (each of which may still
    /// draw the leaf via the strategy it receives). `desired_size` and
    /// `expected_branch_size` are accepted for signature compatibility.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let mut current = BoxedStrategy::new(self);
        for _ in 0..depth {
            current = BoxedStrategy::new(recurse(current.clone()));
        }
        current
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Strategy, F: Fn(S::Value) -> O> Strategy for FlatMap<S, F> {
    type Value = O::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = end.wrapping_sub(start) as u64 + 1;
                start + rng.below(span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range_strategy!(f64, f32);

/// Why a test case did not pass: a rejected precondition or a failure.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The case was skipped (`prop_assume!` precondition not met).
    Reject(String),
    /// The case failed.
    Fail(String),
}

impl TestCaseError {
    /// A failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        Self::Fail(message.into())
    }

    /// A precondition rejection carrying `message`.
    pub fn reject(message: impl Into<String>) -> Self {
        Self::Reject(message.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Reject(m) => write!(f, "case rejected: {m}"),
            Self::Fail(m) => write!(f, "case failed: {m}"),
        }
    }
}

/// Object-safe view of a strategy, so strategies of one value type can be
/// stored together (see [`BoxedStrategy`] and [`prop_oneof!`]).
trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<V> {
    inner: std::rc::Rc<dyn DynStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<V> BoxedStrategy<V> {
    /// Erases the concrete type of `strategy`.
    pub fn new<S: Strategy<Value = V> + 'static>(strategy: S) -> Self {
        Self {
            inner: std::rc::Rc::new(strategy),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        self.inner.sample_dyn(rng)
    }
}

/// Uniform choice between several strategies of one value type — the result of
/// [`prop_oneof!`].
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Self {
            arms: self.arms.clone(),
        }
    }
}

impl<V> Union<V> {
    /// Builds a union over `arms` (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof needs at least one arm");
        Self { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        let arm = rng.below(self.arms.len() as u64) as usize;
        self.arms[arm].sample(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
}

/// Strategy for "any value of `T`" — see [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Returns the canonical strategy for `T` (`bool` and the small ints here).
pub fn any<T>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_any_strategy {
    ($($t:ty => $sample:expr;)*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $sample;
                f(rng)
            }
        }
    )*};
}

impl_any_strategy! {
    bool => |rng| rng.next_u64() >> 63 == 1;
    u8 => |rng| (rng.next_u64() >> 56) as u8;
    u16 => |rng| (rng.next_u64() >> 48) as u16;
    u32 => |rng| (rng.next_u64() >> 32) as u32;
    u64 => |rng| rng.next_u64();
}

/// The `prop::` namespace (`collection`, `sample`).
pub mod prop {
    /// Strategies for collections.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Length specification for [`vec()`]: a fixed size or a size range.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            min: usize,
            max_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self {
                    min: n,
                    max_inclusive: n,
                }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                Self {
                    min: r.start,
                    max_inclusive: r.end - 1,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                Self {
                    min: *r.start(),
                    max_inclusive: *r.end(),
                }
            }
        }

        /// Strategy producing `Vec`s of values from an element strategy.
        #[derive(Clone, Debug)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// Vectors of `element` values with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.max_inclusive - self.size.min) as u64 + 1;
                let len = self.size.min + rng.below(span) as usize;
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// Strategies sampling from explicit value sets.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// Strategy returned by [`select`].
        #[derive(Clone, Debug)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        /// Uniformly selects one of `options` (must be non-empty).
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn sample(&self, rng: &mut TestRng) -> T {
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }
    }
}

/// Everything a property test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property-test functions: each listed `fn` runs its body for every
/// sampled combination of its `pattern in strategy` arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { (<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($config:expr); $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let ident = concat!(file!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut __proptest_rng =
                        $crate::TestRng::new($crate::seed_for(ident, case as u64));
                    $(
                        let $pat =
                            $crate::Strategy::sample(&($strategy), &mut __proptest_rng);
                    )+
                    // The body runs in a closure so it can early-return
                    // TestCaseError (prop_assume rejections, explicit Errs),
                    // exactly like the real proptest.
                    let outcome = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) | Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(message)) => {
                            panic!("proptest case {case} of {ident} failed: {message}");
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when its sampled inputs don't satisfy a precondition.
///
/// Returns a [`TestCaseError::Reject`] from the body closure generated by
/// [`proptest!`]; the runner counts the case as skipped.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniformly chooses between several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::BoxedStrategy::new($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sample_within_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..200 {
            let x = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&x));
            let y = (1usize..=4).sample(&mut rng);
            assert!((1..=4).contains(&y));
            let v = prop::collection::vec(any::<bool>(), 2..5).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn flat_map_links_dependent_strategies() {
        let pairs = (1usize..=8).prop_flat_map(|d| {
            (
                prop::collection::vec(any::<bool>(), d),
                prop::collection::vec(any::<bool>(), d),
            )
        });
        let mut rng = crate::TestRng::new(2);
        for _ in 0..100 {
            let (a, b) = pairs.sample(&mut rng);
            assert_eq!(a.len(), b.len());
            assert!((1..=8).contains(&a.len()));
        }
    }

    #[test]
    fn proptest_cases_sets_the_default_case_count() {
        assert_eq!(crate::cases_from(None), 32);
        assert_eq!(crate::cases_from(Some("320")), 320);
        assert_eq!(crate::cases_from(Some("0")), 32);
        assert_eq!(crate::cases_from(Some("many")), 32);
        assert_eq!(ProptestConfig::with_cases(16).cases, 16);
    }

    #[test]
    fn seeds_are_stable_per_identifier() {
        assert_eq!(crate::seed_for("x", 0), crate::seed_for("x", 0));
        assert_ne!(crate::seed_for("x", 0), crate::seed_for("x", 1));
        assert_ne!(crate::seed_for("x", 0), crate::seed_for("y", 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn the_macro_itself_works(
            n in 1usize..50,
            bits in prop::collection::vec(any::<bool>(), 1..10),
            label in prop::sample::select(vec!["a", "b"]),
        ) {
            prop_assume!(n != 13);
            prop_assert!((1..50).contains(&n));
            prop_assert!(!bits.is_empty() && bits.len() < 10);
            prop_assert_ne!(n, 13);
            prop_assert_eq!(label.len(), 1);
        }
    }
}
