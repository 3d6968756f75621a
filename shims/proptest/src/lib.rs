//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace uses: the [`proptest!`] test
//! macro, [`Strategy`] with `prop_map`, `any::<T>()`, `Just`, integer
//! ranges, tuples, `collection::vec`, `option::of`, weighted
//! [`prop_oneof!`], and literal character-class regex strategies such as
//! `"[a-z/]{1,20}"`.
//!
//! Differences from the real crate, chosen deliberately:
//!
//! - **Deterministic by default.** Each test derives its seed from its
//!   own name, so every run (local or CI) explores the same cases. Set
//!   `PROPTEST_SEED=<u64>` to explore a different stream or to replay
//!   the seed printed by a failure.
//! - **No shrinking.** On failure the runner prints the seed, the case
//!   number, and the generated inputs; reproduction is exact, so a
//!   debugger or `dbg!` gets you the rest of the way.

use std::fmt::Debug;
use std::ops::Range;

// --- deterministic RNG --------------------------------------------------

/// The generator handed to strategies (xoshiro256** core, SplitMix64
/// seeded). Cloning snapshots the stream.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = move || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    fn gen_range_u64(&mut self, start: u64, end: u64) -> u64 {
        assert!(start < end, "empty range in strategy");
        let span = end - start;
        start + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// --- Strategy core ------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Draws one value from `rng`.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `func`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, func: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, func }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    func: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.func)(self.source.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "uniform over the whole domain" strategy.
pub trait Arbitrary: Debug + Sized {
    /// Draws one uniformly distributed value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Uniform strategy over all of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range in strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start + ((rng.next_u64() as u128 * span as u128) >> 64) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range in strategy");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

// --- regex-literal strategies -------------------------------------------

/// Character-class regex strategies: a `&str` literal of the form
/// `"[chars]{min,max}"` (possibly a sequence of such atoms, where bare
/// characters are literals) is itself a `Strategy<Value = String>`.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let (choices, next) = if chars[i] == '[' {
            let close = chars[i + 1..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| p + i + 1)
                .unwrap_or_else(|| panic!("proptest shim: unclosed `[` in pattern {pattern:?}"));
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                    assert!(lo <= hi, "proptest shim: bad range in pattern {pattern:?}");
                    for c in lo..=hi {
                        set.push(char::from_u32(c).expect("ASCII class range"));
                    }
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            (set, close + 1)
        } else if chars[i] == '\\' && i + 1 < chars.len() {
            (vec![chars[i + 1]], i + 2)
        } else {
            (vec![chars[i]], i + 1)
        };
        // Optional {n} / {min,max} repetition.
        let (reps, after) = if next < chars.len() && chars[next] == '{' {
            let close = chars[next + 1..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| p + next + 1)
                .unwrap_or_else(|| panic!("proptest shim: unclosed `{{` in pattern {pattern:?}"));
            let spec: String = chars[next + 1..close].iter().collect();
            let reps = match spec.split_once(',') {
                Some((min, max)) => {
                    let min: u64 = min.trim().parse().expect("repetition bound");
                    let max: u64 = max.trim().parse().expect("repetition bound");
                    rng.gen_range_u64(min, max + 1)
                }
                None => spec.trim().parse().expect("repetition count"),
            };
            (reps, close + 1)
        } else {
            (1, next)
        };
        assert!(
            !choices.is_empty(),
            "proptest shim: empty class in pattern {pattern:?}"
        );
        for _ in 0..reps {
            let pick = rng.gen_range_u64(0, choices.len() as u64) as usize;
            out.push(choices[pick]);
        }
        i = after;
    }
    out
}

// --- combinator modules -------------------------------------------------

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                self.size.start
                    + (rng.gen_range_u64(0, (self.size.end - self.size.start) as u64) as usize)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some(inner)` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_f64() < 0.75 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Weighted union over same-valued strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T: Debug> Union<T> {
    /// A union of `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted arm");
        Union { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range_u64(0, self.total);
        for (weight, strat) in &self.arms {
            if pick < *weight as u64 {
                return strat.generate(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("weighted pick exceeded total")
    }
}

/// Boxes one weighted arm for [`Union::new`] (used by [`prop_oneof!`]).
pub fn weighted_arm<S: Strategy + 'static>(
    weight: u32,
    strat: S,
) -> (u32, BoxedStrategy<S::Value>) {
    (weight, Box::new(strat))
}

// --- runner -------------------------------------------------------------

/// Per-suite configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

fn seed_for(test_name: &str) -> u64 {
    if let Ok(env) = std::env::var("PROPTEST_SEED") {
        if let Ok(seed) = env.trim().parse::<u64>() {
            return seed;
        }
        eprintln!("proptest shim: ignoring unparseable PROPTEST_SEED={env:?}");
    }
    // FNV-1a over the test name: stable across runs and platforms, so CI
    // is deterministic without any configuration.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Drives one property test: `config.cases` generated cases, failure
/// reporting with the reproduction seed. Called by [`proptest!`].
pub fn run_property_test(
    test_name: &str,
    config: &ProptestConfig,
    run_one: impl Fn(&mut TestRng, &mut String),
) {
    let seed = seed_for(test_name);
    let mut rng = TestRng::new(seed);
    for case in 0..config.cases {
        let mut inputs = String::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one(&mut rng, &mut inputs)
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "proptest shim: `{test_name}` failed at case {case}/{total} with seed {seed}",
                total = config.cases
            );
            eprintln!("to reproduce: PROPTEST_SEED={seed} cargo test {test_name}");
            if !inputs.is_empty() {
                eprintln!("generated inputs:\n{inputs}");
            }
            std::panic::resume_unwind(payload);
        }
    }
}

// --- macros -------------------------------------------------------------

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                $crate::run_property_test(stringify!($name), &config, |rng, inputs| {
                    $(let $arg = $crate::Strategy::generate(&$strat, rng);)+
                    *inputs = format!("{:#?}", ($(&$arg,)+));
                    $body
                });
            }
        )*
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest! { @cfg ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Weighted choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::weighted_arm($weight, $strat)),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::weighted_arm(1, $strat)),+])
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// The usual imports (`proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn determinism_per_seed() {
        let mut a = TestRng::new(9);
        let mut b = TestRng::new(9);
        let strat = crate::collection::vec(any::<u8>(), 0..10);
        for _ in 0..20 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    #[test]
    fn pattern_strategies_match_their_class() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            let s = "[a-z/]{1,20}".generate(&mut rng);
            assert!((1..=20).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '/'));
            let t = "[a-z0-9/._-]{1,40}".generate(&mut rng);
            assert!((1..=40).contains(&t.len()));
            assert!(t
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "/._-".contains(c)));
        }
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let strat = prop_oneof![
            4 => Just(0u8),
            1 => Just(1u8),
        ];
        let mut rng = TestRng::new(5);
        let zeros = (0..1000).filter(|_| strat.generate(&mut rng) == 0).count();
        assert!((700..900).contains(&zeros), "zeros={zeros}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(v in crate::collection::vec(0u8..4, 0..8), flag in any::<bool>()) {
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&b| b < 4));
            let _ = flag;
        }
    }
}
