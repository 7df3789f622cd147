//! A proptest-style property-testing harness.
//!
//! The [`prop!`](crate::prop) macro defines `#[test]` functions whose
//! arguments are drawn from generators, runs each body over a
//! configurable number of cases, and — on failure — greedily shrinks
//! the input before reporting, printing the seed so the exact failure
//! replays:
//!
//! ```
//! rt::prop! {
//!     #![cases(64)]
//!     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         rt::prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Generators are values implementing [`Gen`]: integer and float
//! ranges work directly, and [`vec`](fn@vec), [`select`], [`ascii_string`],
//! [`from_fn`], and [`map`] compose the rest. A failing case is
//! replayed with `RT_CHECK_SEED=<seed> cargo test <name>`.
//!
//! Shrinking is two-phase. Generators draw from a [`CheckRng`] that
//! records every random word consumed onto a **tape**; when a case
//! fails, the harness first shrinks the *tape* (truncating it, and
//! deleting/zeroing-toward-1/halving/decrementing words) and re-runs
//! the generator over the transformed tape — so shrinking works
//! through [`map`] and [`from_fn`], whose mappings cannot be inverted.
//! A structural pass over [`Gen::shrink`] candidates then polishes the
//! result. Unlike proptest there is still no persistence file: replay
//! goes through the printed seed.

use crate::rand::rngs::StdRng;
use crate::rand::{Rng, RngCore, SeedableRng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};

/// Panic payload that marks a case as discarded rather than failed;
/// thrown by [`prop_assume!`](crate::prop_assume).
pub struct Discard;

/// The RNG handed to [`Gen::generate`]: a PCG64 stream whose consumed
/// words are recorded on a tape (record mode), or a tape being played
/// back — possibly after shrinking transformations — with a seeded
/// PRNG supplying any words past its end (replay mode).
///
/// The fallback stream matters: rejection-sampling generators (integer
/// ranges, `char` ranges) would spin forever on a constant-zero
/// suffix, so an exhausted tape hands over to real (but deterministic)
/// randomness instead.
pub struct CheckRng {
    mode: RngMode,
}

enum RngMode {
    Record {
        inner: StdRng,
        tape: Vec<u64>,
    },
    Replay {
        tape: Vec<u64>,
        pos: usize,
        fallback: StdRng,
        consumed: Vec<u64>,
    },
}

/// Seed for the replay-mode fallback stream; fixed so shrink attempts
/// are reproducible run to run.
const TAPE_FALLBACK_SEED: u64 = 0x5EED_FA11_BACC;

impl CheckRng {
    /// A recording generator seeded like [`StdRng::seed_from_u64`].
    pub fn from_seed(seed: u64) -> Self {
        CheckRng {
            mode: RngMode::Record {
                inner: StdRng::seed_from_u64(seed),
                tape: Vec::new(),
            },
        }
    }

    /// A generator that replays `tape` word-for-word, then continues
    /// with a deterministic fallback stream.
    pub fn replay(tape: Vec<u64>) -> Self {
        CheckRng {
            mode: RngMode::Replay {
                tape,
                pos: 0,
                fallback: StdRng::seed_from_u64(TAPE_FALLBACK_SEED),
                consumed: Vec::new(),
            },
        }
    }

    /// Marks a case boundary in record mode: the tape restarts so
    /// [`CheckRng::case_tape`] covers exactly one generated value.
    fn begin_case(&mut self) {
        if let RngMode::Record { tape, .. } = &mut self.mode {
            tape.clear();
        }
    }

    /// The words consumed since the last [`CheckRng::begin_case`]
    /// (record mode) or since construction (replay mode).
    fn case_tape(&self) -> Vec<u64> {
        match &self.mode {
            RngMode::Record { tape, .. } => tape.clone(),
            RngMode::Replay { consumed, .. } => consumed.clone(),
        }
    }
}

impl RngCore for CheckRng {
    fn next_u64(&mut self) -> u64 {
        match &mut self.mode {
            RngMode::Record { inner, tape } => {
                let word = inner.next_u64();
                tape.push(word);
                word
            }
            RngMode::Replay {
                tape,
                pos,
                fallback,
                consumed,
            } => {
                let word = if *pos < tape.len() {
                    let w = tape[*pos];
                    *pos += 1;
                    w
                } else {
                    fallback.next_u64()
                };
                consumed.push(word);
                word
            }
        }
    }
}

/// A value generator: draws a value from an RNG and proposes smaller
/// variants of a failing value.
pub trait Gen {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut CheckRng) -> Self::Value;

    /// Proposes simpler candidates, most-shrunk first. Returning an
    /// empty list opts out of shrinking for this generator.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

macro_rules! int_gen {
    ($($t:ty),*) => {$(
        impl Gen for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut CheckRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }

        impl Gen for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut CheckRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = *self.start();
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )*};
}

int_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_gen {
    ($($t:ty),*) => {$(
        impl Gen for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut CheckRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2.0;
                    if mid > lo && mid < v {
                        out.push(mid);
                    }
                }
                out
            }
        }

        impl Gen for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut CheckRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = *self.start();
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2.0;
                    if mid > lo && mid < v {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )*};
}

float_gen!(f32, f64);

impl Gen for Range<char> {
    type Value = char;

    fn generate(&self, rng: &mut CheckRng) -> char {
        let lo = self.start as u32;
        let hi = self.end as u32;
        loop {
            if let Some(c) = char::from_u32(rng.gen_range(lo..hi)) {
                return c;
            }
        }
    }
}

/// Length constraint for [`vec`](fn@vec) and [`ascii_string`]; build one from a
/// `usize` (exact length), `Range<usize>`, or `RangeInclusive<usize>`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.end > r.start, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.end() >= r.start(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut CheckRng) -> usize {
        rng.gen_range(self.min..=self.max)
    }
}

/// Generates a `Vec` whose elements come from `element` and whose
/// length is drawn from `size`.
pub fn vec<G: Gen>(element: G, size: impl Into<SizeRange>) -> VecGen<G> {
    VecGen {
        element,
        size: size.into(),
    }
}

/// See [`vec`](fn@vec).
pub struct VecGen<G> {
    element: G,
    size: SizeRange,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut CheckRng) -> Vec<G::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        // First try shorter vectors: drop to the minimum length, then
        // drop one element at a time from the back.
        if value.len() > self.size.min {
            out.push(value[..self.size.min].to_vec());
            let mut shorter = value.clone();
            shorter.pop();
            out.push(shorter);
        }
        // Then element-wise shrinks, one position at a time.
        for (i, item) in value.iter().enumerate() {
            for candidate in self.element.shrink(item) {
                let mut next = value.clone();
                next[i] = candidate;
                out.push(next);
            }
        }
        out
    }
}

/// Picks uniformly from a fixed list of options; shrinks toward
/// earlier entries.
pub fn select<T: Clone + Debug + PartialEq>(options: Vec<T>) -> Select<T> {
    assert!(!options.is_empty(), "select requires at least one option");
    Select { options }
}

/// See [`select`].
pub struct Select<T> {
    options: Vec<T>,
}

impl<T: Clone + Debug + PartialEq> Gen for Select<T> {
    type Value = T;

    fn generate(&self, rng: &mut CheckRng) -> T {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        match self.options.iter().position(|o| o == value) {
            Some(pos) => self.options[..pos].to_vec(),
            None => Vec::new(),
        }
    }
}

/// Generates strings of printable ASCII (space through `~`) — the
/// equivalent of proptest's `"[ -~]{a,b}"` regex strategy.
pub fn ascii_string(len: impl Into<SizeRange>) -> AsciiString {
    AsciiString { len: len.into() }
}

/// See [`ascii_string`].
pub struct AsciiString {
    len: SizeRange,
}

impl Gen for AsciiString {
    type Value = String;

    fn generate(&self, rng: &mut CheckRng) -> String {
        let len = self.len.sample(rng);
        (0..len)
            .map(|_| rng.gen_range(0x20u8..=0x7e) as char)
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let mut out = Vec::new();
        if value.len() > self.len.min {
            out.push(value[..self.len.min].to_string());
            out.push(value[..value.len() - 1].to_string());
        }
        // Simplify one character at a time toward 'a'.
        for (i, c) in value.char_indices() {
            if c != 'a' {
                let mut next = value.clone();
                next.replace_range(i..i + 1, "a");
                out.push(next);
            }
        }
        out
    }
}

/// Wraps a closure as a generator. No structural shrink candidates,
/// but failures still minimize through the tape: the harness replays
/// the closure over shrunk word streams.
pub fn from_fn<T, F>(f: F) -> FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut CheckRng) -> T,
{
    FromFn { f }
}

/// See [`from_fn`].
pub struct FromFn<F> {
    f: F,
}

impl<T, F> Gen for FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut CheckRng) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut CheckRng) -> T {
        (self.f)(rng)
    }
}

/// Applies a function to another generator's output. The mapping
/// cannot be inverted, so there are no structural shrink candidates —
/// instead failures shrink through the tape, re-running the inner
/// generator (and the mapping) over shrunk word streams.
pub fn map<G, O, F>(inner: G, f: F) -> Map<G, F>
where
    G: Gen,
    O: Clone + Debug,
    F: Fn(G::Value) -> O,
{
    Map { inner, f }
}

/// See [`map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, O, F> Gen for Map<G, F>
where
    G: Gen,
    O: Clone + Debug,
    F: Fn(G::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut CheckRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! tuple_gen {
    ($(($($g:ident / $idx:tt),+))*) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut CheckRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}

tuple_gen! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
}

/// How a single case execution ended.
enum CaseOutcome {
    Pass,
    Discard,
    Fail(String),
}

fn run_case<V, F>(f: &mut F, value: V) -> CaseOutcome
where
    F: FnMut(V),
{
    match panic::catch_unwind(AssertUnwindSafe(|| f(value))) {
        Ok(()) => CaseOutcome::Pass,
        Err(payload) => {
            if payload.downcast_ref::<Discard>().is_some() {
                CaseOutcome::Discard
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                CaseOutcome::Fail((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                CaseOutcome::Fail(s.clone())
            } else {
                CaseOutcome::Fail("panic with non-string payload".to_string())
            }
        }
    }
}

fn name_seed(name: &str) -> u64 {
    // FNV-1a over the test name gives each property its own stable
    // stream; RT_CHECK_SEED overrides for replay.
    if let Ok(text) = std::env::var("RT_CHECK_SEED") {
        if let Ok(seed) = text.trim().parse::<u64>() {
            return seed;
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Budget for shrink attempts once a failing case is found.
const SHRINK_BUDGET: usize = 2048;

/// Runs `cases` executions of `f` over values drawn from `gen`.
/// Panics with a replay-ready report on the first (shrunk) failure.
///
/// This is the engine behind [`prop!`](crate::prop); call it directly
/// when a property needs a generator expression that the macro grammar
/// can't express.
pub fn run_prop<G, F>(name: &str, cases: usize, gen: G, mut f: F)
where
    G: Gen,
    F: FnMut(G::Value),
{
    let seed = name_seed(name);
    let max_discards = cases.saturating_mul(16).max(64);
    let mut discards = 0usize;
    let mut executed = 0usize;
    let mut rng = CheckRng::from_seed(seed);

    while executed < cases {
        rng.begin_case();
        let value = gen.generate(&mut rng);
        match run_case(&mut f, value.clone()) {
            CaseOutcome::Pass => executed += 1,
            CaseOutcome::Discard => {
                discards += 1;
                if discards > max_discards {
                    panic!(
                        "property '{name}': too many discarded cases \
                         ({discards} discards for {executed} executions); \
                         loosen prop_assume! or the generators"
                    );
                }
            }
            CaseOutcome::Fail(message) => {
                let tape = rng.case_tape();
                let (shrunk, shrunk_message, steps) =
                    shrink_failure(&gen, &mut f, value.clone(), tape);
                panic!(
                    "property '{name}' failed (seed {seed}, case {executed}).\n\
                     original input: {value:?}\n\
                     shrunk input ({steps} steps): {shrunk:?}\n\
                     assertion: {final_msg}\n\
                     replay with: RT_CHECK_SEED={seed} cargo test {name}",
                    final_msg = if shrunk_message.is_empty() {
                        message
                    } else {
                        shrunk_message
                    },
                );
            }
        }
    }
}

/// Minimizes a failing input in two phases. Phase 1 shrinks the
/// *tape* the failing case consumed — truncating it and deleting /
/// setting-to-1 / halving / decrementing individual words — and
/// re-runs the generator over each transformed tape, keeping any
/// regenerated value that still fails. Because this operates below
/// the generator, it minimizes through [`map`] and [`from_fn`] whose
/// mappings cannot be inverted. Phase 2 then greedily polishes with
/// the structural [`Gen::shrink`] candidates. Panic output from
/// candidate executions is suppressed so the final report stays
/// readable.
fn shrink_failure<G, F>(
    gen: &G,
    f: &mut F,
    mut current: G::Value,
    mut tape: Vec<u64>,
) -> (G::Value, String, usize)
where
    G: Gen,
    F: FnMut(G::Value),
{
    // Silence the default panic hook while probing candidates; each
    // probe that still fails would otherwise print a full backtrace.
    // The hook is process-global, so concurrent failing tests may lose
    // their printed location — the panic message itself is unaffected.
    let saved_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut message = String::new();
    let mut attempts = 0usize;
    let mut steps = 0usize;

    // Phase 1: tape shrinking. Capped at half the budget so the
    // structural pass always gets a turn.
    'tape: loop {
        if attempts >= SHRINK_BUDGET / 2 {
            break;
        }
        let n = tape.len();
        let mut candidates: Vec<Vec<u64>> = Vec::new();
        if n > 1 {
            candidates.push(tape[..n / 2].to_vec());
            candidates.push(tape[..n - 1].to_vec());
        }
        // Cap per-word transforms so huge tapes don't exhaust the
        // budget in a single round.
        let idxs: Vec<usize> = if n <= 32 {
            (0..n).collect()
        } else {
            (0..32).map(|i| i * n / 32).collect()
        };
        for &i in &idxs {
            let w = tape[i];
            if w > 1 {
                let mut t = tape.clone();
                t[i] = 1;
                candidates.push(t);
                let mut t = tape.clone();
                t[i] = w / 2;
                candidates.push(t);
                let mut t = tape.clone();
                t[i] = w - 1;
                candidates.push(t);
            }
            if n > 1 {
                let mut t = tape.clone();
                t.remove(i);
                candidates.push(t);
            }
        }
        // `Gen::Value` is only `Debug`, so compare candidate values by
        // their debug representation to skip no-op transformations
        // (e.g. a word decrement too small to move the sampled value).
        let current_repr = format!("{current:?}");
        for candidate in candidates {
            if attempts >= SHRINK_BUDGET / 2 {
                break 'tape;
            }
            attempts += 1;
            let mut rng = CheckRng::replay(candidate);
            let value = gen.generate(&mut rng);
            if format!("{value:?}") == current_repr {
                continue;
            }
            if let CaseOutcome::Fail(m) = run_case(f, value.clone()) {
                current = value;
                message = m;
                // Canonicalize to the words actually consumed, so the
                // next round transforms a tape of the right length.
                tape = rng.case_tape();
                steps += 1;
                continue 'tape;
            }
        }
        break;
    }

    // Phase 2: structural polish via `Gen::shrink`.
    'outer: loop {
        for candidate in gen.shrink(&current) {
            if attempts >= SHRINK_BUDGET {
                break 'outer;
            }
            attempts += 1;
            if let CaseOutcome::Fail(m) = run_case(f, candidate.clone()) {
                current = candidate;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }

    panic::set_hook(saved_hook);
    (current, message, steps)
}

/// Defines property-based `#[test]` functions.
///
/// ```
/// rt::prop! {
///     #![cases(64)]
///     /// Reversing twice is the identity.
///     fn reverse_involution(v in rt::check::vec(0u8..255, 0..16)) {
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         rt::prop_assert_eq!(v, w);
///     }
/// }
/// ```
///
/// The optional `#![cases(N)]` header applies to every function in the
/// invocation (default 64). Each argument is `name in generator`,
/// where the generator is any [`check::Gen`](crate::check::Gen) value.
#[macro_export]
macro_rules! prop {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::prop!(@fns ($cases); $($rest)*);
    };
    (@fns ($cases:expr); ) => {};
    (@fns ($cases:expr);
        $(#[$meta:meta])*
        fn $name:ident($($var:ident in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check::run_prop(
                stringify!($name),
                $cases,
                ($($gen,)+),
                |($($var,)+)| $body,
            );
        }
        $crate::prop!(@fns ($cases); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::prop!(@fns (64usize); $($rest)*);
    };
}

/// Asserts a condition inside a property body; the harness catches the
/// panic, shrinks, and reports.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

/// Equality assertion counterpart of [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_eq!($left, $right, $($fmt)+)
    };
}

/// Inequality assertion counterpart of [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_ne!($left, $right, $($fmt)+)
    };
}

/// Discards the current case (it counts as neither pass nor failure)
/// when the condition is false — for pruning inputs the property does
/// not apply to.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            ::std::panic::panic_any($crate::check::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let gen = vec(0u32..1000, 0..10);
        let a: Vec<Vec<u32>> = {
            let mut rng = CheckRng::from_seed(99);
            (0..20).map(|_| gen.generate(&mut rng)).collect()
        };
        let b: Vec<Vec<u32>> = {
            let mut rng = CheckRng::from_seed(99);
            (0..20).map(|_| gen.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn int_range_shrinks_toward_start() {
        let gen = 5u32..100;
        let candidates = gen.shrink(&40);
        assert!(candidates.contains(&5));
        assert!(candidates.iter().all(|&c| (5..40).contains(&c)));
        assert!(gen.shrink(&5).is_empty());
    }

    #[test]
    fn vec_shrink_prefers_shorter() {
        let gen = vec(0u8..10, 1..=4);
        let candidates = gen.shrink(&vec![3, 7, 9]);
        assert_eq!(candidates[0], vec![3]); // straight to min length
        assert_eq!(candidates[1], vec![3, 7]); // drop one from the back
    }

    #[test]
    fn select_shrinks_to_earlier_options() {
        let gen = select(vec![1u32, 2, 4, 8, 16]);
        assert_eq!(gen.shrink(&8), vec![1, 2, 4]);
        assert!(gen.shrink(&1).is_empty());
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0usize;
        run_prop("count_cases", 32, (0u32..10,), |(_x,)| {
            // Count via a side effect; the closure is FnMut.
        });
        // run_prop consumed the counting closure; re-run with capture.
        run_prop("count_cases_2", 32, (0u32..10,), |(_x,)| count += 1);
        assert_eq!(count, 32);
    }

    #[test]
    fn failing_property_reports_shrunk_input() {
        let result = std::panic::catch_unwind(|| {
            run_prop("find_big", 256, (0u32..1000,), |(x,)| {
                assert!(x < 500, "x too big");
            });
        });
        let message = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        // Greedy shrinking must land on the boundary value.
        assert!(
            message.contains("shrunk input") && message.contains("(500,)"),
            "unexpected report: {message}"
        );
        assert!(message.contains("RT_CHECK_SEED="));
    }

    #[test]
    fn assume_discards_without_failing() {
        let mut seen = Vec::new();
        run_prop("assume_evens", 16, (0u32..100,), |(x,)| {
            crate::prop_assume!(x % 2 == 0);
            seen.push(x);
        });
        assert_eq!(seen.len(), 16);
        assert!(seen.iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn excessive_discards_abort() {
        let result = std::panic::catch_unwind(|| {
            run_prop("assume_never", 8, (0u32..100,), |(_x,)| {
                crate::prop_assume!(false);
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn ascii_string_stays_printable() {
        let gen = ascii_string(0..=12);
        let mut rng = CheckRng::from_seed(3);
        for _ in 0..200 {
            let s = gen.generate(&mut rng);
            assert!(s.len() <= 12);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn tape_replay_regenerates_identical_value() {
        let gen = (vec(0u32..1000, 0..10), ascii_string(0..=8));
        let mut rng = CheckRng::from_seed(42);
        rng.begin_case();
        let value = gen.generate(&mut rng);
        let tape = rng.case_tape();
        let mut replayed = CheckRng::replay(tape);
        let again = gen.generate(&mut replayed);
        assert_eq!(value, again);
    }

    #[test]
    fn shrinking_reaches_through_map() {
        // `map` has no structural shrink candidates, so any
        // minimization here comes from the tape phase.
        let result = std::panic::catch_unwind(|| {
            run_prop(
                "map_big",
                256,
                (map(0u64..1_000_000, |x| x + 1),),
                |(x,)| {
                    assert!(x <= 1000, "x too big");
                },
            );
        });
        let message = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => panic!("property should have failed"),
        };
        let tail = message
            .split("steps): (")
            .nth(1)
            .unwrap_or_else(|| panic!("unexpected report: {message}"));
        let shrunk: u64 = tail
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("unexpected report: {message}"));
        // Still failing, but word-halving must have pulled it close to
        // the 1000 boundary from anywhere in 0..1_000_000.
        assert!(shrunk > 1000, "shrunk value passes: {message}");
        assert!(shrunk <= 4000, "tape shrinking barely moved: {message}");
    }

    #[test]
    fn tuple_shrink_varies_one_component() {
        let gen = (0u32..10, 0u32..10);
        for candidate in gen.shrink(&(4, 7)) {
            let changed = (candidate.0 != 4) as u8 + (candidate.1 != 7) as u8;
            assert_eq!(changed, 1);
        }
    }

    prop! {
        #![cases(64)]
        /// The macro itself, exercised end to end.
        fn macro_addition_commutes(a in 0u64..10_000, b in 0u64..10_000) {
            crate::prop_assert_eq!(a + b, b + a);
        }

        fn macro_vec_reverse_involution(v in vec(0u8..=255, 0..16)) {
            let mut w = v.clone();
            w.reverse();
            w.reverse();
            crate::prop_assert_eq!(v, w);
        }
    }
}
