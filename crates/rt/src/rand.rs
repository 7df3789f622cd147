//! Deterministic pseudo-random numbers with the familiar `rand` surface.
//!
//! The generator is **PCG64** (XSL-RR 128/64, O'Neill 2014): a 128-bit
//! LCG state with a xorshift-and-rotate output permutation. It is fast,
//! has a 2^128 period, and — unlike the `rand` crate's `StdRng`, whose
//! algorithm is explicitly unstable across versions — its output here is
//! a frozen part of this workspace: the same seed produces the same
//! stream forever, which is what makes searches and synthetic datasets
//! byte-reproducible.
//!
//! Seeding goes through SplitMix64 so that nearby `u64` seeds map to
//! well-separated states.
//!
//! The API mirrors the subset of `rand` 0.8 the workspace uses:
//!
//! ```
//! use rt::rand::rngs::StdRng;
//! use rt::rand::seq::SliceRandom;
//! use rt::rand::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let die: u32 = rng.gen_range(1..=6);
//! assert!((1..=6).contains(&die));
//! let coin: bool = rng.gen();
//! let _ = coin;
//! let mut deck: Vec<u8> = (0..52).collect();
//! deck.shuffle(&mut rng);
//! let _top = deck.choose(&mut rng).unwrap();
//! ```

use std::ops::{Range, RangeInclusive};

/// The raw generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of a [`Sample`] type (uniform bits; floats are
    /// uniform in `[0, 1)`).
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a range. Half-open ranges exclude the
    /// upper bound; inclusive ranges include it. Integer sampling is
    /// unbiased (widening-multiply with rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability must be in [0, 1], got {p}"
        );
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// PCG64: 128-bit LCG state, XSL-RR output permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

/// The default multiplier from the PCG reference implementation.
const PCG_MUL: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Pcg64 {
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
    }

    fn output(&self) -> u64 {
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        let rot = (self.state >> 122) as u32;
        xored.rotate_right(rot)
    }
}

impl SeedableRng for Pcg64 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let hi = splitmix64(&mut s);
        let lo = splitmix64(&mut s);
        let inc_hi = splitmix64(&mut s);
        let inc_lo = splitmix64(&mut s);
        let mut rng = Pcg64 {
            state: ((hi as u128) << 64) | lo as u128,
            // The increment selects the stream; it must be odd.
            inc: (((inc_hi as u128) << 64) | inc_lo as u128) | 1,
        };
        rng.step();
        rng
    }
}

impl RngCore for Pcg64 {
    fn next_u64(&mut self) -> u64 {
        self.step();
        self.output()
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The workspace's standard generator. Unlike `rand`'s `StdRng`,
    /// this algorithm (PCG64) is frozen: streams are stable across
    /// releases.
    pub use super::Pcg64 as StdRng;
}

/// Types samplable from raw uniform bits via [`Rng::gen`].
pub trait Sample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Sample for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Sample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Sample for i32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as i32
    }
}

impl Sample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable via [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased uniform draw from `[0, span)` (`span > 0`): Lemire's
/// widening-multiply method with rejection.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = (rng.next_u64() as u128) * (span as u128);
    let mut lo = m as u64;
    if lo < span {
        let threshold = span.wrapping_neg() % span;
        while lo < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! int_range_impl {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample from empty range {}..{}", self.start, self.end
                );
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_u64(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample from empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // The full 64-bit domain: every output is valid.
                    return (lo as u64).wrapping_add(rng.next_u64()) as $t;
                }
                (lo as i128 + uniform_u64(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

int_range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_impl {
    ($t:ty) => {
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end && self.start.is_finite() && self.end.is_finite(),
                    "cannot sample from bad float range {}..{}",
                    self.start,
                    self.end
                );
                let unit = <$t as Sample>::sample(rng); // [0, 1)
                let v = self.start + (self.end - self.start) * unit;
                if v >= self.end {
                    // Rounding pushed us onto the excluded endpoint; step
                    // down one ULP (clamped into the range).
                    let stepped = if self.end > 0.0 {
                        <$t>::from_bits(self.end.to_bits() - 1)
                    } else if self.end == 0.0 {
                        -<$t>::from_bits(1)
                    } else {
                        <$t>::from_bits(self.end.to_bits() + 1)
                    };
                    stepped.max(self.start)
                } else {
                    v.max(self.start)
                }
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(
                    lo <= hi && lo.is_finite() && hi.is_finite(),
                    "cannot sample from bad float range {lo}..={hi}"
                );
                let unit = <$t as Sample>::sample(rng); // [0, 1); close enough to [0, 1]
                (lo + (hi - lo) * unit).clamp(lo, hi)
            }
        }
    };
}

float_range_impl!(f32);
float_range_impl!(f64);

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    /// The PCG64 stream is a frozen contract: if these values change,
    /// every seeded search in the workspace silently changes behaviour.
    #[test]
    fn stream_is_pinned() {
        let mut rng = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = StdRng::seed_from_u64(0);
        let second: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, second);
        // Spot-check statistical sanity rather than magic constants:
        // four consecutive outputs of a 64-bit generator are distinct.
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn gen_range_int_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let x = rng.gen_range(0..10usize);
            assert!(x < 10);
            let y = rng.gen_range(5..=7u32);
            assert!((5..=7).contains(&y));
            let z = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&z));
        }
    }

    #[test]
    fn gen_range_small_span_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all of 0..6 observed: {seen:?}");
    }

    #[test]
    fn gen_range_float_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            let x: f32 = rng.gen_range(f32::EPSILON..1.0);
            assert!(x >= f32::EPSILON && x < 1.0, "{x}");
            let y: f64 = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&y));
            let z: f32 = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&z));
        }
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let f32_mean: f64 =
            (0..n).map(|_| rng.gen::<f32>() as f64).sum::<f64>() / n as f64;
        assert!((f32_mean - 0.5).abs() < 0.02, "f32 mean {f32_mean}");
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "{heads} heads");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle left the slice sorted");
    }

    #[test]
    fn choose_stays_in_slice() {
        let mut rng = StdRng::seed_from_u64(10);
        let v = [3u32, 1, 4, 1, 5];
        for _ in 0..100 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = StdRng::seed_from_u64(11);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn generic_unsized_rng_bound_works() {
        // The workspace's helpers take `R: Rng + ?Sized`; keep that
        // calling convention compiling.
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> (usize, f32, bool) {
            (rng.gen_range(0..4), rng.gen(), rng.gen())
        }
        let mut rng = StdRng::seed_from_u64(12);
        let (a, b, _) = draw(&mut rng);
        assert!(a < 4);
        assert!((0.0..1.0).contains(&b));
    }
}
