//! `tanh` as the workspace computes it (DESIGN.md §23): a port of
//! fdlibm's `s_tanhf.c` and `s_expm1f.c` as glibc builds them, and an
//! AVX2 slice kernel that is bit-equal to the port.
//!
//! The port keeps fdlibm's float constants and operation order and
//! uses no fused multiply-add, so it returns the float glibc's `tanhf`
//! returns on an x86-64 build without FMA, on every host. The AVX2
//! kernel runs every branch of the port in all eight lanes with the
//! same IEEE operations and picks each lane's result with a blend, so
//! it is bit-equal to the port by construction; the tests here pin that
//! bitwise.

/// `1 - TINY` is fdlibm's ±1 for `|x| >= 22` (in C it raises inexact).
const TINY: f32 = 1.0e-30;
/// `HUGE + x` is fdlibm's inexact trigger for `expm1` of tiny `x`.
const HUGE: f32 = 1.0e30;
/// `ln2` split so that `k * LN2_HI` is exact for the `k` used here.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// fdlibm's scaled rational coefficients for `expm1` on the primary range.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Hyperbolic tangent with the same bits on every host: fdlibm's
/// `tanhf` (and the part of its `expm1f` that `tanhf` reaches), ported
/// operation for operation.
///
/// # Example
///
/// ```
/// use ecad_tensor::ops;
/// assert_eq!(ops::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
/// assert_eq!(ops::tanh(f32::NEG_INFINITY), -1.0);
/// assert!((ops::tanh(0.5) - 0.462_117_16).abs() < 1e-7);
/// ```
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix < 0x2400_0000 {
            // |x| < 2^-55, ±0 included: tanh(x) = x.
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if negative {
        -z
    } else {
        z
    }
}

/// fdlibm's `expm1f` for the arguments [`tanh`] passes: `2|x|` in
/// `[2, 44)` and `-2|x|` in `(-2, -2^-54]`. Their reduction gives
/// `k = 0, -1, -2, -3` or `3..=63`, so the branches only other
/// arguments reach (non-finite or overflowing input, `x < -27·ln2`, and
/// `k = 1`) are left out.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2: x = k·ln2 + (hi - lo), with c the rounding
        // error of hi - lo.
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2, and x < 0 for every argument here.
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let half = if x.is_sign_negative() { -0.5 } else { 0.5 };
            let k = (INVLN2 * x + half) as i32;
            let t = k as f32;
            // t·LN2_HI is exact here.
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: expm1(x) = x.
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return scale_by_2k(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        // t = 1 - 2^-k
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        scale_by_2k(t - (e - x), k)
    } else {
        // t = 2^-k
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        scale_by_2k(x - (e + t) + 1.0, k)
    }
}

/// Adds `k` to the exponent field of `y` (fdlibm's `SET_FLOAT_WORD(y,
/// i + (k << 23))`).
fn scale_by_2k(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// Replaces every element of `xs` by its [`tanh`], bit for bit. On
/// x86-64 CPUs with AVX2 this runs eight lanes at once; elsewhere it
/// calls [`tanh`] per element.
pub fn tanh_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2() {
        // SAFETY: `avx2()` just confirmed that this CPU supports AVX2,
        // the only target feature `avx2::tanh_inplace` enables.
        return unsafe { avx2::tanh_inplace(xs) };
    }
    portable(xs);
}

/// The per-element path of [`tanh_inplace`].
fn portable(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

/// The eight-lane kernel. Every lane computes the branches of [`tanh`]
/// and [`expm1`] with the same operations in the same order, and blends
/// pick the branch the scalar code would have taken; a block leaves out
/// only branches none of its lanes can take. Lanes whose branch is not
/// taken may compute garbage (NaN, out-of-range shifts and converts)
/// that no blend selects. Only IEEE add, sub, mul and div, the
/// truncating convert and integer bit operations touch a value, and
/// there is no FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{HUGE, INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5, TINY};
    use std::arch::x86_64::*;

    /// [`super::tanh_inplace`] on the AVX2 path. Calling it is
    /// `unsafe` outside AVX2 code: check first that the CPU has AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn tanh_inplace(xs: &mut [f32]) {
        let (blocks, tail) = xs.as_chunks_mut::<8>();
        for block in blocks {
            tanh_block(block);
        }
        if !tail.is_empty() {
            // The ragged tail runs as one zero-padded block.
            let mut block = [0.0f32; 8];
            block[..tail.len()].copy_from_slice(tail);
            tanh_block(&mut block);
            tail.copy_from_slice(&block[..tail.len()]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh_block(block: &mut [f32; 8]) {
        // SAFETY: `block` is eight contiguous floats, exactly the 32
        // bytes the unaligned load and store access.
        unsafe {
            let x = _mm256_loadu_ps(block.as_ptr());
            _mm256_storeu_ps(block.as_mut_ptr(), tanh8(x));
        }
    }

    /// [`super::tanh`] in eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh8(x: __m256) -> __m256 {
        let ix = _mm256_and_si256(_mm256_castps_si256(x), int(0x7fff_ffff));
        // Typical pre-activations lie in 2^-26 <= |x| < 7.75, where no
        // lane is tiny, non-finite or >= 22, and expm1's k stays below
        // 23: blocks with only such lanes skip those branches.
        let rare = _mm256_or_si256(below(ix, 0x3280_0000), at_least(ix, 0x40f8_0000));
        if _mm256_movemask_ps(_mm256_castsi256_ps(rare)) == 0 {
            tanh_lanes::<false>(x, ix)
        } else {
            tanh_lanes::<true>(x, ix)
        }
    }

    /// The branches of [`super::tanh`], blended. The rare ones (`|x| <
    /// 2^-55`, `|x| >= 22`, inf or NaN, and `expm1`'s tiny argument
    /// and `k >= 23`) only when `RARE`. `ix` is `|x|`'s bits.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh_lanes<const RARE: bool>(x: __m256, ix: __m256i) -> __m256 {
        let sign = _mm256_and_si256(_mm256_castps_si256(x), int(i32::MIN));
        let ax = _mm256_castsi256_ps(ix);
        let ge_one = at_least(ix, 0x3f80_0000);
        // expm1(2|x|) for |x| >= 1, expm1(-2|x|) below.
        let t = expm1::<RARE>(_mm256_mul_ps(pick(float(-2.0), float(2.0), ge_one), ax));
        // z = 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below: one division
        // with the numerator chosen per lane.
        let neg_t = _mm256_xor_ps(t, float(-0.0));
        let q = _mm256_div_ps(
            pick(neg_t, float(2.0), ge_one),
            _mm256_add_ps(t, float(2.0)),
        );
        let z = pick(q, _mm256_sub_ps(float(1.0), q), ge_one);
        let z = if RARE {
            pick(z, float(1.0 - TINY), at_least(ix, 0x41b0_0000))
        } else {
            z
        };
        // -z for negative x.
        let r = _mm256_castsi256_ps(_mm256_xor_si256(_mm256_castps_si256(z), sign));
        if !RARE {
            return r;
        }
        let small = _mm256_mul_ps(x, _mm256_add_ps(float(1.0), x));
        let r = pick(r, small, below(ix, 0x2400_0000));
        let non_finite = at_least(ix, 0x7f80_0000);
        if _mm256_movemask_ps(_mm256_castsi256_ps(non_finite)) == 0 {
            return r;
        }
        // 1/x + 1, or 1/x - 1 for negative x: the only other division,
        // paid only by blocks holding an infinity or a NaN.
        let recip = _mm256_div_ps(float(1.0), x);
        let inf_nan = _mm256_blendv_ps(
            _mm256_add_ps(recip, float(1.0)),
            _mm256_sub_ps(recip, float(1.0)),
            x,
        );
        pick(r, inf_nan, non_finite)
    }

    /// [`super::expm1`] in eight lanes, for the same arguments; the
    /// tiny-argument and `23 <= k <= 56` branches only when `RARE`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn expm1<const RARE: bool>(x0: __m256) -> __m256 {
        let hx = _mm256_and_si256(_mm256_castps_si256(x0), int(0x7fff_ffff));
        // Argument reduction: k = -1 below 1.5·ln2, else k rounded
        // from x/ln2 (±0.5 by x's sign, truncated). With t = k = -1
        // the general hi = x - t·LN2_HI and lo = t·LN2_LO are exactly
        // the scalar branch's x + LN2_HI and -LN2_LO, so k is chosen
        // first and both branches share one formula.
        let near = below(hx, 0x3f85_1592);
        let half = _mm256_blendv_ps(float(0.5), float(-0.5), x0);
        let kf = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(float(INVLN2), x0), half));
        let k = _mm256_blendv_epi8(kf, int(-1), near);
        let tf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(x0, _mm256_mul_ps(tf, float(LN2_HI)));
        let lo = _mm256_mul_ps(tf, float(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);
        // Only |x| > 0.5·ln2 is reduced; below that k = 0.
        let reduced = _mm256_cmpgt_epi32(hx, int(0x3eb1_7218));
        let x = pick(x0, xr, reduced);
        let k = _mm256_and_si256(k, reduced);

        // x is now in the primary range.
        let hfx = _mm256_mul_ps(float(0.5), x);
        let hxs = _mm256_mul_ps(x, hfx);
        let mut p = _mm256_add_ps(float(Q4), _mm256_mul_ps(hxs, float(Q5)));
        for q in [Q3, Q2, Q1] {
            p = _mm256_add_ps(float(q), _mm256_mul_ps(hxs, p));
        }
        let r1 = _mm256_add_ps(float(1.0), _mm256_mul_ps(hxs, p));
        let t = _mm256_sub_ps(float(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(float(6.0), _mm256_mul_ps(x, t)),
            ),
        );
        // k == 0
        let r_k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
        let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c), hxs);
        // k == -1
        let r_km1 = _mm256_sub_ps(_mm256_mul_ps(float(0.5), _mm256_sub_ps(x, e)), float(0.5));
        let e_x = _mm256_sub_ps(e, x);
        let k_exp = _mm256_slli_epi32::<23>(k);
        // k <= -2 or k > 56
        let r_far = _mm256_sub_ps(
            scale_by_2k(_mm256_sub_ps(float(1.0), e_x), k_exp),
            float(1.0),
        );
        // k < 23, t = 1 - 2^-k
        let t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
            int(0x3f80_0000),
            _mm256_srlv_epi32(int(0x0100_0000), k),
        ));
        let r_mid = scale_by_2k(_mm256_sub_ps(t_mid, e_x), k_exp);
        let r = if RARE {
            // 23 <= k <= 56, t = 2^-k
            let t_hi = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(int(0x7f), k)));
            let r_hi = scale_by_2k(
                _mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t_hi)), float(1.0)),
                k_exp,
            );
            pick(r_hi, r_mid, below(k, 23))
        } else {
            r_mid
        };

        // Pick the scalar code's branch, the earliest-tested last.
        let far = _mm256_or_si256(below(k, -1), _mm256_cmpgt_epi32(k, int(56)));
        let r = pick(r, r_far, far);
        let r = pick(r, r_km1, _mm256_cmpeq_epi32(k, int(-1)));
        let r = pick(r, r_k0, _mm256_cmpeq_epi32(k, int(0)));
        if !RARE {
            return r;
        }
        // |x| < 2^-25
        let huge_x = _mm256_add_ps(float(HUGE), x0);
        let r_tiny = _mm256_sub_ps(x0, _mm256_sub_ps(huge_x, huge_x));
        pick(r, r_tiny, below(hx, 0x3300_0000))
    }

    /// Adds the per-lane `k << 23` to `y`'s exponent field.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scale_by_2k(y: __m256, k_exp: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k_exp))
    }

    /// `b` in the lanes where `mask` is all ones, else `a`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pick(a: __m256, b: __m256, mask: __m256i) -> __m256 {
        _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask))
    }

    /// All-ones lanes where the signed `v >= c`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn at_least(v: __m256i, c: i32) -> __m256i {
        _mm256_cmpgt_epi32(v, int(c - 1))
    }

    /// All-ones lanes where the signed `v < c`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn below(v: __m256i, c: i32) -> __m256i {
        _mm256_cmpgt_epi32(int(c), v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn float(v: f32) -> __m256 {
        _mm256_set1_ps(v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn int(v: i32) -> __m256i {
        _mm256_set1_epi32(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Path = fn(&mut [f32]);

    /// Every slice path this host can run, by name, driven directly
    /// rather than through the dispatch (which on AVX2 hosts never runs
    /// the portable one).
    fn paths() -> Vec<(&'static str, Path)> {
        #[cfg(target_arch = "x86_64")]
        if crate::avx2() {
            fn avx2_path(xs: &mut [f32]) {
                // SAFETY: `paths` lists this function only after
                // `avx2()` confirmed that the CPU supports AVX2.
                unsafe { avx2::tanh_inplace(xs) }
            }
            return vec![("portable", portable), ("avx2", avx2_path)];
        }
        vec![("portable", portable)]
    }

    /// IEEE specials, a ±64-ulp window around every threshold of the
    /// two fdlibm files (both signs), and every 4099th bit pattern.
    fn probe_inputs() -> Vec<f32> {
        let mut bits: Vec<u32> = vec![
            0x0000_0000, // 0
            0x0000_0001, // smallest subnormal
            0x7f7f_ffff, // MAX
            0x7f80_0000, // inf
            0x7fc0_0000, // quiet NaNs, with and without payload
            0x7fc1_2345,
            0x7fff_ffff,
            0x7f80_0001, // signalling NaNs
            0x7fa5_a5a5,
            0x7fbf_ffff,
        ];
        let tanh_thresholds = [0x2400_0000u32, 0x3f80_0000, 0x41b0_0000, 0x7f80_0000];
        // expm1's thresholds apply to 2|x|: one less in x's exponent.
        let expm1_thresholds =
            [0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844].map(|t| t - 0x0080_0000);
        for t in tanh_thresholds.into_iter().chain(expm1_thresholds) {
            bits.extend(t - 64..=t + 64);
        }
        let negated: Vec<u32> = bits.iter().map(|b| b | 0x8000_0000).collect();
        bits.extend(negated);
        bits.extend((0..=u32::MAX).step_by(4099));
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// Panics naming the first inputs whose `got` differs from the
    /// port's bits, and how many do.
    fn assert_port_bits(name: &str, inputs: &[f32], got: &[f32]) {
        let diffs: Vec<String> = inputs
            .iter()
            .zip(got)
            .filter(|(x, y)| tanh(**x).to_bits() != y.to_bits())
            .map(|(x, y)| {
                format!(
                    "tanh({:#010x}) = {:#010x}, port {:#010x}",
                    x.to_bits(),
                    y.to_bits(),
                    tanh(*x).to_bits()
                )
            })
            .collect();
        assert!(
            diffs.is_empty(),
            "{name}: {} of {} differ, first {:?}",
            diffs.len(),
            inputs.len(),
            &diffs[..diffs.len().min(4)]
        );
    }

    #[test]
    fn every_path_matches_the_port_bitwise() {
        let inputs = probe_inputs();
        assert_eq!(inputs.len(), 2 * (10 + 8 * 129) + 1_047_809);
        let mut dispatched = inputs.clone();
        tanh_inplace(&mut dispatched);
        assert_port_bits("tanh_inplace", &inputs, &dispatched);
        for (name, path) in paths() {
            let mut got = inputs.clone();
            path(&mut got);
            assert_port_bits(name, &inputs, &got);
            // Every ragged tail, over the specials and a threshold window.
            for len in 0..=17 {
                for start in (0..200).step_by(13) {
                    let mut got = inputs[start..start + len].to_vec();
                    path(&mut got);
                    assert_port_bits(name, &inputs[start..start + len], &got);
                }
            }
        }
    }

    #[test]
    fn port_keeps_tanh_identities() {
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), 0x8000_0000);
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(22.0), 1.0);
        assert_eq!(tanh(f32::MIN), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny), tiny);
        // tanh to 16 digits, one argument per branch of expm1 (k = 0,
        // tiny, -1, -3, 7, 23, 58).
        let reference: [(f32, f64); 7] = [
            (0.1, 0.099_667_994_624_955_82),
            (1e-8, 1e-8),
            (0.5, 0.462_117_157_260_009_74),
            (0.9, 0.716_297_870_199_024_5),
            (2.5, 0.986_614_298_151_430_3),
            (8.0, 0.999_999_774_929_675_8),
            (20.0, 1.0),
        ];
        for (x, want) in reference {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits());
            let err = (f64::from(tanh(x)) - want).abs();
            assert!(
                err <= f64::from(f32::EPSILON) * want,
                "tanh({x}) off by {err}"
            );
        }
    }

    /// The port's bits on the every-4099th-pattern sample, hashed
    /// (FNV-1a over each result's little-endian bytes), equal what
    /// glibc 2.36's `tanhf` returned for the same inputs when the port
    /// was checked against it on all 2^32 inputs (DESIGN.md §23). This
    /// pins the port itself, which comparing the paths cannot: a change
    /// made to both alike moves the digest.
    #[test]
    fn port_reproduces_recorded_glibc_bits() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for bits in (0..=u32::MAX).step_by(4099) {
            for byte in tanh(f32::from_bits(bits)).to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0xf9b8_c6a9_7656_4d6b);
    }

    /// The AVX2 path against the port on all 2^32 inputs, split across
    /// the host's cores (about a minute in release on two cores).
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn avx2_path_matches_the_port_on_every_input() {
        let Some(&(_, avx2)) = paths().iter().find(|(name, _)| *name == "avx2") else {
            eprintln!("no AVX2 on this host: nothing to compare");
            return;
        };
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(lanes);
        std::thread::scope(|s| {
            for lane in 0..lanes {
                s.spawn(move || {
                    let end = ((lane + 1) * span).min(1 << 32);
                    let mut start = lane * span;
                    let mut inputs = Vec::with_capacity(1 << 16);
                    while start < end {
                        let stop = (start + (1 << 16)).min(end);
                        inputs.clear();
                        inputs.extend((start..stop).map(|b| f32::from_bits(b as u32)));
                        let mut got = inputs.clone();
                        avx2(&mut got);
                        assert_port_bits("avx2", &inputs, &got);
                        start = stop;
                    }
                });
            }
        });
    }
}
