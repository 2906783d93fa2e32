//! The x86-64 kernels: CRC-32 by carry-less multiply, Adler-32 on SSE2
//! lanes. This is the one module of the crate allowed `unsafe`: the calls
//! into a `#[target_feature]` kernel, made once the CPU is known to have the
//! feature, and the unaligned 16-byte loads. Each kernel takes the running state and returns
//! it, as the portable kernels do, and hands the tail it cannot take in
//! whole vectors to them.

use super::{adler32_portable, crc32_portable, AdlerState, ADLER_MOD};
use std::arch::x86_64::*;

/// Shortest input the CLMUL kernel takes. It needs four blocks to start its
/// four lanes; below twice that the fixed cost of the final reduction is
/// not paid back, and basket-sized inputs stay on the portable kernel.
const CLMUL_MIN: usize = 128;

// Fold constants for the reflected IEEE polynomial (Intel, "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", 2009): each is
// x^n mod P, bit-reflected and shifted left by one, so that a 64-bit lane
// times the constant lines up with the next 128 bits of input.
/// x^(4·128+32) mod P: folds a lane 512 bits forward (low qword).
const K1: i64 = 0x1_5444_2BD4;
/// x^(4·128−32) mod P: folds a lane 512 bits forward (high qword).
const K2: i64 = 0x1_C6E4_1596;
/// x^(128+32) mod P: folds one block into the next (low qword).
const K3: i64 = 0x1_7519_97D0;
/// x^(128−32) mod P: folds one block into the next (high qword).
const K4: i64 = 0x0_CCAA_009E;
/// x^64 mod P: the 96 → 64-bit step.
const K5: i64 = 0x1_63CD_6124;
/// P itself, reflected, for the Barrett reduction.
const P_X: i64 = 0x1_DB71_0641;
/// ⌊x^64 / P⌋, reflected: Barrett's μ.
const MU: i64 = 0x1_F701_1641;

/// The CRC register after `crc` has taken `data`, by the CLMUL kernel —
/// `None` when this CPU lacks `pclmulqdq` or `sse4.1`, or `data` is too
/// short for the kernel to pay.
pub(super) fn crc32(crc: u32, data: &[u8]) -> Option<u32> {
    if data.len() < CLMUL_MIN
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: the kernel enables `pclmulqdq` and `sse4.1`, and both were
    // detected on this CPU just above.
    Some(unsafe { crc32_clmul(crc, data) })
}

/// Four 128-bit lanes fold 64 bytes a step; the lanes fold into one, the
/// remaining whole blocks fold into it, and a Barrett reduction takes the
/// 128-bit remainder to the 32-bit register. The last < 16 bytes go to the
/// portable kernel.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(crc: u32, data: &[u8]) -> u32 {
    let (lanes, rest) = data.split_at(data.len() / 64 * 64);
    let mut quads = lanes.chunks_exact(64);
    let first = quads.next().expect("the kernel takes at least 64 bytes");
    let mut x =
        [load(&first[..16]), load(&first[16..32]), load(&first[32..48]), load(&first[48..])];
    // The running register enters as the first 32 bits of input.
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for quad in quads {
        for (lane, block) in x.iter_mut().zip(quad.chunks_exact(16)) {
            *lane = fold(*lane, load(block), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    let mut blocks = rest.chunks_exact(16);
    for block in &mut blocks {
        acc = fold(acc, load(block), k3k4);
    }
    crc32_portable(reduce(acc), blocks.remainder())
}

/// `x` carried 128 bits (or 512, with `K1`/`K2`) forward and added to
/// `next`.
#[target_feature(enable = "pclmulqdq")]
fn fold(x: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(x, keys, 0x00);
    let hi = _mm_clmulepi64_si128(x, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// 128 bits of remainder → 64 → the 32-bit register (Barrett).
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn reduce(x: __m128i) -> u32 {
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x =
        _mm_xor_si128(_mm_clmulepi64_si128(x, _mm_set_epi64x(K4, K3), 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    // Reflected: the remainder is the upper half of the low 64 bits.
    _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
}

/// Bytes per SSE2 step of Adler-32.
const STEP: usize = 32;
/// Bytes between two reductions mod 65 521: 173 steps, the largest
/// multiple of 32 at or below zlib's NMAX (5 552). Every 32-bit lane stays
/// below 2^26.
const BLOCK: usize = 5536;

// SSE2 is part of the x86-64 baseline: the Adler-32 kernel needs no
// detection at run time.
const _: () = assert!(cfg!(target_feature = "sse2"));

/// Adler's `(a, b)` after `state` has taken `data`, by the SSE2 kernel.
pub(super) fn adler32(state: AdlerState, data: &[u8]) -> AdlerState {
    // SAFETY: the kernel enables `sse2`, which every x86-64 target has (the
    // assertion above checks it when this module is compiled).
    unsafe { adler32_sse2(state, data) }
}

/// 32 bytes a step; the last < 32 bytes go to the portable kernel.
#[target_feature(enable = "sse2")]
fn adler32_sse2(mut state: AdlerState, data: &[u8]) -> AdlerState {
    let (body, tail) = data.split_at(data.len() / STEP * STEP);
    for block in body.chunks(BLOCK) {
        state = adler32_block(state, block);
    }
    adler32_portable(state, tail)
}

/// One block of whole steps. Per step, `s1` takes the byte sum
/// (`_mm_sad_epu8`), `s2` the bytes weighted 32…1 (`_mm_madd_epi16`), and
/// `ps` the `s1` of the steps before it. An `n`-byte block adds `n·a` to
/// `b`, and byte `i` adds `n − i` copies of itself: `32·ps + s2` in all.
#[target_feature(enable = "sse2")]
fn adler32_block((a, b): AdlerState, block: &[u8]) -> AdlerState {
    let zero = _mm_setzero_si128();
    let weights = [
        _mm_set_epi16(25, 26, 27, 28, 29, 30, 31, 32),
        _mm_set_epi16(17, 18, 19, 20, 21, 22, 23, 24),
        _mm_set_epi16(9, 10, 11, 12, 13, 14, 15, 16),
        _mm_set_epi16(1, 2, 3, 4, 5, 6, 7, 8),
    ];
    let (mut s1, mut s2, mut ps) = (zero, zero, zero);
    for step in block.chunks_exact(STEP) {
        let (lo, hi) = (load(&step[..16]), load(&step[16..]));
        ps = _mm_add_epi32(ps, s1);
        s1 = _mm_add_epi32(s1, _mm_add_epi32(_mm_sad_epu8(lo, zero), _mm_sad_epu8(hi, zero)));
        let words = [
            _mm_unpacklo_epi8(lo, zero),
            _mm_unpackhi_epi8(lo, zero),
            _mm_unpacklo_epi8(hi, zero),
            _mm_unpackhi_epi8(hi, zero),
        ];
        let w01 = _mm_add_epi32(
            _mm_madd_epi16(words[0], weights[0]),
            _mm_madd_epi16(words[1], weights[1]),
        );
        let w23 = _mm_add_epi32(
            _mm_madd_epi16(words[2], weights[2]),
            _mm_madd_epi16(words[3], weights[3]),
        );
        s2 = _mm_add_epi32(s2, _mm_add_epi32(w01, w23));
    }
    let (a, b, n) = (a as u64, b as u64, block.len() as u64);
    let b = b + n * a + STEP as u64 * lane_sum(ps) + lane_sum(s2);
    let a = a + lane_sum(s1);
    ((a % ADLER_MOD) as u32, (b % ADLER_MOD) as u32)
}

/// The sum of the four 32-bit lanes of `v`.
#[target_feature(enable = "sse2")]
fn lane_sum(v: __m128i) -> u64 {
    let lanes = [
        _mm_cvtsi128_si32(v),
        _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 1)),
        _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 2)),
        _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 3)),
    ];
    lanes.iter().map(|&l| l as u32 as u64).sum()
}

/// Sixteen bytes into a vector.
#[inline]
fn load(block: &[u8]) -> __m128i {
    let block: &[u8; 16] = block.try_into().expect("vector loads take 16 bytes");
    // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::POLY;

    /// x^n mod P, reflected (bit 31 is the x⁰ coefficient), one bit at a
    /// time from x⁰.
    fn xn_mod_p(n: u32) -> u32 {
        (0..n).fold(1 << 31, |p, _| if p & 1 != 0 { (p >> 1) ^ POLY } else { p >> 1 })
    }

    #[test]
    fn fold_constants_are_the_powers_of_x_they_claim() {
        let k = |n| (xn_mod_p(n) as i64) << 1;
        assert_eq!(
            [K1, K2, K3, K4, K5],
            [k(4 * 128 + 32), k(4 * 128 - 32), k(128 + 32), k(128 - 32), k(64)]
        );
        assert_eq!(P_X, ((POLY as i64) << 1) | 1);
        // μ = ⌊x^64 / P⌋ by long division, P = x^32 + 0x04C11DB7, then
        // reflected over its 33 bits.
        let p: u128 = 0x1_04C1_1DB7;
        let (mut rem, mut quot) = (1u128 << 64, 0u128);
        for shift in (0..=32).rev() {
            if rem & (1 << (32 + shift)) != 0 {
                rem ^= p << shift;
                quot |= 1 << shift;
            }
        }
        assert_eq!(MU as u128, quot.reverse_bits() >> (128 - 33));
    }
}
