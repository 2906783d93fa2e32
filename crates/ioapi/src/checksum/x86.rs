//! The x86-64 kernels: CRC-32 by carry-less multiply, Adler-32 on AVX2
//! lanes, and both digests in one AVX-512 pass. This is the one module of
//! the crate allowed `unsafe`: the calls into a `#[target_feature]` kernel,
//! made once the CPU is known to have the feature, the unaligned vector
//! loads and the prefetches. Each kernel takes the running state and
//! returns it, as the portable kernels do, and hands the tail it cannot
//! take in whole vectors to them.

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
/// x^(16·128+32) mod P: folds a 512-bit lane 2048 bits forward (low
/// qwords).
const KW1: i64 = 0x1_1542_778A;
/// x^(16·128−32) mod P: folds a 512-bit lane 2048 bits forward (high
/// qwords).
const KW2: i64 = 0x1_322D_1430;

/// The CRC register after `crc` has taken `data`: the VPCLMULQDQ kernel
/// where it runs, the CLMUL kernel otherwise — `None` when neither does.
pub(super) fn crc32(crc: u32, data: &[u8]) -> Option<u32> {
    crc32_by_vpclmul(crc, data).or_else(|| crc32_by_clmul(crc, data))
}

/// The CRC register after `crc` has taken `data`, by the CLMUL kernel —
/// `None` when this CPU lacks `pclmulqdq` or `sse4.1`, or `data` is too
/// short for the kernel to pay.
pub(super) fn crc32_by_clmul(crc: u32, data: &[u8]) -> Option<u32> {
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

/// Four 128-bit lanes fold 64 bytes a step; [`fold_lanes`] takes them and
/// the last < 64 bytes.
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
    fold_lanes(x, rest)
}

/// The register after four lanes of 128 bits, 64 consecutive bytes of
/// folded input, and then `rest`: the lanes fold into one, the whole blocks
/// of `rest` fold into it, a Barrett reduction takes the 128-bit remainder
/// to 32 bits, and the portable kernel takes the last < 16 bytes.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_lanes(x: [__m128i; 4], rest: &[u8]) -> u32 {
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

/// Bytes per AVX2 step of Adler-32.
const STEP: usize = 32;
/// Bytes between two reductions mod 65 521: 173 steps, the largest
/// multiple of 32 at or below zlib's NMAX (5 552). Every 32-bit lane stays
/// below 2^26.
const BLOCK: usize = 5536;

/// Adler's `(a, b)` after `state` has taken `data`, by the AVX2 kernel —
/// `None` when this CPU lacks `avx2`.
pub(super) fn adler32(state: AdlerState, data: &[u8]) -> Option<AdlerState> {
    if !is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: the kernel enables `avx2`, which was detected on this CPU just
    // above.
    Some(unsafe { adler32_avx2(state, data) })
}

/// 32 bytes a step; the last < 32 bytes go to the portable kernel.
#[target_feature(enable = "avx2")]
fn adler32_avx2(mut state: AdlerState, data: &[u8]) -> AdlerState {
    let (body, tail) = data.split_at(data.len() / STEP * STEP);
    for block in body.chunks(BLOCK) {
        state = adler32_block(state, block);
    }
    adler32_portable(state, tail)
}

/// One block of whole steps. Per step, `s1` takes the byte sum
/// (`_mm256_sad_epu8`), `s2` the bytes weighted 32…1
/// (`_mm256_maddubs_epi16` into pairs — at most 255·32 + 255·31 = 16 065,
/// inside an `i16` — then `_mm256_madd_epi16` by ones into 32-bit lanes),
/// and `ps` the `s1` of the steps before it. An `n`-byte block adds `n·a`
/// to `b`, and byte `i` adds `n − i` copies of itself: `32·ps + s2` in all.
#[target_feature(enable = "avx2")]
fn adler32_block((a, b): AdlerState, block: &[u8]) -> AdlerState {
    let zero = _mm256_setzero_si256();
    let ones = _mm256_set1_epi16(1);
    #[rustfmt::skip]
    let weights = _mm256_set_epi8(
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
        17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
    );
    let (mut s1, mut s2, mut ps) = (zero, zero, zero);
    for step in block.chunks_exact(STEP) {
        let bytes = load256(step);
        ps = _mm256_add_epi32(ps, s1);
        s1 = _mm256_add_epi32(s1, _mm256_sad_epu8(bytes, zero));
        let pairs = _mm256_maddubs_epi16(bytes, weights);
        s2 = _mm256_add_epi32(s2, _mm256_madd_epi16(pairs, ones));
    }
    let (a, b, n) = (a as u64, b as u64, block.len() as u64);
    let b = b + n * a + STEP as u64 * lane_sum(ps) + lane_sum(s2);
    let a = a + lane_sum(s1);
    ((a % ADLER_MOD) as u32, (b % ADLER_MOD) as u32)
}

/// The sum of the eight 32-bit lanes of `v`. Each is below 2^26, so the
/// two halves add lane by lane without a carry out.
#[target_feature(enable = "avx2")]
fn lane_sum(v: __m256i) -> u64 {
    let v = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let lanes = [
        _mm_cvtsi128_si32(v),
        _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 1)),
        _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 2)),
        _mm_cvtsi128_si32(_mm_shuffle_epi32(v, 3)),
    ];
    lanes.iter().map(|&l| l as u32 as u64).sum()
}

/// Bytes per step of the AVX-512 kernels: one 64-byte load for each of
/// four 512-bit CRC lanes. It is also the shortest input they take.
const WIDE_STEP: usize = 256;
/// Bytes between two horizontal sums of the fused kernel's Adler-32 lanes:
/// 128 steps. Its weighted sums then total below 2^29 (see
/// [`WideAdler::finish`]).
const WIDE_BLOCK: usize = 32 << 10;
/// How far ahead of a step the AVX-512 kernels prefetch: one 4 KiB page.
/// The hardware prefetcher stops at the end of a page, and input that has
/// left the cache otherwise arrives a page at a time.
const PREFETCH_AHEAD: usize = 4096;

/// The CRC register after `crc` has taken `data`, by the VPCLMULQDQ kernel
/// — `None` when this CPU lacks `vpclmulqdq` or `avx512f`, or `data` is
/// shorter than one step.
pub(super) fn crc32_by_vpclmul(crc: u32, data: &[u8]) -> Option<u32> {
    if data.len() < WIDE_STEP
        || !is_x86_feature_detected!("vpclmulqdq")
        || !is_x86_feature_detected!("avx512f")
    {
        return None;
    }
    // SAFETY: the kernel enables `vpclmulqdq` and `avx512f`, and both were
    // detected on this CPU just above.
    Some(unsafe { crc32_vpclmul(crc, data) })
}

/// The CRC register and Adler's `(a, b)` after `(crc, adler)` have taken
/// `data`, both in one pass by the fused AVX-512 kernel — `None` when this
/// CPU lacks one of `vpclmulqdq`, `avx512f`, `avx512bw` and `avx512vnni`,
/// or `data` is shorter than one step.
pub(super) fn crc32_adler32(crc: u32, adler: AdlerState, data: &[u8]) -> Option<(u32, AdlerState)> {
    if data.len() < WIDE_STEP
        || !is_x86_feature_detected!("vpclmulqdq")
        || !is_x86_feature_detected!("avx512f")
        || !is_x86_feature_detected!("avx512bw")
        || !is_x86_feature_detected!("avx512vnni")
    {
        return None;
    }
    // SAFETY: the kernel enables `vpclmulqdq`, `avx512f`, `avx512bw` and
    // `avx512vnni`, and all four were detected on this CPU just above.
    Some(unsafe { crc32_adler32_avx512(crc, adler, data) })
}

/// 256 bytes a step through four 512-bit CRC lanes; [`WideCrc::finish`]
/// takes the rest.
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn crc32_vpclmul(crc: u32, data: &[u8]) -> u32 {
    let (steps, rest) = data.split_at(data.len() / WIDE_STEP * WIDE_STEP);
    let mut crc = WideCrc::new(crc);
    for step in steps.chunks_exact(WIDE_STEP) {
        crc.step(load_step(step));
    }
    crc.finish(rest)
}

/// Each 256-byte step is loaded once and feeds both the CRC lanes and the
/// Adler sums; the Adler sums fold into `(a, b)` once per block. The last
/// < 256 bytes go to [`WideCrc::finish`] and to the AVX2 Adler-32 kernel.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,vpclmulqdq")]
fn crc32_adler32_avx512(crc: u32, mut adler: AdlerState, data: &[u8]) -> (u32, AdlerState) {
    let (steps, rest) = data.split_at(data.len() / WIDE_STEP * WIDE_STEP);
    let mut crc = WideCrc::new(crc);
    for block in steps.chunks(WIDE_BLOCK) {
        let mut sums = WideAdler::new();
        for step in block.chunks_exact(WIDE_STEP) {
            let loads = load_step(step);
            crc.step(loads);
            sums.step(loads);
        }
        adler = sums.finish(adler, block.len());
    }
    let adler = adler32(adler, rest).unwrap_or_else(|| adler32_portable(adler, rest));
    (crc.finish(rest), adler)
}

/// Four 512-bit CRC-32 lanes: lane `j` holds load `j` of each step, folded
/// 2048 bits (one step) forward onto the next.
struct WideCrc {
    lanes: [__m512i; 4],
    /// The running register, XORed into the first load of the first step
    /// and zero after it: a zero lane folds forward to nothing, so that
    /// step lands in the lanes as it is.
    head: __m512i,
}

impl WideCrc {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(crc: u32) -> WideCrc {
        let head = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        WideCrc { lanes: [_mm512_setzero_si512(); 4], head }
    }

    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn step(&mut self, loads: [__m512i; 4]) {
        let keys = _mm512_broadcast_i32x4(_mm_set_epi64x(KW2, KW1));
        let first = _mm512_xor_si512(loads[0], self.head);
        self.head = _mm512_setzero_si512();
        for (lane, load) in self.lanes.iter_mut().zip([first, loads[1], loads[2], loads[3]]) {
            *lane = fold512(*lane, load, keys);
        }
    }

    /// The register after the lanes and `rest` (< 256 bytes): the lanes
    /// fold into one 512 bits apart, as do the whole 64-byte blocks of
    /// `rest`, and the CLMUL kernel's [`fold_lanes`] takes its four 128-bit
    /// lanes and the last < 64 bytes.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn finish(self, rest: &[u8]) -> u32 {
        let keys = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let [l0, l1, l2, l3] = self.lanes;
        let mut acc = fold512(fold512(fold512(l0, l1, keys), l2, keys), l3, keys);
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            acc = fold512(acc, load512(quad), keys);
        }
        let x = [
            _mm512_extracti32x4_epi32::<0>(acc),
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ];
        fold_lanes(x, quads.remainder())
    }
}

/// [`fold`] on four 128-bit lanes at once.
#[inline]
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn fold512(x: __m512i, next: __m512i, keys: __m512i) -> __m512i {
    let lo = _mm512_clmulepi64_epi128(x, keys, 0x00);
    let hi = _mm512_clmulepi64_epi128(x, keys, 0x11);
    _mm512_xor_si512(_mm512_xor_si512(next, lo), hi)
}

/// The fused kernel's Adler-32 sums over one block of whole steps. An
/// `n`-byte block adds `n·a` to `b`, and byte `i` adds `n − i` copies of
/// itself; for byte `k` of load `j` of step `t` that is
/// `256·(T − 1 − t) + 64·(3 − j) + (64 − k)`. Each term has its own sum:
/// `ps` adds up the byte sums of the steps before each step, `sw` the
/// per-load sums weighted 3, 2, 1, 0, and `dots[j]` the bytes of load `j`
/// weighted 64…1 (`vpdpbusd`). The four `dots` are independent chains, so
/// one step never waits on the last one's multiply-add.
struct WideAdler {
    /// Byte sums (`vpsadbw`), in 64-bit lanes.
    s1: __m512i,
    ps: __m512i,
    sw: __m512i,
    /// Weighted sums, in 32-bit lanes.
    dots: [__m512i; 4],
}

impl WideAdler {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new() -> WideAdler {
        let zero = _mm512_setzero_si512();
        WideAdler { s1: zero, ps: zero, sw: zero, dots: [zero; 4] }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn step(&mut self, loads: [__m512i; 4]) {
        let zero = _mm512_setzero_si512();
        #[rustfmt::skip]
        let weights = _mm512_set_epi8(
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
            17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
            33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
            49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
        );
        // The byte sums of loads 0, 0–1, 0–2 and 0–3.
        let u = _mm512_sad_epu8(loads[0], zero);
        let v = _mm512_add_epi64(u, _mm512_sad_epu8(loads[1], zero));
        let w = _mm512_add_epi64(v, _mm512_sad_epu8(loads[2], zero));
        let all = _mm512_add_epi64(w, _mm512_sad_epu8(loads[3], zero));
        self.ps = _mm512_add_epi64(self.ps, self.s1);
        self.s1 = _mm512_add_epi64(self.s1, all);
        self.sw = _mm512_add_epi64(self.sw, _mm512_add_epi64(_mm512_add_epi64(u, v), w));
        for (dot, load) in self.dots.iter_mut().zip(loads) {
            *dot = _mm512_dpbusd_epi32(*dot, load, weights);
        }
    }

    /// `(a, b)` after the `n`-byte block these sums took. The `dots` total
    /// at most 255·(64 + … + 1)·4 per step, below 2^29 over a block, so
    /// they add up in 32 bits.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn finish(self, (a, b): AdlerState, n: usize) -> AdlerState {
        let [d0, d1, d2, d3] = self.dots;
        let dots = _mm512_add_epi32(_mm512_add_epi32(d0, d1), _mm512_add_epi32(d2, d3));
        let (a, b, n) = (a as u64, b as u64, n as u64);
        let b = b
            + n * a
            + WIDE_STEP as u64 * _mm512_reduce_add_epi64(self.ps) as u64
            + 64 * _mm512_reduce_add_epi64(self.sw) as u64
            + _mm512_reduce_add_epi32(dots) as u32 as u64;
        let a = a + _mm512_reduce_add_epi64(self.s1) as u64;
        ((a % ADLER_MOD) as u32, (b % ADLER_MOD) as u32)
    }
}

/// One step's four 64-byte loads, and a prefetch of the step one page
/// ahead of it.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_step(step: &[u8]) -> [__m512i; 4] {
    let step: &[u8; WIDE_STEP] = step.try_into().expect("AVX-512 steps are 256 bytes");
    let ahead = step.as_ptr().wrapping_add(PREFETCH_AHEAD).cast::<i8>();
    for line in 0..4 {
        // SAFETY: a prefetch is a hint: it reads nothing into the program
        // and never faults, also at an address past the end of the input.
        // Newer toolchains declare `_mm_prefetch` safe; the block keeps
        // older ones, back to the MSRV, building.
        #[allow(unused_unsafe)]
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(64 * line))
        };
    }
    [load512(&step[..64]), load512(&step[64..128]), load512(&step[128..192]), load512(&step[192..])]
}

/// Sixty-four bytes into a vector.
#[inline]
#[target_feature(enable = "avx512f")]
fn load512(block: &[u8]) -> __m512i {
    let block: &[u8; 64] = block.try_into().expect("AVX-512 loads take 64 bytes");
    // SAFETY: `block` is 64 readable bytes, and `_mm512_loadu_si512` has no
    // alignment requirement.
    unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
}

/// Thirty-two bytes into a vector.
#[inline]
#[target_feature(enable = "avx2")]
fn load256(step: &[u8]) -> __m256i {
    let step: &[u8; STEP] = step.try_into().expect("AVX2 loads take 32 bytes");
    // SAFETY: `step` is 32 readable bytes, and `_mm256_loadu_si256` has no
    // alignment requirement.
    unsafe { _mm256_loadu_si256(step.as_ptr().cast()) }
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
        assert_eq!([KW1, KW2], [k(16 * 128 + 32), k(16 * 128 - 32)]);
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
