//! Checksums shared by the storage layer and the client (Metalink
//! verification): Adler-32 (zlib) and CRC-32 (IEEE),
//! implemented from their definitions — no external crates.
//!
//! Each algorithm has a kernel that takes the running state and returns it
//! — the CRC register, or Adler's `(a, b)` — so [`crc32`], [`adler32`] and
//! [`crc32_adler32`] all drive the same kernels. [`crc32_adler32`] reads a
//! payload from memory once for the two digests a stored object carries:
//! in one fused loop where the CPU runs it, otherwise by feeding both
//! kernels 32 KiB at a time.
//!
//! On x86-64 the kernels are vector code (the `x86` module, the one place
//! in the crate allowed `unsafe`), each chosen at run time by the CPU's
//! features:
//! - CRC-32 folds four 128-bit lanes with `PCLMULQDQ` and ends with a
//!   Barrett reduction (Intel, "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ", 2009). It runs when the CPU reports
//!   `pclmulqdq` and `sse4.1`, on inputs of 128 bytes and more.
//! - From 256 bytes on, CRC-32 folds four 512-bit lanes with `VPCLMULQDQ`,
//!   256 bytes a step, when the CPU reports `vpclmulqdq` and `avx512f`; the
//!   lanes then fold down to the 128-bit kernel's four and end as it does.
//! - Adler-32 takes 32 bytes a step on AVX2, when the CPU reports `avx2`:
//!   `_mm256_sad_epu8` sums the bytes, and `_mm256_maddubs_epi16` against
//!   weights 32…1, then `_mm256_madd_epi16` by ones, gives the weighted
//!   sum, folded mod 65 521 once per 5 536-byte block. It replaced an SSE2
//!   kernel of the same shape: a second vector kernel bought nothing, as
//!   the portable kernel already covers every CPU without AVX2. An AVX-512
//!   Adler-32 alone was no faster, so [`adler32`] stays on AVX2.
//! - [`crc32_adler32`] from 256 bytes on runs one fused AVX-512 loop when
//!   the CPU also reports `avx512bw` and `avx512vnni`: each 64-byte load
//!   feeds a `VPCLMULQDQ` CRC lane and the Adler-32 sums (`vpsadbw` for the
//!   byte sums, `vpdpbusd` against weights 64…1 into four independent
//!   accumulators), folded mod 65 521 once per 32 KiB. Both AVX-512 kernels
//!   prefetch a page ahead, as the hardware prefetcher stops at a page's
//!   end and a payload that has left the cache would otherwise wait on it.
//!
//! The portable kernels below are kept on every target: they are the only
//! path on other architectures, on CPUs without CLMUL or AVX2 and for short
//! inputs, they take the tails the vector kernels leave, and they are the
//! reference each vector kernel is tested against, one by one. Both run on
//! four independent lanes, so the CPU overlaps four dependency chains
//! instead of waiting on one. Adler-32 sums every fourth byte per lane and
//! folds the lanes once per 5 552-byte block. CRC-32 runs slice-by-16 over
//! the four quarters of an input of at least 1 KiB and joins them with the
//! same polynomial arithmetic that [`crc32_combine`] publishes; shorter
//! inputs and the last < 64 bytes take one lane.
//!
//! [`adler32_combine`] and [`crc32_combine`] let digests of chunks computed
//! apart, in any order, be folded into the digest of the whole.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Adler-32 as defined by RFC 1950 §8.2.
pub fn adler32(data: &[u8]) -> u32 {
    adler32_finish(adler32_update(ADLER_INIT, data))
}

/// CRC-32 (IEEE 802.3, the zip/png polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(CRC_INIT, data) ^ CRC_INIT
}

/// Both digests of `data`, `(crc32, adler32)`, in one pass: the fused
/// AVX-512 kernel where it runs; otherwise each 32 KiB goes through both
/// kernels while it is still in cache.
pub fn crc32_adler32(data: &[u8]) -> (u32, u32) {
    let (mut crc, mut adler) = (CRC_INIT, ADLER_INIT);
    #[cfg(target_arch = "x86_64")]
    if let Some((crc, adler)) = x86::crc32_adler32(crc, adler, data) {
        return (crc ^ CRC_INIT, adler32_finish(adler));
    }
    for chunk in data.chunks(PAIR_CHUNK) {
        crc = crc32_update(crc, chunk);
        adler = adler32_update(adler, chunk);
    }
    (crc ^ CRC_INIT, adler32_finish(adler))
}

/// What [`crc32_adler32`] hands each kernel at a time: well inside L2.
const PAIR_CHUNK: usize = 32 << 10;

/// Adler-32's running state: `(a, b)`, each reduced mod [`ADLER_MOD`].
type AdlerState = (u32, u32);

/// The largest prime below 2^16.
const ADLER_MOD: u64 = 65_521;
const ADLER_INIT: AdlerState = (1, 0);

/// The digest of a final state.
fn adler32_finish((a, b): AdlerState) -> u32 {
    (b << 16) | a
}

/// The CRC register's preset, and the mask the digest is taken through.
const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Adler's state after `state` has taken `data`: the AVX2 kernel where it
/// runs, the portable one otherwise.
fn adler32_update(state: AdlerState, data: &[u8]) -> AdlerState {
    #[cfg(target_arch = "x86_64")]
    if let Some(state) = x86::adler32(state, data) {
        return state;
    }
    adler32_portable(state, data)
}

/// The CRC register after `crc` has taken `data`: the VPCLMULQDQ or CLMUL
/// kernel where one runs, the portable one otherwise.
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = x86::crc32(crc, data) {
        return crc;
    }
    crc32_portable(crc, data)
}

/// The portable Adler-32 kernel: `(a, b)` after `state` has taken `data`.
fn adler32_portable(state: AdlerState, data: &[u8]) -> AdlerState {
    const MOD: u64 = ADLER_MOD;
    // zlib's NMAX, a multiple of 4: a lane's `lb` stays below
    // 255·1388·1389/2 < 2^28, and the fold runs in u64.
    const NMAX: usize = 5552 / 4 * 4;
    let mut a = state.0 as u64;
    let mut b = state.1 as u64;
    for block in data.chunks(NMAX) {
        // Lane `k` takes bytes 4j + k: `la[k]` is their sum, `lb[k]` the
        // sum of `la[k]` after each of them.
        let mut la = [0u32; 4];
        let mut lb = [0u32; 4];
        let mut quads = block.chunks_exact(4);
        for quad in &mut quads {
            for k in 0..4 {
                la[k] += quad[k] as u32;
                lb[k] += la[k];
            }
        }
        // Byte i of the block adds (len − i) copies of itself to b; for
        // i = 4j + k that is 4·(J − j) − k, so lane k contributes
        // 4·lb[k] − k·la[k] (never negative: lb[k] ≥ la[k]).
        let len = (block.len() - quads.remainder().len()) as u64;
        let mut lanes_b = 0u64;
        for k in 0..4 {
            lanes_b += 4 * lb[k] as u64 - k as u64 * la[k] as u64;
        }
        b += len * a + lanes_b;
        a += la.iter().map(|&s| s as u64).sum::<u64>();
        for &byte in quads.remainder() {
            a += byte as u64;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (a as u32, b as u32)
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 tables, computed at compile time: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table, `CRC_TABLES[k][b]` the CRC of byte `b`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Inputs from this length on run on four lanes.
const CRC_LANES_MIN: usize = 1024;

/// The portable CRC-32 kernel: the register after `crc` has taken `data`,
/// sixteen bytes per step (slice-by-16). From 1 KiB on, the four quarters
/// of the input run as four independent registers in one loop and are
/// joined as [`crc32_combine`] joins two digests; the rest takes one
/// register and a bytewise tail.
fn crc32_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut rest = data;
    if data.len() >= CRC_LANES_MIN {
        let quarter = data.len() / 64 * 16;
        let (lanes, tail) = data.split_at(4 * quarter);
        let (front, back) = lanes.split_at(2 * quarter);
        let (q0, q1) = front.split_at(quarter);
        let (q2, q3) = back.split_at(quarter);
        // Only the first lane starts from the running register: the others
        // compute their quarter's contribution alone, which the fold below
        // adds to the register shifted past them.
        let mut r = [crc, 0, 0, 0];
        for (((b0, b1), b2), b3) in q0
            .chunks_exact(16)
            .zip(q1.chunks_exact(16))
            .zip(q2.chunks_exact(16))
            .zip(q3.chunks_exact(16))
        {
            r[0] = crc32_block(r[0], b0);
            r[1] = crc32_block(r[1], b1);
            r[2] = crc32_block(r[2], b2);
            r[3] = crc32_block(r[3], b3);
        }
        let shift = x8nmodp(quarter as u64);
        crc = r[1..].iter().fold(r[0], |acc, &lane| multmodp(shift, acc) ^ lane);
        rest = tail;
    }
    let mut blocks = rest.chunks_exact(16);
    for block in &mut blocks {
        crc = crc32_block(crc, block);
    }
    let t = &CRC_TABLES[0];
    for &b in blocks.remainder() {
        crc = t[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// One slice-by-16 step: the register after `crc` has taken the 16 bytes
/// of `block`.
#[inline(always)]
fn crc32_block(crc: u32, block: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let block: &[u8; 16] = block.try_into().expect("crc32 blocks are 16 bytes");
    // Byte `j` of a block has `15 - j` more bytes of it behind it; the
    // running CRC folds into the first four.
    let carry = crc.to_le_bytes();
    let mut crc = 0;
    for j in 0..4 {
        crc ^= t[15 - j][(block[j] ^ carry[j]) as usize];
    }
    for j in 4..16 {
        crc ^= t[15 - j][block[j] as usize];
    }
    crc
}

/// `a·b mod P` over GF(2), both reflected (bit 31 is the x⁰ coefficient),
/// as zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k]` = x^(2^k) mod P. x^(2^32) = x mod P, so 32 entries cover
/// every power.
static X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// x^(8n) mod P: the operator that moves a register past `n` zero bytes.
fn x8nmodp(mut n: u64) -> u32 {
    let mut p = 1 << 31; // x⁰
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Combine two CRC-32 digests: given `crc1 = crc32(A)`, `crc2 = crc32(B)`
/// and `len2 = B.len()`, returns `crc32(A ‖ B)` without touching the data
/// (zlib's `crc32_combine`). The CRC-32 counterpart of
/// [`adler32_combine`].
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    multmodp(x8nmodp(len2), crc1) ^ crc2
}

/// Combine two Adler-32 digests: given `a = adler32(A)`, `b = adler32(B)`
/// and `len_b = B.len()`, returns `adler32(A ‖ B)` without touching the
/// data (zlib's `adler32_combine`).
///
/// This is what lets davix's parallel upload path checksum chunks
/// *independently, out of order* on their worker threads and still produce
/// the digest of the whole entity: fold the per-chunk digests together in
/// chunk order at commit time.
pub fn adler32_combine(a: u32, b: u32, len_b: u64) -> u32 {
    const MOD: u64 = ADLER_MOD;
    let rem = len_b % MOD;
    let a1 = (a & 0xFFFF) as u64;
    let a2 = ((a >> 16) & 0xFFFF) as u64;
    let b1 = (b & 0xFFFF) as u64;
    let b2 = ((b >> 16) & 0xFFFF) as u64;
    // adler32 of a concatenation: s1 = s1a + s1b − 1 and
    // s2 = s2a + s2b + len_b·(s1a − 1), everything mod 65521. The `+ MOD`
    // slack terms keep the unsigned arithmetic non-negative.
    let s1 = (a1 + b1 + MOD - 1) % MOD;
    let s2 = (a2 + b2 + (rem * a1) % MOD + 2 * MOD - rem) % MOD;
    ((s2 as u32) << 16) | s1 as u32
}

/// Lower-case hex rendering used in `Digest:` headers and Metalink `<hash>`.
pub fn to_hex(v: u32) -> String {
    format!("{v:08x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adler32_known_vectors() {
        // "Wikipedia" → 0x11E60398 (well-known example)
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"a"), 0x0062_0062);
    }

    #[test]
    fn crc32_known_vectors() {
        // "123456789" → 0xCBF43926 (the canonical check value)
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The definition, one byte at a time: what `crc32` must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `len` bytes of a linear-congruential stream.
    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 2014u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_combine_matches_one_shot() {
        let data = pseudo_random(100_000);
        for split in [0usize, 1, 15, 16, 1023, 1024, 65_521, data.len()] {
            let (a, b) = data.split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, crc32(&data), "split at {split}");
        }
        // Folding many chunks in order — the parallel-upload use case.
        let mut acc = crc32(&data[..0]);
        for chunk in data.chunks(7919) {
            acc = crc32_combine(acc, crc32(chunk), chunk.len() as u64);
        }
        assert_eq!(acc, crc32(&data));
    }

    /// The definition, one byte at a time: what `adler32` must equal.
    fn adler32_bytewise(data: &[u8]) -> u32 {
        let (mut a, mut b) = (1u32, 0u32);
        for &byte in data {
            a = (a + byte as u32) % 65_521;
            b = (b + a) % 65_521;
        }
        (b << 16) | a
    }

    #[test]
    fn adler32_combine_matches_one_shot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| ((i * 31 + i / 251) % 256) as u8).collect();
        for split in [0usize, 1, 4096, 65_521, 65_522, 99_999, 100_000] {
            let (a, b) = data.split_at(split);
            let combined = adler32_combine(adler32(a), adler32(b), b.len() as u64);
            assert_eq!(combined, adler32(&data), "split at {split}");
        }
        // Folding many chunks in order — the parallel-upload use case.
        let mut acc = adler32(&data[..0]);
        for chunk in data.chunks(7919) {
            acc = adler32_combine(acc, adler32(chunk), chunk.len() as u64);
        }
        assert_eq!(acc, adler32(&data));
    }

    /// A running state a kernel returns: the CRC register or Adler's
    /// `(a, b)`.
    #[derive(Debug, PartialEq)]
    enum State {
        Crc(u32),
        Adler(AdlerState),
    }

    /// What each kernel this CPU runs makes of `s` from the running states
    /// `(crc, adler)`, by the name its failures print: the portable kernels
    /// always, and each x86-64 kernel (CLMUL and VPCLMULQDQ CRC-32, AVX2
    /// Adler-32, the fused AVX-512 pair) where this CPU has its features and
    /// `s` is long enough for it.
    fn every_kernel(crc: u32, adler: AdlerState, s: &[u8]) -> Vec<(&'static str, State)> {
        let mut out = vec![
            ("portable crc32", State::Crc(crc32_portable(crc, s))),
            ("portable adler32", State::Adler(adler32_portable(adler, s))),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            out.extend(x86::crc32_by_clmul(crc, s).map(|r| ("clmul crc32", State::Crc(r))));
            out.extend(x86::adler32(adler, s).map(|a| ("avx2 adler32", State::Adler(a))));
            out.extend(x86::crc32_by_vpclmul(crc, s).map(|r| ("vpclmul crc32", State::Crc(r))));
            if let Some((r, a)) = x86::crc32_adler32(crc, adler, s) {
                out.push(("fused crc32", State::Crc(r)));
                out.push(("fused adler32", State::Adler(a)));
            }
        }
        out
    }

    /// Every path to both digests of `s` — the bytewise definitions, every
    /// kernel this CPU runs (called one by one) and the public functions —
    /// must agree.
    fn assert_every_path_agrees(s: &[u8], what: &str) {
        assert_every_path_gives(s, (crc32_bytewise(s), adler32_bytewise(s)), what);
    }

    /// Every kernel this CPU runs and the public functions give `s` the
    /// digests `(crc, adler)`.
    fn assert_every_path_gives(s: &[u8], (crc, adler): (u32, u32), what: &str) {
        for (kernel, state) in every_kernel(CRC_INIT, ADLER_INIT, s) {
            match state {
                State::Crc(reg) => assert_eq!(reg ^ CRC_INIT, crc, "{kernel}, {what}"),
                State::Adler(a) => assert_eq!(adler32_finish(a), adler, "{kernel}, {what}"),
            }
        }
        assert_eq!((crc32(s), adler32(s)), (crc, adler), "public, {what}");
        assert_eq!(crc32_adler32(s), (crc, adler), "crc32_adler32, {what}");
    }

    /// Each x86-64 kernel whose features this CPU has runs in the tests:
    /// no kernel goes untested because its gate says no.
    #[test]
    fn every_kernel_this_cpu_has_is_under_test() {
        let names: Vec<_> = every_kernel(CRC_INIT, ADLER_INIT, &[0; 256])
            .into_iter()
            .map(|(kernel, _)| kernel)
            .collect();
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let vpclmul = has!("vpclmulqdq") && has!("avx512f");
            for (kernel, runs) in [
                ("clmul crc32", has!("pclmulqdq") && has!("sse4.1")),
                ("avx2 adler32", has!("avx2")),
                ("vpclmul crc32", vpclmul),
                ("fused crc32", vpclmul && has!("avx512bw") && has!("avx512vnni")),
            ] {
                assert_eq!(names.contains(&kernel), runs, "{kernel} runs where its features are");
            }
        }
        assert!(names.contains(&"portable crc32") && names.contains(&"portable adler32"));
    }

    #[test]
    fn every_path_agrees_at_every_length_and_alignment() {
        let mut x = 2014u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let data: Vec<u8> = (0..100 * 1024 + 64).map(|_| next() as u8).collect();
        // Every length to 4 KiB — past the portable CRC's four-lane
        // threshold (1 KiB) and over many AVX-512 steps (256 bytes), so each
        // tail length of every kernel — at every start offset within a
        // 64-byte vector. A debug build takes one start per length, rotating
        // through all 64. The bytewise digests of every prefix from each
        // start come from one pass.
        const LONGEST: usize = 4096;
        let prefixes: Vec<Vec<(u32, u32)>> = (0..64)
            .map(|start| {
                let (mut crc, mut a, mut b) = (CRC_INIT, 1u32, 0u32);
                let mut digests = vec![(0, 1)];
                for &byte in &data[start..start + LONGEST] {
                    crc ^= byte as u32;
                    for _ in 0..8 {
                        crc = if crc & 1 != 0 { POLY ^ (crc >> 1) } else { crc >> 1 };
                    }
                    a = (a + byte as u32) % 65_521;
                    b = (b + a) % 65_521;
                    digests.push((crc ^ CRC_INIT, (b << 16) | a));
                }
                digests
            })
            .collect();
        for len in 0..=LONGEST {
            let starts = if cfg!(debug_assertions) { len % 64..len % 64 + 1 } else { 0..64 };
            for start in starts {
                let s = &data[start..start + len];
                assert_every_path_gives(s, prefixes[start][len], &format!("len {len} at {start}"));
            }
        }
        for _ in 0..200 {
            let start = next() % 64;
            let len = next() % (100 * 1024 + 1);
            assert_every_path_agrees(&data[start..start + len], &format!("len {len} at {start}"));
        }
    }

    #[test]
    fn every_path_agrees_at_adler_block_edges() {
        // 5 536 is the AVX2 kernel's block, 5 552 the portable one's, 256
        // the AVX-512 kernels' step and 32 768 the fused kernel's block;
        // all 0xFF gives every lane its largest sums, and `maddubs` its
        // largest pair, 255·32 + 255·31, which must not saturate an i16.
        let random = pseudo_random(3 * 32768 + 64);
        for data in [vec![0x00; random.len()], vec![0xFF; random.len()], random] {
            for (block, most) in [(256, 8), (5536, 8), (5552, 8), (32768, 3)] {
                for len in (1..=most).flat_map(|m| [m * block - 1, m * block, m * block + 1]) {
                    for start in [0, 1, 63] {
                        let s = &data[start..start + len];
                        let what = format!("{:#04x}… × {len} at {start}", s[0]);
                        assert_every_path_agrees(s, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn every_path_agrees_on_4_mib_of_ones() {
        // The largest lane sums for the longest: a debug build panics if
        // one overflows.
        assert_every_path_agrees(&vec![0xFF; 4 << 20], "4 MiB of 0xff");
    }

    proptest::proptest! {
        /// Digests taken chunk by chunk — through every kernel this CPU
        /// runs from the running states, and through the `*_combine`
        /// folds — equal the one-shot ones.
        #[test]
        fn crc32_adler32_under_random_chunkings(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..100_000,
            cuts in proptest::collection::vec(0usize..100_000, 0..8),
        ) {
            let mut x = seed;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 33) as u8
                })
                .collect();
            let whole = (crc32(&data), adler32(&data));
            proptest::prop_assert_eq!(crc32_adler32(&data), whole);
            let portable = (
                crc32_portable(CRC_INIT, &data) ^ CRC_INIT,
                adler32_finish(adler32_portable(ADLER_INIT, &data)),
            );
            proptest::prop_assert_eq!(portable, whole);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let (mut start, mut crc, mut adler) = (0, CRC_INIT, ADLER_INIT);
            let mut folded = crc32_adler32(&[]);
            for &end in &cuts {
                let chunk = &data[start..end];
                let next = (crc32_update(crc, chunk), adler32_update(adler, chunk));
                for (kernel, state) in every_kernel(crc, adler, chunk) {
                    let want = match state {
                        State::Crc(_) => State::Crc(next.0),
                        State::Adler(_) => State::Adler(next.1),
                    };
                    proptest::prop_assert_eq!(state, want, "{} on {}..{}", kernel, start, end);
                }
                (crc, adler) = next;
                let (c, a) = crc32_adler32(chunk);
                let n = chunk.len() as u64;
                folded = (crc32_combine(folded.0, c, n), adler32_combine(folded.1, a, n));
                start = end;
            }
            proptest::prop_assert_eq!((crc ^ CRC_INIT, adler32_finish(adler)), whole);
            proptest::prop_assert_eq!(folded, whole);
        }
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(0xCBF4_3926), "cbf43926");
        assert_eq!(to_hex(0x1), "00000001");
    }
}
