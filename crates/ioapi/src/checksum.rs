//! Checksums shared by the storage layer and the client (Metalink
//! verification): Adler-32 (zlib) and CRC-32 (IEEE),
//! implemented from their definitions — no external crates.
//!
//! Both run on four independent lanes, so the CPU overlaps four dependency
//! chains instead of waiting on one. Adler-32 sums every fourth byte per
//! lane and folds the lanes once per 5 552-byte block. CRC-32 runs
//! slice-by-16 over the four quarters of an input of at least 1 KiB and
//! joins them with the same polynomial arithmetic that [`crc32_combine`]
//! publishes; shorter inputs and the last < 64 bytes take one lane.
//! [`adler32_combine`] and [`crc32_combine`] let digests of chunks computed
//! apart, in any order, be folded into the digest of the whole.

/// Adler-32 as defined by RFC 1950 §8.2.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u64 = 65_521;
    // zlib's NMAX, a multiple of 4: a lane's `lb` stays below
    // 255·1388·1389/2 < 2^28, and the fold runs in u64.
    const NMAX: usize = 5552 / 4 * 4;
    let mut a: u64 = 1;
    let mut b: u64 = 0;
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
    ((b as u32) << 16) | a as u32
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

/// CRC-32 (IEEE 802.3, the zip/png polynomial), sixteen bytes per step
/// (slice-by-16). From 1 KiB on, the four quarters of the input run as four
/// independent registers in one loop and are joined as [`crc32_combine`]
/// joins two digests; the rest takes one register and a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = data;
    if data.len() >= CRC_LANES_MIN {
        let quarter = data.len() / 64 * 16;
        let (lanes, tail) = data.split_at(4 * quarter);
        let (front, back) = lanes.split_at(2 * quarter);
        let (q0, q1) = front.split_at(quarter);
        let (q2, q3) = back.split_at(quarter);
        // Only the first lane starts from the preset register: the others
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
    crc ^ 0xFFFF_FFFF
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
    const MOD: u64 = 65_521;
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
    fn crc32_matches_the_bytewise_definition_at_every_length_and_alignment() {
        let mut x = 2014u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let data: Vec<u8> = (0..100 * 1024 + 16).map(|_| next() as u8).collect();
        // Every short length (no block, one block, several, each tail
        // length) and every length around the four-lane threshold, at
        // every start offset within a block.
        for len in (0..=64).chain(1000..=1100) {
            for start in 0..16 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
        for _ in 0..200 {
            let start = next() % 16;
            let len = next() % (100 * 1024 + 1);
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
        }
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
    fn adler32_matches_the_bytewise_definition_at_lane_and_block_edges() {
        let data = pseudo_random(4 * 5552 + 1);
        for len in 0..=64 {
            assert_eq!(adler32(&data[..len]), adler32_bytewise(&data[..len]), "len {len}");
        }
        for blocks in 1..=4 {
            for len in [blocks * 5552 - 1, blocks * 5552, blocks * 5552 + 1] {
                let s = &data[..len];
                assert_eq!(adler32(s), adler32_bytewise(s), "len {len}");
            }
        }
    }

    #[test]
    fn adler32_large_input_stays_modular() {
        // All-0xFF bytes give every lane its largest sums; a debug build
        // panics if one overflows.
        let data = vec![0xFFu8; 1 << 20];
        let v = adler32(&data);
        assert_eq!(v, adler32_bytewise(&data));
        // Property: low half < MOD, high half < MOD.
        assert!((v & 0xFFFF) < 65_521);
        assert!((v >> 16) < 65_521);
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

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(0xCBF4_3926), "cbf43926");
        assert_eq!(to_hex(0x1), "00000001");
    }
}
