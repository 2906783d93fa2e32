//! Checksums shared by the storage layer and the client (Metalink
//! verification): Adler-32 (zlib) and CRC-32 (IEEE),
//! implemented from their definitions — no external crates.

/// Adler-32 as defined by RFC 1950 §8.2.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    // Largest n such that 255*n*(n+1)/2 + (n+1)*(MOD-1) < 2^32 (zlib's NMAX):
    const NMAX: usize = 5552;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(NMAX) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

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
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
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

/// CRC-32 (IEEE 802.3, the zip/png polynomial), sixteen bytes per step
/// (slice-by-16) with a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // Byte `j` of a block has `15 - j` more bytes of it behind it; the
        // running CRC folds into the first four.
        let carry = crc.to_le_bytes();
        crc = 0;
        for j in 0..4 {
            crc ^= t[15 - j][(block[j] ^ carry[j]) as usize];
        }
        for j in 4..16 {
            crc ^= t[15 - j][block[j] as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
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

    #[test]
    fn crc32_matches_the_bytewise_definition_at_every_length_and_alignment() {
        let mut x = 2014u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let data: Vec<u8> = (0..100 * 1024 + 16).map(|_| next() as u8).collect();
        // Every short length (no block, one block, several, each tail
        // length), at every start offset within a block.
        for len in 0..=64 {
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
    fn adler32_large_input_stays_modular() {
        // Exercise the NMAX chunking path.
        let data = vec![0xFFu8; 1_000_000];
        let v = adler32(&data);
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
