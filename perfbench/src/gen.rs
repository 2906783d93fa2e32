//! Seeded input generation. Everything a workload feeds the system — object
//! bytes, request order, probe windows — comes from [`SplitMix`] streams
//! derived from `--seed`, so the same seed gives the same inputs on every
//! run and the exact-count layer metrics repeat.

/// SplitMix64: tiny, fast, and good enough to make payloads incompressible
/// and request orders uncorrelated. (The vendored `rand` stand-in is not a
/// dependency here, so later changes to it cannot change the inputs.)
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for the sub-purpose `label` of `seed` (object
    /// number, thread number…).
    pub fn derive(seed: u64, label: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`; the modulo bias is irrelevant at
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `len` pseudo-random bytes for object number `object` under `seed`.
pub fn object_bytes(seed: u64, object: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::derive(seed, object);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The object each of `n_ops` requests of client thread `thread` targets,
/// as indices into a population of `n_objects`.
pub fn request_order(seed: u64, thread: u64, n_ops: usize, n_objects: u32) -> Vec<u32> {
    let mut rng = SplitMix::derive(seed, 0x7EAD_0000 + thread);
    (0..n_ops).map(|_| rng.below(n_objects as u64) as u32).collect()
}

/// Where the seeded 64-byte check window of timed op number `op` starts in
/// a payload of `len` bytes (`len >= 64`).
pub fn check_window(seed: u64, op: u64, len: usize) -> usize {
    SplitMix::derive(seed, 0xC4EC_0000 + op).below((len - 63) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_order() {
        assert_eq!(object_bytes(2014, 3, 1000), object_bytes(2014, 3, 1000));
        assert_ne!(object_bytes(2014, 3, 1000), object_bytes(2014, 4, 1000));
        assert_ne!(object_bytes(2014, 3, 1000), object_bytes(7, 3, 1000));
        assert_eq!(object_bytes(1, 1, 13).len(), 13);
        assert_eq!(request_order(2014, 0, 500, 1024), request_order(2014, 0, 500, 1024));
        assert_ne!(request_order(2014, 0, 500, 1024), request_order(2014, 1, 500, 1024));
        assert!(request_order(9, 0, 500, 7).iter().all(|&i| i < 7));
    }

    #[test]
    fn check_window_stays_inside() {
        for op in 0..1000 {
            assert!(check_window(5, op, 64) == 0);
            assert!(check_window(5, op, 1024) + 64 <= 1024);
        }
    }

    #[test]
    fn payload_is_not_trivially_compressible() {
        let b = object_bytes(2014, 0, 4096);
        let mut seen = [false; 256];
        b.iter().for_each(|&x| seen[x as usize] = true);
        assert!(seen.iter().filter(|&&s| s).count() > 200);
    }
}
