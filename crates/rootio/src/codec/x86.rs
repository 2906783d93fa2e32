//! The x86-64 LZSS kernel: one AVX-512 VBMI byte permute per token. This is
//! the one module of the crate allowed `unsafe`: the call into the
//! `#[target_feature]` kernel, made once the CPU is known to have the
//! features, and the kernel's unaligned 32-byte loads and stores through raw
//! pointers. It decodes the fast groups at the head of a stream and hands
//! the rest to the portable decoder, which it matches byte for byte and
//! error for error.

use super::{invalid, lzss_decode_from, MAX_MATCH, MIN_MATCH, SLACK};
use std::arch::x86_64::*;
use std::hint::select_unpredictable;
use std::io;

/// Payload bytes a fast group may read past its flag byte: its last token
/// starts at most 14 bytes in, and every token loads 32 bytes (46), rounded
/// up.
const GROUP_READ: usize = 48;

/// Row `p` (1..=18) repeats the first `p` bytes of a vector: index `j` is
/// `j % p`. A match at offset `p < 18` overlaps its own output, and the
/// permuted load of the `p` bytes before it is the whole match. Row 18 keeps
/// the first 18 bytes where they are: the row of literals and of matches at
/// offset ≥ 18. Row 0 is never used.
#[repr(C, align(32))]
struct PeriodRows([[u8; 32]; MAX_MATCH + 1]);

static PERIODS: PeriodRows = PeriodRows(period_rows());

const fn period_rows() -> [[u8; 32]; MAX_MATCH + 1] {
    let mut rows = [[0u8; 32]; MAX_MATCH + 1];
    let mut p = 1;
    while p <= MAX_MATCH {
        let mut j = 0;
        while j < 32 {
            rows[p][j] = (j % p) as u8;
            j += 1;
        }
        p += 1;
    }
    rows
}

/// Decode `input` into `out[..orig_len]` (`out` has [`SLACK`] bytes more),
/// by the VBMI kernel and then the portable decoder — `None` when this CPU
/// lacks `avx512vbmi` or `avx512vl`.
pub(super) fn lzss_decode(input: &[u8], out: &mut [u8], orig_len: usize) -> Option<io::Result<()>> {
    if !is_x86_feature_detected!("avx512vbmi") || !is_x86_feature_detected!("avx512vl") {
        return None;
    }
    // SAFETY: the kernel enables `avx512vbmi` and `avx512vl`, and both were
    // detected on this CPU just above.
    let at = unsafe { fast_groups(input, out, orig_len) };
    Some(at.and_then(|(i, o)| lzss_decode_from(input, out, i, o, orig_len)))
}

/// Decode whole groups while every load a group makes is inside `input`
/// and the eight longest matches it could hold end before `orig_len`;
/// returns the payload and output positions where the next group starts.
///
/// No token takes a data-dependent branch: the offset check is branched on
/// once per group, and a stream that decodes never takes it. A token's
/// source is the payload at `i`
/// (a literal) or the output `off` bytes back (a match); 32 bytes are loaded
/// there, permuted by the row of period `min(off, 18)` (18 for a literal)
/// and stored at `o`, and `o` moves by the token's length. Bytes stored
/// past it are garbage later tokens overwrite, or the slack.
#[target_feature(enable = "avx512vbmi,avx512vl")]
fn fast_groups(input: &[u8], out: &mut [u8], orig_len: usize) -> io::Result<(usize, usize)> {
    assert!(out.len() >= orig_len + SLACK, "the output has its slack");
    let payload = input.as_ptr();
    let dst = out.as_mut_ptr();
    let (mut i, mut o) = (0usize, 0usize);
    while i + 1 + GROUP_READ <= input.len() && o + 8 * MAX_MATCH <= orig_len {
        let flags = input[i] as usize;
        i += 1;
        // Whether a match of the group reaches outside the output: checked
        // for every token, branched on once the group is done (a branch per
        // token would be compiled as one on the token's kind).
        let mut bad = false;
        for bit in 0..8 {
            let is_match = flags >> bit & 1 != 0;
            // SAFETY: `i` is at most 14 bytes past the group's flag byte, so
            // `i + 2 <= input.len()` by the loop's bound.
            let token = u16::from_le_bytes(unsafe { payload.add(i).cast::<[u8; 2]>().read() });
            let off = (token >> 4) as usize;
            // `1 <= off <= o`; a match that fails it loads at `o` instead.
            let reaches = off.wrapping_sub(1) < o;
            bad |= is_match & !reaches;
            let back = select_unpredictable(reaches, off, 0);
            let src = select_unpredictable(
                is_match,
                dst.wrapping_add(o - back).cast_const(),
                payload.wrapping_add(i),
            );
            let period = select_unpredictable(is_match & (off < MAX_MATCH), off, MAX_MATCH);
            let len = select_unpredictable(is_match, (token & 0x0F) as usize + MIN_MATCH, 1);
            // SAFETY: a literal loads `input[i..i + 32]`, inside `input` by
            // the loop's bound; a match loads `out[o - back..o - back + 32]`,
            // where `back <= o`, and `o + 32 <= out.len()` because
            // `o <= orig_len - 18`. Both loads are unaligned. Row `period`
            // (at most `MAX_MATCH`) is in the table, which is 32-byte
            // aligned.
            let (bytes, row) = unsafe {
                let row = PERIODS.0.as_ptr().add(period);
                (_mm256_loadu_si256(src.cast()), _mm256_load_si256(row.cast()))
            };
            // SAFETY: `o + 32 <= orig_len - 18 + 32 <= out.len()`.
            unsafe { _mm256_storeu_si256(dst.add(o).cast(), _mm256_permutexvar_epi8(row, bytes)) };
            o += len;
            i += 1 + is_match as usize;
        }
        if bad {
            return Err(invalid("bad match offset"));
        }
    }
    Ok((i, o))
}
