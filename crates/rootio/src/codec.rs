//! Block compression: LZSS with a 4 KiB window inside a CRC-checked frame.
//!
//! ROOT compresses each basket independently with zlib; we do the same with
//! a self-contained LZSS so baskets stay independently decodable over
//! random-access transports. Frames that do not shrink are stored raw.
//!
//! Frame layout (little-endian):
//! ```text
//! magic:u16 = 0x5A4C ("LZ")  method:u8 (0 raw | 1 lzss)  reserved:u8
//! orig_len:u32  payload_len:u32  crc32(orig):u32  payload
//! ```
//!
//! A frame must be exactly `FRAME_HEADER + payload_len` bytes long, and an
//! LZSS frame may claim at most 9 output bytes per payload byte; both are
//! checked before anything is allocated.
//!
//! The decoder writes into a buffer `MAX_MATCH` bytes longer than the
//! output and truncates it at the end. That slack lets every match be
//! written whole, one at offset ≥ `MAX_MATCH` be a fixed 18-byte copy and
//! an offset-1 run a fixed 18-byte fill.
//! It checks bounds once per token group (a flag byte and up to eight
//! tokens): a group whose 16 token bytes are all in the input and whose
//! 8 × 18 output bytes all fit before `orig_len` runs with no per-token
//! check but each match's offset. Any other group — the last few of a
//! stream — is checked token by token.

use ioapi::checksum::crc32;
use std::io;

const FRAME_MAGIC: u16 = 0x5A4C;
/// Fixed frame header size in bytes.
pub const FRAME_HEADER: usize = 16;

const METHOD_RAW: u8 = 0;
const METHOD_LZSS: u8 = 1;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18; // 4 bits of length: 3..=18

/// Raw LZSS encode: token-grouped flag bytes, (offset, len) matches against
/// a 4 KiB sliding window.
fn lzss_encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Chained hash table over 3-byte prefixes for match finding.
    const HASH_SIZE: usize = 1 << 13;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; input.len().max(1)];
    let hash = |a: u8, b: u8, c: u8| -> usize {
        ((a as usize) << 6 ^ (b as usize) << 3 ^ (c as usize)) & (HASH_SIZE - 1)
    };

    let mut i = 0usize;
    let mut flags_pos = 0usize;
    let mut flags = 0u8;
    let mut nflag = 0u8;
    let mut pending: Vec<u8> = Vec::with_capacity(8 * 3);

    let flush_group = |out: &mut Vec<u8>,
                       flags: &mut u8,
                       nflag: &mut u8,
                       flags_pos: &mut usize,
                       pending: &mut Vec<u8>| {
        out[*flags_pos] = *flags;
        out.extend_from_slice(pending);
        pending.clear();
        *flags = 0;
        *nflag = 0;
        *flags_pos = out.len();
        out.push(0); // placeholder for next flag byte
    };

    out.push(0); // first flag placeholder
    while i < input.len() {
        // Find the longest match within the window.
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash(input[i], input[i + 1], input[i + 2]);
            let mut cand = head[h];
            let mut steps = 0;
            // Offsets are encoded in 12 bits: the maximum representable
            // back-reference distance is WINDOW - 1 = 4095.
            while cand != usize::MAX && i.saturating_sub(cand) < WINDOW && steps < 32 {
                if cand < i {
                    let max = MAX_MATCH.min(input.len() - i);
                    let mut l = 0usize;
                    while l < max && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - cand;
                    }
                }
                cand = prev[cand];
                steps += 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Match token: flag bit 1; 12-bit offset, 4-bit (len - 3).
            flags |= 1 << nflag;
            let token = ((best_off as u16 & 0x0FFF) << 4) | ((best_len - MIN_MATCH) as u16 & 0x0F);
            pending.extend_from_slice(&token.to_le_bytes());
            // Insert hash entries for every covered position.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash(input[i], input[i + 1], input[i + 2]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            pending.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash(input[i], input[i + 1], input[i + 2]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        nflag += 1;
        if nflag == 8 {
            flush_group(&mut out, &mut flags, &mut nflag, &mut flags_pos, &mut pending);
        }
    }
    if nflag > 0 || !pending.is_empty() {
        out[flags_pos] = flags;
        out.extend_from_slice(&pending);
    } else {
        // Remove the unused trailing placeholder.
        out.pop();
    }
    out
}

fn lzss_decode(input: &[u8], orig_len: usize) -> io::Result<Vec<u8>> {
    // MAX_MATCH bytes of slack past `orig_len`: a match may always be
    // written whole, and most as a fixed-size copy or fill.
    let mut out = vec![0u8; orig_len + MAX_MATCH];
    let mut i = 0usize;
    let mut o = 0usize;
    while o < orig_len {
        let Some(&flags) = input.get(i) else {
            return Err(invalid("lzss stream truncated"));
        };
        i += 1;
        if i + 2 * 8 <= input.len() && o + 8 * MAX_MATCH <= orig_len {
            // The group's eight tokens are all in the input and all end
            // before `orig_len`: no per-token checks but the offset.
            for bit in 0..8 {
                if flags & (1 << bit) != 0 {
                    o = copy_match(&mut out, o, [input[i], input[i + 1]])?;
                    i += 2;
                } else {
                    out[o] = input[i];
                    o += 1;
                    i += 1;
                }
            }
            continue;
        }
        for bit in 0..8 {
            if o >= orig_len {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 2 > input.len() {
                    return Err(invalid("truncated match"));
                }
                o = copy_match(&mut out, o, [input[i], input[i + 1]])?;
                i += 2;
            } else {
                let Some(&literal) = input.get(i) else {
                    return Err(invalid("truncated literal"));
                };
                out[o] = literal;
                o += 1;
                i += 1;
            }
        }
    }
    out.truncate(orig_len);
    Ok(out)
}

/// Apply the match `token` at output position `o` (which is below the
/// length `out` was decoded for, so `o + MAX_MATCH` is inside the slack);
/// returns the position after it.
#[inline(always)]
fn copy_match(out: &mut [u8], o: usize, token: [u8; 2]) -> io::Result<usize> {
    let token = u16::from_le_bytes(token);
    let off = (token >> 4) as usize;
    let len = (token & 0x0F) as usize + MIN_MATCH;
    if off == 0 || off > o {
        return Err(invalid("bad match offset"));
    }
    let from = o - off;
    // The first two cases write the longest match there is, a fixed size
    // the compiler turns into a few wide stores; bytes past `len` land in
    // what later tokens (or the final truncation) overwrite.
    if off >= MAX_MATCH {
        // Source and destination cannot overlap.
        out.copy_within(from..from + MAX_MATCH, o);
    } else if off == 1 {
        let run = out[from];
        out[o..o + MAX_MATCH].fill(run);
    } else {
        // The match overlaps its own output: copy forward, byte by byte.
        for k in 0..len {
            out[o + k] = out[from + k];
        }
    }
    Ok(o + len)
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Frame `payload` as the encoding `method` of `orig`.
fn frame(method: u8, orig: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(method);
    out.push(0);
    out.extend_from_slice(&(orig.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(orig).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Store `input` in a raw frame: `compress`'s fallback, and what the writer
/// uses when compression is off.
pub(crate) fn store(input: &[u8]) -> Vec<u8> {
    frame(METHOD_RAW, input, input)
}

/// Compress `input` into a framed block (raw storage if LZSS does not help).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let encoded = lzss_encode(input);
    if encoded.len() < input.len() {
        frame(METHOD_LZSS, input, &encoded)
    } else {
        store(input)
    }
}

/// Decompress a framed block, verifying length and CRC. The frame must be
/// exactly as long as its header says.
pub fn decompress(frame: &[u8]) -> io::Result<Vec<u8>> {
    if frame.len() < FRAME_HEADER {
        return Err(invalid("short codec frame"));
    }
    let magic = u16::from_le_bytes([frame[0], frame[1]]);
    if magic != FRAME_MAGIC {
        return Err(invalid("bad codec magic"));
    }
    let method = frame[2];
    let orig_len = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
    let payload_len = u32::from_le_bytes(frame[8..12].try_into().unwrap()) as usize;
    let crc_expect = u32::from_le_bytes(frame[12..16].try_into().unwrap());
    if frame.len() < FRAME_HEADER + payload_len {
        return Err(invalid("codec frame truncated"));
    }
    if frame.len() > FRAME_HEADER + payload_len {
        return Err(invalid("codec frame longer than its header says"));
    }
    let payload = &frame[FRAME_HEADER..];
    let out = match method {
        METHOD_RAW => {
            if payload_len != orig_len {
                return Err(invalid("raw frame length mismatch"));
            }
            payload.to_vec()
        }
        METHOD_LZSS => {
            // The output buffer is reserved up front, so the size the frame
            // claims must be one its payload could decode to: a group of 17
            // input bytes (flags + 8 match tokens) yields at most 8 × 18
            // output bytes — under 9 to 1. A 16-byte frame cannot ask for
            // 4 GiB.
            if orig_len > payload_len.saturating_mul(9) {
                return Err(invalid("codec frame claims more than its payload can decode to"));
            }
            lzss_decode(payload, orig_len)?
        }
        m => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown codec method {m}"),
            ))
        }
    };
    if crc32(&out) != crc_expect {
        return Err(invalid("codec crc mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for input in [
            &b""[..],
            b"a",
            b"hello world hello world hello world",
            b"abcabcabcabcabcabcabcabcabcabc",
        ] {
            let c = compress(input);
            assert_eq!(decompress(&c).unwrap(), input);
        }
    }

    #[test]
    fn a_forged_original_length_is_refused_before_anything_is_allocated() {
        // A header-only frame that says "4 GiB when decoded".
        let mut forged = compress(&b"calorimeter ".repeat(50));
        assert_eq!(forged[2], 1, "an LZSS frame");
        forged.truncate(FRAME_HEADER);
        forged[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        forged[8..12].copy_from_slice(&0u32.to_le_bytes());
        let err = decompress(&forged).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("more than its payload"), "{err}");
        // The bound is the format's own: the densest stream there is — one
        // literal, then nothing but longest matches at offset 1 — passes it.
        for len in [1usize, 19, 145, 146, 100_000] {
            let input = vec![7u8; len];
            let frame = compress(&input);
            let payload_len = u32::from_le_bytes(frame[8..12].try_into().unwrap()) as usize;
            assert!(len <= 9 * payload_len, "{len} bytes from a {payload_len}-byte payload");
            assert_eq!(decompress(&frame).unwrap(), input);
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let input: Vec<u8> =
            std::iter::repeat_n(&b"calorimeter-cell-0000 "[..], 200).flatten().copied().collect();
        let c = compress(&input);
        assert!(c.len() < input.len() / 2, "{} vs {}", c.len(), input.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn sparse_data_compresses_well() {
        // 80% zeros, like quantized calorimeter cells.
        let mut input = vec![0u8; 10_000];
        for i in (0..10_000).step_by(5) {
            input[i] = (i % 251) as u8;
        }
        let c = compress(&input);
        assert!(c.len() < input.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn incompressible_data_stored_raw() {
        // A linear-congruential byte stream has few 3-byte repeats.
        let mut x = 12345u64;
        let input: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&input);
        assert_eq!(c[2], 0, "raw method expected");
        assert_eq!(c.len(), input.len() + FRAME_HEADER);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn corruption_is_detected() {
        let input = b"some compressible compressible compressible payload".to_vec();
        let mut c = compress(&input);
        // flip a payload byte
        let last = c.len() - 1;
        c[last] ^= 0xFF;
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn frames_written_before_the_crc_moved_to_ioapi_still_decode() {
        // `compress` output of the commit that still had its own CRC-32
        // here: one frame stored raw, one LZSS.
        const RAW: [u8; 32] = [
            0x4c, 0x5a, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0xec, 0x69,
            0xab, 0xff, 0x64, 0x61, 0x76, 0x69, 0x78, 0x20, 0x6f, 0x76, 0x65, 0x72, 0x20, 0x68,
            0x74, 0x74, 0x70, 0x21,
        ];
        const LZSS: [u8; 48] = [
            0x4c, 0x5a, 0x01, 0x00, 0x58, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x37, 0xa2,
            0xa7, 0xa7, 0x00, 0x63, 0x61, 0x6c, 0x6f, 0x72, 0x69, 0x6d, 0x65, 0x00, 0x74, 0x65,
            0x72, 0x2d, 0x63, 0x65, 0x6c, 0x6c, 0xf4, 0x2d, 0x30, 0x10, 0x00, 0x20, 0x6f, 0x01,
            0x6f, 0x01, 0x6f, 0x01, 0x69, 0x01,
        ];
        let cells = b"calorimeter-cell-0000 ".repeat(4);
        for (frame, input) in [(&RAW[..], &b"davix over http!"[..]), (&LZSS[..], &cells[..])] {
            assert_eq!(decompress(frame).unwrap(), input);
            assert_eq!(compress(input), frame, "and the writer still produces them");
        }
    }

    #[test]
    fn a_frame_longer_than_its_header_says_is_refused() {
        // What a basket index that overstates a basket's length hands over:
        // the frame, then bytes it never declared.
        for input in [&b"davix over http!"[..], &b"calorimeter ".repeat(50)] {
            let mut frame = compress(input);
            assert_eq!(decompress(&frame).unwrap(), input);
            frame.extend_from_slice(&compress(b"the next basket"));
            let err = decompress(&frame).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("longer than its header"), "{err}");
        }
    }

    #[test]
    fn garbage_frames_rejected() {
        assert!(decompress(b"").is_err());
        assert!(decompress(&[0u8; 16]).is_err());
        let mut c = compress(b"valid data here");
        c.truncate(10);
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn long_matches_and_window_boundaries() {
        // A run longer than MAX_MATCH and data larger than the window.
        let mut input = vec![7u8; 100];
        input.extend((0..9000u32).flat_map(|i| (i % 100).to_le_bytes()));
        input.extend(vec![7u8; 100]);
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
    }
}
