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
//! The encoder's parse fixes the bytes of every tree, and so every basket
//! length, read and virtual time the benches report; an encoder that
//! parses otherwise, however much better it compresses, moves them all.
//! The parse is greedy: at each position that has 3 bytes left, it visits
//! the chain of earlier positions whose 3-byte prefix hashes to the same
//! bucket (13 bits: `a << 6 ^ b << 3 ^ c`), latest first, at most 32 of
//! them and only those less than 4 KiB back, and takes the longest match
//! up to 18 bytes, the earliest visited on a tie. A match of 3 bytes or
//! more is a token; otherwise the byte is a literal. Every position the
//! token covers joins its bucket. Tokens go out in groups of eight behind
//! a flag byte (bit `k` set: token `k` is a match), and a frame whose
//! payload does not come out shorter than its input is stored raw. The
//! encoder does that work and no more: a candidate that differs at the
//! best length so far is skipped after one byte, matches are compared
//! 8 bytes at a time, the walk stops at a match no later one can beat, and
//! a writer keeps one set of `u32` tables for all its baskets.
//!
//! A frame must be exactly `FRAME_HEADER + payload_len` bytes long, and an
//! LZSS frame may claim at most 9 output bytes per payload byte; both are
//! checked before anything is allocated.
//!
//! The decoder writes into a buffer 32 bytes longer than the output, so
//! every token may be stored whole as a fixed size; a frame decoded into the
//! middle of a larger buffer gets those 32 bytes put back after it. It checks bounds once per token group (a flag byte and up to eight
//! tokens): a group whose reads are all in the payload and whose 8 × 18
//! output bytes all fit before `orig_len` runs with no per-token check but
//! each match's offset. Any other group — the last few of a stream — is
//! checked token by token, on the portable path.
//!
//! On x86-64 CPUs with AVX-512 VBMI and VL, the `x86` module (the one
//! place in the crate allowed `unsafe`) decodes those fast groups without a
//! data-dependent branch: each token is one 32-byte load from the payload
//! (a literal) or from the output `off` bytes back (a match), one
//! `vpermb` by the row of period `min(off, 18)` of a small index table, and
//! one 32-byte store. A group needs 48 payload bytes after its flag byte
//! there, and the portable path takes the stream over where it stops.
//! Everywhere else the portable decoder runs: a match at offset ≥ 18 is a
//! fixed 18-byte copy, an offset-1 run a fixed 18-byte fill, and a shorter
//! offset a forward byte copy. Both give the same bytes and the same error
//! text for every payload.

use ioapi::checksum::crc32;
use std::io;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

const FRAME_MAGIC: u16 = 0x5A4C;
/// Fixed frame header size in bytes.
pub const FRAME_HEADER: usize = 16;

const METHOD_RAW: u8 = 0;
const METHOD_LZSS: u8 = 1;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18; // 4 bits of length: 3..=18

/// Buckets of the match finder's hash table: 13 bits of a 3-byte prefix.
const HASH_SIZE: usize = 1 << 13;
/// Candidates the match finder visits at most per position.
const MAX_CHAIN: usize = 32;
/// A hash bucket (or chain link) that holds no position.
const EMPTY: u32 = u32::MAX;

/// The largest block a frame holds: the whole frame, header and all, must
/// fit the `u32` lengths of its header and of a tree's basket index. Below
/// it every position of a block fits the encoder's `u32` tables too.
pub(crate) const MAX_BLOCK: usize = u32::MAX as usize - FRAME_HEADER;

/// `len` as a frame's `u32` length field.
///
/// # Panics
///
/// If `len` is over [`MAX_BLOCK`]: the header would lie about it.
pub(crate) fn block_len(len: usize) -> u32 {
    assert!(len <= MAX_BLOCK, "a {len}-byte block does not fit a codec frame");
    len as u32
}

/// The bucket of the 3-byte prefix at `input[i..]`.
#[inline(always)]
fn hash(input: &[u8], i: usize) -> usize {
    ((input[i] as usize) << 6 ^ (input[i + 1] as usize) << 3 ^ input[i + 2] as usize)
        & (HASH_SIZE - 1)
}

/// The 8 bytes at `input[at..]`, as one word.
#[inline(always)]
fn word(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(input[at..at + 8].try_into().expect("8 bytes"))
}

/// How many bytes from `a` equal those from `b`, up to `max`, where
/// `a < b` and `b + max <= input.len()`: 8 bytes a compare while 8 remain.
#[inline(always)]
fn match_len(input: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut l = 0;
    while l < max {
        if b + l + 8 <= input.len() {
            let diff = word(input, a + l) ^ word(input, b + l);
            if diff != 0 {
                return max.min(l + diff.trailing_zeros() as usize / 8);
            }
            l += 8;
        } else if input[a + l] == input[b + l] {
            l += 1;
        } else {
            return l;
        }
    }
    max
}

/// The longest match for `input[i..]` (which has 3 bytes) among the first
/// `MAX_CHAIN` positions of the chain from `cand` inside the window, the
/// earliest one on a tie: `(length, offset)`, or a length under 3 if none.
#[inline(always)]
fn longest_match(input: &[u8], i: usize, mut cand: u32, prev: &[u32; WINDOW]) -> (usize, usize) {
    let max = MAX_MATCH.min(input.len() - i);
    let (mut best_len, mut best_off) = (0, 0);
    let mut next = input[i];
    for _ in 0..MAX_CHAIN {
        // Offsets are 12 bits: a match reaches back at most WINDOW - 1
        // bytes. The chain runs from the latest position down, so the first
        // one out of the window ends it; `EMPTY` is further back than any.
        if (i as u64).wrapping_sub(cand as u64) >= WINDOW as u64 {
            break;
        }
        let c = cand as usize;
        // A candidate that differs at the best length cannot be longer;
        // one that reaches `max` cannot be beaten.
        if input[c + best_len] == next {
            let l = match_len(input, c, i, max);
            if l > best_len {
                if l == max {
                    return (l, i - c);
                }
                (best_len, best_off) = (l, i - c);
                next = input[i + l];
            }
        }
        cand = prev[c % WINDOW];
    }
    (best_len, best_off)
}

/// Bucket `h` gains position `i`, which has 3 bytes from it: `i` heads
/// the bucket's chain, and links to the position that headed it.
#[inline(always)]
fn insert(head: &mut [u32; HASH_SIZE], prev: &mut [u32; WINDOW], i: usize, h: usize) {
    prev[i % WINDOW] = head[h];
    head[h] = i as u32;
}

/// The LZSS encoder's tables, kept across blocks so that a writer
/// allocates them once: for each hash bucket the latest position with that
/// prefix (`head`), and for each position of the window the one before it
/// in its bucket (`prev`, a ring: a position's link is overwritten only once
/// the position is out of the window). Between blocks every bucket is
/// empty, and a chain link is read only from a position of the block being
/// encoded. Positions are `u32`; a block is at most [`MAX_BLOCK`] long.
pub(crate) struct Encoder {
    head: Box<[u32; HASH_SIZE]>,
    prev: Box<[u32; WINDOW]>,
}

impl Encoder {
    pub(crate) fn new() -> Encoder {
        Encoder { head: Box::new([EMPTY; HASH_SIZE]), prev: Box::new([EMPTY; WINDOW]) }
    }

    /// [`compress`] with these tables.
    pub(crate) fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + input.len() / 2 + 16);
        out.resize(FRAME_HEADER, 0);
        self.encode(input, &mut out);
        if out.len() - FRAME_HEADER < input.len() {
            seal(&mut out, METHOD_LZSS, input);
            out
        } else {
            store(input)
        }
    }

    /// Append the LZSS payload of `input` to `out`: token-grouped flag
    /// bytes, `(offset, len)` matches against a 4 KiB sliding window, by
    /// the parse the module doc gives.
    fn encode(&mut self, input: &[u8], out: &mut Vec<u8>) {
        let n = input.len();
        // Every position must fit the `u32` tables, and later the frame.
        block_len(n);
        let (head, prev) = (&mut *self.head, &mut *self.prev);
        // A flag byte, then up to eight tokens of at most 2 bytes.
        let mut group = [0u8; 1 + 8 * 2];
        let (mut group_len, mut tokens) = (1, 0);
        let mut i = 0;
        while i < n {
            let (len, off) = if i + MIN_MATCH <= n {
                let h = hash(input, i);
                let found = longest_match(input, i, head[h], prev);
                insert(head, prev, i, h);
                found
            } else {
                (0, 0)
            };
            if len >= MIN_MATCH {
                // Match token: flag bit 1; 12-bit offset, 4-bit (len - 3).
                group[0] |= 1 << tokens;
                let token = (off as u16) << 4 | (len - MIN_MATCH) as u16;
                group[group_len..group_len + 2].copy_from_slice(&token.to_le_bytes());
                group_len += 2;
                // Every other position the match covers joins its bucket.
                for j in i + 1..(i + len).min(n - (MIN_MATCH - 1)) {
                    insert(head, prev, j, hash(input, j));
                }
                i += len;
            } else {
                group[group_len] = input[i];
                group_len += 1;
                i += 1;
            }
            tokens += 1;
            if tokens == 8 {
                out.extend_from_slice(&group[..group_len]);
                group[0] = 0;
                (group_len, tokens) = (1, 0);
            }
        }
        if tokens > 0 {
            out.extend_from_slice(&group[..group_len]);
        }
        // Empty the buckets for the next block, a short block's own or all:
        // a position left in one would be taken for one of the next block's,
        // even the very position being encoded, as a match at offset 0.
        if n < HASH_SIZE {
            for j in 0..n.saturating_sub(MIN_MATCH - 1) {
                head[hash(input, j)] = EMPTY;
            }
        } else {
            head.fill(EMPTY);
        }
    }
}

/// Bytes the decoder's output buffer runs past `orig_len`: room for a
/// token's whole fixed-size store (18 bytes on the portable path, 32 in the
/// vector kernel) however close to the end it starts.
pub(crate) const SLACK: usize = 32;

/// Decode `input` into `out[..orig_len]`, storing garbage in up to
/// [`SLACK`] bytes after it.
fn lzss_decode(input: &[u8], out: &mut [u8], orig_len: usize) -> io::Result<()> {
    #[cfg(target_arch = "x86_64")]
    if let Some(done) = x86::lzss_decode(input, out, orig_len) {
        return done;
    }
    lzss_decode_from(input, out, 0, 0, orig_len)
}

/// Decode `input` from payload position `i` into `out` (at least
/// `orig_len + SLACK` bytes, the first `o` of them already decoded), where a
/// group starts. From position 0 this is the portable decoder, and the
/// reference the vector kernel is tested against.
fn lzss_decode_from(
    input: &[u8],
    out: &mut [u8],
    mut i: usize,
    mut o: usize,
    orig_len: usize,
) -> io::Result<()> {
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
                    o = copy_match(out, o, [input[i], input[i + 1]])?;
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
                o = copy_match(out, o, [input[i], input[i + 1]])?;
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
    Ok(())
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

/// Fill in the header of `frame` — a header's room, then the payload — as
/// the encoding `method` of `orig`.
fn seal(frame: &mut [u8], method: u8, orig: &[u8]) {
    let payload_len = block_len(frame.len() - FRAME_HEADER);
    frame[..2].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame[2] = method;
    frame[3] = 0;
    frame[4..8].copy_from_slice(&block_len(orig.len()).to_le_bytes());
    frame[8..12].copy_from_slice(&payload_len.to_le_bytes());
    frame[12..16].copy_from_slice(&crc32(orig).to_le_bytes());
}

/// Store `input` in a raw frame: `compress`'s fallback, and what the writer
/// uses when compression is off.
///
/// # Panics
///
/// If `input` is longer than [`MAX_BLOCK`].
pub(crate) fn store(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + input.len());
    out.resize(FRAME_HEADER, 0);
    out.extend_from_slice(input);
    seal(&mut out, METHOD_RAW, input);
    out
}

/// Compress `input` into a framed block (raw storage if LZSS does not help).
///
/// # Panics
///
/// If `input` is longer than `u32::MAX - 16` bytes: a frame's header
/// records its lengths in 32 bits.
pub fn compress(input: &[u8]) -> Vec<u8> {
    Encoder::new().compress(input)
}

/// The most bytes an LZSS payload byte can decode to: a group of 17 input
/// bytes (flags + 8 match tokens) yields at most 8 × 18 output bytes — under
/// 9 to 1.
pub(crate) const MAX_EXPANSION: usize = 9;

/// A frame whose header has been checked against it.
pub(crate) struct Frame<'a> {
    method: u8,
    orig_len: usize,
    crc: u32,
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Check everything about `frame` but its payload: magic, exact
    /// length, method, and a decoded length the payload can produce.
    pub(crate) fn parse(frame: &'a [u8]) -> io::Result<Frame<'a>> {
        if frame.len() < FRAME_HEADER {
            return Err(invalid("short codec frame"));
        }
        let magic = u16::from_le_bytes([frame[0], frame[1]]);
        if magic != FRAME_MAGIC {
            return Err(invalid("bad codec magic"));
        }
        let method = frame[2];
        let word = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().expect("4 bytes"));
        let (orig_len, payload_len, crc) = (word(4) as usize, word(8) as usize, word(12));
        if frame.len() < FRAME_HEADER + payload_len {
            return Err(invalid("codec frame truncated"));
        }
        if frame.len() > FRAME_HEADER + payload_len {
            return Err(invalid("codec frame longer than its header says"));
        }
        let payload = &frame[FRAME_HEADER..];
        match method {
            METHOD_RAW if payload_len != orig_len => Err(invalid("raw frame length mismatch")),
            // The output buffer is reserved up front, so the size the frame
            // claims must be one its payload could decode to. A 16-byte
            // frame cannot ask for 4 GiB.
            METHOD_LZSS if orig_len > payload_len.saturating_mul(MAX_EXPANSION) => {
                Err(invalid("codec frame claims more than its payload can decode to"))
            }
            METHOD_RAW | METHOD_LZSS => Ok(Frame { method, orig_len, crc, payload }),
            m => {
                Err(io::Error::new(io::ErrorKind::InvalidData, format!("unknown codec method {m}")))
            }
        }
    }

    /// The length the frame decodes to.
    pub(crate) fn decoded_len(&self) -> usize {
        self.orig_len
    }

    /// Decode the frame into `out[..decoded_len]` and check it against the
    /// frame's CRC-32. A raw payload is copied once; an LZSS one is
    /// inflated in place, and may store into the [`SLACK`] bytes after the
    /// output, so `out` must be that much longer: what those bytes held is
    /// put back.
    pub(crate) fn decode_into(&self, out: &mut [u8]) -> io::Result<()> {
        let n = self.orig_len;
        if self.method == METHOD_RAW {
            out[..n].copy_from_slice(self.payload);
        } else {
            let slack: [u8; SLACK] = out[n..n + SLACK].try_into().expect("SLACK bytes");
            let decoded = lzss_decode(self.payload, out, n);
            out[n..n + SLACK].copy_from_slice(&slack);
            decoded?;
        }
        if crc32(&out[..n]) != self.crc {
            return Err(invalid("codec crc mismatch"));
        }
        Ok(())
    }
}

/// Decompress a framed block, verifying length and CRC. The frame must be
/// exactly as long as its header says.
pub fn decompress(frame: &[u8]) -> io::Result<Vec<u8>> {
    let frame = Frame::parse(frame)?;
    let mut out = vec![0u8; frame.decoded_len() + SLACK];
    frame.decode_into(&mut out)?;
    out.truncate(frame.decoded_len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_longer_than_a_frame_can_record_is_refused() {
        assert_eq!(block_len(MAX_BLOCK), u32::MAX - FRAME_HEADER as u32);
        // The frame must fit the `u32` length a tree's index gives it too.
        assert_eq!(FRAME_HEADER + MAX_BLOCK, u32::MAX as usize);
        // The last: `Schema::hep(70_000)`'s `cal` column in 40 000-event
        // baskets, 5.6 GB, which a `u32` header would record as 1.3 GB.
        let hep_70k = usize::try_from(2u64 * 70_000 * 40_000).ok();
        for len in [MAX_BLOCK + 1, u32::MAX as usize].into_iter().chain(hep_70k) {
            let err = std::panic::catch_unwind(|| block_len(len)).unwrap_err();
            let text = err.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*text, format!("a {len}-byte block does not fit a codec frame"));
        }
    }

    #[test]
    fn one_encoder_over_many_blocks_writes_what_a_fresh_one_does() {
        // Each block has "01234567" at 100, after filler no other block
        // has: a bucket the last block left would offer the position being
        // encoded as its own match, at offset 0. Short blocks empty only
        // their own buckets, long ones all.
        let mut encoder = Encoder::new();
        for (k, len) in [200, 9_000, 300, 20_000, 150, 8_192, 8_191, 108].into_iter().enumerate() {
            let mut block = vec![b'a' + k as u8; len];
            block[100..108].copy_from_slice(b"01234567");
            assert_eq!(encoder.compress(&block), compress(&block), "block {k}, {len} bytes");
        }
    }

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
    fn corruption_of_a_4k_basket_is_detected_on_both_methods() {
        // Baskets this large take the CRC's vector kernel where the CPU
        // has one. A raw frame (bytes that do not compress) and an LZSS
        // frame whose last token is a literal (its last two bytes occur
        // nowhere before them), each with its last payload byte flipped.
        let mut x = 2014u32;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                (x >> 16) as u8
            })
            .collect();
        let mut cells = b"calorimeter-cell-0000 ".repeat(400);
        cells.extend_from_slice(&[0xFE, 0xFF]);
        for (input, method) in [(noise, METHOD_RAW), (cells, METHOD_LZSS)] {
            let mut c = compress(&input);
            assert_eq!(c[2], method);
            let last = c.len() - 1;
            c[last] ^= 0x01;
            assert_eq!(decompress(&c).unwrap_err().to_string(), "codec crc mismatch");
        }
    }

    /// A frame decoded in place fills its output and leaves every byte
    /// after it as it was, the LZSS decoder's slack included, whether it
    /// decodes or fails.
    #[test]
    fn decoding_in_place_leaves_the_bytes_after_the_output_alone() {
        let cells = b"calorimeter-cell-0000 ".repeat(40);
        let noise: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for (input, method) in [(cells, METHOD_LZSS), (noise, METHOD_RAW)] {
            for damaged in [false, true] {
                let mut c = compress(&input);
                assert_eq!(c[2], method);
                if damaged {
                    let last = c.len() - 1;
                    c[last] ^= 0x01;
                }
                let frame = Frame::parse(&c).unwrap();
                assert_eq!(frame.decoded_len(), input.len());
                let mut out = vec![0xA5; input.len() + SLACK + 8];
                let got = frame.decode_into(&mut out);
                assert_eq!(got.is_err(), damaged, "method {method}");
                if !damaged {
                    assert_eq!(out[..input.len()], input[..], "method {method}");
                }
                assert!(out[input.len()..].iter().all(|&b| b == 0xA5), "method {method}");
            }
        }
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

    /// The bytewise model: one push, and one check, per output byte.
    fn model_decode(input: &[u8], orig_len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::with_capacity(orig_len);
        let mut i = 0;
        while out.len() < orig_len {
            let flags = *input.get(i).ok_or("lzss stream truncated")?;
            i += 1;
            for bit in 0..8 {
                if out.len() >= orig_len {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    out.push(*input.get(i).ok_or("truncated literal")?);
                    i += 1;
                    continue;
                }
                let token = input.get(i..i + 2).ok_or("truncated match")?;
                let token = u16::from_le_bytes([token[0], token[1]]) as usize;
                i += 2;
                let (off, len) = (token >> 4, (token & 0x0F) + MIN_MATCH);
                if off == 0 || off > out.len() {
                    return Err("bad match offset".into());
                }
                for _ in 0..len {
                    out.push(out[out.len() - off]);
                }
            }
        }
        out.truncate(orig_len);
        Ok(out)
    }

    /// One LZSS token: a literal byte, or a match `(offset, length)`.
    #[derive(Clone, Copy, Debug)]
    enum Token {
        Lit(u8),
        Match(usize, usize),
    }

    impl Token {
        fn len(self) -> usize {
            match self {
                Token::Lit(_) => 1,
                Token::Match(_, len) => len,
            }
        }
    }

    /// `tokens` in flag groups: the payload of an LZSS frame.
    fn encode(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for group in tokens.chunks(8) {
            let flags_at = out.len();
            out.push(0);
            for (bit, token) in group.iter().enumerate() {
                match *token {
                    Token::Lit(byte) => out.push(byte),
                    Token::Match(off, len) => {
                        out[flags_at] |= 1 << bit;
                        let token = (off << 4 | (len - MIN_MATCH)) as u16;
                        out.extend_from_slice(&token.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// What `tokens` decode to, in bytes.
    fn decoded_len(tokens: &[Token]) -> usize {
        tokens.iter().map(|t| t.len()).sum()
    }

    /// `n` literals of a seeded byte stream.
    fn literals(n: usize, seed: u32) -> Vec<Token> {
        let mut x = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                Token::Lit((x >> 16) as u8)
            })
            .collect()
    }

    /// The portable decoder and, where this CPU has it, the VBMI kernel
    /// decode `payload` as the model does: the same bytes, or the same error
    /// text.
    fn assert_decoders_agree(payload: &[u8], orig_len: usize, what: &dyn std::fmt::Display) {
        let model = model_decode(payload, orig_len);
        // Each decoder writes into a buffer of its own.
        let decoded = |got: io::Result<()>, mut out: Vec<u8>| {
            out.truncate(orig_len);
            got.map(|()| out).map_err(|e| e.to_string())
        };
        let mut out = vec![0u8; orig_len + SLACK];
        let got = lzss_decode_from(payload, &mut out, 0, 0, orig_len);
        assert_eq!(decoded(got, out), model, "portable, {what}");
        #[cfg(target_arch = "x86_64")]
        {
            let mut out = vec![0u8; orig_len + SLACK];
            if let Some(got) = x86::lzss_decode(payload, &mut out, orig_len) {
                assert_eq!(decoded(got, out), model, "vbmi, {what}");
            }
        }
    }

    #[test]
    fn the_vbmi_kernel_is_under_test_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512vbmi") && is_x86_feature_detected!("avx512vl") {
            let under_test = x86::lzss_decode(&[], &mut [0; SLACK], 0).is_some();
            assert!(under_test, "the VBMI kernel is under test");
        }
    }

    #[test]
    fn every_offset_and_length_decodes_as_the_model_does() {
        for off in 1..WINDOW {
            // `off` seeded literals, so the matches reach back to the first
            // byte; the matches fall at every token position of a group as
            // `off` moves, and the tail keeps them all on the fast path.
            let mut tokens = literals(off, off as u32);
            for len in MIN_MATCH..=MAX_MATCH {
                tokens.push(Token::Match(off, len));
                tokens.push(Token::Lit(len as u8));
            }
            tokens.extend(literals(160, 7));
            let payload = encode(&tokens);
            assert_decoders_agree(&payload, decoded_len(&tokens), &format_args!("offset {off}"));
        }
    }

    #[test]
    fn runs_of_one_to_eight_literals_decode_as_the_model_does() {
        for run in 1..=8 {
            for lead in 20..28 {
                let mut tokens = literals(lead, run as u32);
                for k in 0..64 {
                    tokens.extend(literals(run, k as u32));
                    tokens.push(Token::Match(1 + k * 7 % lead, MIN_MATCH + k % 16));
                }
                tokens.extend(literals(160, 11));
                let payload = encode(&tokens);
                let what = format_args!("runs of {run} after {lead} literals");
                assert_decoders_agree(&payload, decoded_len(&tokens), &what);
            }
        }
    }

    #[test]
    fn every_hand_off_to_the_tail_path_decodes_as_the_model_does() {
        // Runs, overlapping copies, literals and far copies in turn.
        let mut tokens = literals(64, 2014);
        for k in 0..160 {
            tokens.push(match k % 4 {
                0 => Token::Match(1, MIN_MATCH + k % 16),
                1 => Token::Lit(k as u8),
                2 => Token::Match(2 + k % 16, MAX_MATCH - k % 16),
                _ => Token::Match(MAX_MATCH + 5 * k % 40, MIN_MATCH + k % 16),
            });
        }
        let payload = encode(&tokens);
        // Cut after each token, so the payload ends at every byte of the
        // last 64 and the last fast group is each group near the end, ...
        for n in 1..=tokens.len() {
            let cut = encode(&tokens[..n]);
            if cut.len() + 64 >= payload.len() {
                let natural = decoded_len(&tokens[..n]);
                for orig_len in [natural - 1, natural, natural + 1] {
                    assert_decoders_agree(&cut, orig_len, &format_args!("{n} tokens, {orig_len}"));
                }
            }
        }
        // ... and the whole stream decoded up to the end of each token in
        // its last 48 bytes, so the output bound hands it off instead.
        let (mut at, mut end) = (0, 0);
        for (k, token) in tokens.iter().enumerate() {
            at += usize::from(k % 8 == 0) + if matches!(token, Token::Lit(_)) { 1 } else { 2 };
            end += token.len();
            if at + 48 >= payload.len() {
                assert_decoders_agree(&payload, end, &format_args!("{end} of the bytes"));
            }
        }
    }

    #[test]
    fn a_bad_offset_at_every_token_of_a_fast_group_is_the_same_error() {
        for bit in 0..8 {
            for neighbours_match in [false, true] {
                for past_the_start in [false, true] {
                    let mut tokens = literals(200, bit as u32);
                    let mut o = 200;
                    for k in 0..8 {
                        let token = match () {
                            _ if k == bit => {
                                Token::Match(if past_the_start { o + 1 } else { 0 }, 5)
                            }
                            _ if neighbours_match => Token::Match(1 + k, MIN_MATCH + k),
                            _ => Token::Lit(k as u8),
                        };
                        o += token.len();
                        tokens.push(token);
                    }
                    tokens.extend(literals(200, 9));
                    let payload = encode(&tokens);
                    let orig_len = decoded_len(&tokens);
                    let what = format_args!("token {bit}, matches around {neighbours_match}");
                    assert_eq!(model_decode(&payload, orig_len).unwrap_err(), "bad match offset");
                    assert_decoders_agree(&payload, orig_len, &what);
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Runs, overlapping copies, far copies, literals and now and
            /// then any offset at all, decoded to their own length, a little
            /// less or more, or cut short: every decoder agrees with the
            /// model.
            #[test]
            fn random_token_streams_decode_as_the_model_does(
                picks in proptest::collection::vec((0u8..64, any::<u8>(), 1usize..4096, 0usize..16), 0..1500),
                mode in 0u8..4,
                delta in 0usize..64,
            ) {
                let mut natural = 0usize;
                let tokens: Vec<Token> = picks
                    .into_iter()
                    .map(|(kind, byte, off, len)| {
                        let len = MIN_MATCH + len;
                        let token = match kind {
                            0..=19 if natural >= 1 => Token::Match(1, len),
                            20..=29 if natural >= 17 => Token::Match(off % 16 + 2, len),
                            30..=44 if natural >= 18 => {
                                Token::Match(MAX_MATCH + off % (natural.min(4095) - 17), len)
                            }
                            63 => Token::Match(off, len),
                            _ => Token::Lit(byte),
                        };
                        natural += token.len();
                        token
                    })
                    .collect();
                let mut payload = encode(&tokens);
                let orig_len = match mode {
                    0 => natural,
                    1 => natural.saturating_sub(delta),
                    2 => natural + delta,
                    _ => {
                        payload.truncate(payload.len().saturating_sub(delta));
                        natural
                    }
                };
                assert_decoders_agree(&payload, orig_len, &format_args!("{tokens:?}, {orig_len}"));
            }
        }
    }
}
