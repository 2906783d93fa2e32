//! Property tests for the LZSS codec: the proof that the encoder still
//! writes the bytes the one it replaced did and that the decoder still
//! decodes what the byte-at-a-time one it replaced did, both kept here as
//! reference models, and that the owning path decodes what the borrowing
//! one does.

use ioapi::checksum::crc32;
use proptest::prelude::*;
use rootio::codec::{compress, decompress, decompress_owned, FRAME_HEADER};
use rootio::{write_tree, Generator, Schema, TreeReader, WriterOptions};
use std::sync::Arc;

/// The decoder as it was before it checked bounds once per token group:
/// one push and one check per byte. The reference the real one must match.
fn model_decode(input: &[u8], orig_len: usize) -> Result<Vec<u8>, &'static str> {
    let mut out = Vec::with_capacity(orig_len);
    let mut i = 0usize;
    while out.len() < orig_len {
        if i >= input.len() {
            return Err("lzss stream truncated");
        }
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= orig_len {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 2 > input.len() {
                    return Err("truncated match");
                }
                let token = u16::from_le_bytes([input[i], input[i + 1]]);
                i += 2;
                let off = (token >> 4) as usize;
                let len = (token & 0x0F) as usize + 3;
                if off == 0 || off > out.len() {
                    return Err("bad match offset");
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                if i >= input.len() {
                    return Err("truncated literal");
                }
                out.push(input[i]);
                i += 1;
            }
        }
    }
    out.truncate(orig_len);
    Ok(out)
}

/// The encoder as it was before its tables were kept across blocks and its
/// walk cut short: every candidate compared byte by byte, `usize` tables
/// filled afresh for each block. The reference the real one must match.
fn model_encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
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
    out.push(0); // first flag placeholder
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + 3 <= input.len() {
            let h = hash(input[i], input[i + 1], input[i + 2]);
            let mut cand = head[h];
            let mut steps = 0;
            while cand != usize::MAX && i.saturating_sub(cand) < 4096 && steps < 32 {
                if cand < i {
                    let max = 18.min(input.len() - i);
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
        if best_len >= 3 {
            flags |= 1 << nflag;
            let token = ((best_off as u16 & 0x0FFF) << 4) | ((best_len - 3) as u16 & 0x0F);
            pending.extend_from_slice(&token.to_le_bytes());
            let end = i + best_len;
            while i < end {
                if i + 3 <= input.len() {
                    let h = hash(input[i], input[i + 1], input[i + 2]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            pending.push(input[i]);
            if i + 3 <= input.len() {
                let h = hash(input[i], input[i + 1], input[i + 2]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        nflag += 1;
        if nflag == 8 {
            out[flags_pos] = flags;
            out.extend_from_slice(&pending);
            pending.clear();
            flags = 0;
            nflag = 0;
            flags_pos = out.len();
            out.push(0);
        }
    }
    if nflag > 0 {
        out[flags_pos] = flags;
        out.extend_from_slice(&pending);
    } else {
        out.pop();
    }
    out
}

/// The frame `compress` made of `input` with the model encoder: LZSS if
/// that came out shorter, raw otherwise.
fn model_compress(input: &[u8]) -> Vec<u8> {
    let encoded = model_encode(input);
    let (method, payload) =
        if encoded.len() < input.len() { (1, &encoded[..]) } else { (0, input) };
    let mut frame = vec![0x4C, 0x5A, method, 0];
    frame.extend_from_slice(&(input.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(input).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// An LZSS frame around `payload` that claims `orig_len` bytes and `crc`.
fn lzss_frame(payload: &[u8], orig_len: usize, crc: u32) -> Vec<u8> {
    let mut frame = vec![0x4C, 0x5A, 1, 0];
    frame.extend_from_slice(&(orig_len as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// `decompress` of a frame carrying the model's CRC gives the model's
/// bytes, or both fail.
fn assert_agrees_with_model(payload: &[u8], orig_len: usize) {
    let model = model_decode(payload, orig_len);
    let crc = model.as_ref().map_or(0, |m| crc32(m));
    let got = decompress(&lzss_frame(payload, orig_len, crc));
    assert_eq!(got.ok(), model.ok(), "{orig_len} bytes from {payload:?}");
}

/// Serialize tokens into flag groups: a literal byte, or a match
/// `(offset, len − 3)`.
fn encode_tokens(tokens: &[Result<u8, (u16, u8)>]) -> Vec<u8> {
    let mut out = Vec::new();
    for group in tokens.chunks(8) {
        let flags_at = out.len();
        out.push(0);
        for (bit, token) in group.iter().enumerate() {
            match *token {
                Ok(literal) => out.push(literal),
                Err((off, len)) => {
                    out[flags_at] |= 1 << bit;
                    out.extend_from_slice(&((off << 4) | len as u16).to_le_bytes());
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes round-trip.
    #[test]
    fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Highly repetitive data (the adversarial case for window arithmetic:
    /// long runs produce matches at every distance including the window
    /// boundary) round-trips.
    #[test]
    fn roundtrip_repetitive(
        seed in proptest::collection::vec(any::<u8>(), 1..64),
        reps in 1usize..2000,
    ) {
        let take = seed.len() * (reps.min(8000 / seed.len().max(1)) + 1);
        let data: Vec<u8> = seed.iter().cycle().take(take).copied().collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Sparse data (calorimeter-like) round-trips.
    #[test]
    fn roundtrip_sparse(
        positions in proptest::collection::vec((0usize..16_000, any::<u8>()), 0..200),
        len in 1usize..16_000,
    ) {
        let mut data = vec![0u8; len];
        for (pos, val) in positions {
            if pos < len {
                data[pos] = val;
            }
        }
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Truncating a frame anywhere must error, never panic or hang.
    #[test]
    fn truncation_is_an_error(data in proptest::collection::vec(any::<u8>(), 1..2000), cut in 0usize..100) {
        let c = compress(&data);
        let cut = cut % c.len();
        let _ = decompress(&c[..cut]); // must not panic
    }

    /// Any payload bytes, any length the frame may claim: the decoder
    /// agrees with the model.
    #[test]
    fn arbitrary_payloads_decode_as_the_model_does(
        payload in proptest::collection::vec(any::<u8>(), 0..4000),
        per_mille in 0usize..=1000,
    ) {
        assert_agrees_with_model(&payload, payload.len() * 9 * per_mille / 1000);
    }

    /// Token streams that mostly decode — runs at offset 1, overlapping
    /// copies at offsets 2..18, far copies, and now and then any offset at
    /// all — claiming their own length, a little less, a little more, or
    /// cut short: the decoder agrees with the model.
    #[test]
    fn token_streams_decode_as_the_model_does(
        tokens in proptest::collection::vec((0u8..64, any::<u8>(), 1u16..4096, 0u8..16), 0..3000),
        mode in 0u8..4,
        delta in 0usize..64,
    ) {
        let mut natural = 0usize;
        let tokens: Vec<Result<u8, (u16, u8)>> = tokens
            .into_iter()
            .map(|(kind, literal, off, len)| {
                let window = natural.min(4095) as u16;
                let token = match kind {
                    0..=19 => Err((1, len)),
                    20..=29 => Err((off % 16 + 2, len)),
                    30..=44 if window >= 18 => Err((18 + off % (window - 17), len)),
                    63 => Err((off, len)),
                    _ => Ok(literal),
                };
                let token = match token {
                    Err((off, _)) if off as usize > natural && kind != 63 => Ok(literal),
                    token => token,
                };
                natural += token.map_or_else(|(_, len)| len as usize + 3, |_| 1);
                token
            })
            .collect();
        let mut payload = encode_tokens(&tokens);
        let orig_len = match mode {
            0 => natural,
            1 => natural.saturating_sub(delta),
            2 => natural + delta,
            _ => {
                payload.truncate(payload.len().saturating_sub(delta));
                natural
            }
        };
        assert_agrees_with_model(&payload, orig_len.min(9 * payload.len()));
    }

    /// The owning path is the borrowing one: a frame — raw or LZSS, intact,
    /// with a byte overwritten (header or payload), cut short or run long —
    /// decodes to the same bytes or the same error text either way.
    #[test]
    fn decompress_owned_is_decompress(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        repetitive in any::<bool>(),
        damage in proptest::option::of((0usize..700, any::<u8>())),
        resize in proptest::option::of(0usize..700),
    ) {
        let input = if repetitive { data.repeat(3) } else { data };
        let mut frame = compress(&input);
        if let Some((at, byte)) = damage {
            let at = at % frame.len();
            frame[at] = byte;
        }
        if let Some(len) = resize {
            frame.resize(len, 0x5A);
        }
        let text = |r: std::io::Result<Vec<u8>>| r.map_err(|e| (e.kind(), e.to_string()));
        prop_assert_eq!(text(decompress_owned(frame.clone())), text(decompress(&frame)));
        if damage.is_none() && resize.is_none() {
            prop_assert_eq!(decompress_owned(frame).unwrap(), input);
        }
    }
}

/// The byte length of the last flag group of an LZSS payload.
fn last_group_len(payload: &[u8]) -> usize {
    let mut i = 0;
    let mut start = 0;
    while i < payload.len() {
        start = i;
        let flags = payload[i];
        i += 1;
        for bit in 0..8 {
            if i >= payload.len() {
                break;
            }
            i += if flags & (1 << bit) != 0 { 2 } else { 1 };
        }
    }
    payload.len() - start
}

/// Lengths around multiples of 144 (8 × the longest match: what one fast
/// group may write), for data that decodes through every kind of copy, so
/// the fast path, the per-token path and the hand-off between them all run.
#[test]
fn compress_round_trips_around_group_boundaries() {
    type Pattern = (&'static str, fn(usize) -> u8);
    let patterns: [Pattern; 4] = [
        ("zeros", |_| 0),
        ("period 7", |i| (i % 7) as u8 * 31),
        ("period 29", |i| (i % 29) as u8 ^ 0x5A),
        ("sparse cells", |i| if i % 5 == 0 { (i % 251) as u8 } else { 0 }),
    ];
    let mut short_tails = 0;
    for (name, byte) in patterns {
        for groups in 0..=24usize {
            for n in (144 * groups).saturating_sub(3)..=144 * groups + 3 {
                let input: Vec<u8> = (0..n).map(byte).collect();
                let frame = compress(&input);
                assert_eq!(decompress(&frame).unwrap(), input, "{name}, {n} bytes");
                if frame[2] == 1 {
                    let payload = &frame[FRAME_HEADER..];
                    assert_eq!(model_decode(payload, n).unwrap(), input, "{name}, {n} bytes");
                    short_tails += (last_group_len(payload) < 17) as usize;
                }
            }
        }
    }
    assert!(short_tails > 100, "only {short_tails} payloads end in a short group");
}

/// Every basket of a `sim_wan_job`-shaped tree (256 cells, seed 2014,
/// 40-event baskets; 4 000 events) against the length and CRC-32 of what
/// the byte-at-a-time decoder produced.
#[test]
fn a_hep_tree_decodes_to_the_bytes_it_always_did() {
    let tree = write_tree(
        &mut Generator::new(Schema::hep(256), 2014),
        4_000,
        &WriterOptions { events_per_basket: 40, compress: true },
    );
    let reader = TreeReader::open(Arc::new(ioapi::MemFile::new(tree))).unwrap();
    let mut decoded = Vec::new();
    for basket in 0..reader.baskets().len() {
        decoded.extend(reader.read_basket(basket).unwrap());
    }
    assert_eq!(reader.baskets().len(), 700);
    assert_eq!((decoded.len(), crc32(&decoded)), (2_124_000, 0x3412_9767));
}

/// A seeded xorshift stream: the bytes of the shapes below.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An input of one of the shapes the parse turns on, `pick` choosing its
/// length: 0–3 bytes (too short for a match, or just long enough); around
/// 18 and 36 bytes (where the longest match is what is left); around 4 096
/// and 8 192 (the window's edge); runs of one byte; a 2–4-letter alphabet;
/// `i16` cells ~85 % zero, like `cal`; and bytes that do not compress
/// (stored raw).
fn shaped_input(shape: u8, pick: usize, seed: u64) -> Vec<u8> {
    let mut s = Stream(seed | 1);
    let letters = 2 + s.below(3) as u8;
    let alphabet = |s: &mut Stream, len: usize| -> Vec<u8> {
        (0..len).map(|_| b'a' + s.below(letters as u64) as u8).collect()
    };
    match shape {
        0 => alphabet(&mut s, pick % 4),
        1 => alphabet(&mut s, [18, 36][pick % 2] - 6 + pick % 13),
        2 => {
            let len = [4_096, 8_192][pick % 2] - 8 + pick % 17;
            let mut input = alphabet(&mut s, len);
            // Mostly one letter, so matches reach back across the edge.
            input.iter_mut().filter(|_| s.below(8) != 0).for_each(|b| *b = b'a');
            input
        }
        3 => {
            let mut input = Vec::new();
            while input.len() < 40 * pick {
                let longest = if s.below(4) == 0 { 600 } else { 40 };
                let run = 1 + s.below(longest) as usize;
                input.extend(std::iter::repeat_n(s.below(4) as u8 * 85, run));
            }
            input
        }
        4 => alphabet(&mut s, 100 * pick),
        5 => (0..50 * pick)
            .flat_map(|_| {
                let cell =
                    if s.below(100) < 15 { (s.below(1 << 16) as f64).sqrt() as i16 } else { 0 };
                cell.to_le_bytes()
            })
            .collect(),
        _ => (0..80 * pick).map(|_| s.next() as u8).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `compress` writes, byte for byte, the frame the model encoder and
    /// the framing give, on every shape of input the parse turns on.
    #[test]
    fn compress_writes_the_frame_the_model_encoder_does(
        shape in 0u8..7,
        pick in 0usize..64,
        seed in any::<u64>(),
    ) {
        let input = shaped_input(shape, pick, seed);
        prop_assert_eq!(compress(&input), model_compress(&input), "shape {}, {} bytes", shape, input.len());
    }
}

/// The length and CRC-32 of `write_tree` for `Schema::hep(256)` and seed
/// 2014, as the model encoder wrote them: the tree `sim_wan_job` and fig4
/// read (12 000 events in 40-event compressed baskets), CI's fig4 size of
/// it (600 events), and a raw tree in `analysis_sparse`'s 20-event baskets
/// (a tenth of its 100 000 events, which came to 54 570 119 bytes with CRC
/// `0xfcbef782`, and take seconds in a debug build). A change to any
/// figure's input bytes fails here by name.
#[test]
fn the_trees_the_figures_read_are_the_bytes_they_always_were() {
    for (what, n_events, events_per_basket, compress, len, crc) in [
        ("sim_wan_job / fig4", 12_000, 40, true, 1_815_833, 0x1960_c722),
        ("fig4 at CI size", 600, 40, true, 90_826, 0x5325_264f),
        ("analysis_sparse's shape", 10_000, 20, false, 5_457_119, 0x0c17_9f1e),
    ] {
        let opts = WriterOptions { events_per_basket, compress };
        let tree = write_tree(&mut Generator::new(Schema::hep(256), 2014), n_events, &opts);
        assert_eq!((tree.len(), crc32(&tree)), (len, crc), "{what}");
    }
}
