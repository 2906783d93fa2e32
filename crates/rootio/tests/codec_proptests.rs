//! Property tests for the LZSS codec, and the proof that the decoder still
//! decodes what the byte-at-a-time one it replaced did.

use ioapi::checksum::crc32;
use proptest::prelude::*;
use rootio::codec::{compress, decompress, FRAME_HEADER};
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
