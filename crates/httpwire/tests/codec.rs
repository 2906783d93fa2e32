//! The codec's two contracts, tested once for every adapter built on it:
//!
//! * **resumable** — a message split at arbitrary byte boundaries decodes
//!   to the same head, payload and end offset as the unsplit message, and
//!   the cursor stops exactly where the next message starts;
//! * **one grammar** — the blocking pull adapter (`BodyReader`) and a push
//!   loop of the kind `httpd` runs agree on every wire, well-formed or not:
//!   same payload and boundary, or the same kind of error.

use httpwire::codec::{
    parse_request_head, parse_response_head, request_body_len, response_body_len, BodyFrames,
    BodyLen, Frame, HeadScan, MAX_CHUNK_LINE_BYTES, MAX_TRAILER_BYTES,
};
use httpwire::parse::{BodyFraming, BodyReader, StartReader, MAX_INTERIM_RESPONSES};
use httpwire::{
    ContentRange, Method, MultipartReader, MultipartWriter, RequestHead, ResponseHead, StatusCode,
    WireError,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Cursor, Read};

/// The offsets at which successive deliveries of a `len`-byte wire end:
/// `cuts` folded into range and sorted, then the whole wire.
fn delivery_ends(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
    ends.sort_unstable();
    ends.push(len);
    ends
}

/// Push `wire` through a body decoder in the pieces `cuts` delimit, the way
/// a non-blocking connection does: buffer what arrived, take what the
/// decoder describes, wait for more. `eof` says the transport ends after
/// `wire`. Returns the payload and how many wire bytes the body occupied.
fn push_body(
    len: BodyLen,
    wire: &[u8],
    cuts: &[usize],
    eof: bool,
) -> Result<(Vec<u8>, usize), WireError> {
    let mut decoder = BodyFrames::new(len);
    let mut body = Vec::new();
    let mut pos = 0;
    let ends = delivery_ends(cuts, wire.len());
    for end in ends {
        loop {
            match decoder.next(&wire[pos..end])? {
                Frame::Skip(n) => pos += n,
                Frame::Payload(n) => {
                    let take = n.min((end - pos) as u64) as usize;
                    if take == 0 {
                        break;
                    }
                    body.extend_from_slice(&wire[pos..pos + take]);
                    decoder.advance(take as u64);
                    pos += take;
                }
                Frame::NeedMore => break,
                Frame::End => return Ok((body, pos)),
            }
        }
    }
    if eof {
        decoder.end_of_input()?;
    }
    if decoder.is_done() {
        Ok((body, pos))
    } else {
        Err(WireError::UnexpectedEof)
    }
}

/// Pull the same body through `BodyReader` over a `BufReader` of `cap`
/// bytes (small capacities make framing lines straddle refills). Returns
/// the payload and the number of wire bytes consumed.
fn pull_body(len: BodyLen, wire: &[u8], cap: usize) -> Result<(Vec<u8>, usize), WireError> {
    let mut r = BufReader::with_capacity(cap.max(1), Cursor::new(wire));
    let body = BodyReader::new(&mut r, len).read_all()?;
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).unwrap();
    Ok((body, wire.len() - rest.len()))
}

/// Errors compare by kind; the text is for people.
fn kind<T>(r: Result<T, WireError>) -> Result<T, &'static str> {
    r.map_err(|e| match e {
        WireError::BadChunk(_) => "BadChunk",
        WireError::UnexpectedEof => "UnexpectedEof",
        other => panic!("unexpected error kind: {other}"),
    })
}

/// A chunked body: `chunks` with optional extensions, then trailers.
fn chunked_wire(chunks: &[Vec<u8>], extensions: bool, trailers: &[(String, String)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, c) in chunks.iter().filter(|c| !c.is_empty()).enumerate() {
        let ext = if extensions && i % 2 == 0 { ";name=value;flag" } else { "" };
        wire.extend_from_slice(format!("{:x}{ext}\r\n", c.len()).as_bytes());
        wire.extend_from_slice(c);
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(if extensions { b"0;last\r\n" } else { b"0\r\n" });
    for (n, v) in trailers {
        wire.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
    wire
}

/// What one whole message decodes to.
#[derive(Debug, PartialEq)]
struct Message {
    head: String,
    body: Vec<u8>,
    /// Offset of the first byte after the message.
    end: usize,
}

/// Decode one message (head, then body) from `wire` delivered in pieces.
fn push_message(wire: &[u8], cuts: &[usize], request: bool, eof: bool) -> Message {
    let ends = delivery_ends(cuts, wire.len());
    let mut scan = HeadScan::default();
    let (head_end, head, len) = ends
        .iter()
        .find_map(|&end| {
            let head_end = scan.find(&wire[..end]).unwrap()?;
            let block = &wire[..head_end];
            Some(if request {
                let head = parse_request_head(block).unwrap().unwrap();
                (head_end, format!("{head:?}"), request_body_len(&head).unwrap())
            } else {
                let head = parse_response_head(block).unwrap();
                (head_end, format!("{head:?}"), response_body_len(&Method::Get, &head).unwrap())
            })
        })
        .expect("head never completed");
    // The body sees the same delivery schedule, shifted past the head.
    let body_cuts: Vec<usize> =
        ends.iter().filter(|&&e| e > head_end).map(|e| e - head_end).collect();
    let (body, used) = push_body(len, &wire[head_end..], &body_cuts, eof).unwrap();
    Message { head, body, end: head_end + used }
}

/// A transport that delivers `wire` in the pieces `ends` delimit: a `read`
/// never crosses a delivery boundary.
struct Deliveries<'a> {
    wire: &'a [u8],
    pos: usize,
    ends: Vec<usize>,
}

impl Read for Deliveries<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.ends.iter().copied().find(|&e| e > self.pos).unwrap_or(self.wire.len());
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// What a multipart body decodes to: its parts, or the kind of error.
type Parts = Result<Vec<(ContentRange, Vec<u8>)>, std::mem::Discriminant<WireError>>;

/// No part of these tests is longer; a damaged `Content-Range` may say so.
const PART_LIMIT: u64 = 4096;

/// The allocating path over the whole body at once.
fn parts_at_once(wire: &[u8], boundary: &str) -> Parts {
    MultipartReader::new(Cursor::new(wire), boundary)
        .with_part_limit(PART_LIMIT)
        .read_all_parts()
        .map(|parts| parts.into_iter().map(|p| (p.range, p.data)).collect())
        .map_err(|e| std::mem::discriminant(&e))
}

/// The scatter path — announce a range, read the payload into a buffer of
/// the caller's — over the body delivered in pieces through a `BufReader`
/// of `cap` bytes.
fn parts_scattered(wire: &[u8], boundary: &str, cuts: &[usize], cap: usize) -> Parts {
    let transport = Deliveries { wire, pos: 0, ends: delivery_ends(cuts, wire.len()) };
    let mut reader = MultipartReader::new(BufReader::with_capacity(cap, transport), boundary)
        .with_part_limit(PART_LIMIT);
    let mut parts = Vec::new();
    loop {
        match reader.next_range().map_err(|e| std::mem::discriminant(&e))? {
            None => return Ok(parts),
            Some(range) => {
                let mut data = vec![0xAA; range.len() as usize];
                reader.payload_into(&mut data).map_err(|e| std::mem::discriminant(&e))?;
                parts.push((range, data));
            }
        }
    }
}

fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,12}".prop_map(|s| s)
}

fn header_value() -> impl Strategy<Value = String> {
    "[!-~][ -~]{0,20}".prop_map(|s| s.trim().to_string())
}

proptest! {
    /// Any valid message — request or response; fixed, chunked (extensions
    /// and trailers) or close-delimited — decodes the same however it is
    /// split, and the cursor ends exactly at the next message.
    #[test]
    fn split_anywhere_decodes_like_unsplit(
        shape in (any::<bool>(), 0u8..3, any::<bool>()),
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..120), 0..6),
        headers in proptest::collection::vec((header_name(), header_value()), 0..5),
        cuts in proptest::collection::vec(0usize..4096, 0..12),
    ) {
        let (request, framing, extensions) = shape;
        let payload: Vec<u8> = chunks.concat();
        // Requests are never close-delimited.
        let framing = if request && framing == 2 { 0 } else { framing };
        let extra: Vec<(String, String)> = headers
            .into_iter()
            .filter(|(n, _)| !["content-length", "transfer-encoding", "connection"]
                .contains(&n.to_ascii_lowercase().as_str()))
            .collect();
        let mut fields = httpwire::HeaderMap::new();
        for (n, v) in &extra {
            fields.append(n, v);
        }
        let body_wire = match framing {
            0 => {
                fields.set("Content-Length", payload.len().to_string());
                payload.clone()
            }
            1 => {
                fields.set("Transfer-Encoding", "chunked");
                chunked_wire(&chunks, extensions, &extra)
            }
            _ => payload.clone(),
        };
        let mut wire = if request {
            let mut head = RequestHead::new(Method::Put, "/obj");
            head.headers = fields;
            head.to_bytes()
        } else {
            let mut head = ResponseHead::new(StatusCode::OK);
            head.headers = fields;
            head.to_bytes()
        };
        wire.extend_from_slice(&body_wire);
        let message_len = wire.len();
        let close_delimited = framing == 2;
        if !close_delimited {
            wire.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        }

        let whole = push_message(&wire, &[], request, close_delimited);
        let split = push_message(&wire, &cuts, request, close_delimited);
        prop_assert_eq!(&split, &whole);
        prop_assert_eq!(&whole.body, &payload);
        prop_assert_eq!(whole.end, message_len);
    }

    /// Scatter mode ≡ `read_all_parts`: a multipart body — intact, with a
    /// byte overwritten, or cut short — decodes to the same parts or the
    /// same kind of error whether payloads are allocated from the whole body
    /// or read into the caller's buffers from a body split anywhere.
    #[test]
    fn scatter_decodes_like_read_all_parts_however_the_body_is_split(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..150), 0..6),
        gap in 0u64..40,
        damage in proptest::option::of((0usize..4096, any::<u8>())),
        truncate_at in proptest::option::of(0usize..4096),
        cuts in proptest::collection::vec(0usize..4096, 0..12),
        cap in 1usize..96,
    ) {
        let mut ranges = Vec::new();
        let mut off = gap;
        for p in &payloads {
            let last = off + p.len() as u64 - 1;
            ranges.push(ContentRange { first: off, last, total: Some(1 << 20) });
            off = last + 1 + gap;
        }
        let mut w = MultipartWriter::new(Vec::new(), "SPLIT");
        for (r, p) in ranges.iter().zip(&payloads) {
            w.write_part("application/octet-stream", *r, p).unwrap();
        }
        let mut wire = w.finish().unwrap();
        let intact = damage.is_none() && truncate_at.is_none();
        if let Some((at, byte)) = damage {
            let at = at % wire.len();
            wire[at] = byte;
        }
        if let Some(t) = truncate_at {
            wire.truncate(t % (wire.len() + 1));
        }

        let whole = parts_at_once(&wire, "SPLIT");
        prop_assert_eq!(&parts_scattered(&wire, "SPLIT", &cuts, cap), &whole);
        prop_assert_eq!(&parts_scattered(&wire, "SPLIT", &[], 64 * 1024), &whole);
        if intact {
            let want: Vec<_> = ranges.into_iter().zip(payloads).collect();
            prop_assert_eq!(whole, Ok(want));
        }
    }

    /// Pull adapter ≡ push loop on arbitrary bytes drawn from the chunked
    /// alphabet: mostly malformed, sometimes valid, never a disagreement.
    #[test]
    fn pull_and_push_agree_on_chunk_soup(
        soup in "([0-9a-fA-F]{1,3}|\r\n|\r|\n|;x=y|\\+|-| |0\r\n|X: y\r\n|[g-z]{1,4}){0,40}",
        cuts in proptest::collection::vec(0usize..512, 0..8),
        cap in 1usize..40,
    ) {
        let wire = soup.as_bytes();
        let push = kind(push_body(BodyLen::Chunked, wire, &cuts, true));
        let pull = kind(pull_body(BodyLen::Chunked, wire, cap));
        prop_assert_eq!(&pull, &push);
        prop_assert_eq!(kind(push_body(BodyLen::Chunked, wire, &[], true)), push);
    }

    /// Pull adapter ≡ push loop on valid bodies of every framing, whole and
    /// truncated at any point.
    #[test]
    fn pull_and_push_agree_on_truncated_bodies(
        framing in 0u8..3,
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..90), 0..5),
        truncate_at in proptest::option::of(0usize..2048),
        cuts in proptest::collection::vec(0usize..2048, 0..8),
        cap in 1usize..64,
    ) {
        let payload: Vec<u8> = chunks.concat();
        let (len, mut wire) = match framing {
            0 => (BodyLen::Fixed(payload.len() as u64), payload.clone()),
            1 => (BodyLen::Chunked, chunked_wire(&chunks, true, &[("X-Sum".into(), "1".into())])),
            _ => (BodyLen::Close, payload.clone()),
        };
        if let Some(t) = truncate_at {
            wire.truncate(t % (wire.len() + 1));
        } else if len != BodyLen::Close {
            wire.extend_from_slice(b"NEXT");
        }
        let push = kind(push_body(len, &wire, &cuts, true));
        prop_assert_eq!(kind(pull_body(len, &wire, cap)), push.clone());
        if truncate_at.is_none() {
            let used = if len == BodyLen::Close { wire.len() } else { wire.len() - 4 };
            prop_assert_eq!(push, Ok((payload, used)));
        }
    }
}

/// Both adapters on one wire; they must agree, and the answer is returned.
fn both(wire: &[u8]) -> Result<(Vec<u8>, usize), &'static str> {
    let push = kind(push_body(BodyLen::Chunked, wire, &[1, 2, 3, 5, 8, 13, 21], true));
    assert_eq!(kind(pull_body(BodyLen::Chunked, wire, 16)), push);
    assert_eq!(kind(pull_body(BodyLen::Chunked, wire, 64 * 1024)), push);
    push
}

#[test]
fn chunk_sizes_are_hex_digits_only() {
    // `u64::from_str_radix` accepts a sign; the grammar does not.
    assert_eq!(both(b"+5\r\nhello\r\n0\r\n\r\n"), Err("BadChunk"));
    assert_eq!(both(b"-0\r\n\r\n"), Err("BadChunk"));
    assert_eq!(both(b"0x5\r\nhello\r\n0\r\n\r\n"), Err("BadChunk"));
    assert_eq!(both(b"\r\n0\r\n\r\n"), Err("BadChunk"));
    assert_eq!(both(b"11111111111111111\r\n"), Err("BadChunk"), "17 hex digits overflow u64");
    // Whitespace around the size and extensions after it stay legal.
    let spaced = b"5 ;ext=1\r\nhello\r\n0\r\n\r\n";
    assert_eq!(both(spaced), Ok((b"hello".to_vec(), spaced.len())));
    let bare_lf = b"A\nhelloworld\r\n0\n\n";
    assert_eq!(both(bare_lf), Ok((b"helloworld".to_vec(), bare_lf.len())));
}

#[test]
fn malformed_chunk_framing_is_a_typed_error() {
    assert_eq!(both(b"5\r\nhelloXX0\r\n\r\n"), Err("BadChunk"), "missing CRLF after chunk");
    assert_eq!(both(b"5\r\nhello\n0\r\n\r\n"), Err("BadChunk"), "bare LF after chunk data");
    assert_eq!(both(b"5\r\nhel"), Err("UnexpectedEof"), "EOF mid-chunk");
    assert_eq!(both(b"5\r\nhello\r"), Err("UnexpectedEof"), "EOF inside the chunk CRLF");
    assert_eq!(both(b"5\r\nhello\r\n0\r\nX: y\r\n"), Err("UnexpectedEof"), "EOF in trailers");
    assert_eq!(both(b""), Err("UnexpectedEof"));
}

#[test]
fn chunk_line_and_trailer_budgets_hold() {
    // A size line may be 1 KiB long, terminator included, and no longer.
    let line = |len: usize| {
        let mut w = b"5;".to_vec();
        w.resize(len - 2, b'x');
        w.extend_from_slice(b"\r\nhello\r\n0\r\n\r\n");
        w
    };
    assert_eq!(both(&line(MAX_CHUNK_LINE_BYTES)).map(|(b, _)| b), Ok(b"hello".to_vec()));
    assert_eq!(both(&line(MAX_CHUNK_LINE_BYTES + 1)), Err("BadChunk"));
    // An endless line is refused as soon as 1 KiB of it is buffered.
    assert_eq!(
        kind(push_body(BodyLen::Chunked, &[b'1'; MAX_CHUNK_LINE_BYTES], &[], false)),
        Err("BadChunk")
    );

    // Trailers: 8 KiB for the whole section, counted across lines.
    let trailers = |lines: usize| {
        let mut w = b"0\r\n".to_vec();
        for _ in 0..lines {
            w.extend_from_slice(b"X: y\r\n"); // 6 bytes each
        }
        w.extend_from_slice(b"\r\nNEXT");
        w
    };
    let fits = (MAX_TRAILER_BYTES - 2) / 6;
    assert_eq!(both(&trailers(fits)), Ok((Vec::new(), 3 + fits * 6 + 2)));
    assert_eq!(both(&trailers(fits + 1)), Err("BadChunk"));
    // A flood with no end in sight fails while it is still arriving.
    let flood = trailers(4 * fits);
    assert_eq!(
        kind(push_body(BodyLen::Chunked, &flood[..MAX_TRAILER_BYTES + 64], &[], false)),
        Err("BadChunk")
    );
}

#[test]
fn interim_responses_are_skipped_up_to_a_bound() {
    let wire = |interims: usize| {
        let mut w = b"HTTP/1.1 102 Processing\r\n\r\n".repeat(interims);
        w.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
        w
    };
    let status = |interims: usize, awaiting_continue: bool| {
        StartReader::new(&Method::Get, awaiting_continue)
            .read(&mut Cursor::new(wire(interims)))
            .map(|start| start.head.status.0)
            .map_err(|e| matches!(e, WireError::Protocol(_)))
    };
    for awaiting_continue in [false, true] {
        assert_eq!(status(0, awaiting_continue), Ok(200));
        assert_eq!(status(MAX_INTERIM_RESPONSES, awaiting_continue), Ok(200));
        assert_eq!(status(MAX_INTERIM_RESPONSES + 1, awaiting_continue), Err(true));
        assert_eq!(status(50 * MAX_INTERIM_RESPONSES, awaiting_continue), Err(true));
    }
}

/// A non-blocking stream with one byte ready at a time: every read that
/// follows a byte answers `WouldBlock`.
struct Trickle {
    wire: Vec<u8>,
    pos: usize,
    ready: bool,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Trickle {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if !std::mem::replace(&mut self.ready, true) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        Ok(&self.wire[self.pos..(self.pos + 1).min(self.wire.len())])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.ready = n == 0;
    }
}

#[test]
fn body_framing_resumes_after_every_would_block() {
    // Size lines (one with an extension) and trailers all straddle reads.
    let wire = b"5;ext=1\r\nhello\r\n1a\r\nabcdefghijklmnopqrstuvwxyz\r\n0\r\n\
                 X-Trailer: v\r\nX-Other: w\r\n\r\nNEXT";
    let blocking = BodyReader::new(&mut Cursor::new(&wire[..]), BodyLen::Chunked).read_all();
    let mut framing = BodyFraming::new(BodyLen::Chunked);
    let mut stream = Trickle { wire: wire.to_vec(), pos: 0, ready: false };
    let (mut body, mut buf) = (Vec::new(), [0u8; 64]);
    loop {
        match framing.read(&mut stream, &mut buf) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("after {} bytes: {e}", stream.pos),
        }
    }
    assert_eq!(body, blocking.unwrap());
    assert_eq!(&stream.wire[stream.pos..], b"NEXT", "stops at the message boundary");
}

#[test]
fn head_scan_resumes_and_bounds() {
    // One byte at a time: the answer appears exactly when the blank line
    // is complete, and a stray leading blank line is a block of its own.
    let wire = b"\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\nrest";
    let mut scan = HeadScan::default();
    let first = (0..=wire.len()).find_map(|n| scan.find(&wire[..n]).unwrap().map(|e| (n, e)));
    assert_eq!(first, Some((2, 2)));
    assert!(parse_request_head(&wire[..2]).unwrap().is_none());
    let wire = &wire[2..];
    let second = (0..=wire.len()).find_map(|n| scan.find(&wire[..n]).unwrap().map(|e| (n, e)));
    assert_eq!(second, Some((wire.len() - 4, wire.len() - 4)));
    assert_eq!(parse_request_head(&wire[..wire.len() - 4]).unwrap().unwrap().target, "/");
    // Bare-LF heads end too; a head that cannot end in 64 KiB is refused.
    assert_eq!(HeadScan::default().find(b"HTTP/1.1 200 OK\nA: b\n\nbody").unwrap(), Some(22));
    let endless = vec![b'a'; httpwire::codec::MAX_HEAD_BYTES];
    assert!(matches!(HeadScan::default().find(&endless), Err(WireError::HeadTooLarge(_))));
}
