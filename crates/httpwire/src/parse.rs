//! Adapters over the [`codec`](mod@crate::codec): message heads and body
//! framing pulled from any [`BufRead`].
//!
//! The grammar lives in the codec; what this module adds is the I/O
//! discipline — look at buffered bytes through `fill_buf`, consume exactly
//! what the codec accepted and not one byte more, so the reader always
//! stops at the message boundary (essential for keep-alive connections).
//! The client's two readers, [`StartReader`] and [`BodyFraming`], keep what
//! they have read of an item between calls, so they serve a non-blocking
//! reader (one that answers `WouldBlock`) as well as a blocking one.

use crate::codec::{self, BodyFrames, Frame, HeadScan};
use crate::{Method, RequestHead, ResponseHead, Version, WireError};
use std::io::{BufRead, Read, Write};

pub use crate::codec::{request_body_len, response_body_len, BodyLen, MAX_HEAD_BYTES};

/// Pull one item off the front of `r`. `item` looks at the buffered bytes
/// (and whether the stream ended right after them) and answers
/// `Some((bytes used, value))` or `None` for "incomplete"; only the used
/// bytes are consumed. An item that straddles `fill_buf` windows is held in
/// `carry`, which its own size limit bounds. `Ok(None)` is EOF before the
/// item's first byte.
///
/// The carry is the caller's, so an error from `fill_buf` — a non-blocking
/// reader's `WouldBlock` in the middle of an item — loses none of the
/// item's bytes: the next call with the same carry picks it up where this
/// one left off.
pub(crate) fn read_item<R: BufRead, T>(
    r: &mut R,
    carry: &mut Vec<u8>,
    mut item: impl FnMut(&[u8], bool) -> Result<Option<(usize, T)>, WireError>,
) -> Result<Option<T>, WireError> {
    loop {
        let held = carry.len();
        let avail = r.fill_buf()?;
        let fresh = avail.len();
        let window = if held == 0 {
            avail
        } else {
            carry.extend_from_slice(avail);
            &carry[..]
        };
        match item(window, fresh == 0)? {
            Some((used, value)) => {
                r.consume(used.saturating_sub(held));
                carry.clear();
                return Ok(Some(value));
            }
            None if fresh == 0 && held == 0 => return Ok(None),
            None if fresh == 0 => return Err(WireError::UnexpectedEof),
            None => {
                if held == 0 {
                    carry.extend_from_slice(avail);
                }
                r.consume(fresh);
            }
        }
    }
}

/// [`read_item`] for a head block: find its end, parse it in place. `head`
/// is what earlier calls read of it — its carry and how far its end has
/// been searched for — so a fresh `Default` one reads a head in one call.
pub(crate) fn read_head<R: BufRead, T>(
    r: &mut R,
    (carry, scan): &mut (Vec<u8>, HeadScan),
    parse: impl Fn(&[u8]) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    read_item(r, carry, |buf, _| match scan.find(buf)? {
        Some(end) => Ok(Some((end, parse(&buf[..end])?))),
        None => Ok(None),
    })
}

/// Read a request head. `Ok(None)` signals a clean EOF before the request
/// started (the peer closed an idle keep-alive connection).
pub fn read_request_head<R: BufRead>(r: &mut R) -> Result<Option<RequestHead>, WireError> {
    // Stray blank lines (RFC 7230 §3.5) cost two bytes each, so this many
    // of them have used up the head budget.
    for _ in 0..MAX_HEAD_BYTES / 2 {
        match read_head(r, &mut Default::default(), codec::parse_request_head)? {
            None => return Ok(None),
            Some(Some(head)) => return Ok(Some(head)),
            Some(None) => {}
        }
    }
    Err(WireError::HeadTooLarge(MAX_HEAD_BYTES))
}

/// Read a response head. EOF before the status line is an error (the client
/// was expecting a response).
pub fn read_response_head<R: BufRead>(r: &mut R) -> Result<ResponseHead, WireError> {
    read_head(r, &mut Default::default(), codec::parse_response_head)?
        .ok_or(WireError::UnexpectedEof)
}

/// The start of a response: everything a client needs to decide how to
/// read the body and what to do with the connection after it.
#[derive(Debug)]
pub struct ResponseStart {
    /// Status line + headers.
    pub head: ResponseHead,
    /// How the body that follows is delimited.
    pub body: BodyLen,
    /// Whether the connection can carry another request once the body has
    /// been read: the response allows keep-alive and its body has an end
    /// other than the connection closing.
    pub reusable: bool,
}

/// Most interim (1xx) responses skipped ahead of one final response. Each
/// head read restarts the caller's I/O timeout, so without a cap a peer
/// streaming `102 Processing` holds the client forever without an error.
pub const MAX_INTERIM_RESPONSES: usize = 16;

/// Reads response heads up to the final one, skipping interim 1xx
/// responses (`102 Processing`, `103 Early Hints`, a late `100 Continue`) —
/// at most [`MAX_INTERIM_RESPONSES`] of them, then [`WireError::Protocol`].
///
/// Resumable: everything it has learnt — the head bytes that straddle
/// `fill_buf` windows, how far the head's end has been searched for, the
/// interims seen — lives in the reader, not in a call. A reader that would
/// block returns its `WouldBlock` as [`WireError::Io`], and calling
/// [`read`](Self::read) again once bytes have arrived goes on from there; a
/// blocking reader gets its answer from one call.
#[derive(Debug)]
pub struct StartReader {
    method: Method,
    awaiting_continue: bool,
    /// What has been read of the head in hand, for [`read_head`].
    head: (Vec<u8>, HeadScan),
    interims: usize,
}

impl StartReader {
    /// Read the start of the response to a `method` request.
    /// `awaiting_continue` is for a caller that sent `Expect: 100-continue`
    /// and is holding its body back: a `100 Continue` is then the answer it
    /// waits for and is returned instead of skipped.
    pub fn new(method: &Method, awaiting_continue: bool) -> Self {
        StartReader {
            method: method.clone(),
            awaiting_continue,
            head: Default::default(),
            interims: 0,
        }
    }

    /// Go on reading from `r`. EOF before the status line is an error (the
    /// caller was expecting a response).
    pub fn read<R: BufRead>(&mut self, r: &mut R) -> Result<ResponseStart, WireError> {
        loop {
            let head = read_head(r, &mut self.head, codec::parse_response_head)?
                .ok_or(WireError::UnexpectedEof)?;
            if !head.status.is_informational() || (self.awaiting_continue && head.status.0 == 100) {
                let body = response_body_len(&self.method, &head)?;
                let reusable = head.headers.keep_alive(head.version == Version::Http11)
                    && body != BodyLen::Close;
                return Ok(ResponseStart { head, body, reusable });
            }
            self.interims += 1;
            if self.interims > MAX_INTERIM_RESPONSES {
                return Err(WireError::Protocol(
                    "too many interim (1xx) responses before a final one".into(),
                ));
            }
        }
    }
}

/// The body-framing state machine, decoupled from any particular reader.
///
/// Each [`read`](BodyFraming::read) call pulls from whatever `BufRead` the
/// caller hands in, enforcing the message framing and stopping exactly at
/// the message boundary so the stream stays positioned at the next message
/// (essential for keep-alive connections). Holding the state *by value*
/// lets an owner of the underlying stream (e.g. a pooled session wrapped in
/// a streaming response) drive the framing without a self-referential
/// borrow; [`BodyReader`] remains the one-shot borrowing convenience.
pub struct BodyFraming {
    decoder: BodyFrames,
    /// A framing line (chunk size, trailer) split across reads.
    carry: Vec<u8>,
}

impl BodyFraming {
    /// Start framing a body of the given length.
    pub fn new(len: BodyLen) -> Self {
        BodyFraming { decoder: BodyFrames::new(len), carry: Vec::new() }
    }

    /// Whether the body has been fully consumed (the underlying stream is
    /// positioned at the next message). `Close`-delimited bodies only reach
    /// this state once a read observes EOF.
    pub fn is_done(&self) -> bool {
        self.decoder.is_done()
    }

    /// Read body bytes from `inner` into `buf`, honouring the framing.
    /// `Ok(0)` (for non-empty `buf`) means the body is complete. A
    /// `WouldBlock` from `inner` costs no framing byte: a chunk-size or
    /// trailer line that straddles it is carried to the next call.
    ///
    /// Only framing bytes go through `inner`'s buffer; payload is read
    /// straight into `buf`, so a large read bypasses a `BufReader`.
    pub fn read<R: BufRead>(&mut self, inner: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            if let Some(n) = self.decoder.payload() {
                let want = buf.len().min(usize::try_from(n).unwrap_or(usize::MAX));
                let got = inner.read(&mut buf[..want])?;
                if got == 0 {
                    self.decoder.end_of_input()?;
                } else {
                    self.decoder.advance(got as u64);
                }
                return Ok(got);
            }
            if self.decoder.is_done() {
                return Ok(0);
            }
            let decoder = &mut self.decoder;
            read_item(inner, &mut self.carry, |framing, _| match decoder.next(framing)? {
                Frame::Skip(n) => Ok(Some((n, ()))),
                _ => Ok(None),
            })?
            .ok_or(WireError::UnexpectedEof)?;
        }
    }
}

/// Convert a framing-read error back into the [`WireError`] it started as.
pub(crate) fn wire_error_from_io(e: std::io::Error) -> WireError {
    match e.downcast::<WireError>() {
        Ok(wire) => wire,
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => WireError::UnexpectedEof,
        Err(e) => WireError::Io(e),
    }
}

/// A body reader that borrows a stream and enforces the message framing
/// (see [`BodyFraming`] for the state machine and boundary guarantees).
pub struct BodyReader<'a, R: BufRead> {
    inner: &'a mut R,
    framing: BodyFraming,
}

impl<'a, R: BufRead> BodyReader<'a, R> {
    /// Wrap `inner` for a body of the given length.
    pub fn new(inner: &'a mut R, len: BodyLen) -> Self {
        BodyReader { inner, framing: BodyFraming::new(len) }
    }

    /// Whether the body has been fully consumed.
    pub fn is_done(&self) -> bool {
        self.framing.is_done()
    }

    /// Read the whole body into a `Vec`.
    pub fn read_all(mut self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        Read::read_to_end(&mut self, &mut out).map_err(wire_error_from_io)?;
        Ok(out)
    }

    /// Consume and discard the rest of the body (so the connection can be
    /// reused). Returns the number of bytes drained.
    pub fn drain(mut self) -> Result<u64, WireError> {
        let mut sink = [0u8; 8192];
        let mut total = 0u64;
        loop {
            match Read::read(&mut self, &mut sink) {
                Ok(0) => return Ok(total),
                Ok(n) => total += n as u64,
                Err(e) => return Err(wire_error_from_io(e)),
            }
        }
    }
}

impl<R: BufRead> Read for BodyReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.framing.read(self.inner, buf)
    }
}

/// Writes a body using chunked transfer encoding. Call [`finish`] to emit the
/// terminating zero chunk.
///
/// [`finish`]: ChunkedWriter::finish
pub struct ChunkedWriter<W: Write> {
    w: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Wrap a sink.
    pub fn new(w: W) -> Self {
        ChunkedWriter { w, finished: false }
    }

    /// Emit the last-chunk marker and (empty) trailer section, returning the
    /// underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.finished = true;
        Ok(self.w)
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // One chunk per write call: header, payload, CRLF.
        let mut head = [0u8; 18];
        let mut cursor = std::io::Cursor::new(&mut head[..]);
        write!(cursor, "{:x}\r\n", buf.len())?;
        let n = cursor.position() as usize;
        self.w.write_all(&head[..n])?;
        self.w.write_all(buf)?;
        self.w.write_all(b"\r\n")?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatusCode;
    use std::io::Cursor;

    fn req(s: &str) -> Result<Option<RequestHead>, WireError> {
        read_request_head(&mut Cursor::new(s.as_bytes().to_vec()))
    }

    #[test]
    fn parse_simple_request() {
        let r = req("GET /x?q=1 HTTP/1.1\r\nHost: h\r\nRange: bytes=0-9\r\n\r\n").unwrap().unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path(), "/x");
        assert_eq!(r.query(), Some("q=1"));
        assert_eq!(r.headers.get("host"), Some("h"));
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(req("").unwrap().is_none());
    }

    #[test]
    fn leading_blank_line_is_tolerated() {
        let r = req("\r\nGET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(r.method, Method::Get);
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(req("GET /\r\n\r\n").is_err());
        assert!(req("GET / HTTP/1.1 extra\r\n\r\n").is_err());
        assert!(req("GET / HTTP/3.0\r\n\r\n").is_err());
        assert!(req("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").is_err());
        assert!(req("GET / HTTP/1.1\r\nBad Header: x\r\n\r\n").is_err());
    }

    #[test]
    fn a_parsed_head_reserialises_to_canonical_lines() {
        // Odd spacing, a bare LF and a bare CR inside a value: one block
        // of `Name: value\r\n` lines comes out, the CR a space.
        let r = req("GET /t HTTP/1.1\r\nA:1\r\nB:   2  \nLocation: /x\rX-Evil: 1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.target, "/t");
        assert_eq!(r.headers.len(), 3);
        assert_eq!(r.headers.get("location"), Some("/x X-Evil: 1"));
        assert_eq!(
            String::from_utf8(r.to_bytes()).unwrap(),
            "GET /t HTTP/1.1\r\nA: 1\r\nB: 2\r\nLocation: /x X-Evil: 1\r\n\r\n"
        );
    }

    #[test]
    fn truncated_head_is_unexpected_eof() {
        let e = req("GET / HTTP/1.1\r\nHost: h").unwrap_err();
        assert!(matches!(e, WireError::UnexpectedEof));
    }

    #[test]
    fn parse_response_with_spaced_reason() {
        let mut c =
            Cursor::new(b"HTTP/1.1 206 Partial Content\r\nContent-Length: 3\r\n\r\nabc".to_vec());
        let r = read_response_head(&mut c).unwrap();
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(r.reason, "Partial Content");
        assert_eq!(r.headers.content_length().unwrap(), Some(3));
    }

    #[test]
    fn parse_response_without_reason() {
        let mut c = Cursor::new(b"HTTP/1.1 404\r\n\r\n".to_vec());
        // The bare form "HTTP/1.1 404" lacks the trailing space; accept it.
        let r = read_response_head(&mut c).unwrap();
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        assert_eq!(r.reason, "");
    }

    #[test]
    fn body_len_rules_for_responses() {
        let mk = |status: u16, cl: Option<&str>, te: Option<&str>| {
            let mut h = ResponseHead::new(StatusCode(status));
            if let Some(cl) = cl {
                h.headers.set("Content-Length", cl);
            }
            if let Some(te) = te {
                h.headers.set("Transfer-Encoding", te);
            }
            h
        };
        let len = |m: Method, head: ResponseHead| response_body_len(&m, &head).unwrap();
        assert_eq!(len(Method::Head, mk(200, Some("10"), None)), BodyLen::None);
        assert_eq!(len(Method::Get, mk(204, None, None)), BodyLen::None);
        assert_eq!(len(Method::Get, mk(304, Some("9"), None)), BodyLen::None);
        assert_eq!(len(Method::Get, mk(200, Some("10"), None)), BodyLen::Fixed(10));
        assert_eq!(len(Method::Get, mk(200, None, Some("chunked"))), BodyLen::Chunked);
        assert_eq!(len(Method::Get, mk(200, None, None)), BodyLen::Close);
    }

    #[test]
    fn a_content_length_both_ends_cannot_agree_on_is_refused_by_both() {
        // (`Content-Length` fields as they stand on the wire, the length they
        // declare — `None`: no two parties would frame this alike).
        let rows: [(&[&str], Option<u64>); 9] = [
            (&["5"], Some(5)),
            (&[" 5 "], Some(5)),
            (&["5, 5"], Some(5)),
            (&["5", "5"], Some(5)),
            (&["+5"], None),
            (&["5, 6"], None),
            (&["5", "50"], None),
            (&["0x5"], None),
            (&[""], None),
        ];
        for (fields, want) in rows {
            let lines: String = fields.iter().map(|f| format!("Content-Length:{f}\r\n")).collect();
            let request = format!("PUT /x HTTP/1.1\r\n{lines}\r\n");
            let head = read_request_head(&mut Cursor::new(request)).unwrap().unwrap();
            let response = format!("HTTP/1.1 200 OK\r\n{lines}\r\n");
            let start = StartReader::new(&Method::Get, false).read(&mut Cursor::new(response));
            match want {
                Some(n) => {
                    assert_eq!(request_body_len(&head).unwrap(), BodyLen::Fixed(n), "{fields:?}");
                    assert_eq!(start.unwrap().body, BodyLen::Fixed(n), "{fields:?}");
                }
                None => {
                    let e = request_body_len(&head).unwrap_err();
                    assert!(matches!(e, WireError::BadHeader(_)), "{fields:?}: {e}");
                    let e = start.unwrap_err();
                    assert!(matches!(e, WireError::BadHeader(_)), "{fields:?}: {e}");
                }
            }
        }
    }

    #[test]
    fn body_len_rules_for_requests() {
        let mut r = RequestHead::new(Method::Put, "/x");
        assert_eq!(request_body_len(&r).unwrap(), BodyLen::None);
        r.headers.set("Content-Length", "5");
        assert_eq!(request_body_len(&r).unwrap(), BodyLen::Fixed(5));
        r.headers.set("Content-Length", "bogus");
        assert!(request_body_len(&r).is_err());
        r.headers.remove("Content-Length");
        r.headers.set("Transfer-Encoding", "chunked");
        assert_eq!(request_body_len(&r).unwrap(), BodyLen::Chunked);
    }

    #[test]
    fn fixed_body_reader_stops_at_boundary() {
        let mut c = Cursor::new(b"hellorest".to_vec());
        let body = BodyReader::new(&mut c, BodyLen::Fixed(5)).read_all().unwrap();
        assert_eq!(body, b"hello");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"rest");
    }

    #[test]
    fn fixed_body_truncated_is_error() {
        let mut c = Cursor::new(b"he".to_vec());
        let err = BodyReader::new(&mut c, BodyLen::Fixed(5)).read_all().unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof));
    }

    #[test]
    fn chunked_roundtrip() {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::new(&mut wire);
            w.write_all(b"hello ").unwrap();
            w.write_all(b"world").unwrap();
            w.finish().unwrap();
        }
        let mut c = Cursor::new(wire);
        let body = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        assert_eq!(body, b"hello world");
    }

    #[test]
    fn chunked_with_extensions_and_trailers() {
        let wire = b"5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\nNEXT";
        let mut c = Cursor::new(wire.to_vec());
        let body = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        assert_eq!(body, b"hello");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"NEXT", "reader must stop exactly after the trailer section");
    }

    #[test]
    fn chunked_bad_size_is_error() {
        let mut c = Cursor::new(b"zz\r\nhello\r\n0\r\n\r\n".to_vec());
        assert!(BodyReader::new(&mut c, BodyLen::Chunked).read_all().is_err());
    }

    #[test]
    fn chunked_missing_crlf_is_error() {
        let mut c = Cursor::new(b"5\r\nhelloXX0\r\n\r\n".to_vec());
        assert!(BodyReader::new(&mut c, BodyLen::Chunked).read_all().is_err());
    }

    #[test]
    fn close_delimited_reads_to_eof() {
        let mut c = Cursor::new(b"everything".to_vec());
        let body = BodyReader::new(&mut c, BodyLen::Close).read_all().unwrap();
        assert_eq!(body, b"everything");
    }

    #[test]
    fn drain_discards_remaining() {
        let mut c = Cursor::new(b"0123456789AFTER".to_vec());
        let drained = BodyReader::new(&mut c, BodyLen::Fixed(10)).drain().unwrap();
        assert_eq!(drained, 10);
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"AFTER");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut s = String::from("GET / HTTP/1.1\r\n");
        for i in 0..8000 {
            s.push_str(&format!("X-Header-{i}: {}\r\n", "v".repeat(32)));
        }
        s.push_str("\r\n");
        assert!(matches!(req(&s), Err(WireError::HeadTooLarge(_))));
    }
}
