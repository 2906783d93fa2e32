//! The HTTP/1.1 message grammar as a sans-IO codec: bytes in, events out.
//!
//! Nothing here reads, writes or owns a buffer. Callers hand in whatever
//! bytes they have and get back a description of what those bytes are, so
//! every function can be resumed at any byte boundary — the property a
//! non-blocking connection needs — and a blocking reader is just a loop
//! around the same calls (see [`crate::parse`]):
//!
//! * [`HeadScan`] finds the blank line that ends a head block;
//! * [`parse_request_head`] and [`parse_response_head`] turn one such block
//!   into a typed head (request heads, response heads and multipart part
//!   heads share the header-field grammar; a part head keeps one field of
//!   it, see [`crate::multipart`]);
//! * [`request_body_len`] / [`response_body_len`] apply RFC 7230 §3.3.3;
//! * [`BodyFrames`] walks a body's framing and *describes* it as
//!   [`Frame`]s — "skip n framing bytes", "the next n bytes are payload",
//!   "need more", "end" — leaving the copy (or the direct socket read) to
//!   the caller.
//!
//! The size limits below are the only ones in the tree: a peer cannot grow
//! a head, a chunk-size line or a trailer section past them on any path.

use crate::headers::is_token;
use crate::{HeaderMap, Method, RequestHead, ResponseHead, StatusCode, Version, WireError};

/// Upper bound on a message head (start line + headers), matching common
/// server defaults.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on one chunk-size line, terminator included.
pub const MAX_CHUNK_LINE_BYTES: usize = 1024;
/// Upper bound on a whole trailer section (all lines, terminators included).
pub const MAX_TRAILER_BYTES: usize = 8 * 1024;

/// A one in each byte of a word.
pub(crate) const ONES: u64 = 0x0101_0101_0101_0101;
/// The high bit of each byte of a word.
pub(crate) const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// `(x - 0x01…) & !x & 0x80…`: 0 when no byte of `x` is zero, and otherwise
/// its lowest set bit is the high bit of the first zero byte (a borrow may
/// set bits above it).
pub(crate) fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(ONES) & !x & HIGH_BITS
}

/// Index of the first `needle` in `hay`, looked for eight bytes at a time
/// (a byte of `word ^ needle×8` is zero where the word holds the needle:
/// [`zero_bytes`]), then one by one in what is left. Heads are searched for
/// line feeds several times over; a byte-at-a-time `position` was a third
/// of the cost of parsing one.
pub(crate) fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of 8")) ^ (ONES * needle as u64);
        let zero_bytes = zero_bytes(x);
        if zero_bytes != 0 {
            return Some(i * 8 + zero_bytes.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == needle).map(|i| hay.len() - tail.len() + i)
}

/// Length, terminator included, of the line at the start of `input`;
/// `None` while its LF has not arrived. A line that cannot end within
/// `budget` bytes is `HeadTooLarge(budget)`.
pub(crate) fn line_len(input: &[u8], budget: usize) -> Result<Option<usize>, WireError> {
    match find_byte(&input[..input.len().min(budget)], b'\n') {
        Some(nl) => Ok(Some(nl + 1)),
        None if input.len() >= budget => Err(WireError::HeadTooLarge(budget)),
        None => Ok(None),
    }
}

/// `line` without its CRLF (or bare LF) terminator.
pub(crate) fn trim_eol(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Resumable search for the end of a head block: the first blank line
/// (CRLF or bare LF). Call [`find`](HeadScan::find) with the same growing
/// buffer until it answers; bytes already scanned are not scanned again.
#[derive(Debug, Default)]
pub struct HeadScan {
    scanned: usize,
}

impl HeadScan {
    /// `Some(end)` when `buf[..end]` is a complete block (blank line
    /// included; a block may be *only* a blank line), `None` when more bytes
    /// are needed, [`WireError::HeadTooLarge`] when no block can end within
    /// [`MAX_HEAD_BYTES`].
    pub fn find(&mut self, buf: &[u8]) -> Result<Option<usize>, WireError> {
        let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
        let mut from = self.scanned.min(window.len());
        while let Some(nl) = find_byte(&window[from..], b'\n') {
            let end = from + nl + 1;
            let line = trim_eol(&window[..end]);
            if line.is_empty() || line.ends_with(b"\n") {
                self.scanned = 0;
                return Ok(Some(end));
            }
            from = end;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(WireError::HeadTooLarge(MAX_HEAD_BYTES));
        }
        self.scanned = from;
        Ok(None)
    }
}

/// The text of a head block.
pub(crate) fn head_text(block: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(block)
        .map_err(|_| WireError::BadHeader("non-UTF-8 bytes in message head".to_string()))
}

/// `text` on either side of its first `at`, an ASCII byte.
fn cut(text: &str, at: u8) -> Option<(&str, &str)> {
    let i = find_byte(text.as_bytes(), at)?;
    Some((&text[..i], &text[i + 1..]))
}

/// The lines of a head block's text, without their terminators (what is
/// left after the last line feed is a line too, as with `str::split`).
pub(crate) fn lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let text = rest?;
        let (line, tail) = cut(text, b'\n').map_or((text, None), |(l, t)| (l, Some(t)));
        rest = tail;
        Some(line.strip_suffix('\r').unwrap_or(line))
    })
}

/// One header field line as `(name, value)`, the name a token and the
/// value trimmed.
pub(crate) fn header_field(line: &str) -> Result<(&str, &str), WireError> {
    cut(line, b':')
        .filter(|(name, _)| is_token(name))
        .map(|(name, value)| (name, value.trim()))
        .ok_or_else(|| WireError::BadHeader(line.to_string()))
}

/// The head's fields, up to the blank line, copied once into a block
/// reserved to the size of `text`, the head it all came from.
fn header_fields<'a>(
    text: &str,
    lines: impl Iterator<Item = &'a str>,
) -> Result<HeaderMap, WireError> {
    // Few fields are shorter than `Accept: */*`; a head made of shorter ones
    // grows its index as any `Vec` does.
    let mut headers = HeaderMap::with_capacity(text.len(), text.len() / 16);
    for line in lines.take_while(|l| !l.is_empty()) {
        let (name, value) = header_field(line)?;
        headers.append(name, value);
    }
    Ok(headers)
}

/// Parse one request head as delimited by [`HeadScan`]. `Ok(None)` is a
/// stray blank line before the request line, which RFC 7230 §3.5 asks
/// servers to skip.
pub fn parse_request_head(block: &[u8]) -> Result<Option<RequestHead>, WireError> {
    let text = head_text(block)?;
    let mut lines = lines(text);
    let start = lines.next().unwrap_or("");
    if start.is_empty() {
        return Ok(None);
    }
    // Exactly two spaces: method, target, version.
    let (m, t, v) = cut(start, b' ')
        .and_then(|(m, rest)| cut(rest, b' ').map(|(t, v)| (m, t, v)))
        .filter(|(_, t, v)| !t.is_empty() && !v.contains(' '))
        .ok_or_else(|| WireError::BadStartLine(start.to_string()))?;
    let method: Method = m.parse()?;
    let version = Version::parse(v)?;
    let headers = header_fields(text, lines)?;
    Ok(Some(RequestHead { method, target: t.to_string(), version, headers }))
}

/// Parse one response head as delimited by [`HeadScan`].
pub fn parse_response_head(block: &[u8]) -> Result<ResponseHead, WireError> {
    let text = head_text(block)?;
    let mut lines = lines(text);
    let start = lines.next().unwrap_or("");
    // "HTTP/1.1 206 Partial Content" — the reason phrase may contain spaces
    // or be missing altogether ("HTTP/1.1 404").
    let bad = || WireError::BadStartLine(start.to_string());
    let mut parts = start.splitn(3, ' ');
    let version = Version::parse(parts.next().unwrap_or(""))?;
    let code: u16 = parts.next().and_then(|c| c.parse().ok()).ok_or_else(bad)?;
    if !(100..600).contains(&code) {
        return Err(bad());
    }
    let reason = parts.next().unwrap_or("").to_string();
    let headers = header_fields(text, lines)?;
    Ok(ResponseHead { version, status: StatusCode(code), reason, headers })
}

/// How a message body is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyLen {
    /// No body at all (HEAD responses, 204/304, bodyless requests).
    None,
    /// Exactly this many bytes.
    Fixed(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Body runs until the connection closes (HTTP/1.0 style responses).
    Close,
}

/// Body length of a request per RFC 7230 §3.3.3 (requests never use
/// read-to-close). A `Content-Length` that is not one plain number, said
/// once or said the same every time, is [`WireError::BadHeader`].
pub fn request_body_len(head: &RequestHead) -> Result<BodyLen, WireError> {
    if head.headers.is_chunked() {
        return Ok(BodyLen::Chunked);
    }
    Ok(match head.headers.content_length()? {
        None | Some(0) => BodyLen::None,
        Some(n) => BodyLen::Fixed(n),
    })
}

/// Body length of a response to `req_method` per RFC 7230 §3.3.3, under the
/// same `Content-Length` rule as [`request_body_len`].
pub fn response_body_len(req_method: &Method, head: &ResponseHead) -> Result<BodyLen, WireError> {
    let code = head.status.0;
    if *req_method == Method::Head || (100..200).contains(&code) || code == 204 || code == 304 {
        return Ok(BodyLen::None);
    }
    if head.headers.is_chunked() {
        return Ok(BodyLen::Chunked);
    }
    Ok(match head.headers.content_length()? {
        None => BodyLen::Close,
        Some(0) => BodyLen::None,
        Some(n) => BodyLen::Fixed(n),
    })
}

/// What the bytes at the decoder's cursor are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// The first `n` input bytes are framing (chunk-size line, chunk CRLF,
    /// trailer line): drop them. The decoder has already moved past them.
    Skip(usize),
    /// Up to `n` payload bytes come next (`u64::MAX` for a close-delimited
    /// body). Take any `k <= n` of them, from the input or straight from
    /// the transport, and report them with [`BodyFrames::advance`].
    Payload(u64),
    /// The input ends inside a framing line; call again with more bytes.
    NeedMore,
    /// The body is complete: the cursor is at the next message.
    End,
}

#[derive(Debug)]
enum BodyState {
    Fixed(u64),
    Close,
    ChunkSize,
    ChunkData(u64),
    /// Awaiting the CRLF that closes a chunk.
    ChunkEnd,
    /// In the trailer section, `used` bytes of its budget spent.
    Trailers {
        used: usize,
    },
    Done,
}

/// The body-framing state machine: `Content-Length`, chunked (extensions
/// and trailers skipped) and close-delimited bodies behind one
/// [`next`](BodyFrames::next) call.
#[derive(Debug)]
pub struct BodyFrames {
    state: BodyState,
}

fn bad_chunk(what: impl Into<String>) -> WireError {
    WireError::BadChunk(what.into())
}

/// The size on a chunk-size line: hex digits only (`from_str_radix` alone
/// would also take a sign), chunk extensions ignored.
fn parse_chunk_size(line: &[u8]) -> Result<u64, WireError> {
    let size = line.split(|&b| b == b';').next().unwrap_or(b"").trim_ascii();
    std::str::from_utf8(size)
        .ok()
        .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| {
            bad_chunk(format!("bad chunk size line {:?}", String::from_utf8_lossy(line)))
        })
}

impl BodyFrames {
    /// Start decoding a body of the given length.
    pub fn new(len: BodyLen) -> Self {
        let state = match len {
            BodyLen::None | BodyLen::Fixed(0) => BodyState::Done,
            BodyLen::Fixed(n) => BodyState::Fixed(n),
            BodyLen::Chunked => BodyState::ChunkSize,
            BodyLen::Close => BodyState::Close,
        };
        BodyFrames { state }
    }

    /// Whether the body is complete. Close-delimited bodies only get there
    /// through [`end_of_input`](Self::end_of_input).
    #[inline]
    pub fn is_done(&self) -> bool {
        matches!(self.state, BodyState::Done)
    }

    /// How many payload bytes may come next, when payload is what comes
    /// next: the [`Frame::Payload`] answer without a buffer to show. A
    /// blocking reader uses it to read payload straight from the transport
    /// and only buffer framing.
    #[inline]
    pub fn payload(&self) -> Option<u64> {
        match self.state {
            BodyState::Fixed(n) | BodyState::ChunkData(n) => Some(n),
            BodyState::Close => Some(u64::MAX),
            _ => None,
        }
    }

    /// Classify the bytes at the cursor. `input` is whatever is buffered
    /// from the cursor on and may be empty.
    pub fn next(&mut self, input: &[u8]) -> Result<Frame, WireError> {
        if let Some(n) = self.payload() {
            return Ok(Frame::Payload(n));
        }
        match self.state {
            BodyState::Fixed(_) | BodyState::ChunkData(_) | BodyState::Close => {
                unreachable!("payload states were answered above")
            }
            BodyState::Done => Ok(Frame::End),
            BodyState::ChunkSize => {
                let Some(len) = line_len(input, MAX_CHUNK_LINE_BYTES)
                    .map_err(|_| bad_chunk("chunk-size line over 1 KiB"))?
                else {
                    return Ok(Frame::NeedMore);
                };
                self.state = match parse_chunk_size(trim_eol(&input[..len]))? {
                    0 => BodyState::Trailers { used: 0 },
                    n => BodyState::ChunkData(n),
                };
                Ok(Frame::Skip(len))
            }
            BodyState::ChunkEnd => {
                if !b"\r\n".starts_with(&input[..input.len().min(2)]) {
                    return Err(bad_chunk("chunk not followed by CRLF"));
                }
                if input.len() < 2 {
                    return Ok(Frame::NeedMore);
                }
                self.state = BodyState::ChunkSize;
                Ok(Frame::Skip(2))
            }
            BodyState::Trailers { used } => {
                let Some(len) = line_len(input, MAX_TRAILER_BYTES - used)
                    .map_err(|_| bad_chunk("trailer section over 8 KiB"))?
                else {
                    return Ok(Frame::NeedMore);
                };
                self.state = if trim_eol(&input[..len]).is_empty() {
                    BodyState::Done
                } else {
                    BodyState::Trailers { used: used + len }
                };
                Ok(Frame::Skip(len))
            }
        }
    }

    /// Report `k` payload bytes taken after a [`Frame::Payload`].
    #[inline]
    pub fn advance(&mut self, k: u64) {
        self.state = match self.state {
            BodyState::Fixed(n) if n <= k => BodyState::Done,
            BodyState::Fixed(n) => BodyState::Fixed(n - k),
            BodyState::ChunkData(n) if n <= k => BodyState::ChunkEnd,
            BodyState::ChunkData(n) => BodyState::ChunkData(n - k),
            BodyState::Close => BodyState::Close,
            _ => unreachable!("advance() outside a payload frame"),
        };
    }

    /// The transport reached EOF at the cursor: that completes a
    /// close-delimited body and truncates any other.
    pub fn end_of_input(&mut self) -> Result<(), WireError> {
        match self.state {
            BodyState::Close | BodyState::Done => {
                self.state = BodyState::Done;
                Ok(())
            }
            _ => Err(WireError::UnexpectedEof),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_agrees_with_a_byte_loop() {
        // Every length and needle position around the word size, among
        // neighbours one bit away from the needle (0x0b after a 0x0a is
        // where the borrow of the zero-byte test lands) and with its high
        // bit set.
        for needle in [b'\n', b':', 0u8, 0xff] {
            for len in 0..40 {
                for at in 0..=len {
                    for filler in [needle ^ 1, needle ^ 0x80, needle.wrapping_add(1), b'x'] {
                        let mut hay = vec![filler; len];
                        if at < len {
                            hay[at] = needle;
                            if at + 9 < len {
                                hay[at + 9] = needle; // a later one is not the first
                            }
                        }
                        let want = hay.iter().position(|&b| b == needle);
                        assert_eq!(find_byte(&hay, needle), want, "{hay:?} / {needle:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn lines_are_what_str_split_gives() {
        for text in ["", "\n", "a", "a\r\nb\nc\r\n\r\n", "a\n\nb", "\r\n", "x\r"] {
            let want: Vec<&str> =
                text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l)).collect();
            assert_eq!(lines(text).collect::<Vec<_>>(), want, "{text:?}");
        }
    }
}
