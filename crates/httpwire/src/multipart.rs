//! `multipart/byteranges` — the response body format for multi-range GETs
//! (RFC 7233 §4.1, Appendix A).
//!
//! This is the wire format behind the paper's vectored I/O (§2.3): davix
//! packs many fragment reads into one `Range` header, and the server answers
//! with one `206` whose body interleaves `Content-Range`-labelled parts.

use crate::codec::{find_byte, head_text, header_field, line_len, trim_eol, MAX_HEAD_BYTES};
use crate::parse::read_item;
use crate::range::CONTENT_RANGE_DIGITS_MAX;
use crate::{ContentRange, WireError};
use std::io::{BufRead, Write};

/// The `Content-Type` a multi-range response must carry, minus the boundary
/// parameter.
pub const MULTIPART_BYTERANGES: &str = "multipart/byteranges";

/// Extract the `boundary` parameter from a `Content-Type` header value.
pub fn boundary_from_content_type(value: &str) -> Option<String> {
    let mut it = value.split(';');
    let mime = it.next()?.trim();
    if !mime.eq_ignore_ascii_case(MULTIPART_BYTERANGES) {
        return None;
    }
    for param in it {
        let (k, v) = param.split_once('=')?;
        if k.trim().eq_ignore_ascii_case("boundary") {
            let v = v.trim().trim_matches('"');
            if v.is_empty() {
                return None;
            }
            return Some(v.to_string());
        }
    }
    None
}

/// Serializer for a multipart/byteranges body.
///
/// The total body length is knowable up front (via [`MultipartWriter::part_overhead`]
/// and [`MultipartWriter::final_overhead`]), so servers can send
/// `Content-Length` instead of chunked encoding.
pub struct MultipartWriter<W: Write> {
    w: W,
    /// The head of the part written last: `\r\n--boundary`, then
    /// `\r\nContent-Type: {type}\r\nContent-Range: bytes `, then the
    /// range's digits and the blank line, then room for longer digits. From
    /// one part of a type to the next only the digits change; they are
    /// written in place and the head goes out in one piece.
    head: Vec<u8>,
    /// Length of `\r\n--boundary`, which the closing delimiter starts with
    /// too.
    delimiter: usize,
    /// Length of the text before the digits; 0 before the first part.
    constant: usize,
}

const TYPE_FIELD: &[u8] = b"\r\nContent-Type: ";
const RANGE_FIELD: &[u8] = b"\r\nContent-Range: bytes ";

impl<W: Write> MultipartWriter<W> {
    /// Start a body using `boundary`.
    pub fn new(w: W, boundary: &str) -> Self {
        let head = format!("\r\n--{boundary}").into_bytes();
        MultipartWriter { w, delimiter: head.len(), head, constant: 0 }
    }

    /// Emit one part: delimiter, part headers, payload.
    pub fn write_part(
        &mut self,
        content_type: &str,
        range: ContentRange,
        data: &[u8],
    ) -> std::io::Result<()> {
        debug_assert_eq!(range.len(), data.len() as u64, "part length must match range");
        let type_at = self.delimiter + TYPE_FIELD.len();
        let written_type = self.head.get(type_at..self.constant.saturating_sub(RANGE_FIELD.len()));
        if written_type != Some(content_type.as_bytes()) {
            self.head.truncate(self.delimiter);
            self.head.extend_from_slice(TYPE_FIELD);
            self.head.extend_from_slice(content_type.as_bytes());
            self.head.extend_from_slice(RANGE_FIELD);
            self.constant = self.head.len();
            self.head.resize(self.constant + CONTENT_RANGE_DIGITS_MAX + 4, 0);
        }
        let end = range.put_digits(&mut self.head, self.constant);
        self.head[end..end + 4].copy_from_slice(b"\r\n\r\n");
        self.w.write_all(&self.head[..end + 4])?;
        self.w.write_all(data)
    }

    /// Emit the closing delimiter and return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.write_all(&self.head[..self.delimiter])?;
        self.w.write_all(b"--\r\n")?;
        Ok(self.w)
    }

    /// Bytes of framing added per part *before* the payload, for a part with
    /// the given header values.
    pub fn part_overhead(boundary: &str, content_type: &str, range: ContentRange) -> u64 {
        // "\r\n--B\r\n" + "Content-Type: T\r\n" + "Content-Range: R\r\n\r\n"
        (4 + boundary.len()
            + 2
            + "Content-Type: ".len()
            + content_type.len()
            + 2
            + "Content-Range: ".len()
            + range.encoded_len()
            + 4) as u64
    }

    /// Bytes of the closing delimiter.
    pub fn final_overhead(boundary: &str) -> u64 {
        (4 + boundary.len() + 4) as u64
    }

    /// Exact body length of a multi-range response with the given parts.
    pub fn body_length(boundary: &str, content_type: &str, parts: &[ContentRange]) -> u64 {
        parts.iter().map(|r| Self::part_overhead(boundary, content_type, *r) + r.len()).sum::<u64>()
            + Self::final_overhead(boundary)
    }
}

/// One decoded part of a multipart/byteranges body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// The byte range this part covers.
    pub range: ContentRange,
    /// Payload bytes (exactly `range.len()` of them).
    pub data: Vec<u8>,
}

/// Streaming reader for multipart/byteranges bodies.
///
/// Relies on each part carrying a `Content-Range` header (mandatory for
/// byteranges) to read payloads exactly, then verifies the delimiter. Two
/// ways through a body: [`read_all_parts`](Self::read_all_parts)
/// allocates each payload; the scatter pair [`next_range`](Self::next_range) /
/// [`payload_pieces`](Self::payload_pieces) (or
/// [`payload_into`](Self::payload_into)) tells the caller where a part
/// belongs and hands its payload over as it sits in the source's buffer,
/// allocating nothing.
///
/// A part head is read one of two ways. One that repeats the last head
/// accepted but for its `Content-Range` digits — what [`MultipartWriter`]
/// writes from one part to the next — is matched where it lies in the
/// source's buffer with one comparison of the bytes around the digits and
/// one parse of the digits. Every other head, and one that straddles the
/// buffer's end, goes through the full scan (`PartHead`), so what is
/// accepted and every error are the same either way.
pub struct MultipartReader<R: BufRead> {
    r: R,
    /// `--boundary`, the delimiter line between parts.
    delimiter: Vec<u8>,
    done: bool,
    started: bool,
    /// Payload bytes of the part [`next_range`](Self::next_range) announced
    /// that [`payload_pieces`](Self::payload_pieces) has yet to take.
    pending: u64,
    max_part_len: Option<u64>,
    /// The bytes of a delimiter line and part head that straddle
    /// `fill_buf` windows, kept from one part to the next.
    carry: Vec<u8>,
    /// The last head the full scan accepted, to match the next against.
    last: LastHead,
}

/// A delimiter line and part head as the full scan accepted them, byte for
/// byte, and where the digits of their `Content-Range` value
/// (`first-last/total`, after `bytes `) lie in them.
#[derive(Default)]
struct LastHead {
    bytes: Vec<u8>,
    /// `None` when the value is more than `bytes ` and digits (white space
    /// inside it, say): nothing to match against then.
    digits: Option<(usize, usize)>,
}

/// The bytes a `first-last/total` value is made of.
fn is_digits_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'-' | b'/' | b'*')
}

impl LastHead {
    /// Keep `item`, a delimiter line and head the full scan accepted, with
    /// the digits at `digits`. A head so long that longer digits could take
    /// it past [`MAX_HEAD_BYTES`] is not kept: the full scan must be the one
    /// to refuse such a head.
    fn keep(&mut self, item: &[u8], digits: Option<(usize, usize)>) {
        self.digits = digits.filter(|_| item.len() + CONTENT_RANGE_DIGITS_MAX <= MAX_HEAD_BYTES);
        if self.digits.is_some() {
            self.bytes.clear();
            self.bytes.extend_from_slice(item);
        }
    }

    /// The length and range of the head at the start of `buf` when it is
    /// the kept one with other digits; `None` for any other bytes, or a head
    /// that runs past `buf`. The line of the digits reads `bytes ` and
    /// digits, then what followed the kept digits, which was white space to
    /// the line's end: so the value the full scan would parse is `bytes `
    /// and these digits, and every other line is one it accepted before.
    fn repeated(&self, buf: &[u8]) -> Option<(usize, ContentRange)> {
        let (from, to) = self.digits?;
        if !buf.starts_with(&self.bytes[..from]) {
            return None;
        }
        let rest = &buf[from..];
        let mut len = 0;
        while len < rest.len().min(CONTENT_RANGE_DIGITS_MAX) && is_digits_byte(rest[len]) {
            len += 1;
        }
        let tail = &self.bytes[to..];
        if !rest[len..].starts_with(tail) {
            return None;
        }
        let range = ContentRange::from_digits(&rest[..len])?;
        Some((from + len + tail.len(), range))
    }
}

/// What the bytes at a part boundary turned out to be.
enum Boundary {
    /// A line before the first delimiter: preamble, skipped.
    Preamble,
    /// `--boundary--`: the body is over.
    Close,
    /// `--boundary` and a part head: where the part's payload belongs, and
    /// where the digits of its `Content-Range` lie, counted from the
    /// delimiter line's first byte (see [`PartHead::digits`]).
    Part(ContentRange, Option<(usize, usize)>),
}

/// Part-head errors are multipart errors, whatever the shared head parser
/// calls them; truncation and transport failures keep their own names.
fn part_error(e: WireError) -> WireError {
    match e {
        WireError::Io(_) | WireError::UnexpectedEof | WireError::BadMultipart(_) => e,
        other => WireError::BadMultipart(format!("bad part head: {other}")),
    }
}

/// A delimiter line and the part head after it, read in one pass as their
/// bytes arrive: each line of the head is held to the header-field grammar
/// once, and `Content-Range` is parsed on the way. Nothing is reported
/// before the head is complete, and then in the order a parse of the whole
/// block reports it — a line that is not UTF-8 first, wherever it is, then
/// the first line that breaks the grammar, then a missing `Content-Range`
/// — so a head cut short is [`WireError::UnexpectedEof`], whatever its
/// lines say.
#[derive(Default)]
struct PartHead {
    /// Where the first line not yet checked starts, counted from the head's
    /// first byte.
    next: usize,
    range: Option<ContentRange>,
    /// Where the digits of the `Content-Range` value lie, counted from the
    /// head's first byte, when the value is `bytes ` and digits alone.
    digits: Option<(usize, usize)>,
    /// The error of the first line that is not UTF-8.
    non_utf8: Option<WireError>,
    /// The error of the first line that breaks the field grammar.
    error: Option<WireError>,
}

impl PartHead {
    /// What the line at the start of `buf` (and, after a delimiter, the head
    /// that follows it) is, with how many bytes it takes up; `None` until
    /// all of it is in. The body may end right after the closing delimiter,
    /// without a final CRLF.
    fn boundary(
        &mut self,
        delimiter: &[u8],
        started: bool,
        buf: &[u8],
        eof: bool,
    ) -> Result<Option<(usize, Boundary)>, WireError> {
        let line = match line_len(buf, MAX_HEAD_BYTES)? {
            Some(len) => len,
            None if eof && !buf.is_empty() => buf.len(),
            None => return Ok(None),
        };
        match trim_eol(&buf[..line]).strip_prefix(delimiter) {
            Some(b"") => {}
            Some(b"--") => return Ok(Some((line, Boundary::Close))),
            _ if started => {
                return Err(WireError::BadMultipart(
                    "expected boundary after part payload".to_string(),
                ))
            }
            _ => return Ok(Some((line, Boundary::Preamble))),
        }
        let Some(head) = self.scan(&buf[line..])? else { return Ok(None) };
        let range = match self.non_utf8.take().or_else(|| self.error.take()) {
            Some(e) => return Err(e),
            None => self
                .range
                .ok_or_else(|| WireError::BadMultipart("part without Content-Range".to_string()))?,
        };
        let digits = self.digits.map(|(from, to)| (line + from, line + to));
        Ok(Some((line + head, Boundary::Part(range, digits))))
    }

    /// Check the lines of `head` that are complete and not yet checked;
    /// `Some(len)` once the blank line that ends it is among them. A head
    /// that cannot end within [`MAX_HEAD_BYTES`] is `HeadTooLarge`, as
    /// [`HeadScan`](crate::codec::HeadScan) has it.
    fn scan(&mut self, head: &[u8]) -> Result<Option<usize>, WireError> {
        let window = &head[..head.len().min(MAX_HEAD_BYTES)];
        while let Some(nl) = find_byte(&window[self.next..], b'\n') {
            let at = self.next;
            let line = &window[at..at + nl];
            self.next += nl + 1;
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() {
                return Ok(Some(self.next));
            }
            match head_text(line) {
                Err(e) => {
                    self.non_utf8.get_or_insert(e);
                }
                Ok(line) if self.error.is_none() => self.error = self.field(line, at).err(),
                Ok(_) => {}
            }
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(WireError::HeadTooLarge(MAX_HEAD_BYTES));
        }
        Ok(None)
    }

    /// One header line of a part head, starting at `at`: only
    /// `Content-Range` is kept, but every line must be a field.
    fn field(&mut self, line: &str, at: usize) -> Result<(), WireError> {
        let (name, value) = header_field(line)?;
        if name.eq_ignore_ascii_case("content-range") {
            if self.range.replace(ContentRange::parse(value)?).is_some() {
                // Two claims about where one payload belongs: no telling
                // which the server meant.
                return Err(WireError::BadMultipart("part with two Content-Range".to_string()));
            }
            // `value` is a slice of `line`: its distance from the line's
            // start is where it starts.
            let value_at = at + (value.as_ptr() as usize - line.as_ptr() as usize);
            self.digits = value
                .strip_prefix("bytes ")
                .filter(|digits| digits.bytes().all(is_digits_byte))
                .map(|digits| (value_at + value.len() - digits.len(), value_at + value.len()));
        }
        Ok(())
    }
}

impl<R: BufRead> MultipartReader<R> {
    /// Decode the body available from `r` using `boundary`.
    pub fn new(r: R, boundary: &str) -> Self {
        MultipartReader {
            r,
            delimiter: format!("--{boundary}").into_bytes(),
            done: false,
            started: false,
            pending: 0,
            max_part_len: None,
            carry: Vec::new(),
            last: LastHead::default(),
        }
    }

    /// Refuse parts whose `Content-Range` declares more than `limit` bytes.
    /// Part payloads are allocated from the length the *server* claims; a
    /// client that knows how many bytes it asked for should cap it so a
    /// lying header cannot force an enormous allocation.
    pub fn with_part_limit(mut self, limit: u64) -> Self {
        self.max_part_len = Some(limit);
        self
    }

    /// Scatter mode, first half: the range of the next part, or `None`
    /// after the closing delimiter. The part's payload must then be taken
    /// with [`payload_pieces`](Self::payload_pieces) or
    /// [`payload_into`](Self::payload_into).
    ///
    /// The delimiter line and the part head are one item on the `BufRead`:
    /// looked at through `fill_buf` and consumed once, so the reads the
    /// source sees are those of a line read followed by a head read.
    pub fn next_range(&mut self) -> Result<Option<ContentRange>, WireError> {
        assert_eq!(self.pending, 0, "the previous part's payload was not read");
        // Before the first part there may be a preamble (we emit "\r\n"
        // there; others may emit more).
        while !self.done {
            let range = match self.repeated_head()? {
                Some(range) => range,
                None => match self.scanned_boundary()? {
                    Boundary::Preamble => continue,
                    Boundary::Close => {
                        self.done = true;
                        continue;
                    }
                    Boundary::Part(range, _) => range,
                },
            };
            self.started = true;
            if let Some(cap) = self.max_part_len {
                if range.len() > cap {
                    return Err(WireError::BadMultipart(format!(
                        "part Content-Range {range} declares {} bytes, over the {cap}-byte limit",
                        range.len()
                    )));
                }
            }
            self.pending = range.len();
            return Ok(Some(range));
        }
        Ok(None)
    }

    /// The range of the part head at the front of the source when it
    /// repeats the last one but for its digits, consumed; `None`, with
    /// nothing consumed, for anything else.
    fn repeated_head(&mut self) -> Result<Option<ContentRange>, WireError> {
        if self.last.digits.is_none() {
            return Ok(None);
        }
        let buf = self.r.fill_buf().map_err(|e| part_error(e.into()))?;
        let Some((len, range)) = self.last.repeated(buf) else { return Ok(None) };
        self.r.consume(len);
        Ok(Some(range))
    }

    /// The delimiter line (and part head) at the front of the source, by
    /// the full scan; a part head it accepts is kept to match the next
    /// against.
    fn scanned_boundary(&mut self) -> Result<Boundary, WireError> {
        let (delimiter, started, last) = (&self.delimiter[..], self.started, &mut self.last);
        let mut head = PartHead::default();
        read_item(&mut self.r, &mut self.carry, |buf, eof| {
            let found = head.boundary(delimiter, started, buf, eof)?;
            if let Some((len, Boundary::Part(_, digits))) = &found {
                last.keep(&buf[..*len], *digits);
            }
            Ok(found)
        })
        .map_err(part_error)?
        .ok_or(WireError::UnexpectedEof)
    }

    /// Scatter mode, second half: hand the announced part's payload to
    /// `put` in order, a piece at a time, each piece where it lies in the
    /// source's buffer — the one copy is the caller's.
    pub fn payload_pieces(&mut self, mut put: impl FnMut(&[u8])) -> Result<(), WireError> {
        let mut left = std::mem::take(&mut self.pending);
        while left > 0 {
            let buf = self.r.fill_buf().map_err(|_| WireError::UnexpectedEof)?;
            if buf.is_empty() {
                return Err(WireError::UnexpectedEof);
            }
            let n = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
            put(&buf[..n]);
            self.r.consume(n);
            left -= n as u64;
        }
        // The CRLF after the payload belongs to the next delimiter.
        let crlf = match self.r.fill_buf().map_err(|_| WireError::UnexpectedEof)? {
            &[a, b, ..] => {
                self.r.consume(2);
                [a, b]
            }
            _ => {
                let mut crlf = [0u8; 2];
                std::io::Read::read_exact(&mut self.r, &mut crlf)
                    .map_err(|_| WireError::UnexpectedEof)?;
                crlf
            }
        };
        if &crlf != b"\r\n" {
            return Err(WireError::BadMultipart("payload not followed by CRLF".to_string()));
        }
        Ok(())
    }

    /// Scatter mode, second half: read the announced part's payload into
    /// `buf`, which must be exactly as long as its range.
    pub fn payload_into(&mut self, buf: &mut [u8]) -> Result<(), WireError> {
        assert_eq!(buf.len() as u64, self.pending, "buffer must match the announced range");
        let mut at = 0;
        self.payload_pieces(|piece| {
            buf[at..at + piece.len()].copy_from_slice(piece);
            at += piece.len();
        })
    }

    /// Next part, or `None` after the closing delimiter.
    pub(crate) fn next_part(&mut self) -> Result<Option<Part>, WireError> {
        let Some(range) = self.next_range()? else { return Ok(None) };
        let mut data = Vec::with_capacity(range.len() as usize);
        self.payload_pieces(|piece| data.extend_from_slice(piece))?;
        Ok(Some(Part { range, data }))
    }

    /// Decode every part eagerly.
    pub fn read_all_parts(mut self) -> Result<Vec<Part>, WireError> {
        let mut parts = Vec::new();
        while let Some(p) = self.next_part()? {
            parts.push(p);
        }
        Ok(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const CT: &str = "application/octet-stream";

    fn build(parts: &[(u64, &[u8])], total: u64, boundary: &str) -> Vec<u8> {
        let mut w = MultipartWriter::new(Vec::new(), boundary);
        for (off, data) in parts {
            let range = ContentRange {
                first: *off,
                last: *off + data.len() as u64 - 1,
                total: Some(total),
            };
            w.write_part(CT, range, data).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_multiple_parts() {
        let body = build(&[(0, b"hello"), (100, b"world!"), (200, b"x")], 1000, "B0UND");
        let parts = MultipartReader::new(Cursor::new(body), "B0UND").read_all_parts().unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].data, b"hello");
        assert_eq!(parts[0].range, ContentRange { first: 0, last: 4, total: Some(1000) });
        assert_eq!(parts[1].data, b"world!");
        assert_eq!(parts[2].range.first, 200);
    }

    /// The head is kept from part to part and only its digits rewritten:
    /// a new type, or shorter digits after longer ones, must leave no trace
    /// of the part before.
    #[test]
    fn each_part_head_is_written_whole() {
        let mut w = MultipartWriter::new(Vec::new(), "B");
        let parts = [
            ("text/plain", 123_456u64, Some(1_000_000u64)),
            ("text/plain", 7, None),
            ("", 8, Some(9)),
            ("application/x-long-type-name", 0, Some(1)),
            ("text/plain", u64::MAX - 1, Some(u64::MAX)),
        ];
        let mut want = Vec::new();
        for (ct, first, total) in parts {
            let range = ContentRange { first, last: first, total };
            w.write_part(ct, range, b"x").unwrap();
            want.extend(
                format!("\r\n--B\r\nContent-Type: {ct}\r\nContent-Range: {range}\r\n\r\nx").bytes(),
            );
        }
        want.extend_from_slice(b"\r\n--B--\r\n");
        assert_eq!(
            String::from_utf8(w.finish().unwrap()).unwrap(),
            String::from_utf8(want).unwrap()
        );
    }

    #[test]
    fn body_length_formula_is_exact() {
        let parts = [(0u64, &b"hello"[..]), (50, b"worlds")];
        let ranges: Vec<ContentRange> = parts
            .iter()
            .map(|(off, d)| ContentRange {
                first: *off,
                last: *off + d.len() as u64 - 1,
                total: Some(100),
            })
            .collect();
        let body = build(&[(0, b"hello"), (50, b"worlds")], 100, "XYZ");
        assert_eq!(body.len() as u64, MultipartWriter::<Vec<u8>>::body_length("XYZ", CT, &ranges));
    }

    #[test]
    fn binary_payload_containing_boundary_text_survives() {
        // Because parts are length-delimited by Content-Range, payload bytes
        // that *look like* a boundary must not confuse the reader.
        let evil = b"\r\n--EVIL\r\nnot a real boundary";
        let body = build(&[(10, evil)], 100, "EVIL");
        let parts = MultipartReader::new(Cursor::new(body), "EVIL").read_all_parts().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].data, evil);
    }

    #[test]
    fn part_limit_rejects_oversized_declared_ranges() {
        // The payload allocation is sized by the *server's* Content-Range
        // claim; a capped reader must refuse before allocating.
        let body = build(&[(0, b"hello")], 100, "B");
        let err = MultipartReader::new(Cursor::new(body.clone()), "B")
            .with_part_limit(4)
            .read_all_parts()
            .unwrap_err();
        assert!(matches!(err, WireError::BadMultipart(_)));
        // At or under the limit decodes fine.
        let parts = MultipartReader::new(Cursor::new(body), "B")
            .with_part_limit(5)
            .read_all_parts()
            .unwrap();
        assert_eq!(parts[0].data, b"hello");
    }

    #[test]
    fn missing_content_range_is_error() {
        let body = b"\r\n--B\r\nContent-Type: text/plain\r\n\r\nabc\r\n--B--\r\n";
        let err =
            MultipartReader::new(Cursor::new(body.to_vec()), "B").read_all_parts().unwrap_err();
        assert!(matches!(err, WireError::BadMultipart(_)));
    }

    #[test]
    fn duplicated_content_range_is_error() {
        // Which of the two says where the payload belongs? Neither is used.
        for second in ["bytes 0-2/10", "bytes 4-6/10"] {
            let body = format!(
                "\r\n--B\r\nContent-Range: bytes 0-2/10\r\ncontent-range: {second}\r\n\r\nabc\r\n--B--\r\n"
            );
            let err = MultipartReader::new(Cursor::new(body.into_bytes()), "B")
                .read_all_parts()
                .unwrap_err();
            assert!(matches!(err, WireError::BadMultipart(_)), "{second}: {err}");
        }
    }

    #[test]
    fn part_head_lines_are_held_to_the_header_grammar() {
        // Only `Content-Range` is kept, but every line must be a field.
        for bad in ["no colon here", ": empty name", "bad name: x", "X-Bin: \u{FF}\u{FE}"] {
            let mut body = b"\r\n--B\r\nContent-Range: bytes 0-2/10\r\n".to_vec();
            body.extend(bad.chars().map(|c| c as u8));
            body.extend_from_slice(b"\r\n\r\nabc\r\n--B--\r\n");
            let err = MultipartReader::new(Cursor::new(body), "B").read_all_parts().unwrap_err();
            assert!(matches!(err, WireError::BadMultipart(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn scatter_reads_each_payload_into_the_buffer_it_is_given() {
        let body = build(&[(10, b"hello"), (100, b"world!")], 1000, "B");
        let mut r = MultipartReader::new(Cursor::new(body), "B").with_part_limit(6);
        let mut out = [[0u8; 6]; 2];
        let mut seen = Vec::new();
        while let Some(range) = r.next_range().unwrap() {
            let n = seen.len();
            r.payload_into(&mut out[n][..range.len() as usize]).unwrap();
            seen.push((range.first, range.len()));
        }
        assert_eq!(seen, [(10, 5), (100, 6)]);
        assert_eq!((&out[0][..5], &out[1][..]), (&b"hello"[..], &b"world!"[..]));
        assert!(r.next_range().unwrap().is_none(), "stays at the end");
    }

    #[test]
    fn truncated_part_is_eof() {
        let mut body = build(&[(0, b"hello")], 10, "B");
        body.truncate(body.len() - 20);
        let err = MultipartReader::new(Cursor::new(body), "B").read_all_parts().unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof));
    }

    /// Counts the bytes a reader hands out.
    struct Counted<R>(R, u64);

    impl<R: std::io::Read> std::io::Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1 += n as u64;
            Ok(n)
        }
    }

    #[test]
    fn endless_lines_are_refused_within_the_head_budget() {
        use std::io::{BufReader, Read};
        // A lying replica declares a huge body and never ends a line. The
        // reader must give up after a head's worth of bytes instead of
        // growing one `Vec` to the declared length.
        let flood = || std::io::repeat(b'a').take(64 << 20);
        let cases: [(&str, &[u8]); 2] = [
            ("part header line", b"\r\n--B\r\nContent-Range: bytes 0-4/10\r\nX-Pad: "),
            ("preamble line", b"\r\n"),
        ];
        for (what, prefix) in cases {
            let mut wire = BufReader::new(Counted(Cursor::new(prefix.to_vec()).chain(flood()), 0));
            let err = MultipartReader::new(&mut wire, "B").read_all_parts().unwrap_err();
            assert!(matches!(err, WireError::BadMultipart(_)), "{what}: {err}");
            let read = wire.get_ref().1;
            assert!(
                read <= 2 * MAX_HEAD_BYTES as u64,
                "{what}: read {read} bytes before giving up"
            );
        }
    }

    #[test]
    fn closing_delimiter_may_end_the_body_without_crlf() {
        let mut body = build(&[(0, b"hello")], 10, "B");
        body.truncate(body.len() - 2);
        let parts = MultipartReader::new(Cursor::new(body), "B").read_all_parts().unwrap();
        assert_eq!(parts[0].data, b"hello");
    }

    #[test]
    fn empty_body_with_close_delimiter_only() {
        let w = MultipartWriter::new(Vec::new(), "B");
        let body = w.finish().unwrap();
        let parts = MultipartReader::new(Cursor::new(body), "B").read_all_parts().unwrap();
        assert!(parts.is_empty());
    }

    #[test]
    fn boundary_extraction_from_content_type() {
        assert_eq!(
            boundary_from_content_type("multipart/byteranges; boundary=abc123"),
            Some("abc123".to_string())
        );
        assert_eq!(
            boundary_from_content_type("Multipart/Byteranges; boundary=\"q q\""),
            Some("q q".to_string())
        );
        assert_eq!(boundary_from_content_type("text/plain; boundary=x"), None);
        assert_eq!(boundary_from_content_type("multipart/byteranges"), None);
        assert_eq!(boundary_from_content_type("multipart/byteranges; boundary="), None);
    }
}
