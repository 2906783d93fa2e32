//! `multipart/byteranges` — the response body format for multi-range GETs
//! (RFC 7233 §4.1, Appendix A).
//!
//! This is the wire format behind the paper's vectored I/O (§2.3): davix
//! packs many fragment reads into one `Range` header, and the server answers
//! with one `206` whose body interleaves `Content-Range`-labelled parts.

use crate::codec::{head_text, header_field, line_len, lines, trim_eol, MAX_HEAD_BYTES};
use crate::parse::{read_head, read_item};
use crate::range::CONTENT_RANGE_MAX;
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
    /// `\r\n--boundary`: what both kinds of delimiter line start with.
    delimiter: Vec<u8>,
}

impl<W: Write> MultipartWriter<W> {
    /// Start a body using `boundary`.
    pub fn new(w: W, boundary: &str) -> Self {
        MultipartWriter { w, delimiter: format!("\r\n--{boundary}").into_bytes() }
    }

    /// Emit one part: delimiter, part headers, payload.
    pub fn write_part(
        &mut self,
        content_type: &str,
        range: ContentRange,
        data: &[u8],
    ) -> std::io::Result<()> {
        debug_assert_eq!(range.len(), data.len() as u64, "part length must match range");
        self.w.write_all(&self.delimiter)?;
        self.w.write_all(b"\r\nContent-Type: ")?;
        self.w.write_all(content_type.as_bytes())?;
        self.w.write_all(b"\r\nContent-Range: ")?;
        self.w.write_all(range.encode(&mut [0; CONTENT_RANGE_MAX]).as_bytes())?;
        self.w.write_all(b"\r\n\r\n")?;
        self.w.write_all(data)
    }

    /// Emit the closing delimiter and return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.write_all(&self.delimiter)?;
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
/// ways through a body: [`next_part`](Self::next_part) allocates each
/// payload; the scatter pair [`next_range`](Self::next_range) /
/// [`payload_into`](Self::payload_into) tells the caller where a part
/// belongs and reads it into the caller's own buffer, allocating nothing.
pub struct MultipartReader<R: BufRead> {
    r: R,
    /// `--boundary`, the delimiter line between parts.
    delimiter: Vec<u8>,
    done: bool,
    started: bool,
    /// Payload bytes of the part [`next_range`](Self::next_range) announced
    /// that [`payload_into`](Self::payload_into) has yet to take.
    pending: u64,
    max_part_len: Option<u64>,
}

/// What a line between parts turned out to be.
enum Line {
    /// `--boundary`: a part follows.
    Delimiter,
    /// `--boundary--`: the body is over.
    Close,
    Other,
}

/// Part-head errors are multipart errors, whatever the shared head parser
/// calls them; truncation and transport failures keep their own names.
fn part_error(e: WireError) -> WireError {
    match e {
        WireError::Io(_) | WireError::UnexpectedEof | WireError::BadMultipart(_) => e,
        other => WireError::BadMultipart(format!("bad part head: {other}")),
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

    /// Read one line, at most a head's worth of bytes long, and classify
    /// it. The body may end right after the closing delimiter, without a
    /// final CRLF.
    fn delimiter_line(&mut self) -> Result<Line, WireError> {
        let delimiter = &self.delimiter;
        read_item(&mut self.r, &mut Vec::new(), |buf, eof| {
            let len = match line_len(buf, MAX_HEAD_BYTES)? {
                Some(len) => len,
                None if eof && !buf.is_empty() => buf.len(),
                None => return Ok(None),
            };
            let line = match trim_eol(&buf[..len]).strip_prefix(&delimiter[..]) {
                Some(b"") => Line::Delimiter,
                Some(b"--") => Line::Close,
                _ => Line::Other,
            };
            Ok(Some((len, line)))
        })
        .map_err(part_error)?
        .ok_or(WireError::UnexpectedEof)
    }

    /// The `Content-Range` of a part head delimited by
    /// [`HeadScan`](crate::codec::HeadScan). Every line is held to the
    /// header-field grammar; nothing else of the head is kept.
    fn part_range(block: &[u8]) -> Result<ContentRange, WireError> {
        let mut range = None;
        for line in lines(head_text(block)?).take_while(|l| !l.is_empty()) {
            let (name, value) = header_field(line)?;
            if name.eq_ignore_ascii_case("content-range")
                && range.replace(ContentRange::parse(value)?).is_some()
            {
                // Two claims about where one payload belongs: no telling
                // which the server meant.
                return Err(WireError::BadMultipart("part with two Content-Range".to_string()));
            }
        }
        range.ok_or_else(|| WireError::BadMultipart("part without Content-Range".to_string()))
    }

    /// Scatter mode, first half: the range of the next part, or `None`
    /// after the closing delimiter. The part's payload must then be taken
    /// with [`payload_into`](Self::payload_into).
    pub fn next_range(&mut self) -> Result<Option<ContentRange>, WireError> {
        assert_eq!(self.pending, 0, "the previous part's payload was not read");
        if self.done {
            return Ok(None);
        }
        // Position on a delimiter line. Before the first part there may be a
        // preamble (we emit "\r\n" there; others may emit more).
        loop {
            match self.delimiter_line()? {
                Line::Close => {
                    self.done = true;
                    return Ok(None);
                }
                Line::Delimiter => break,
                Line::Other if self.started => {
                    return Err(WireError::BadMultipart(
                        "expected boundary after part payload".to_string(),
                    ));
                }
                Line::Other => {} // preamble line, skip
            }
        }
        self.started = true;

        let range = read_head(&mut self.r, &mut Default::default(), Self::part_range)
            .map_err(part_error)?
            .ok_or(WireError::UnexpectedEof)?;
        if let Some(cap) = self.max_part_len {
            if range.len() > cap {
                return Err(WireError::BadMultipart(format!(
                    "part Content-Range {range} declares {} bytes, over the {cap}-byte limit",
                    range.len()
                )));
            }
        }
        self.pending = range.len();
        Ok(Some(range))
    }

    /// Scatter mode, second half: read the announced part's payload into
    /// `buf`, which must be exactly as long as its range.
    pub fn payload_into(&mut self, buf: &mut [u8]) -> Result<(), WireError> {
        assert_eq!(buf.len() as u64, self.pending, "buffer must match the announced range");
        self.pending = 0;
        std::io::Read::read_exact(&mut self.r, buf).map_err(|_| WireError::UnexpectedEof)?;
        // The CRLF after the payload belongs to the next delimiter.
        let mut crlf = [0u8; 2];
        std::io::Read::read_exact(&mut self.r, &mut crlf).map_err(|_| WireError::UnexpectedEof)?;
        if &crlf != b"\r\n" {
            return Err(WireError::BadMultipart("payload not followed by CRLF".to_string()));
        }
        Ok(())
    }

    /// Next part, or `None` after the closing delimiter.
    pub fn next_part(&mut self) -> Result<Option<Part>, WireError> {
        let Some(range) = self.next_range()? else { return Ok(None) };
        let mut data = vec![0u8; range.len() as usize];
        self.payload_into(&mut data)?;
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
