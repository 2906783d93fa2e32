//! Streaming *request* bodies: the write-side counterpart of
//! [`BodyFraming`](crate::parse::BodyFraming).
//!
//! A [`BodySource`] wraps any [`Read`] plus an optional known length and
//! knows how to put itself on the wire:
//!
//! * **known length** → the body travels verbatim and the request carries
//!   `Content-Length` (the fast path every HTTP/1.0-era server accepts);
//! * **unknown length** → the body is framed with
//!   `Transfer-Encoding: chunked` (HTTP/1.1 §3.3.1), one chunk per source
//!   read, so a pipe or a compressor can be uploaded without ever learning
//!   its size up front.
//!
//! Nothing proportional to the body is buffered: bytes move from the source
//! to the sink through one fixed scratch buffer.

use crate::message::HeadWriter;
use crate::parse::ChunkedWriter;
use std::io::{self, Read, Write};

/// Scratch-buffer size for source→wire copies (also the chunk size of
/// chunked-encoded bodies: one chunk per full scratch read).
const COPY_BUF: usize = 16 * 1024;

/// A request body ready to be streamed to the wire exactly once.
///
/// Retry/redirect logic that needs to *replay* a body builds a fresh
/// `BodySource` per attempt (see `davix`'s `BodyProvider`); the source
/// itself is deliberately one-shot.
pub struct BodySource<'a> {
    reader: Box<dyn Read + Send + 'a>,
    len: Option<u64>,
}

impl std::fmt::Debug for BodySource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BodySource").field("len", &self.len).finish_non_exhaustive()
    }
}

impl<'a> BodySource<'a> {
    /// A body of exactly `len` bytes, sent with `Content-Length` framing.
    /// The reader must yield at least `len` bytes; anything beyond is left
    /// unread.
    pub fn sized(reader: impl Read + Send + 'a, len: u64) -> Self {
        BodySource { reader: Box::new(reader), len: Some(len) }
    }

    /// A body of unknown length, sent with `Transfer-Encoding: chunked`.
    pub fn chunked(reader: impl Read + Send + 'a) -> Self {
        BodySource { reader: Box::new(reader), len: None }
    }

    /// A body borrowed from a byte slice (sized).
    pub fn from_slice(data: &'a [u8]) -> Self {
        Self::sized(io::Cursor::new(data), data.len() as u64)
    }

    /// The declared length, when known.
    pub fn len(&self) -> Option<u64> {
        self.len
    }

    /// Whether the body is known to be empty.
    pub fn is_empty(&self) -> bool {
        self.len == Some(0)
    }

    /// Write the framing field this body will be sent with: `Content-Length`
    /// when the length is known, `Transfer-Encoding: chunked` otherwise. The
    /// head must not carry either field from anywhere else.
    pub fn write_framing(&self, head: &mut HeadWriter<'_>) {
        match self.len {
            Some(n) => head.field_fmt("Content-Length", format_args!("{n}")),
            None => head.field("Transfer-Encoding", "chunked"),
        };
    }

    /// Stream the whole body into `w` with the framing
    /// [`write_framing`](Self::write_framing) declared, consuming the
    /// source. Returns the number of *payload* bytes written (excluding
    /// chunk framing).
    ///
    /// A sized source that ends before `len` bytes fails with
    /// [`io::ErrorKind::InvalidData`] — the request head already promised
    /// `Content-Length` bytes, so the connection is unsalvageable and the
    /// caller must not retry with the same source.
    pub fn write_to(mut self, w: &mut (impl Write + ?Sized)) -> io::Result<u64> {
        match self.len {
            Some(len) => {
                let mut buf = [0u8; COPY_BUF];
                let mut left = len;
                while left > 0 {
                    let want = buf.len().min(left as usize);
                    let n = self.reader.read(&mut buf[..want])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("request body source ended {left} bytes short of {len}"),
                        ));
                    }
                    w.write_all(&buf[..n])?;
                    left -= n as u64;
                }
                w.flush()?;
                Ok(len)
            }
            None => {
                let mut cw = ChunkedWriter::new(w);
                let mut buf = [0u8; COPY_BUF];
                let mut total = 0u64;
                loop {
                    let n = self.reader.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    cw.write_all(&buf[..n])?;
                    total += n as u64;
                }
                let w = cw.finish()?;
                w.flush()?;
                Ok(total)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{BodyLen, BodyReader};
    use crate::{Method, Version};
    use std::io::Cursor;

    /// What `write_framing` adds to a head.
    fn framing_of(src: &BodySource<'_>) -> String {
        let mut wire = Vec::new();
        let mut head = HeadWriter::request(&mut wire, &Method::Put, "/", None, Version::Http11);
        src.write_framing(&mut head);
        String::from_utf8(wire).unwrap().split_once("\r\n").unwrap().1.to_string()
    }

    #[test]
    fn sized_body_framing_and_emission() {
        let src = BodySource::from_slice(b"hello world");
        assert_eq!(framing_of(&src), "Content-Length: 11\r\n");
        let mut wire = Vec::new();
        assert_eq!(src.write_to(&mut wire).unwrap(), 11);
        assert_eq!(wire, b"hello world");
    }

    #[test]
    fn sized_body_stops_at_declared_length() {
        let src = BodySource::sized(Cursor::new(b"0123456789".to_vec()), 4);
        let mut wire = Vec::new();
        assert_eq!(src.write_to(&mut wire).unwrap(), 4);
        assert_eq!(wire, b"0123");
    }

    #[test]
    fn short_sized_source_is_invalid_data() {
        let src = BodySource::sized(Cursor::new(b"ab".to_vec()), 5);
        let err = src.write_to(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn chunked_body_roundtrips_through_body_reader() {
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        let src = BodySource::chunked(Cursor::new(payload.clone()));
        assert_eq!(framing_of(&src), "Transfer-Encoding: chunked\r\n");
        let mut wire = Vec::new();
        assert_eq!(src.write_to(&mut wire).unwrap(), payload.len() as u64);
        // The receiver's framing machine must recover the exact payload.
        let mut c = Cursor::new(wire);
        let got = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_bodies_both_framings() {
        let mut wire = Vec::new();
        assert_eq!(BodySource::from_slice(b"").write_to(&mut wire).unwrap(), 0);
        assert!(wire.is_empty());
        assert!(BodySource::from_slice(b"").is_empty());
        let mut wire = Vec::new();
        let src = BodySource::chunked(Cursor::new(Vec::new()));
        assert_eq!(src.write_to(&mut wire).unwrap(), 0);
        assert_eq!(wire, b"0\r\n\r\n", "chunked empty body is just the last-chunk marker");
    }
}
