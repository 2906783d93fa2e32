//! Streaming *request* bodies: the write-side counterpart of
//! [`BodyFraming`](crate::parse::BodyFraming).
//!
//! A [`BodySource`] is a slice the caller lends, or any [`Read`] plus an
//! optional known length, and knows how to put itself on the wire:
//!
//! * **known length** → the body travels verbatim and the request carries
//!   `Content-Length` (the fast path every HTTP/1.0-era server accepts);
//! * **unknown length** → the body is framed with
//!   `Transfer-Encoding: chunked` (HTTP/1.1 §3.3.1), one chunk per source
//!   read, so a pipe or a compressor can be uploaded without ever learning
//!   its size up front.
//!
//! Nothing proportional to the body is buffered. A lent slice goes to the
//! sink as it is, in one `write_all`: the transport (the kernel, or the
//! simulator) cuts it into segments. A [`Read`] source moves to the sink
//! through one fixed scratch buffer, one write per read.

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
pub struct BodySource<'a>(Source<'a>);

/// Where a body's bytes come from, and so how they are framed.
enum Source<'a> {
    /// A slice the caller lends: sent as it is, with `Content-Length`.
    Lent(&'a [u8]),
    /// Exactly this many bytes of a reader, with `Content-Length`.
    Sized(Box<dyn Read + Send + 'a>, u64),
    /// A reader to its end, chunked.
    Chunked(Box<dyn Read + Send + 'a>),
}

impl std::fmt::Debug for BodySource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BodySource").field("len", &self.len()).finish_non_exhaustive()
    }
}

impl<'a> BodySource<'a> {
    /// A body of exactly `len` bytes, sent with `Content-Length` framing.
    /// The reader must yield at least `len` bytes; anything beyond is left
    /// unread.
    pub fn sized(reader: impl Read + Send + 'a, len: u64) -> Self {
        BodySource(Source::Sized(Box::new(reader), len))
    }

    /// A body of unknown length, sent with `Transfer-Encoding: chunked`.
    pub fn chunked(reader: impl Read + Send + 'a) -> Self {
        BodySource(Source::Chunked(Box::new(reader)))
    }

    /// A body borrowed from a byte slice (sized), written to the wire
    /// without a copy.
    pub fn from_slice(data: &'a [u8]) -> Self {
        BodySource(Source::Lent(data))
    }

    /// The declared length, when known.
    pub fn len(&self) -> Option<u64> {
        match self.0 {
            Source::Lent(data) => Some(data.len() as u64),
            Source::Sized(_, len) => Some(len),
            Source::Chunked(_) => None,
        }
    }

    /// Whether the body is known to be empty.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Write the framing field this body will be sent with: `Content-Length`
    /// when the length is known, `Transfer-Encoding: chunked` otherwise. The
    /// head must not carry either field from anywhere else.
    pub fn write_framing(&self, head: &mut HeadWriter<'_>) {
        match self.len() {
            Some(n) => head.field_fmt("Content-Length", format_args!("{n}")),
            None => head.field("Transfer-Encoding", "chunked"),
        };
    }

    /// Stream the whole body into `w` with the framing
    /// [`write_framing`](Self::write_framing) declared, consuming the
    /// source. Returns `(payload, wire)`: the body bytes written, and the
    /// bytes put on the wire for them, chunk framing included (the two are
    /// equal under `Content-Length`).
    ///
    /// A sized source that ends before `len` bytes fails with
    /// [`io::ErrorKind::InvalidData`] — the request head already promised
    /// `Content-Length` bytes, so the connection is unsalvageable and the
    /// caller must not retry with the same source.
    pub fn write_to(self, w: &mut (impl Write + ?Sized)) -> io::Result<(u64, u64)> {
        let sent = match self.0 {
            Source::Lent(data) => {
                w.write_all(data)?;
                (data.len() as u64, data.len() as u64)
            }
            Source::Sized(mut reader, len) => {
                let mut buf = [0u8; COPY_BUF];
                let mut left = len;
                while left > 0 {
                    let want = buf.len().min(left as usize);
                    let n = reader.read(&mut buf[..want])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("request body source ended {left} bytes short of {len}"),
                        ));
                    }
                    w.write_all(&buf[..n])?;
                    left -= n as u64;
                }
                (len, len)
            }
            Source::Chunked(mut reader) => {
                let mut cw = ChunkedWriter::new(&mut *w);
                let mut buf = [0u8; COPY_BUF];
                // The last-chunk marker `0\r\n\r\n` is five bytes.
                let (mut payload, mut wire) = (0u64, 5u64);
                loop {
                    let n = reader.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    cw.write_all(&buf[..n])?;
                    payload += n as u64;
                    wire += chunk_framing(n) + n as u64;
                }
                cw.finish()?;
                (payload, wire)
            }
        };
        w.flush()?;
        Ok(sent)
    }
}

/// What [`ChunkedWriter`] adds around an `n`-byte chunk: the size in hex,
/// then CRLF, and a CRLF after the data.
fn chunk_framing(n: usize) -> u64 {
    let hex_digits = (usize::BITS - n.leading_zeros()).div_ceil(4);
    hex_digits as u64 + 4
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

    /// A sink that keeps what it is given and the size of every `write`.
    #[derive(Default)]
    struct CountingWriter {
        wire: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sized_body_framing_and_emission() {
        let src = BodySource::from_slice(b"hello world");
        assert_eq!(framing_of(&src), "Content-Length: 11\r\n");
        let mut wire = Vec::new();
        assert_eq!(src.write_to(&mut wire).unwrap(), (11, 11));
        assert_eq!(wire, b"hello world");
    }

    #[test]
    fn a_lent_slice_is_one_write() {
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        let src = BodySource::from_slice(&payload);
        assert_eq!(framing_of(&src), "Content-Length: 100000\r\n");
        let mut sink = CountingWriter::default();
        assert_eq!(src.write_to(&mut sink).unwrap(), (100_000, 100_000));
        assert_eq!(sink.writes, [100_000], "the whole slice in one write call");
        assert_eq!(sink.wire, payload);

        let mut sink = CountingWriter::default();
        assert_eq!(BodySource::from_slice(b"").write_to(&mut sink).unwrap(), (0, 0));
        assert!(sink.writes.is_empty(), "an empty slice writes nothing");
    }

    #[test]
    fn readers_go_through_the_scratch_buffer() {
        let payload: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
        let mut sink = CountingWriter::default();
        let src = BodySource::sized(Cursor::new(&payload), payload.len() as u64);
        assert_eq!(src.write_to(&mut sink).unwrap(), (40_000, 40_000));
        assert_eq!(sink.writes, [COPY_BUF, COPY_BUF, 40_000 - 2 * COPY_BUF]);
        assert_eq!(sink.wire, payload);

        // Chunked: a size line, the chunk and a CRLF per scratch read.
        let mut sink = CountingWriter::default();
        let (sent, wire) = BodySource::chunked(Cursor::new(&payload)).write_to(&mut sink).unwrap();
        let tail = 40_000 - 2 * COPY_BUF;
        assert_eq!(sink.writes, [6, COPY_BUF, 2, 6, COPY_BUF, 2, 6, tail, 2, 5]);
        assert_eq!((sent, wire), (40_000, sink.wire.len() as u64));
    }

    #[test]
    fn sized_body_stops_at_declared_length() {
        let src = BodySource::sized(Cursor::new(b"0123456789".to_vec()), 4);
        let mut wire = Vec::new();
        assert_eq!(src.write_to(&mut wire).unwrap(), (4, 4));
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
        let (sent, on_wire) = src.write_to(&mut wire).unwrap();
        assert_eq!((sent, on_wire), (payload.len() as u64, wire.len() as u64));
        // The receiver's framing machine must recover the exact payload.
        let mut c = Cursor::new(wire);
        let got = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn chunk_framing_counts_the_hex_size() {
        for n in [1, 15, 16, 255, 256, COPY_BUF, 0x10_0000] {
            assert_eq!(chunk_framing(n), format!("{n:x}\r\n\r\n").len() as u64, "{n}");
        }
    }

    #[test]
    fn empty_bodies_both_framings() {
        let mut wire = Vec::new();
        assert_eq!(BodySource::from_slice(b"").write_to(&mut wire).unwrap(), (0, 0));
        assert!(wire.is_empty());
        assert!(BodySource::from_slice(b"").is_empty());
        let mut wire = Vec::new();
        let src = BodySource::chunked(Cursor::new(Vec::new()));
        assert_eq!(src.write_to(&mut wire).unwrap(), (0, 5));
        assert_eq!(wire, b"0\r\n\r\n", "chunked empty body is just the last-chunk marker");
    }
}
