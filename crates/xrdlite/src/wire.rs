//! Binary framing: big-endian, fixed 8-byte header, length-delimited payload.
//!
//! ```text
//! frame  := header payload
//! header := stream_id:u16  op_or_status:u8  flags:u8  payload_len:u32
//! ```
//!
//! Requests carry an op code; responses carry a status (0 = OK). A
//! connection starts with a 6-byte handshake: magic `XRDL` + version `u16`.

use std::io::{self, Read, Write};

/// Connection magic.
pub const MAGIC: &[u8; 4] = b"XRDL";
/// Protocol version.
pub const VERSION: u16 = 1;

/// Maximum payload accepted in one frame (sanity bound).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// The server's interleaving granularity: a longer response goes out as
/// several frames, round-robin with other streams' (see [`crate::mux`]).
/// Also what a reader reserves for a payload before its bytes arrive.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 64 * 1024;

/// Flag bit on a response frame: more frames follow for this stream ID
/// (a chunked response — XRootD's `kXR_oksofar`). The final frame of a
/// response carries flags `0`.
pub const FLAG_PARTIAL: u8 = 0b0000_0001;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Open a file by path → `handle:u32 size:u64`.
    Open = 1,
    /// `handle:u32 offset:u64 len:u32` → data.
    Read = 2,
    /// `handle:u32 n:u16 (offset:u64 len:u32)*n` → concatenated data.
    ReadV = 3,
    /// `handle:u32` → empty.
    Close = 4,
    /// Path → `size:u64`.
    Stat = 5,
}

impl Op {
    /// Parse an opcode byte.
    pub fn from_u8(v: u8) -> Option<Op> {
        match v {
            1 => Some(Op::Open),
            2 => Some(Op::Read),
            3 => Some(Op::ReadV),
            4 => Some(Op::Close),
            5 => Some(Op::Stat),
            _ => None,
        }
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; payload is op-specific.
    Ok = 0,
    /// Failure; payload is a UTF-8 message.
    Error = 1,
}

/// A decoded frame (request or response depending on direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Stream (request) identifier chosen by the client.
    pub stream_id: u16,
    /// Op code (client→server) or status (server→client).
    pub code: u8,
    /// Reserved flags byte.
    pub flags: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode into a single buffer (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.payload.len());
        out.extend_from_slice(&self.stream_id.to_be_bytes());
        out.push(self.code);
        out.push(self.flags);
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Read one frame. The payload grows as its bytes arrive: a peer that
    /// declares a long one and sends little costs what it sent.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header)?;
        let len = payload_len(&header)?;
        let mut payload = Vec::with_capacity(len.min(MAX_FRAME_PAYLOAD));
        if r.take(len as u64).read_to_end(&mut payload)? < len {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame payload cut short"));
        }
        let stream_id = u16::from_be_bytes([header[0], header[1]]);
        Ok(Frame { stream_id, code: header[2], flags: header[3], payload })
    }
}

/// The payload length a frame header declares, refused past [`MAX_PAYLOAD`].
fn payload_len(header: &[u8; 8]) -> io::Result<usize> {
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload {len} exceeds cap"),
        ));
    }
    Ok(len as usize)
}

/// The length of the frame at the front of `buf` once all of it is there;
/// `None` while it is still arriving.
pub(crate) fn frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(header) = buf.first_chunk::<8>() else { return Ok(None) };
    let len = 8 + payload_len(header)?;
    Ok((buf.len() >= len).then_some(len))
}

/// The handshake message, the same both ways: magic, then version.
pub(crate) fn hello() -> [u8; 6] {
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(MAGIC);
    hello[4..].copy_from_slice(&VERSION.to_be_bytes());
    hello
}

/// Client side of the handshake.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> io::Result<()> {
    stream.write_all(&hello())?;
    let mut reply = [0u8; 6];
    stream.read_exact(&mut reply)?;
    if &reply[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad handshake magic"));
    }
    Ok(())
}

// ---- payload encoding helpers ----------------------------------------------

/// Cursor-style reader over a payload.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "short payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Append-style payload writer.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a u16.
    pub fn u16(mut self, v: u16) -> Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a u32.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a u64.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Finish.
    pub fn build(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let f = Frame { stream_id: 513, code: 3, flags: 0, payload: vec![1, 2, 3, 4, 5] };
        let wire = f.encode();
        assert_eq!(frame_len(&wire[..wire.len() - 1]).unwrap(), None, "still arriving");
        assert_eq!(frame_len(&wire).unwrap(), Some(wire.len()));
        let back = Frame::read_from(&mut Cursor::new(wire)).unwrap();
        assert_eq!(back, f);
    }

    /// Hands out its bytes and notes the largest buffer it was asked to
    /// fill.
    struct Widest {
        data: Cursor<Vec<u8>>,
        widest: usize,
    }

    impl Read for Widest {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_declared_length_is_not_allocated_before_its_bytes_arrive() {
        let mut wire = vec![0, 1, 2, 0];
        wire.extend_from_slice(&MAX_PAYLOAD.to_be_bytes());
        wire.extend_from_slice(&[7; 10]);
        let mut r = Widest { data: Cursor::new(wire), widest: 0 };
        let err = Frame::read_from(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.widest < 1024 * 1024, "a {} byte buffer for 10 bytes", r.widest);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut header = Vec::new();
        header.extend_from_slice(&1u16.to_be_bytes());
        header.push(2);
        header.push(0);
        header.extend_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        let err = Frame::read_from(&mut Cursor::new(header)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let f = Frame { stream_id: 1, code: 1, flags: 0, payload: vec![9; 100] };
        let mut wire = f.encode();
        wire.truncate(50);
        let err = Frame::read_from(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn payload_reader_writer_roundtrip() {
        let p = PayloadWriter::new().u32(7).u64(1 << 40).u16(3).build();
        let mut r = PayloadReader::new(&p);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.u16().unwrap(), 3);
        assert!(r.u16().is_err(), "all of it read");
    }

    #[test]
    fn payload_reader_bounds() {
        let mut r = PayloadReader::new(&[1, 2]);
        assert!(r.u32().is_err());
    }

    #[test]
    fn op_parse() {
        assert_eq!(Op::from_u8(3), Some(Op::ReadV));
        assert_eq!(Op::from_u8(99), None);
    }

    #[test]
    fn client_handshake_sends_hello_and_checks_the_reply() {
        struct Duplex {
            read: Cursor<Vec<u8>>,
            wrote: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, b: &mut [u8]) -> io::Result<usize> {
                self.read.read(b)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.wrote.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut good = Duplex { read: Cursor::new(hello().to_vec()), wrote: Vec::new() };
        client_handshake(&mut good).unwrap();
        assert_eq!(good.wrote, hello());
        let mut bad = Duplex { read: Cursor::new(b"HTTP/1".to_vec()), wrote: Vec::new() };
        assert_eq!(client_handshake(&mut bad).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
