//! Error type for wire-format violations.

use std::fmt;
use std::io;

/// Anything that can go wrong while reading or writing HTTP/1.1 messages.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure.
    Io(io::Error),
    /// Malformed request or status line.
    BadStartLine(String),
    /// Malformed header field.
    BadHeader(String),
    /// Message head exceeded the configured limit.
    HeadTooLarge(usize),
    /// Malformed chunked transfer encoding.
    BadChunk(String),
    /// Malformed `Range` / `Content-Range` header.
    BadRange(String),
    /// Malformed URI.
    BadUri(String),
    /// Malformed multipart/byteranges payload.
    BadMultipart(String),
    /// The peer closed the connection mid-message.
    UnexpectedEof,
    /// Any other protocol violation.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadStartLine(s) => write!(f, "malformed start line: {s:?}"),
            WireError::BadHeader(s) => write!(f, "malformed header: {s:?}"),
            WireError::HeadTooLarge(n) => write!(f, "message head exceeds {n} bytes"),
            WireError::BadChunk(s) => write!(f, "malformed chunked encoding: {s}"),
            WireError::BadRange(s) => write!(f, "malformed range: {s:?}"),
            WireError::BadUri(s) => write!(f, "malformed uri: {s:?}"),
            WireError::BadMultipart(s) => write!(f, "malformed multipart/byteranges: {s}"),
            WireError::UnexpectedEof => write!(f, "unexpected end of stream"),
            WireError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => e,
            WireError::UnexpectedEof => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "unexpected end of stream")
            }
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::BadStartLine("GET".into());
        assert!(e.to_string().contains("start line"));
        let e = WireError::HeadTooLarge(65536);
        assert!(e.to_string().contains("65536"));
    }

    #[test]
    fn io_roundtrip_preserves_kind() {
        let io_err = io::Error::new(io::ErrorKind::ConnectionReset, "boom");
        let wire: WireError = io_err.into();
        let back: io::Error = wire.into();
        assert_eq!(back.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn eof_maps_to_unexpected_eof_kind() {
        let back: io::Error = WireError::UnexpectedEof.into();
        assert_eq!(back.kind(), io::ErrorKind::UnexpectedEof);
    }
}
