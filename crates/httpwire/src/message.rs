//! Request and response heads, and their serialization to the wire.

use crate::headers::{put_field, Sink};
use crate::range::{decimal, U64_DIGITS};
use crate::{HeaderMap, Method, StatusCode, WireError};
use std::fmt;

/// HTTP protocol version (only 1.0 and 1.1 exist on this wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// HTTP/1.0: no persistent connections by default, no chunked encoding.
    Http10,
    /// HTTP/1.1.
    Http11,
}

impl Version {
    /// Wire form, e.g. `HTTP/1.1`.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// Parse the `HTTP/x.y` token.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        match s {
            "HTTP/1.0" => Ok(Version::Http10),
            "HTTP/1.1" => Ok(Version::Http11),
            other => Err(WireError::BadStartLine(format!("unsupported version {other:?}"))),
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Serialises a message head into a wire buffer, piece by piece: start
/// line, fields, blank line. It is the only serialiser — the heads'
/// `write_to` run it, and a sender that has no head value to hand (the
/// client's exchange, the server's response queue) drives it directly, so
/// nothing is built only to be written out.
pub struct HeadWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> HeadWriter<'a> {
    /// Start a request head: `METHOD path[?query] VERSION`.
    pub fn request(
        out: &'a mut Vec<u8>,
        method: &Method,
        path: &str,
        query: Option<&str>,
        version: Version,
    ) -> Self {
        out.put_text(method.as_str());
        out.put_text(" ");
        out.put_text(path);
        if let Some(q) = query {
            out.put_text("?");
            out.put_text(q);
        }
        out.put_text(" ");
        out.put_text(version.as_str());
        out.put_text("\r\n");
        HeadWriter { out }
    }

    /// Start a response head: `VERSION code reason`.
    pub fn response(
        out: &'a mut Vec<u8>,
        version: Version,
        status: StatusCode,
        reason: &str,
    ) -> Self {
        out.put_text(version.as_str());
        out.put_text(" ");
        out.put_text(decimal(status.0.into(), &mut [0; U64_DIGITS]));
        out.put_text(" ");
        out.put_text(reason);
        out.put_text("\r\n");
        HeadWriter { out }
    }

    /// Every field of `headers`, in order: one copy of its block.
    pub fn fields(&mut self, headers: &HeaderMap) -> &mut Self {
        self.out.put_text(headers.as_wire());
        self
    }

    /// One field, under [`HeaderMap::append`]'s rules (a name that is not a
    /// token panics, a line break in the value travels as a space).
    pub fn field(&mut self, name: &str, value: &str) -> &mut Self {
        put_field(self.out, name, |out| out.put_text(value));
        self
    }

    /// [`field`](Self::field) with the value formatted in place.
    pub fn field_fmt(&mut self, name: &str, value: fmt::Arguments<'_>) -> &mut Self {
        put_field(self.out, name, |out| {
            fmt::Write::write_fmt(out, value).expect("a buffer takes any text")
        });
        self
    }

    /// The blank line that ends the head.
    pub fn finish(self) {
        self.out.put_text("\r\n");
    }
}

/// Everything before a request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// Request method.
    pub method: Method,
    /// Request target (origin-form: percent-encoded path plus optional query).
    pub target: String,
    /// Protocol version.
    pub version: Version,
    /// Header fields.
    pub headers: HeaderMap,
}

impl RequestHead {
    /// A fresh HTTP/1.1 request head.
    pub fn new(method: Method, target: impl Into<String>) -> Self {
        RequestHead {
            method,
            target: target.into(),
            version: Version::Http11,
            headers: HeaderMap::new(),
        }
    }

    /// Path component of the target (before any `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// Query component of the target (after the first `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Serialize head (start line + headers + blank line) onto `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let mut w = HeadWriter::request(out, &self.method, &self.target, None, self.version);
        w.fields(&self.headers);
        w.finish();
    }

    /// Serialized form as bytes (convenient for single-write sends, which
    /// also keeps request heads in one segment on the simulated network).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64 + self.target.len() + self.headers.as_wire().len());
        self.write_to(&mut v);
        v
    }
}

/// Everything before a response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// Protocol version.
    pub version: Version,
    /// Status code.
    pub status: StatusCode,
    /// Reason phrase as received (informational only).
    pub reason: String,
    /// Header fields.
    pub headers: HeaderMap,
}

impl ResponseHead {
    /// A fresh HTTP/1.1 response head with the canonical reason phrase.
    pub fn new(status: StatusCode) -> Self {
        ResponseHead {
            version: Version::Http11,
            status,
            reason: status.reason().to_string(),
            headers: HeaderMap::new(),
        }
    }

    /// Serialize head (status line + headers + blank line) onto `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let mut w = HeadWriter::response(out, self.version, self.status, &self.reason);
        w.fields(&self.headers);
        w.finish();
    }

    /// Serialized form as bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64 + self.headers.as_wire().len());
        self.write_to(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_serialization() {
        let mut r = RequestHead::new(Method::Get, "/data/f.root?metalink");
        r.headers.set("Host", "dpm.cern.ch");
        r.headers.set("Range", "bytes=0-99");
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("GET /data/f.root?metalink HTTP/1.1\r\n"));
        assert!(s.contains("Host: dpm.cern.ch\r\n"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    #[test]
    fn response_serialization() {
        let mut r = ResponseHead::new(StatusCode::PARTIAL_CONTENT);
        r.headers.set("Content-Length", "100");
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("HTTP/1.1 206 Partial Content\r\n"));
        assert!(s.contains("Content-Length: 100\r\n"));
    }

    #[test]
    fn path_and_query_split() {
        let r = RequestHead::new(Method::Get, "/a/b?x=1&y=2");
        assert_eq!(r.path(), "/a/b");
        assert_eq!(r.query(), Some("x=1&y=2"));
        let r = RequestHead::new(Method::Get, "/plain");
        assert_eq!(r.path(), "/plain");
        assert_eq!(r.query(), None);
    }

    #[test]
    fn version_parse() {
        assert_eq!(Version::parse("HTTP/1.1").unwrap(), Version::Http11);
        assert_eq!(Version::parse("HTTP/1.0").unwrap(), Version::Http10);
        assert!(Version::parse("HTTP/2").is_err());
    }
}
