//! # httpwire — HTTP/1.1 wire format, from scratch
//!
//! Everything the davix reproduction needs from HTTP/1.1, in two layers so
//! that it runs unchanged on blocking sockets, on non-blocking reactor
//! connections and on the simulated network:
//!
//! * [`codec`] is the message grammar with no I/O in it: bytes in, events
//!   out, resumable at any byte boundary. A resumable head-terminator scan,
//!   one header-block parser (request heads, response heads, multipart part
//!   heads), the body-length rules of RFC 7230 §3.3.3, and one body decoder
//!   for `Content-Length`, `Transfer-Encoding: chunked` (extensions,
//!   trailers) and read-to-close that *describes* frames instead of copying
//!   them. Its size limits (head, chunk-size line, trailer section) hold on
//!   every path, because every path is an adapter over it.
//! * [`parse`] is the `BufRead` adapter: [`read_request_head`],
//!   [`read_response_head`], `StartReader` (skip interim 1xx, then final
//!   head + body length + "is the connection reusable?") and
//!   [`BodyFraming`]/[`BodyReader`] drive the codec over any
//!   [`std::io::BufRead`], consuming exactly one message. `StartReader` and
//!   `BodyFraming` resume after a `WouldBlock`, so the client's exchange
//!   runs on blocking and non-blocking streams alike; `httpd`'s connection
//!   state machine keeps its own buffers and feeds the codec directly.
//!
//! Around them:
//!
//! * message heads ([`RequestHead`], [`ResponseHead`]) with a case-insensitive
//!   multi-value [`HeaderMap`] kept as the `Name: value` lines it is on the
//!   wire (see [`headers`] for the layout and the sanitising rule), and the
//!   one serialiser of heads, [`HeadWriter`];
//! * streaming request bodies ([`BodySource`]): any [`std::io::Read`] of
//!   known or unknown length, emitted with `Content-Length` or chunked
//!   framing ([`ChunkedWriter`]) — the write-side mirror of [`BodyFraming`];
//! * byte ranges ([`range`]): `Range` / `Content-Range` parsing and
//!   formatting, resolution against an entity size, and the range algebra
//!   (sorting, coalescing) used by vectored I/O;
//! * `multipart/byteranges` ([`multipart`]): the response format for
//!   multi-range GETs — the heart of the paper's vectored-read design (§2.3);
//! * RFC 1123 dates ([`date`]), URIs with percent-encoding ([`uri`]).
//!
//! The crate is transport- and policy-free: no sockets, no pools, no
//! retries — those live in `httpd` (server) and `davix` (client).

#![forbid(unsafe_code)]

pub mod body;
pub mod codec;
pub mod date;
pub mod error;
pub mod headers;
pub mod message;
pub mod method;
pub mod multipart;
pub mod parse;
pub mod range;
pub mod status;
pub mod uri;

pub use body::BodySource;
pub use error::WireError;
pub use headers::HeaderMap;
pub use message::{HeadWriter, RequestHead, ResponseHead, Version};
pub use method::Method;
pub use multipart::{MultipartReader, MultipartWriter};
pub use parse::{
    read_request_head, read_response_head, BodyFraming, BodyLen, BodyReader, ChunkedWriter,
};
pub use range::{ContentRange, RangeSpec};
pub use status::StatusCode;
pub use uri::Uri;
