//! HTTP/1.1's codec on the connection engine ([`netsim::conn`]).
//!
//! The engine owns the stream, the receive buffer, the output queue, the
//! bound on what a connection holds, the half-close and drain rule and the
//! wake-ups; this module is only what HTTP/1.1 adds to it. [`HttpCodec`]
//! keeps a connection's phase and nothing of the HTTP grammar:
//! [`httpwire::codec`] — [`HeadScan`] and `parse_request_head` for the head,
//! one [`BodyFrames`] for the body — says what the received bytes are, where
//! the message ends, and when a peer has broken the framing or a size limit
//! (`400`/`431` and close). It is the same codec the blocking client reads
//! responses with. One request is in flight at a time: requests are read
//! and answered strictly in order, which is HTTP/1.1 pipelining's
//! head-of-line blocking (§2.2, Figure 1).
//!
//! **What goes through the receive buffer and what does not.** Heads,
//! chunk-size lines, chunk CRLFs and trailers come through the engine's
//! receive buffer; so does whatever payload happens to arrive in the same
//! read as a head or a framing line, which is then copied into the body.
//! Once the buffer is drained and [`BodyFrames::payload`] says payload is
//! next, the codec reads the transport straight onto the end of the body
//! ([`Codec::read_direct`]) by
//! [`try_read_spare`](netsim::Pollable::try_read_spare): as much as the
//! frame allows, up to [`BODY_READ_MAX`] a call, and never a byte past the
//! frame, so a pipelined request behind a body still lands in the receive
//! buffer. On a socket that is one `recv(2)` into the body's spare
//! capacity, with nothing zeroed first. That is what the blocking client
//! does with the same codec call, and it makes a large upload one copy
//! (kernel to body) instead of three.
//!
//! **Each body byte is digested once, as it lands.** Both ways into the
//! body feed the request's running [`Digests`] with the bytes just
//! appended, while they are still in cache, and the handler gets the
//! finished `(crc32, adler32)` through
//! [`handle_digested`](crate::Handler::handle_digested). A storage handler
//! that checks and keeps those digests does not read a large upload a
//! second time, cold.
//!
//! **Answers.** A head, the interim `100 Continue` and a body under
//! [`SHARED_BODY_MIN`] are serialised into the engine's output buffer; a
//! larger body is queued behind its head as the handler's own `Bytes`, so a
//! slice of a stored object is never copied into a write buffer. Everything
//! queued goes out in one vectored write, which on the simulated network is
//! the same single segment a contiguous buffer made. Every byte counts
//! toward the engine's bound, since a handler's `Bytes` may be fresh.
//!
//! All time-based behaviour lives in the reactor's timer wheel rather than
//! in transport read timeouts (which the simulated network cannot honour
//! uniformly): the *idle* timeout runs while waiting for a request to start,
//! and the *header-read* timeout runs from the first byte of a request until
//! its head and body have fully arrived — a slowloris client trickling one
//! header byte per second is evicted with `408 Request Timeout` when that
//! budget expires, having cost one timer-wheel entry instead of a thread.
//! The configured `process_delay` runs between a request's last byte and its
//! handler, on the same wheel.

use crate::server::{response_parts, HttpServer, Request, Response};
use davix_sync::Ordering;
use httpwire::codec::{parse_request_head, request_body_len, BodyFrames, BodyLen, Frame, HeadScan};
use httpwire::{Method, RequestHead, StatusCode, Version, WireError};
use ioapi::checksum::Digests;
use netsim::conn::{Codec, Io, Step, READ_CHUNK};
use netsim::Stream;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Most body payload read straight onto the body per `try_read_spare` call.
const BODY_READ_MAX: usize = 256 * 1024;
/// A response body at least this long is queued as the handler's own `Bytes`
/// behind its head; a shorter one is copied in after the head, so a small
/// response stays one buffer and one plain write.
const SHARED_BODY_MIN: usize = 16 * 1024;
/// Most body buffer reserved on the strength of a declared `Content-Length`
/// alone; a longer body grows the buffer as it actually arrives.
const MAX_BODY_RESERVE: u64 = 64 * 1024 * 1024;

/// Where the connection is in its request/response cycle. Each phase owns
/// the instant its timeout clock started.
enum Phase {
    /// Between requests, awaiting the first byte (idle timeout).
    Idle { since: Duration },
    /// A request is arriving (header-read timeout, measured from its first
    /// byte and covering head and body alike). `incoming` is `None` until
    /// the head has been parsed.
    Request { since: Duration, incoming: Option<Incoming> },
    /// Request fully read, its body's `(crc32, adler32)` in `digests`;
    /// dispatch the handler at `at` (the configured `process_delay` is a
    /// timer deadline, not a sleeping thread).
    Respond { req: Option<Request>, digests: (u32, u32), at: Duration },
    /// Final response queued: take nothing more.
    Closing,
}

/// A request whose head has been parsed and whose body is being collected.
struct Incoming {
    head: RequestHead,
    /// The payload that has arrived, every byte of it: reads append to it
    /// and nothing lies behind its length. Its capacity is reserved from
    /// the head (see [`MAX_BODY_RESERVE`]) or grows as payload arrives.
    body: Vec<u8>,
    /// The running `(crc32, adler32)` of `body`, fed by each append.
    digests: Digests,
    frames: BodyFrames,
}

impl Incoming {
    /// Append payload that arrived through `rbuf`, and digest it.
    fn push(&mut self, src: &[u8]) {
        self.body.extend_from_slice(src);
        self.digests.update(src);
        self.frames.advance(src.len() as u64);
    }

    /// Read up to `max` payload bytes (what the frame has left) from the
    /// transport onto the end of the body, and digest them as they land.
    fn read_payload(&mut self, stream: &mut dyn Stream, max: u64) -> io::Result<usize> {
        let start = self.body.len();
        let n = stream.try_read_spare(&mut self.body, max.min(BODY_READ_MAX as u64) as usize)?;
        self.digests.update(&self.body[start..]);
        self.frames.advance(n as u64);
        Ok(n)
    }
}

/// One HTTP connection's codec.
pub(crate) struct HttpCodec {
    peer: String,
    server: Arc<HttpServer>,
    phase: Phase,
    /// Progress of the search for the head's end in the receive buffer (so
    /// repeated scans of a slowly-arriving head stay linear).
    scan: HeadScan,
    served: u64,
}

impl HttpCodec {
    pub(crate) fn new(peer: String, server: Arc<HttpServer>, now: Duration) -> Self {
        HttpCodec {
            peer,
            server,
            phase: Phase::Idle { since: now },
            scan: HeadScan::default(),
            served: 0,
        }
    }

    /// The one place a response becomes bytes, a counter and the next
    /// phase: handler answers, codec rejections and the `408` all end here.
    fn queue_response(
        &mut self,
        io: &mut Io,
        method: &Method,
        resp: Response,
        close: bool,
        now: Duration,
    ) -> Step {
        let mut shared = None;
        io.append(|buf| {
            let body = response_parts(method, resp, close, buf);
            if body.len() >= SHARED_BODY_MIN {
                shared = Some(body);
            } else {
                buf.extend_from_slice(&body);
            }
        });
        if let Some(body) = shared {
            io.push(body);
        }
        if close {
            self.server.stats.closes.fetch_add(1, Ordering::Relaxed);
            self.phase = Phase::Closing;
            Step::End
        } else {
            self.phase = Phase::Idle { since: now };
            Step::Again
        }
    }

    /// Answer a request that never reached the handler, and close.
    fn reject(&mut self, io: &mut Io, status: StatusCode, now: Duration) -> Step {
        self.queue_response(io, &Method::Get, Response::error(status), true, now)
    }

    /// Consume what the receive buffer holds of the arriving request: the
    /// head, once the codec finds its end, then as much body as the framing
    /// allows. `true` means advance again — the head was parsed (an interim
    /// response may want flushing) or the request is complete, the buffer
    /// positioned at the next message and the dispatch scheduled; `false`
    /// means more input is needed.
    fn advance_request(&mut self, io: &mut Io, now: Duration) -> Result<bool, WireError> {
        let Phase::Request { incoming, .. } = &mut self.phase else { unreachable!() };
        let Some(inc) = incoming else {
            let Some(end) = self.scan.find(io.rbuf())? else { return Ok(false) };
            let head = parse_request_head(&io.rbuf()[..end]);
            io.consume(end);
            // `None` is a stray blank line before the request (RFC 7230
            // §3.5): skipped.
            if let Some(head) = head? {
                // Settle the framing first: only a well-formed request that
                // has a body is told to go ahead and send it. RFC 7231
                // §5.1.1: the client parks its (possibly huge) body until
                // then, so queue the interim response now or a streaming
                // upload stalls for the client's fallback timeout.
                let len = request_body_len(&head)?;
                let frames = BodyFrames::new(len);
                let expects_continue = head
                    .headers
                    .get("expect")
                    .is_some_and(|v| v.trim().eq_ignore_ascii_case("100-continue"));
                if expects_continue && !frames.is_done() && head.version == Version::Http11 {
                    io.append(|buf| buf.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n"));
                }
                // Size the body buffer from what the head says, never from
                // how much the first read happens to return: doubling from an
                // odd first read ends anywhere up to twice the body, and a
                // handler that keeps the `Vec` keeps the slack with it.
                let body = match len {
                    BodyLen::None => Vec::new(),
                    BodyLen::Fixed(n) => Vec::with_capacity(n.min(MAX_BODY_RESERVE) as usize),
                    BodyLen::Chunked | BodyLen::Close => Vec::with_capacity(READ_CHUNK),
                };
                *incoming = Some(Incoming { head, body, digests: Digests::new(), frames });
            }
            return Ok(true);
        };
        let (rbuf, mut pos) = (io.rbuf(), 0);
        let complete = loop {
            match inc.frames.next(&rbuf[pos..])? {
                Frame::Skip(n) => pos += n,
                Frame::Payload(n) => {
                    let take = n.min((rbuf.len() - pos) as u64) as usize;
                    if take == 0 {
                        break false;
                    }
                    inc.push(&rbuf[pos..pos + take]);
                    pos += take;
                }
                Frame::NeedMore => break false,
                Frame::End => break true,
            }
        };
        io.consume(pos);
        if complete {
            // Dispatch after the configured processing delay (zero means
            // the same drive call dispatches).
            let Some(Incoming { head, body, digests, .. }) = incoming.take() else {
                unreachable!()
            };
            let req = Request { head, body, peer: self.peer.clone() };
            self.phase = Phase::Respond {
                req: Some(req),
                digests: digests.finish(),
                at: now + self.server.cfg.process_delay,
            };
        }
        Ok(complete)
    }

    /// Run the handler on a request and its body's digests, and queue its
    /// response.
    fn dispatch(&mut self, io: &mut Io, req: Request, digests: (u32, u32), now: Duration) -> Step {
        self.served += 1;
        self.server.stats.requests.fetch_add(1, Ordering::Relaxed);
        let method = req.head.method.clone();
        let client_keep_alive = req.head.headers.keep_alive(req.head.version == Version::Http11);
        // The one place a handler runs: one that panics costs its request
        // a `500` and its connection, not the shard and every connection on
        // it.
        let handle =
            std::panic::AssertUnwindSafe(|| self.server.handler.handle_digested(req, digests));
        let resp = std::panic::catch_unwind(handle).unwrap_or_else(|_| {
            self.server.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
            Response { close: true, ..Response::error(StatusCode::INTERNAL_SERVER_ERROR) }
        });
        let cap_hit =
            self.server.cfg.max_requests_per_conn.map(|cap| self.served >= cap).unwrap_or(false);
        let close = resp.close || !client_keep_alive || cap_hit || io.stopping();
        self.queue_response(io, &method, resp, close, now)
    }
}

impl Codec for HttpCodec {
    fn advance(&mut self, io: &mut Io, now: Duration) -> Step {
        match &mut self.phase {
            Phase::Idle { .. } if !io.rbuf().is_empty() => {
                // Pipelined bytes already buffered: the next request has begun.
                self.phase = Phase::Request { since: now, incoming: None };
                Step::Again
            }
            Phase::Idle { since } => match self.server.cfg.idle_timeout {
                Some(t) if now >= *since + t => Step::Close, // idle keep-alive expired
                _ => Step::Read,
            },
            Phase::Request { since, .. } => {
                if self.server.cfg.header_read_timeout.is_some_and(|t| now >= *since + t) {
                    self.server.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    return self.reject(io, StatusCode::REQUEST_TIMEOUT, now);
                }
                match self.advance_request(io, now) {
                    Ok(true) => Step::Again,
                    Ok(false) => Step::Read,
                    Err(WireError::HeadTooLarge(_)) => {
                        self.reject(io, StatusCode::REQUEST_HEADER_FIELDS_TOO_LARGE, now)
                    }
                    Err(_) => self.reject(io, StatusCode::BAD_REQUEST, now),
                }
            }
            Phase::Respond { at, .. } if now < *at => Step::Wait, // the wheel wakes us at `at`
            Phase::Respond { req, digests, .. } => {
                let (req, digests) =
                    (req.take().expect("request dispatched exactly once"), *digests);
                self.dispatch(io, req, digests, now)
            }
            Phase::Closing => Step::Read,
        }
    }

    fn deadline(&self) -> Option<Duration> {
        match &self.phase {
            Phase::Idle { since } => self.server.cfg.idle_timeout.map(|t| *since + t),
            Phase::Request { since, .. } => self.server.cfg.header_read_timeout.map(|t| *since + t),
            Phase::Respond { at, .. } => Some(*at),
            Phase::Closing => None,
        }
    }

    fn mid_request(&self) -> bool {
        matches!(self.phase, Phase::Request { incoming: Some(_), .. })
    }

    fn read_direct(&mut self, stream: &mut dyn Stream) -> Option<io::Result<usize>> {
        let Phase::Request { incoming: Some(inc), .. } = &mut self.phase else { return None };
        let max = inc.frames.payload()?;
        Some(inc.read_payload(stream, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::Handler;
    use davix_sync::AtomicUsize;
    use ioapi::checksum::crc32_adler32;
    use netsim::conn::{Conn, MAX_BYTES};
    use netsim::TcpStreamWrap;
    use netsim::{
        BoxedStream, DriveOutcome, Driven, LinkSpec, Pollable, Runtime, SimNet, SimStream,
    };
    use std::io::{Cursor, IoSlice, Read, Write};
    use std::sync::Mutex;

    /// Passes everything through and counts the `try_read` calls.
    struct CountReads(BoxedStream, Arc<AtomicUsize>);

    impl Read for CountReads {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for CountReads {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    impl Pollable for CountReads {
        fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.try_read(buf)
        }

        fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.try_write(buf)
        }

        fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.0.try_write_vectored(bufs)
        }
    }

    impl Stream for CountReads {
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            self.0.set_read_timeout(timeout)
        }

        fn peer(&self) -> String {
            self.0.peer()
        }

        fn try_clone(&self) -> io::Result<BoxedStream> {
            self.0.try_clone()
        }

        fn shutdown_write(&mut self) -> io::Result<()> {
            self.0.shutdown_write()
        }
    }

    const MIB: usize = 1024 * 1024;

    /// `(target, body, digests)` of every request the handler saw; the
    /// digests are `None` when the connection called plain `handle`.
    type Seen = Vec<(String, Vec<u8>, Option<(u32, u32)>)>;

    /// Records every request it sees, then answers `GET /big/N` with 1 MiB,
    /// `GET /mid` with 100 KiB and anything else with `ok`.
    struct Recorder(Arc<Mutex<Seen>>);

    impl Recorder {
        fn answer(&self, req: Request, digests: Option<(u32, u32)>) -> Response {
            let target = req.head.target.clone();
            self.0.lock().unwrap().push((target.clone(), req.body, digests));
            match target.strip_prefix("/big/") {
                Some(n) => Response::with_body(
                    StatusCode::OK,
                    "application/octet-stream",
                    pattern(MIB, n.parse().unwrap()),
                ),
                None if target == "/mid" => {
                    Response::with_body(StatusCode::OK, "x/y", pattern(100 * 1024, 0))
                }
                None => Response::text(StatusCode::OK, "ok"),
            }
        }
    }

    impl Handler for Recorder {
        fn handle(&self, req: Request) -> Response {
            self.answer(req, None)
        }

        fn handle_digested(&self, req: Request, digests: (u32, u32)) -> Response {
            self.answer(req, Some(digests))
        }
    }

    /// `n` bytes no two windows of which look alike.
    fn pattern(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8 ^ (i / 251) as u8 ^ salt).collect()
    }

    /// One server connection over the simulated network, driven by hand:
    /// the test decides what has arrived before each `drive` and can look
    /// inside the connection between calls. A [`Recorder`] answers.
    struct Rig<'a> {
        net: &'a SimNet,
        client: SimStream,
        conn: Conn<HttpCodec>,
        done: bool,
        seen: Arc<Mutex<Seen>>,
        try_reads: Arc<AtomicUsize>,
    }

    fn sim() -> SimNet {
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        let link = LinkSpec { delay: Duration::from_millis(1), ..Default::default() };
        net.set_link("client", "server", link);
        net
    }

    impl<'a> Rig<'a> {
        fn new(net: &'a SimNet, port: u16) -> Self {
            let rt = net.runtime() as Arc<dyn Runtime>;
            let listener = net.bind("server", port).unwrap();
            let client = net.connect("client", "server", port).unwrap();
            let (stream, peer) = listener.accept_sim().unwrap();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let handler = Arc::new(Recorder(Arc::clone(&seen)));
            let try_reads = Arc::new(AtomicUsize::new(0));
            let server = HttpServer::new(handler, ServerConfig::default());
            let conn = Conn::new(
                Box::new(CountReads(Box::new(stream), Arc::clone(&try_reads))),
                HttpCodec::new(peer, server, rt.now()),
            );
            Rig { net, client, conn, done: false, seen, try_reads }
        }

        fn drive(&mut self) {
            if !self.done {
                self.done = matches!(self.conn.drive(self.net.now()), DriveOutcome::Done);
            }
        }

        /// Write `piece`, let all of it arrive, then drive the connection.
        fn feed(&mut self, piece: &[u8]) {
            // The connection may already have answered and gone.
            let _ = self.client.write_all(piece);
            self.net.sleep(Duration::from_millis(5));
            self.drive();
        }

        /// The request whose head has been parsed and whose body is arriving.
        fn incoming(&self) -> &Incoming {
            match &self.conn.codec().phase {
                Phase::Request { incoming: Some(inc), .. } => inc,
                _ => panic!("no request body is arriving"),
            }
        }

        /// Read everything the connection has to say, `chunk` bytes a read,
        /// driving it whenever the client has caught up.
        fn drain(&mut self, chunk: usize) -> Vec<u8> {
            let (mut got, mut buf, mut quiet) = (Vec::new(), vec![0u8; chunk], 0);
            while quiet < 3 {
                match self.client.try_read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        got.extend_from_slice(&buf[..n]);
                        quiet = 0;
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("client read failed: {e}"),
                }
                self.net.sleep(Duration::from_millis(2));
                self.drive();
                quiet += usize::from(self.conn.io().pending() == 0);
            }
            got
        }
    }

    fn get(target: &str) -> Vec<u8> {
        format!("GET {target} HTTP/1.1\r\nHost: server\r\n\r\n").into_bytes()
    }

    fn put_sized(target: &str, body: &[u8]) -> Vec<u8> {
        let head = format!(
            "PUT {target} HTTP/1.1\r\nHost: server\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        [head.as_bytes(), body].concat()
    }

    /// A chunked PUT: one chunk per entry of `chunks` (the first with an
    /// extension), then a trailer.
    fn put_chunked(target: &str, chunks: &[&[u8]]) -> Vec<u8> {
        let mut wire =
            format!("PUT {target} HTTP/1.1\r\nHost: server\r\nTransfer-Encoding: chunked\r\n\r\n")
                .into_bytes();
        for (i, chunk) in chunks.iter().enumerate() {
            let ext = if i == 0 { ";first=yes" } else { "" };
            wire.extend_from_slice(format!("{:x}{ext}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\nX-Trailer: 1\r\n\r\n");
        wire
    }

    #[test]
    fn a_body_lands_whole_wherever_the_reads_fall() {
        let net = sim();
        let _g = net.enter();
        let long = pattern(600 * 1024, 7);
        let (a, b) = long.split_at(300 * 1024);
        // (what it is, the PUT on the wire, the body the handler must see).
        let rows: [(&str, Vec<u8>, &[u8]); 4] = [
            ("short, sized", put_sized("/put", b"hello world"), b"hello world"),
            ("short, chunked", put_chunked("/put", &[b"hello", b" ", b"world"]), b"hello world"),
            ("long, sized", put_sized("/put", &long), &long),
            ("long, chunked", put_chunked("/put", &[a, b]), &long),
        ];
        let mut port = 8000;
        for (what, put, body) in rows {
            // A pipelined request rides in the same segment as the end of
            // the body: the direct read must stop at the frame.
            let wire = [put.as_slice(), &get("/next")].concat();
            let body_at = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            // Every offset of a short message; around the 16 KiB and 256 KiB
            // read sizes (counted from the message and from the body) and
            // around the chunk seam of a long one.
            let cuts: Vec<usize> = if wire.len() < 1024 {
                (0..=wire.len()).collect()
            } else {
                [READ_CHUNK, BODY_READ_MAX, READ_CHUNK + BODY_READ_MAX, 300 * 1024, put.len()]
                    .into_iter()
                    .flat_map(|at| [at, body_at + at])
                    .flat_map(|at| at - 2..=at + 2)
                    .filter(|&at| at <= wire.len())
                    .collect()
            };
            for cut in cuts {
                port += 1;
                let mut rig = Rig::new(&net, port);
                rig.feed(&wire[..cut]);
                rig.feed(&wire[cut..]);
                let seen = rig.seen.lock().unwrap();
                assert_eq!(seen.len(), 2, "{what}, cut at {cut}: requests dispatched");
                assert!(seen[0].0 == "/put" && seen[0].1 == body, "{what}, cut at {cut}: body");
                assert!(seen[1].0 == "/next" && seen[1].1.is_empty(), "{what}, cut at {cut}");
                // The digests taken as the body landed, whichever way each
                // byte came in, are those of the whole body.
                let digests = [seen[0].2, seen[1].2];
                let want = [Some(crc32_adler32(body)), Some(crc32_adler32(b""))];
                assert_eq!(digests, want, "{what}, cut at {cut}: digests");
            }
        }
    }

    #[test]
    fn a_large_body_is_read_straight_into_its_buffer() {
        let net = sim();
        let _g = net.enter();
        let body = pattern(4 * MIB, 3);
        let mut rig = Rig::new(&net, 80);
        // All of it has arrived before the connection first looks.
        rig.client.write_all(&put_sized("/put", &body)).unwrap();
        rig.net.sleep(Duration::from_millis(200));
        rig.drive();
        let seen = rig.seen.lock().unwrap();
        assert!(seen.len() == 1 && seen[0].1 == body);
        assert_eq!(seen[0].1.capacity(), body.len(), "sized from the head, no slack");
        // One read for the head (and the 16 KiB that came with it), then
        // 256 KiB a read, then the one that finds nothing more.
        let reads = rig.try_reads.load(Ordering::Relaxed);
        assert!(reads <= 2 + 4 * MIB / BODY_READ_MAX + 1, "{reads} reads for 4 MiB");
    }

    #[test]
    fn a_request_pipelined_behind_a_body_is_not_read_into_it_over_tcp() {
        // A socket reads into the body's spare capacity, and a body that
        // grew as it arrived has more of that than its frame has left: the
        // read must still stop at the frame, or it swallows the next
        // request.
        const K: usize = 1024;
        let long = pattern(300 * K, 5);
        // (sent sized rather than chunked, the chunks).
        let puts: [(bool, &[&[u8]]); 3] = [
            (false, &[&long[..100 * K], &long[100 * K..150 * K]]),
            (true, &[&long]),
            (false, &[&long[..20 * K], &long[20 * K..90 * K], &long[..5 * K]]),
        ];
        let (mut wire, mut want) = (Vec::new(), Vec::new());
        for (i, (sized, chunks)) in puts.into_iter().enumerate() {
            let body = chunks.concat();
            let put = if sized { put_sized("/put", &body) } else { put_chunked("/put", chunks) };
            wire.extend_from_slice(&put);
            wire.extend_from_slice(&get(&format!("/next/{i}")));
            want.push(("/put".to_string(), body));
            want.push((format!("/next/{i}"), Vec::new()));
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, peer) = listener.accept().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let handler = Arc::new(Recorder(Arc::clone(&seen)));
        let server = HttpServer::new(handler, ServerConfig::default());
        let stream = Box::new(TcpStreamWrap::new(stream));
        let mut conn = Conn::new(stream, HttpCodec::new(peer.to_string(), server, Duration::ZERO));
        // The client stays open until the server has read it all.
        let writer = std::thread::spawn(move || client.write_all(&wire).map(|()| client));
        let start = std::time::Instant::now();
        while seen.lock().unwrap().len() < want.len() && start.elapsed() < Duration::from_secs(10) {
            if matches!(conn.drive(start.elapsed()), DriveOutcome::Done) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(writer.join().unwrap());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), want.len(), "requests dispatched");
        for (i, ((target, body, digests), (want_target, want_body))) in
            seen.iter().zip(&want).enumerate()
        {
            assert_eq!(target, want_target, "request {i}");
            assert!(body == want_body, "request {i} ({target}): a {}-byte body", body.len());
            assert_eq!(*digests, Some(crc32_adler32(want_body)), "request {i}: digests");
        }
    }

    #[test]
    fn a_peer_that_leaves_mid_body_is_dropped_without_dispatch() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        let wire = put_sized("/put", &pattern(100 * 1024, 0));
        rig.feed(&wire[..wire.len() - 10]);
        assert_eq!(rig.incoming().body.len(), 100 * 1024 - 10);
        rig.client.shutdown_write().unwrap();
        rig.net.sleep(Duration::from_millis(5));
        rig.drive();
        assert!(rig.done, "the connection must close");
        assert!(rig.seen.lock().unwrap().is_empty(), "half a body is not a request");
    }

    #[test]
    fn a_lying_content_length_costs_what_arrives_not_what_it_says() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        rig.feed(b"PUT /put HTTP/1.1\r\nHost: server\r\nContent-Length: 1099511627776\r\n\r\n");
        rig.feed(&[b'x'; 1024]);
        let inc = rig.incoming();
        // The body holds what arrived. The rest is a reservation, and that
        // is capped.
        assert_eq!(inc.body.len(), 1024);
        assert!(inc.body.capacity() as u64 <= MAX_BODY_RESERVE);
        assert!(rig.seen.lock().unwrap().is_empty());
    }

    #[test]
    fn a_head_split_at_any_byte_parses_and_a_pipelined_request_in_the_same_read_is_served() {
        let net = sim();
        let _g = net.enter();
        // The second request rides in whichever read brings the first one's
        // last bytes.
        let wire = [
            &b"GET /first HTTP/1.1\r\nHost: server\r\nX-Pad: 0123456789\r\n\r\n"[..],
            &get("/second"),
        ]
        .concat();
        for cut in 0..=wire.len() {
            let mut rig = Rig::new(&net, 9000 + cut as u16);
            rig.feed(&wire[..cut]);
            rig.feed(&wire[cut..]);
            let seen = rig.seen.lock().unwrap();
            let targets: Vec<&str> = seen.iter().map(|s| s.0.as_str()).collect();
            assert_eq!(targets, ["/first", "/second"], "cut at {cut}");
            assert!(rig.conn.io().rbuf().is_empty(), "cut at {cut}: nothing left over");
        }
    }

    #[test]
    fn an_idle_connection_keeps_no_more_than_a_read_however_long_the_last_head_was() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        rig.feed(&get("/small"));
        assert!(rig.conn.io().rbuf().capacity() < 1024, "what arrived, not what a read may bring");
        let long = format!(
            "GET /long HTTP/1.1\r\nHost: server\r\nX-Pad: {}\r\n\r\n",
            "x".repeat(60 * 1024)
        );
        rig.feed(long.as_bytes());
        assert_eq!(rig.seen.lock().unwrap().len(), 2, "a 60 KiB head is within the limit");
        let rbuf = rig.conn.io().rbuf();
        assert!(rbuf.is_empty() && matches!(rig.conn.codec().phase, Phase::Idle { .. }));
        assert!(
            rbuf.capacity() <= READ_CHUNK,
            "{} bytes of receive buffer held while idle",
            rbuf.capacity()
        );
        // And the next request is read as before.
        rig.feed(&get("/after"));
        assert_eq!(rig.seen.lock().unwrap()[2].0, "/after");
    }

    #[test]
    fn content_lengths_that_disagree_are_a_400_and_the_handler_never_sees_them() {
        let net = sim();
        let _g = net.enter();
        for (i, lengths) in [&["5", "50"][..], &["5, 6"], &["+5"]].into_iter().enumerate() {
            let mut rig = Rig::new(&net, 80 + i as u16);
            let fields: String =
                lengths.iter().map(|l| format!("Content-Length: {l}\r\n")).collect();
            rig.feed(format!("PUT /put HTTP/1.1\r\nHost: server\r\n{fields}\r\nhello").as_bytes());
            let wire = rig.drain(1024);
            let got = responses(&wire, &[Method::Put]);
            assert_eq!(got[0].0, 400, "{lengths:?}");
            assert!(rig.done, "{lengths:?}: the connection closes");
            assert!(rig.seen.lock().unwrap().is_empty(), "{lengths:?}");
        }
    }

    /// Split `wire` into the responses it holds, interim ones included.
    fn responses(wire: &[u8], methods: &[Method]) -> Vec<(u16, Option<u64>, Vec<u8>)> {
        let mut r = Cursor::new(wire);
        let mut out = Vec::new();
        for method in methods {
            let head = httpwire::parse::read_response_head(&mut r).unwrap();
            let len = httpwire::parse::response_body_len(method, &head).unwrap();
            let body = httpwire::parse::BodyReader::new(&mut r, len).read_all().unwrap();
            out.push((head.status.0, head.headers.content_length().unwrap(), body));
        }
        assert_eq!(r.position(), wire.len() as u64, "bytes after the last response");
        out
    }

    #[test]
    fn pipelined_large_responses_arrive_in_order_under_back_pressure() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        rig.feed(&get("/big/1"));
        assert_eq!(rig.seen.lock().unwrap().len(), 1);
        assert!(rig.conn.io().pending() > MAX_BYTES, "a window's worth of 1 MiB has gone");
        // More requests arrive; none is read while that much is queued.
        let reads = rig.try_reads.load(Ordering::Relaxed);
        rig.feed(&[get("/big/2"), get("/small")].concat());
        rig.feed(b"HEAD /big/3 HTTP/1.1\r\nHost: server\r\n\r\n");
        assert_eq!(rig.try_reads.load(Ordering::Relaxed), reads, "read with the queue full");
        assert_eq!(rig.seen.lock().unwrap().len(), 1);
        // A reader taking 1 KiB at a time gets all four, byte-exact.
        let wire = rig.drain(1024);
        let got = responses(&wire, &[Method::Get, Method::Get, Method::Get, Method::Head]);
        assert_eq!(got.len(), 4);
        assert!(got[0].2 == pattern(MIB, 1) && got[1].2 == pattern(MIB, 2));
        assert_eq!(got[2], (200, Some(2), b"ok".to_vec()));
        assert_eq!(got[3], (200, Some(MIB as u64), Vec::new()), "HEAD: the length, no body");
        let targets: Vec<String> = rig.seen.lock().unwrap().iter().map(|s| s.0.clone()).collect();
        assert_eq!(targets, ["/big/1", "/big/2", "/small", "/big/3"]);
    }

    #[test]
    fn interim_and_rejection_queue_behind_an_unflushed_body() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        // 100 KiB: queued as the handler's `Bytes`, more than one window,
        // under the back-pressure mark — the connection keeps reading.
        rig.feed(&get("/mid"));
        let unsent = rig.conn.io().pending();
        assert!(unsent > SHARED_BODY_MIN && unsent <= MAX_BYTES);
        rig.feed(
            b"PUT /put HTTP/1.1\r\nHost: server\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n",
        );
        rig.feed(b"abc");
        rig.feed(b"this is not HTTP\r\n\r\n");
        let wire = rig.drain(1024);
        let got = responses(&wire, &[Method::Get, Method::Put, Method::Put, Method::Get]);
        assert!(got[0].0 == 200 && got[0].2 == pattern(100 * 1024, 0));
        assert_eq!(got[1], (100, None, Vec::new()));
        assert_eq!(got[2], (200, Some(2), b"ok".to_vec()));
        assert_eq!(got[3].0, 400);
        assert!(rig.done, "a rejection closes the connection once it has drained");
        let seen = rig.seen.lock().unwrap();
        assert!(seen[1].0 == "/put" && seen[1].1 == b"abc");
    }
}
