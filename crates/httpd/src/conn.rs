//! The per-connection HTTP/1.1 state machine driven by the reactor.
//!
//! [`HttpConn`] implements [`Driven`]: every `drive` call advances the
//! connection as far as readiness allows — flush queued response bytes,
//! read whatever the transport has buffered, dispatch the handler on every
//! complete request — and then parks until the next readiness wake or
//! timer deadline. No call ever blocks, so thousands of connections share a
//! handful of shard threads.
//!
//! The connection owns buffers, phases and deadlines and nothing of the
//! HTTP grammar: [`httpwire::codec`] — [`HeadScan`] and `parse_request_head`
//! for the head, one [`BodyFrames`] for the body — says what the received
//! bytes are, where the message ends, and when a peer has broken the framing
//! or a size limit (`400`/`431` and close). It is the same codec the blocking
//! client reads responses with.
//!
//! **What goes through `rbuf` and what does not.** Heads, chunk-size lines,
//! chunk CRLFs and trailers are read 16 KiB at a time — into a landing area
//! the shard thread keeps for all its connections, zeroed once, so that an
//! idle connection holds no read buffer of that size — and what arrived is
//! appended to `rbuf` and shown to the codec from there; so is whatever
//! payload happens to arrive in the same read as a head or a framing line,
//! which is then copied into the body. Once `rbuf` is drained and
//! [`BodyFrames::payload`] says payload is next, the transport is read
//! straight into the body buffer — as much as the frame allows, up to
//! [`BODY_READ_MAX`] a call, and never a byte past the frame, so a
//! pipelined request behind a body still lands in `rbuf`.
//! That is what the blocking client does with the same codec call, and it
//! makes a large upload one copy (kernel to body) instead of three.
//!
//! **The output queue.** Unsent output is a queue of segments in wire order
//! ([`Output`]): buffers serialised here (heads, the interim `100 Continue`,
//! bodies under [`SHARED_BODY_MIN`]) and, behind its head, a large body as
//! the handler's own `Bytes` — a slice of a stored object is never copied
//! into a write buffer. New bytes extend the last buffer or start a new one
//! behind a queued body, never ahead of one. Everything queued goes to the
//! transport in one `try_write_vectored` call: that is `writev` on a socket,
//! and on the simulated network — where one write call is one segment — the
//! same single segment a contiguous buffer produced, so splitting a response
//! into head and body changes nothing in virtual time. A queue of one buffer
//! (every small response) is a plain `try_write`.
//!
//! All time-based behaviour lives in the reactor's timer wheel rather than
//! in transport read timeouts (which the simulated network cannot honour
//! uniformly): the *idle* timeout runs while waiting for a request to start,
//! and the *header-read* timeout runs from the first byte of a request until
//! its head and body have fully arrived — a slowloris client trickling one
//! header byte per second is evicted with `408 Request Timeout` when that
//! budget expires, having cost one timer-wheel entry instead of a thread.

use crate::server::{response_parts, HttpServer, Request, Response};
use bytes::Bytes;
use davix_sync::Ordering;
use httpwire::codec::{parse_request_head, request_body_len, BodyFrames, BodyLen, Frame, HeadScan};
use httpwire::{Method, RequestHead, StatusCode, Version, WireError};
use netsim::{BoxedStream, DriveOutcome, Driven, Signal, Stream};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, IoSlice};
use std::sync::Arc;
use std::time::Duration;

/// Bytes read from the transport into `rbuf` per `try_read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Most body payload read straight into the body buffer per `try_read` call.
const BODY_READ_MAX: usize = 256 * 1024;
/// A response body at least this long is queued as the handler's own `Bytes`
/// behind its head; a shorter one is copied in after the head, so a small
/// response stays one buffer and one plain write.
const SHARED_BODY_MIN: usize = 16 * 1024;
/// Most body buffer reserved on the strength of a declared `Content-Length`
/// alone; a longer body grows the buffer as it actually arrives.
const MAX_BODY_RESERVE: u64 = 64 * 1024 * 1024;
/// Stop reading new requests while more than this much response data is
/// queued unsent (a pipelining client that never reads cannot balloon the
/// write buffer).
const MAX_WBUF: usize = 256 * 1024;
/// How long a closing connection may take to drain its final response
/// before it is dropped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Where the connection is in its request/response cycle. Each phase owns
/// the instant its timeout clock started.
enum Phase {
    /// Between requests, awaiting the first byte (idle timeout).
    Idle { since: Duration },
    /// A request is arriving (header-read timeout, measured from its first
    /// byte and covering head and body alike). `incoming` is `None` until
    /// the head has been parsed.
    Request { since: Duration, incoming: Option<Incoming> },
    /// Request fully read; dispatch the handler at `at` (the configured
    /// `process_delay` is a timer deadline, not a sleeping thread).
    Respond { req: Option<Request>, at: Duration },
    /// Final response queued; flush and close (bounded by a drain timeout).
    Closing { since: Duration },
}

/// A request whose head has been parsed and whose body is being collected.
struct Incoming {
    head: RequestHead,
    /// `body[..filled]` is payload; what lies behind it is the zeroed rest
    /// of a landing area a direct read did not fill (zeroed once, reused by
    /// the next read).
    body: Vec<u8>,
    filled: usize,
    frames: BodyFrames,
}

impl Incoming {
    /// Append payload that arrived through `rbuf`.
    fn push(&mut self, src: &[u8]) {
        let over = src.len().min(self.body.len() - self.filled);
        self.body[self.filled..self.filled + over].copy_from_slice(&src[..over]);
        self.body.extend_from_slice(&src[over..]);
        self.filled += src.len();
        self.frames.advance(src.len() as u64);
    }

    /// Read up to `max` payload bytes (what the frame has left) from the
    /// transport straight into the body buffer.
    fn read_payload(&mut self, stream: &mut dyn Stream, max: u64) -> io::Result<usize> {
        let end = self.filled + max.min(BODY_READ_MAX as u64) as usize;
        if self.body.len() < end {
            self.body.resize(end, 0);
        }
        let n = stream.try_read(&mut self.body[self.filled..end])?;
        self.filled += n;
        self.frames.advance(n as u64);
        Ok(n)
    }
}

thread_local! {
    /// Where this thread's reads into `rbuf` land first. A connection is
    /// driven on one thread and `try_read` returns before anything else is
    /// driven there, so one area serves every connection of a shard; what
    /// a connection keeps is only the bytes that arrived.
    static LANDING: RefCell<[u8; READ_CHUNK]> = const { RefCell::new([0; READ_CHUNK]) };
}

/// Read up to [`READ_CHUNK`] bytes from the transport onto the end of `rbuf`.
fn read_into(rbuf: &mut Vec<u8>, stream: &mut dyn Stream) -> io::Result<usize> {
    LANDING.with_borrow_mut(|landing| {
        stream.try_read(landing).inspect(|&n| rbuf.extend_from_slice(&landing[..n]))
    })
}

/// Drop the first `n` bytes of `rbuf`. Emptied, it gives back what a long
/// head made it grow to: that is not kept for the life of the connection.
fn consume(rbuf: &mut Vec<u8>, n: usize) {
    rbuf.drain(..n);
    if rbuf.is_empty() && rbuf.capacity() > READ_CHUNK {
        *rbuf = Vec::new();
    }
}

/// One stretch of unsent output.
enum Seg {
    /// Bytes serialised here: heads, interim responses, small bodies.
    Owned(Vec<u8>),
    /// A response body exactly as the handler returned it.
    Shared(Bytes),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(buf) => buf,
            Seg::Shared(body) => body,
        }
    }
}

/// Unsent output in wire order.
#[derive(Default)]
struct Output {
    segs: VecDeque<Seg>,
    /// How much of the front segment has been written.
    sent: usize,
    /// Unsent bytes over all segments.
    pending: usize,
}

impl Output {
    /// Let `fill` append serialised bytes at the end of the queue: to the
    /// last segment when that is a buffer, to a new buffer behind a queued
    /// body otherwise.
    fn append(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        if !matches!(self.segs.back(), Some(Seg::Owned(_))) {
            self.segs.push_back(Seg::Owned(Vec::new()));
        }
        let Some(Seg::Owned(buf)) = self.segs.back_mut() else { unreachable!() };
        let before = buf.len();
        fill(buf);
        self.pending += buf.len() - before;
    }

    /// Queue a response body as it is.
    fn push_shared(&mut self, body: Bytes) {
        self.pending += body.len();
        self.segs.push_back(Seg::Shared(body));
    }

    /// Write queued bytes until done or the transport pushes back, every
    /// segment offered in each call.
    fn flush(&mut self, stream: &mut dyn Stream) -> io::Result<()> {
        while self.pending > 0 {
            let front = &self.segs[0].bytes()[self.sent..];
            let wrote = if self.segs.len() == 1 {
                stream.try_write(front)
            } else {
                let rest = self.segs.iter().skip(1).map(Seg::bytes);
                let iov: Vec<IoSlice<'_>> =
                    std::iter::once(front).chain(rest).map(IoSlice::new).collect();
                stream.try_write_vectored(&iov)
            };
            match wrote {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "stream closed")),
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drop `n` written bytes from the front of the queue.
    fn consume(&mut self, mut n: usize) {
        self.pending -= n;
        loop {
            let last = self.segs.len() == 1;
            let Some(front) = self.segs.front_mut() else { return };
            let left = front.bytes().len() - self.sent;
            if n < left {
                self.sent += n;
                return;
            }
            n -= left;
            self.sent = 0;
            match front {
                // The last buffer standing is kept for the next response.
                Seg::Owned(buf) if last => return buf.clear(),
                _ => self.segs.pop_front(),
            };
        }
    }
}

/// What one phase-step decided.
enum Step {
    /// State changed: run the loop again.
    Again,
    /// Nothing to do until the next wake.
    Park,
    /// Connection is finished.
    Close,
}

/// One HTTP connection as a reactor task.
pub(crate) struct HttpConn {
    stream: BoxedStream,
    peer: String,
    server: Arc<HttpServer>,
    phase: Phase,
    /// Received-but-unparsed bytes.
    rbuf: Vec<u8>,
    /// Progress of the search for the head's end in `rbuf` (so repeated
    /// scans of a slowly-arriving head stay linear).
    scan: HeadScan,
    /// Queued response bytes.
    out: Output,
    served: u64,
    eof: bool,
    shutting_down: bool,
}

impl HttpConn {
    pub(crate) fn new(
        stream: BoxedStream,
        peer: String,
        server: Arc<HttpServer>,
        now: Duration,
    ) -> Self {
        HttpConn {
            stream,
            peer,
            server,
            phase: Phase::Idle { since: now },
            rbuf: Vec::new(),
            scan: HeadScan::default(),
            out: Output::default(),
            served: 0,
            eof: false,
            shutting_down: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.out.pending
    }

    /// Out of buffered bytes: read more. `None` means look at `rbuf` and the
    /// request again (input arrived, or EOF is now known); otherwise the
    /// step to take — a peer that is gone mid-request just gets the
    /// connection closed.
    fn need_input(&mut self) -> Option<Step> {
        if self.eof {
            return Some(Step::Close);
        }
        let payload_next = match &mut self.phase {
            Phase::Request { incoming: Some(inc), .. } if self.rbuf.is_empty() => {
                inc.frames.payload().map(|max| (inc, max))
            }
            _ => None,
        };
        let read = match payload_next {
            Some((inc, max)) => inc.read_payload(&mut *self.stream, max),
            None => read_into(&mut self.rbuf, &mut *self.stream),
        };
        match read {
            Ok(n) => {
                self.eof = n == 0;
                None
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Some(Step::Park),
            Err(_) => Some(Step::Close),
        }
    }

    /// The one place a response becomes bytes, a counter and the next
    /// phase: handler answers, codec rejections and the `408` all end here.
    fn queue_response(&mut self, method: &Method, resp: Response, close: bool, now: Duration) {
        let mut shared = None;
        self.out.append(|buf| {
            let body = response_parts(&self.server.cfg, method, resp, close, buf);
            if body.len() >= SHARED_BODY_MIN {
                shared = Some(body);
            } else {
                buf.extend_from_slice(&body);
            }
        });
        if let Some(body) = shared {
            self.out.push_shared(body);
        }
        if close {
            self.server.stats.closes.fetch_add(1, Ordering::Relaxed);
            self.phase = Phase::Closing { since: now };
        } else {
            self.phase = Phase::Idle { since: now };
        }
    }

    /// Answer a request that never reached the handler, and close.
    fn reject(&mut self, status: StatusCode, now: Duration) {
        self.queue_response(&Method::Get, Response::error(status), true, now);
    }

    /// Consume what `rbuf` holds of the arriving request: the head, once the
    /// codec finds its end, then as much body as the framing allows. `true`
    /// means run the drive loop again — the head was parsed (an interim
    /// response may want flushing) or the request is complete, `rbuf`
    /// positioned at the next message and the dispatch scheduled; `false`
    /// means more input is needed.
    fn advance_request(&mut self, now: Duration) -> Result<bool, WireError> {
        let Phase::Request { incoming, .. } = &mut self.phase else { unreachable!() };
        let Some(inc) = incoming else {
            let Some(end) = self.scan.find(&self.rbuf)? else { return Ok(false) };
            let head = parse_request_head(&self.rbuf[..end]);
            consume(&mut self.rbuf, end);
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
                    self.out.append(|buf| buf.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n"));
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
                *incoming = Some(Incoming { head, body, filled: 0, frames });
            }
            return Ok(true);
        };
        let mut pos = 0;
        let complete = loop {
            match inc.frames.next(&self.rbuf[pos..])? {
                Frame::Skip(n) => pos += n,
                Frame::Payload(n) => {
                    let take = n.min((self.rbuf.len() - pos) as u64) as usize;
                    if take == 0 {
                        break false;
                    }
                    inc.push(&self.rbuf[pos..pos + take]);
                    pos += take;
                }
                Frame::NeedMore => break false,
                Frame::End => break true,
            }
        };
        consume(&mut self.rbuf, pos);
        if complete {
            // Dispatch after the configured processing delay (zero means
            // the same drive call dispatches).
            let Some(Incoming { head, mut body, filled, .. }) = incoming.take() else {
                unreachable!()
            };
            body.truncate(filled);
            let req = Request { head, body, peer: self.peer.clone() };
            self.phase = Phase::Respond { req: Some(req), at: now + self.server.cfg.process_delay };
        }
        Ok(complete)
    }

    /// Run the handler and queue its response.
    fn dispatch(&mut self, req: Request, now: Duration) {
        self.served += 1;
        self.server.stats.requests.fetch_add(1, Ordering::Relaxed);
        let method = req.head.method.clone();
        let client_keep_alive = req.head.headers.keep_alive(req.head.version == Version::Http11)
            && !self.server.cfg.http10;
        // The one place a handler runs: one that panics costs its request
        // a `500` and its connection, not the shard and every connection on
        // it.
        let handle = std::panic::AssertUnwindSafe(|| self.server.handler.handle(req));
        let resp = std::panic::catch_unwind(handle).unwrap_or_else(|_| {
            self.server.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
            Response { close: true, ..Response::error(StatusCode::INTERNAL_SERVER_ERROR) }
        });
        let cap_hit =
            self.server.cfg.max_requests_per_conn.map(|cap| self.served >= cap).unwrap_or(false);
        let close = resp.close || !client_keep_alive || cap_hit || self.shutting_down;
        self.queue_response(&method, resp, close, now);
    }

    fn drive_idle(&mut self, now: Duration) -> Step {
        let Phase::Idle { since } = &self.phase else { unreachable!() };
        let since = *since;
        if !self.rbuf.is_empty() {
            // Pipelined bytes already buffered: the next request has begun.
            self.phase = Phase::Request { since: now, incoming: None };
            return Step::Again;
        }
        if self.shutting_down {
            self.phase = Phase::Closing { since: now };
            return Step::Again;
        }
        if self.eof {
            return Step::Close; // clean close between requests
        }
        if let Some(t) = self.server.cfg.idle_timeout {
            if now >= since + t {
                return Step::Close; // idle keep-alive expired
            }
        }
        if self.pending_write() > MAX_WBUF {
            return Step::Park;
        }
        self.need_input().unwrap_or(Step::Again)
    }

    fn drive_request(&mut self, now: Duration) -> Step {
        let Phase::Request { since, .. } = &self.phase else { unreachable!() };
        if self.server.cfg.header_read_timeout.is_some_and(|t| now >= *since + t) {
            self.server.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            self.reject(StatusCode::REQUEST_TIMEOUT, now);
            return Step::Again;
        }
        loop {
            match self.advance_request(now) {
                Ok(true) => return Step::Again,
                Ok(false) => {
                    // Do not start on a new request while the peer is not
                    // reading the responses to its earlier ones.
                    if matches!(self.phase, Phase::Request { incoming: None, .. })
                        && !self.eof
                        && self.pending_write() > MAX_WBUF
                    {
                        return Step::Park;
                    }
                    if let Some(step) = self.need_input() {
                        return step;
                    }
                }
                Err(e) => {
                    let status = match e {
                        WireError::HeadTooLarge(_) => StatusCode::REQUEST_HEADER_FIELDS_TOO_LARGE,
                        _ => StatusCode::BAD_REQUEST,
                    };
                    self.reject(status, now);
                    return Step::Again;
                }
            }
        }
    }

    fn drive_respond(&mut self, now: Duration) -> Step {
        let Phase::Respond { at, .. } = &self.phase else { unreachable!() };
        if now < *at {
            return Step::Park; // the timer wheel wakes us at `at`
        }
        let Phase::Respond { req, .. } = &mut self.phase else { unreachable!() };
        let req = req.take().expect("request dispatched exactly once");
        self.dispatch(req, now);
        Step::Again
    }

    fn drive_closing(&mut self, now: Duration) -> Step {
        if self.pending_write() == 0 {
            return Step::Close;
        }
        let Phase::Closing { since } = &self.phase else { unreachable!() };
        if now >= *since + DRAIN_TIMEOUT {
            return Step::Close; // peer is not draining the final response
        }
        Step::Park
    }
}

impl Driven for HttpConn {
    fn drive(&mut self, now: Duration) -> DriveOutcome {
        loop {
            if self.out.flush(&mut *self.stream).is_err() {
                return DriveOutcome::Done;
            }
            let step = match self.phase {
                Phase::Idle { .. } => self.drive_idle(now),
                Phase::Request { .. } => self.drive_request(now),
                Phase::Respond { .. } => self.drive_respond(now),
                Phase::Closing { .. } => self.drive_closing(now),
            };
            match step {
                Step::Again => continue,
                Step::Park => return DriveOutcome::Continue,
                Step::Close => return DriveOutcome::Done,
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        match &self.phase {
            Phase::Idle { since } => self.server.cfg.idle_timeout.map(|t| *since + t),
            Phase::Request { since, .. } => self.server.cfg.header_read_timeout.map(|t| *since + t),
            Phase::Respond { at, .. } => Some(*at),
            Phase::Closing { since } => {
                if self.pending_write() == 0 {
                    None
                } else {
                    Some(*since + DRAIN_TIMEOUT)
                }
            }
        }
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        // Transports waited on via `poll_fd` report `Unsupported` here.
        let _ = self.stream.set_waker(waker);
    }

    fn poll_fd(&self) -> Option<i32> {
        self.stream.poll_fd()
    }

    fn wants_write(&self) -> bool {
        self.pending_write() > 0
    }

    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use davix_sync::AtomicUsize;
    use netsim::{LinkSpec, Pollable, Runtime, SimNet, SimStream};
    use std::io::{Cursor, Read, Write};
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

    /// `(target, body)` of every request the handler saw.
    type Seen = Vec<(String, Vec<u8>)>;

    /// `n` bytes no two windows of which look alike.
    fn pattern(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8 ^ (i / 251) as u8 ^ salt).collect()
    }

    /// One server connection over the simulated network, driven by hand:
    /// the test decides what has arrived before each `drive` and can look
    /// inside the connection between calls. `GET /big/N` answers 1 MiB,
    /// `GET /mid` 100 KiB, anything else `ok`.
    struct Rig<'a> {
        net: &'a SimNet,
        client: SimStream,
        conn: HttpConn,
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
            let log = Arc::clone(&seen);
            let handler = move |req: Request| {
                let target = req.head.target.clone();
                log.lock().unwrap().push((target.clone(), req.body));
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
            };
            let try_reads = Arc::new(AtomicUsize::new(0));
            let conn = HttpConn::new(
                Box::new(CountReads(Box::new(stream), Arc::clone(&try_reads))),
                peer,
                HttpServer::new(Arc::new(handler), ServerConfig::default()),
                rt.now(),
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
            match &self.conn.phase {
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
                quiet += usize::from(self.conn.pending_write() == 0);
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
    fn a_peer_that_leaves_mid_body_is_dropped_without_dispatch() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        let wire = put_sized("/put", &pattern(100 * 1024, 0));
        rig.feed(&wire[..wire.len() - 10]);
        assert_eq!(rig.incoming().filled, 100 * 1024 - 10);
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
        assert_eq!(inc.filled, 1024);
        // Touched memory: what arrived plus one landing area. The rest is a
        // reservation nothing has written to, and that is capped too.
        assert!(inc.body.len() <= 1024 + BODY_READ_MAX, "{} bytes touched", inc.body.len());
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
            assert!(rig.conn.rbuf.is_empty(), "cut at {cut}: nothing left over");
        }
    }

    #[test]
    fn an_idle_connection_keeps_no_more_than_a_read_however_long_the_last_head_was() {
        let net = sim();
        let _g = net.enter();
        let mut rig = Rig::new(&net, 80);
        rig.feed(&get("/small"));
        assert!(rig.conn.rbuf.capacity() < 1024, "what arrived, not what a read may bring");
        let long = format!(
            "GET /long HTTP/1.1\r\nHost: server\r\nX-Pad: {}\r\n\r\n",
            "x".repeat(60 * 1024)
        );
        rig.feed(long.as_bytes());
        assert_eq!(rig.seen.lock().unwrap().len(), 2, "a 60 KiB head is within the limit");
        assert!(rig.conn.rbuf.is_empty() && matches!(rig.conn.phase, Phase::Idle { .. }));
        assert!(
            rig.conn.rbuf.capacity() <= READ_CHUNK,
            "{} bytes of receive buffer held while idle",
            rig.conn.rbuf.capacity()
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
        assert!(rig.conn.pending_write() > MAX_WBUF, "a window's worth of 1 MiB has gone");
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
        let unsent = rig.conn.pending_write();
        assert!(unsent > SHARED_BODY_MIN && unsent <= MAX_WBUF);
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
        assert_eq!(rig.seen.lock().unwrap()[1], ("/put".to_string(), b"abc".to_vec()));
    }
}
