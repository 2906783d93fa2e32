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
//! HTTP grammar: received bytes sit in `rbuf` and are shown to
//! [`httpwire::codec`] — [`HeadScan`] and `parse_request_head` for the
//! head, one [`BodyFrames`] for the body — which says what they are, where
//! the message ends, and when a peer has broken the framing or a size limit
//! (`400`/`431` and close). It is the same codec the blocking client reads
//! responses with.
//!
//! All time-based behaviour lives in the reactor's timer wheel rather than
//! in transport read timeouts (which the simulated network cannot honour
//! uniformly): the *idle* timeout runs while waiting for a request to start,
//! and the *header-read* timeout runs from the first byte of a request until
//! its head and body have fully arrived — a slowloris client trickling one
//! header byte per second is evicted with `408 Request Timeout` when that
//! budget expires, having cost one timer-wheel entry instead of a thread.

use crate::server::{encode_response, Handler, Request, Response, ServerConfig, ServerStats};
use davix_sync::{AtomicUsize, Ordering};
use httpwire::codec::{parse_request_head, request_body_len, BodyFrames, BodyLen, Frame, HeadScan};
use httpwire::{Method, RequestHead, StatusCode, Version, WireError};
use netsim::{BoxedStream, DriveOutcome, Driven, Signal};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Bytes read from the transport per `try_read` call.
const READ_CHUNK: usize = 16 * 1024;
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

/// Shared live-connection accounting between the accept loop (which blocks
/// when the table is full) and the connections (which free their slot on
/// drop).
pub(crate) struct ConnSlots {
    /// Connections currently owned by the reactor.
    pub(crate) open: AtomicUsize,
    /// Set whenever a slot frees, waking a backpressured accept loop.
    pub(crate) freed: Arc<dyn Signal>,
}

/// RAII slot held by one connection; dropping it (connection closed, however
/// that happened) frees the slot and wakes the accept loop.
pub(crate) struct ConnSlotGuard(pub(crate) Arc<ConnSlots>);

impl Drop for ConnSlotGuard {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::SeqCst);
        self.0.freed.set();
    }
}

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
    body: Vec<u8>,
    frames: BodyFrames,
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
    handler: Arc<dyn Handler>,
    cfg: Arc<ServerConfig>,
    stats: Arc<ServerStats>,
    phase: Phase,
    /// Received-but-unparsed bytes.
    rbuf: Vec<u8>,
    /// Progress of the search for the head's end in `rbuf` (so repeated
    /// scans of a slowly-arriving head stay linear).
    scan: HeadScan,
    /// Queued response bytes and how much of them has been written.
    wbuf: Vec<u8>,
    wpos: usize,
    served: u64,
    eof: bool,
    shutting_down: bool,
    _slot: ConnSlotGuard,
}

impl HttpConn {
    pub(crate) fn new(
        stream: BoxedStream,
        peer: String,
        handler: Arc<dyn Handler>,
        cfg: Arc<ServerConfig>,
        stats: Arc<ServerStats>,
        slot: ConnSlotGuard,
        now: Duration,
    ) -> Self {
        HttpConn {
            stream,
            peer,
            handler,
            cfg,
            stats,
            phase: Phase::Idle { since: now },
            rbuf: Vec::new(),
            scan: HeadScan::default(),
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            eof: false,
            shutting_down: false,
            _slot: slot,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Write queued bytes until done or the transport pushes back.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.try_write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "stream closed")),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos > 0 && self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Out of buffered bytes: read more. `None` means look at `rbuf` again
    /// (it grew, or EOF is now known); otherwise the step to take — a peer
    /// that is gone mid-request just gets the connection closed.
    fn need_input(&mut self) -> Option<Step> {
        if self.eof {
            return Some(Step::Close);
        }
        let mut buf = [0u8; READ_CHUNK];
        match self.stream.try_read(&mut buf) {
            Ok(n) => {
                self.rbuf.extend_from_slice(&buf[..n]);
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
        self.wbuf.extend_from_slice(&encode_response(&self.cfg, method, resp, close));
        if close {
            self.stats.closes.fetch_add(1, Ordering::Relaxed);
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
        let Some(Incoming { body, frames, .. }) = incoming else {
            let Some(end) = self.scan.find(&self.rbuf)? else { return Ok(false) };
            let head = parse_request_head(&self.rbuf[..end]);
            self.rbuf.drain(..end);
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
                    self.wbuf.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
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
                *incoming = Some(Incoming { head, body, frames });
            }
            return Ok(true);
        };
        let mut pos = 0;
        let complete = loop {
            match frames.next(&self.rbuf[pos..])? {
                Frame::Skip(n) => pos += n,
                Frame::Payload(n) => {
                    let take = n.min((self.rbuf.len() - pos) as u64) as usize;
                    if take == 0 {
                        break false;
                    }
                    body.extend_from_slice(&self.rbuf[pos..pos + take]);
                    frames.advance(take as u64);
                    pos += take;
                }
                Frame::NeedMore => break false,
                Frame::End => break true,
            }
        };
        self.rbuf.drain(..pos);
        if complete {
            // Dispatch after the configured processing delay (zero means
            // the same drive call dispatches).
            let Some(Incoming { head, body, .. }) = incoming.take() else { unreachable!() };
            let req = Request { head, body, peer: self.peer.clone() };
            self.phase = Phase::Respond { req: Some(req), at: now + self.cfg.process_delay };
        }
        Ok(complete)
    }

    /// Run the handler and queue its response.
    fn dispatch(&mut self, req: Request, now: Duration) {
        self.served += 1;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let method = req.head.method.clone();
        let client_keep_alive =
            req.head.headers.keep_alive(req.head.version == Version::Http11) && !self.cfg.http10;
        let resp = self.handler.handle(req);
        let cap_hit = self.cfg.max_requests_per_conn.map(|cap| self.served >= cap).unwrap_or(false);
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
        if let Some(t) = self.cfg.idle_timeout {
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
        if self.cfg.header_read_timeout.is_some_and(|t| now >= *since + t) {
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
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
            if self.flush().is_err() {
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
            Phase::Idle { since } => self.cfg.idle_timeout.map(|t| *since + t),
            Phase::Request { since, .. } => self.cfg.header_read_timeout.map(|t| *since + t),
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
