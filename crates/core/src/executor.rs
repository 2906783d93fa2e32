//! Request execution: pool checkout → write → parse → recycle, plus the
//! retry and redirect policies — each written once.
//!
//! * **One exchange.** `exchange` checks a session out, writes the head,
//!   sends whatever body it was given and reads the response head. The body
//!   is the request's own in-memory [`Bytes`] (sent in the *same write* as
//!   the head), a streaming [`BodyProvider`] (head → `Expect: 100-continue`
//!   wait → streamed body, salvaging an early final response), or nothing.
//! * **One policy loop.** `execute_streaming_with_budget` runs exchanges
//!   until one yields a final response: a stale recycled session is retried
//!   for free, redirects are followed (a provider body is replayed at the
//!   new location from a fresh source), 5xx and transport failures retry
//!   within the budget. Failures *after* the head — the body broke while it
//!   was being read — are retried by `with_retries` on the same counter, so
//!   the two stages share one budget; such a retry starts again at the
//!   request's own URI. `may_retry` is the only place the budget and the
//!   method's idempotency are consulted.
//!
//! The public entry points are thin wrappers over those:
//! [`HttpExecutor::execute_streaming`] hands back a [`ResponseStream`] that
//! owns the pooled session and yields body bytes incrementally;
//! [`HttpExecutor::execute`] collects it into a `Vec`;
//! [`HttpExecutor::execute_upload`] does the same with the body streamed
//! from a provider.

use crate::config::{Config, USER_AGENT};
use crate::error::{DavixError, Result};
use crate::metrics::Metrics;
use crate::pool::{Session, SessionPool};
use bytes::Bytes;
use httpwire::body::BodySource;
use httpwire::parse::{BodyFraming, ResponseStart, StartReader};
use httpwire::{HeadWriter, HeaderMap, Method, ResponseHead, StatusCode, Uri, Version, WireError};
use netsim::{Connector, Runtime};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// A request ready for execution.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// HTTP method.
    pub method: Method,
    /// Absolute target URI.
    pub uri: Uri,
    /// Extra headers (`Host`, `User-Agent`, `Content-Length` are added
    /// automatically).
    pub headers: HeaderMap,
    /// Optional body.
    pub body: Option<Bytes>,
}

impl PreparedRequest {
    /// A bodyless request.
    pub fn new(method: Method, uri: Uri) -> Self {
        PreparedRequest { method, uri, headers: HeaderMap::new(), body: None }
    }

    /// GET.
    pub fn get(uri: Uri) -> Self {
        Self::new(Method::Get, uri)
    }

    /// HEAD.
    pub fn head(uri: Uri) -> Self {
        Self::new(Method::Head, uri)
    }

    /// PUT with a body.
    pub fn put(uri: Uri, body: impl Into<Bytes>) -> Self {
        let mut r = Self::new(Method::Put, uri);
        r.body = Some(body.into());
        r
    }

    /// Add a header (builder style).
    pub fn header(mut self, name: &str, value: impl AsRef<str>) -> Self {
        self.headers.set(name, value);
        self
    }
}

/// A fully-received response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status line + headers.
    pub head: ResponseHead,
    /// Entire body.
    pub body: Vec<u8>,
    /// URI that actually served the response (after redirects).
    pub final_uri: Uri,
}

impl HttpResponse {
    /// Error out unless the status is 2xx.
    pub fn expect_success(self, context: &str) -> Result<HttpResponse> {
        if self.head.status.is_success() {
            Ok(self)
        } else {
            Err(DavixError::from_status(
                self.head.status,
                format!("{context} ({})", self.final_uri),
            ))
        }
    }
}

/// A replayable streaming request body.
///
/// [`HttpExecutor::execute_upload`] pulls a **fresh** [`BodySource`] per
/// attempt, so retries and redirect hops re-send the body from the start —
/// a provider must be able to open its underlying data more than once
/// (re-open the file, re-slice the buffer). One-shot streams belong behind
/// a buffering provider instead.
pub trait BodyProvider: Send + Sync {
    /// Total body length when known (`Content-Length` framing); `None`
    /// streams with `Transfer-Encoding: chunked`.
    fn content_length(&self) -> Option<u64>;
    /// Open a fresh source over the whole body.
    fn open(&self) -> Result<BodySource<'_>>;
}

/// In-memory bodies are trivially replayable.
impl BodyProvider for Bytes {
    fn content_length(&self) -> Option<u64> {
        Some(self.len() as u64)
    }

    fn open(&self) -> Result<BodySource<'_>> {
        Ok(BodySource::from_slice(self.as_ref()))
    }
}

/// Executes [`PreparedRequest`]s over a [`SessionPool`].
pub struct HttpExecutor {
    pool: SessionPool,
    cfg: Config,
    rt: Arc<dyn Runtime>,
    metrics: Arc<Metrics>,
}

/// Cap on immediate retries against *stale* recycled sessions (a server that
/// closes between our keep-alive checkout and our write).
const MAX_STALE_RETRIES: u32 = 3;

/// Ceiling on one exponential-backoff sleep. Doubling per attempt overflows
/// `Duration` quickly for large configured backoffs/retry counts; anything a
/// server has not recovered from after a minute is unlikely to be fixed by
/// waiting longer.
const MAX_RETRY_BACKOFF: Duration = Duration::from_secs(60);

/// Most body bytes [`ResponseStream::finish`] reads to win a session back
/// for the next hop; a redirect or 5xx page longer than this (or one that
/// never ends) costs its connection instead of pinning the policy loop.
const MAX_DRAIN_BYTES: usize = 64 * 1024;

/// Most serialisation buffer a session keeps between requests: room for any
/// head (a 500-range `Range` field is ~10 KB), not for an in-memory body.
const MAX_KEPT_WIRE: usize = 64 * 1024;

/// Don't trust `Content-Length` for more than this much up-front `Vec`
/// capacity when collecting a body (a lying header must not OOM the client).
const MAX_BODY_PREALLOC: u64 = 1 << 20;

/// Idle sessions older than this are discarded on checkout.
const IDLE_SESSION_TTL: Duration = Duration::from_secs(60);

/// How long an `Expect: 100-continue` upload waits for the interim response
/// before sending the body anyway (the RFC 7231 §5.1.1 fallback for servers
/// that never answer 100).
const EXPECT_CONTINUE_TIMEOUT: Duration = Duration::from_millis(500);

impl HttpExecutor {
    /// Build an executor (and its pool) from transport + config.
    pub fn new(
        connector: Arc<dyn Connector>,
        rt: Arc<dyn Runtime>,
        cfg: Config,
        metrics: Arc<Metrics>,
    ) -> Self {
        let pool = SessionPool::new(
            connector,
            Arc::clone(&rt),
            Arc::clone(&metrics),
            cfg.max_idle_per_endpoint,
            IDLE_SESSION_TTL,
            cfg.connect_timeout,
            cfg.io_timeout,
        );
        HttpExecutor { pool, cfg, rt, metrics }
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The runtime this executor schedules on.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.rt
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Direct pool access (benchmarks inspect idle counts).
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Execute with redirects and retries per configuration, collecting the
    /// whole body into memory. Thin wrapper over
    /// [`execute_streaming`](Self::execute_streaming) for callers that want
    /// a `Vec` (error pages, PROPFIND bodies, small objects); large-body
    /// paths should stream instead.
    pub fn execute(&self, req: &PreparedRequest) -> Result<HttpResponse> {
        self.with_retries(req, None, |stream| stream.into_response())
    }

    /// Execute with redirects and retries per configuration, returning the
    /// response with its body **unread**. The returned [`ResponseStream`]
    /// owns the pooled session: reading drains the body incrementally, and
    /// the session goes back to the pool the moment the body completes (or
    /// is dropped on the floor, non-reusable, if the stream is abandoned
    /// half-way).
    ///
    /// Redirect and 5xx-retry responses are consumed internally; the stream
    /// handed back is always the final hop's.
    pub fn execute_streaming(&self, req: &PreparedRequest) -> Result<ResponseStream<'_>> {
        self.execute_streaming_with_budget(req, None, &mut 0)
    }

    /// The one policy loop: run exchanges until one yields a final
    /// response. `upload` replaces the request's own body with a streamed
    /// one; `attempts` is the retry counter, owned by the caller so that
    /// [`with_retries`](Self::with_retries) can charge body-stage failures
    /// to the same budget instead of multiplying it.
    fn execute_streaming_with_budget(
        &self,
        req: &PreparedRequest,
        upload: Option<&dyn BodyProvider>,
        attempts: &mut u32,
    ) -> Result<ResponseStream<'_>> {
        // Where a redirect has sent the request; its own URI until then.
        let mut hop: Option<Uri> = None;
        let mut redirects = 0u32;
        let mut stale_retries = 0u32;
        loop {
            let uri = hop.as_ref().unwrap_or(&req.uri);
            match self.exchange(req, uri, upload) {
                Ok(raw) => {
                    let head = &raw.start.head;
                    let redirect = head.status.is_redirect() && head.headers.contains("location");
                    // 5xx on an idempotent request: retry within budget (the
                    // server may recover — matches libdavix's behaviour).
                    let again = redirect
                        || (head.status.is_server_error()
                            && self.may_retry(req, upload.is_some(), attempts));
                    if !again {
                        // The URI that was served: the last hop's, moved; the
                        // request's own, which the caller still holds, copied.
                        let served = hop.take().unwrap_or_else(|| req.uri.clone());
                        return Ok(self.make_stream(raw, served));
                    }
                    let stream = self.make_stream(raw, uri.clone());
                    if !redirect {
                        stream.finish();
                        self.backoff_sleep(*attempts);
                        continue;
                    }
                    redirects += 1;
                    let max = self.cfg.max_redirects;
                    if redirects > max {
                        return Err(DavixError::RedirectLoop(max));
                    }
                    Metrics::bump(&self.metrics.redirects);
                    let next = stream.head.headers.get("location").map(|l| uri.resolve_location(l));
                    // Consume the redirect body (so the session can be
                    // recycled for the next hop) only when that is worth
                    // anything; a broken body only costs us the connection.
                    stream.finish();
                    hop = next.transpose().map_err(DavixError::from)?;
                    *attempts = 0;
                }
                Err(TryError { error, stale }) => {
                    if stale && stale_retries < MAX_STALE_RETRIES {
                        // The recycled connection had died under us; the
                        // request never reached the application. Retry on a
                        // fresh connection without burning retry budget.
                        stale_retries += 1;
                        continue;
                    }
                    if error.is_retryable() && self.may_retry(req, upload.is_some(), attempts) {
                        self.backoff_sleep(*attempts);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
    }

    /// Run one exchange of `req` through the policy loop and `read` its
    /// response, again while `read` fails retryably (a reset or stall
    /// mid-body) and the budget — the same counter the policy loop draws
    /// on — allows. Protocol faults — a wrong `Content-Range`, a short
    /// body — are never retried.
    pub(crate) fn with_retries<T>(
        &self,
        req: &PreparedRequest,
        upload: Option<&dyn BodyProvider>,
        mut read: impl FnMut(ResponseStream<'_>) -> Result<T>,
    ) -> Result<T> {
        let mut attempts = 0u32;
        loop {
            let stream = self.execute_streaming_with_budget(req, upload, &mut attempts);
            match stream.and_then(&mut read) {
                Err(e)
                    if e.is_retryable() && self.may_retry(req, upload.is_some(), &mut attempts) =>
                {
                    self.backoff_sleep(attempts)
                }
                other => return other,
            }
        }
    }

    /// Whether a failed attempt at `req` may be repeated: the method must be
    /// idempotent and the budget not spent. Counts the retry when it may.
    fn may_retry(&self, req: &PreparedRequest, streamed: bool, attempts: &mut u32) -> bool {
        if !req.method.is_idempotent() || *attempts >= self.cfg.retry.retries {
            return false;
        }
        *attempts += 1;
        Metrics::bump(&self.metrics.retries);
        if streamed {
            Metrics::bump(&self.metrics.upload_retries);
        }
        true
    }

    /// Execute and require 2xx.
    pub fn execute_expect(&self, req: &PreparedRequest, context: &str) -> Result<HttpResponse> {
        self.execute(req)?.expect_success(context)
    }

    /// Execute a request whose body streams from `body` — nothing
    /// proportional to the payload is buffered on the client. Any `body` in
    /// `req` itself is ignored; framing headers come from the provider
    /// (`Content-Length` when the length is known, chunked otherwise).
    ///
    /// Semantics match [`execute`](Self::execute) with the body handled
    /// correctly at every turn:
    ///
    /// * bodies at least [`Config::expect_continue_threshold`] bytes long
    ///   (and all unknown-length bodies) are sent with
    ///   `Expect: 100-continue`: a server that answers with a final status
    ///   instead of the interim `100` gets its verdict honoured **without
    ///   the payload ever being transmitted**; a server that answers
    ///   nothing within half a second receives the body anyway
    ///   (RFC 7231 §5.1.1);
    /// * redirects are followed with the body **replayed** to the new
    ///   location (a fresh [`BodySource`] per hop — the 307/308 contract);
    /// * 5xx and transport failures on idempotent methods retry within the
    ///   shared budget, again with a fresh body (counted in
    ///   [`Metrics::upload_retries`]).
    pub fn execute_upload(
        &self,
        req: &PreparedRequest,
        body: &dyn BodyProvider,
    ) -> Result<HttpResponse> {
        self.with_retries(req, Some(body), |stream| stream.into_response())
    }

    /// One request/response exchange: checkout, then [`converse`] on the
    /// session — the response body stays on the wire for the
    /// [`ResponseStream`] to consume. A session that failed goes back to the
    /// pool unusable, here and nowhere else.
    ///
    /// [`converse`]: Self::converse
    fn exchange(
        &self,
        req: &PreparedRequest,
        uri: &Uri,
        upload: Option<&dyn BodyProvider>,
    ) -> std::result::Result<RawStream, TryError> {
        let fresh = |error| TryError { error, stale: false };
        let source = upload.map(|body| body.open()).transpose().map_err(fresh)?;
        let mut session = self.pool.acquire_for(uri).map_err(fresh)?;
        match self.converse(&mut session, req, uri, source) {
            Ok(start) => Ok(RawStream { start, session }),
            Err(error) => {
                self.pool.release(session, false);
                Err(error)
            }
        }
    }

    /// Write the head and the body it was given, stream a body `source` if
    /// there is one, read the final response head (interim 1xx responses
    /// are skipped). The blocking driver of [`Exchange`]: on a blocking
    /// session a poll never comes back `Pending`. EOF on a recycled session
    /// before any response byte means the server had already closed it:
    /// stale, not failed.
    fn converse(
        &self,
        session: &mut Session,
        req: &PreparedRequest,
        uri: &Uri,
        source: Option<BodySource<'_>>,
    ) -> std::result::Result<ResponseStart, TryError> {
        // `u64::MAX` disables Expect for *every* body, including
        // unknown-length ones (which otherwise always negotiate).
        let expect = source.as_ref().is_some_and(|source| {
            self.cfg.expect_continue_threshold != u64::MAX
                && !source.is_empty()
                && source.len().is_none_or(|n| n >= self.cfg.expect_continue_threshold)
        });
        // Head and in-memory body leave in one buffer → one transport write
        // → the whole request travels in one segment train.
        let mut wire = std::mem::take(&mut session.wire);
        wire.clear();
        write_request(&mut wire, req, uri, &self.cfg.user_agent, source.as_ref(), expect);
        // `bytes_uploaded` counts *payload* stores only — a PROPFIND or
        // multipart-complete XML body is protocol chatter.
        if let Some(body) = req.body.as_ref().filter(|_| source.is_none()) {
            if req.method == Method::Put {
                Metrics::add(&self.metrics.bytes_uploaded, body.len() as u64);
            }
        }

        Metrics::bump(&self.metrics.requests);
        Metrics::add(&self.metrics.bytes_out, wire.len() as u64);
        session.note_request();
        let mut exchange = Exchange::over(wire, &req.method);
        let sent = exchange.send_request(session.conn.get_mut());
        // The buffer is the session's again; with `sent` past its end, the
        // exchange has nothing more to write.
        let wire = std::mem::take(&mut exchange.wire);
        if wire.capacity() <= MAX_KEPT_WIRE {
            // One grown to carry an in-memory body is not kept for the
            // session's idle life.
            session.wire = wire;
        }
        sent.map_err(|e| TryError { error: e.into(), stale: session.reused })?;
        if let Some(source) = source {
            if let Some(start) =
                self.send_body(session, &mut exchange, source, expect, &req.method)?
            {
                return Ok(start);
            }
        }

        // After a streamed body, a slow server's `100 Continue` may still
        // arrive here, after our wait already timed out.
        let error = match exchange.poll(&mut session.conn) {
            Ok(ExchangePoll::Head(start)) => return Ok(start),
            // A blocking session would block only once its read timed out.
            Ok(ExchangePoll::Pending) => WireError::Io(std::io::ErrorKind::TimedOut.into()),
            Err(e) => e,
        };
        let stale = session.reused && matches!(error, WireError::UnexpectedEof);
        Err(TryError { error: error.into(), stale })
    }

    /// The streamed half of an exchange, after the head is written:
    /// negotiate `Expect: 100-continue`, stream the body. `Some` final
    /// response when the server answered without wanting (the rest of) the
    /// body: the connection cannot carry another request after it.
    fn send_body(
        &self,
        session: &mut Session,
        exchange: &mut Exchange,
        source: BodySource<'_>,
        expect: bool,
        method: &Method,
    ) -> std::result::Result<Option<ResponseStart>, TryError> {
        if expect {
            let verdict = self.await_continue(session, method).map_err(|error| TryError {
                stale: session.reused
                    && matches!(&error, DavixError::Connection(io)
                        if io.kind() == std::io::ErrorKind::UnexpectedEof),
                error,
            })?;
            if let Some(mut start) = verdict {
                // A reject or a redirect. The payload was never sent — that
                // is the whole point of Expect — but the server may still be
                // waiting for body bytes.
                start.reusable = false;
                return Ok(Some(start));
            }
        }

        match source.write_to(session.conn.get_mut()) {
            Ok(n) => {
                Metrics::add(&self.metrics.bytes_out, n);
                Metrics::add(&self.metrics.bytes_uploaded, n);
                Ok(None)
            }
            // Our own source ended short of its declared length: a
            // caller-side fault (file truncated under us), never retryable —
            // a replay would lie to the server again.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                Err(TryError { error: DavixError::InvalidArgument(e.to_string()), stale: false })
            }
            // Transport died mid-body — often because the server already
            // answered (reject + close). Salvage that final response if it
            // made it onto the wire: it explains the failure far better than
            // "broken pipe".
            Err(e) => match exchange.poll(&mut session.conn) {
                Ok(ExchangePoll::Head(mut start)) => {
                    start.reusable = false;
                    Ok(Some(start))
                }
                _ => Err(TryError { error: e.into(), stale: false }),
            },
        }
    }

    /// Wait briefly for the `Expect: 100-continue` verdict: `None` to send
    /// the body — the interim `100` came, or the window passed in silence
    /// (RFC 7231 §5.1.1) — or the final response that came instead, for
    /// which the body must **not** be sent. Peeks via `fill_buf` under a
    /// temporarily shortened read timeout so a timeout consumes nothing.
    fn await_continue(
        &self,
        session: &mut Session,
        method: &Method,
    ) -> Result<Option<ResponseStart>> {
        if session.conn.get_mut().set_read_timeout(Some(EXPECT_CONTINUE_TIMEOUT)).is_err() {
            return Ok(None); // transport without timeouts: just send
        }
        let peek = session.conn.fill_buf().map(|b| b.is_empty());
        let _ = session.conn.get_mut().set_read_timeout(Some(self.cfg.io_timeout));
        match peek {
            Ok(true) => Err(DavixError::Connection(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed while awaiting 100 Continue",
            ))),
            // A head is on the wire; under the restored io_timeout now.
            Ok(false) => {
                let start = StartReader::new(method, true).read(&mut session.conn)?;
                Ok((start.head.status != StatusCode::CONTINUE).then_some(start))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Sleep the exponential backoff for retry number `attempts` (1-based).
    /// `checked_mul` + a ceiling keep any configured backoff/retry count
    /// from overflowing `Duration` (which panics in `Duration * u32`).
    fn backoff_sleep(&self, attempts: u32) {
        let factor = 2u32.saturating_pow(attempts.saturating_sub(1));
        let backoff = self
            .cfg
            .retry
            .backoff
            .checked_mul(factor)
            .unwrap_or(MAX_RETRY_BACKOFF)
            .min(MAX_RETRY_BACKOFF);
        if !backoff.is_zero() {
            self.rt.sleep(backoff);
        }
    }

    fn make_stream(&self, raw: RawStream, final_uri: Uri) -> ResponseStream<'_> {
        let keep_alive = raw.start.reusable;
        let mut stream = ResponseStream {
            head: raw.start.head,
            final_uri,
            keep_alive,
            metrics: &self.metrics,
            lease: Lease { pool: &self.pool, session: Some(raw.session) },
            framing: BodyFraming::new(raw.start.body),
        };
        // Bodyless responses (HEAD, 204, 304…) are already complete: the
        // session goes straight back to the pool.
        if stream.framing.is_done() {
            stream.lease.release(keep_alive);
        }
        stream
    }
}

/// One request/response exchange on one connection, resumable at any byte:
/// the request's bytes and how many of them are written, then the start of
/// the response as far as it has arrived (a [`StartReader`]: head bytes
/// that straddle reads, interim responses skipped). Each
/// [`poll`](Self::poll) goes on from where the last one stopped, and a
/// `WouldBlock` from the connection costs nothing but a
/// [`ExchangePoll::Pending`].
///
/// The executor drives it on pooled blocking sessions, where a poll
/// returns the final head in one call; a load generator drives it on a
/// non-blocking stream from a reactor. Either way the response body is
/// next on the connection, for a [`BodyFraming`] to read.
#[derive(Debug)]
pub struct Exchange {
    wire: Vec<u8>,
    sent: usize,
    start: StartReader,
}

/// How far an [`Exchange::poll`] got.
#[derive(Debug)]
pub enum ExchangePoll {
    /// The connection would block: poll again once it is ready.
    Pending,
    /// The final response head; the body follows on the connection.
    Head(ResponseStart),
}

impl Exchange {
    /// `req` — with its own in-memory body, if any, in the same write — as
    /// an executor of the default [`Config`] sends it.
    pub fn new(req: &PreparedRequest) -> Exchange {
        let mut wire = Vec::new();
        write_request(&mut wire, req, &req.uri, USER_AGENT, None, false);
        Exchange::over(wire, &req.method)
    }

    /// An exchange that sends `wire`, a request serialised for `method`.
    fn over(wire: Vec<u8>, method: &Method) -> Exchange {
        Exchange { wire, sent: 0, start: StartReader::new(method, false) }
    }

    /// Write what is left of the request to `conn`, then read what has
    /// arrived of the response, up to its final head.
    pub fn poll<S: Read + Write>(
        &mut self,
        conn: &mut BufReader<S>,
    ) -> std::result::Result<ExchangePoll, WireError> {
        let polled = self.send_request(conn.get_mut());
        let polled = polled.map_err(WireError::from).and_then(|()| self.start.read(conn));
        match polled {
            Ok(start) => Ok(ExchangePoll::Head(start)),
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                Ok(ExchangePoll::Pending)
            }
            Err(e) => Err(e),
        }
    }

    /// Whether the whole request has been written.
    pub fn is_sent(&self) -> bool {
        self.sent >= self.wire.len()
    }

    /// Write what is left of the request.
    fn send_request(&mut self, conn: &mut impl Write) -> std::io::Result<()> {
        while self.sent < self.wire.len() {
            match conn.write(&self.wire[self.sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Serialise `req` for `uri` onto `wire`: the head — the request's own
/// fields, then what the exchange states itself ([`Stated`], in that order),
/// which replaces a field of that name among the request's own as
/// [`HeaderMap::set`] would — and then the request's in-memory body, unless
/// a `streamed` one replaces it.
fn write_request(
    wire: &mut Vec<u8>,
    req: &PreparedRequest,
    uri: &Uri,
    user_agent: &str,
    streamed: Option<&BodySource<'_>>,
    expect: bool,
) {
    let buffered = req.body.as_ref().filter(|_| streamed.is_none());
    let framing =
        streamed.map(Stated::Streamed).or(buffered.map(|body| Stated::Buffered(body.len())));
    let stated = [
        Some(Stated::Host(uri)),
        Some(Stated::UserAgent(user_agent)),
        framing,
        expect.then_some(Stated::Expect),
    ];
    let replaced = |name: &str| {
        let mut names = stated.iter().flatten().flat_map(|field| field.replaces());
        names.any(|own| own.eq_ignore_ascii_case(name))
    };
    let mut head =
        HeadWriter::request(wire, &req.method, &uri.path, uri.query.as_deref(), Version::Http11);
    for (name, value) in req.headers.iter().filter(|(name, _)| !replaced(name)) {
        head.field(name, value);
    }
    for field in stated.iter().flatten() {
        field.write(&mut head);
    }
    head.finish();
    if let Some(body) = buffered {
        wire.extend_from_slice(body);
    }
}

/// A checked-out session on its way back to the pool: released as reusable
/// by whoever saw its message end, or — still held when dropped, so
/// mid-message — given up with its connection.
struct Lease<'a> {
    pool: &'a SessionPool,
    session: Option<Session>,
}

impl Lease<'_> {
    fn release(&mut self, reusable: bool) {
        if let Some(session) = self.session.take() {
            self.pool.release(session, reusable);
        }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.release(false);
    }
}

/// A response whose head has been parsed and whose body is still on the
/// wire. Owns the pooled [`Session`] it arrived on.
///
/// Reading (via [`std::io::Read`]) enforces the HTTP framing and stops
/// exactly at the message boundary. The session is returned to the pool:
///
/// * **reusable** the moment the body is fully drained, when the response
///   allowed keep-alive;
/// * **non-reusable** (connection dropped) if the stream is dropped with
///   body bytes still unread — a half-read connection is mid-message and
///   can never be recycled.
pub struct ResponseStream<'a> {
    head: ResponseHead,
    final_uri: Uri,
    keep_alive: bool,
    metrics: &'a Metrics,
    lease: Lease<'a>,
    framing: BodyFraming,
}

impl std::fmt::Debug for ResponseStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseStream")
            .field("status", &self.head.status)
            .field("final_uri", &self.final_uri.to_string())
            .field("drained", &self.framing.is_done())
            .finish_non_exhaustive()
    }
}

impl ResponseStream<'_> {
    /// Status line + headers.
    pub fn head(&self) -> &ResponseHead {
        &self.head
    }

    /// Response status.
    pub fn status(&self) -> StatusCode {
        self.head.status
    }

    /// URI that actually served the response (after redirects).
    pub fn final_uri(&self) -> &Uri {
        &self.final_uri
    }

    /// Whether the body has been fully consumed (and the session returned
    /// to the pool).
    pub fn is_drained(&self) -> bool {
        self.framing.is_done()
    }

    /// Error out unless the status is 2xx. The body (an error page) is left
    /// unread; dropping it discards the connection, which is fine for an
    /// error path.
    pub fn expect_success(self, context: &str) -> Result<Self> {
        if self.head.status.is_success() {
            Ok(self)
        } else {
            Err(DavixError::from_status(
                self.head.status,
                format!("{context} ({})", self.final_uri),
            ))
        }
    }

    /// Consume the stream in whichever way is cheapest: drain the body when
    /// doing so can return the session to the pool (keep-alive allowed and
    /// at most 64 KiB left), otherwise drop the connection —
    /// reading a `Connection: close` (possibly close-delimited) body to EOF
    /// buys nothing, and a long or endless one would hold the caller for as
    /// long as the peer cares to trickle it.
    pub fn finish(mut self) {
        let mut sink = [0u8; 8192];
        let mut left = if self.keep_alive { MAX_DRAIN_BYTES } else { 0 };
        while left > 0 {
            let want = left.min(sink.len());
            match self.read(&mut sink[..want]) {
                Ok(0) | Err(_) => return,
                Ok(n) => left -= n,
            }
        }
        // Dropped with the body unfinished: the connection goes with it.
    }

    /// Read and discard the rest of the body. Returns the bytes discarded.
    pub fn drain(&mut self) -> Result<u64> {
        let mut sink = [0u8; 8192];
        let mut total = 0u64;
        loop {
            match self.read(&mut sink) {
                Ok(0) => return Ok(total),
                Ok(n) => total += n as u64,
                Err(e) => return Err(body_read_error(e)),
            }
        }
    }

    /// Collect the rest of the body into a `Vec`, consuming the stream.
    pub fn into_response(mut self) -> Result<HttpResponse> {
        let mut body = Vec::new();
        // A sizing hint only: what frames the body was settled by
        // `response_body_len` when the head arrived.
        if let Some(n) = self.head.headers.content_length().ok().flatten() {
            body.reserve(n.min(MAX_BODY_PREALLOC) as usize);
        }
        Read::read_to_end(&mut self, &mut body).map_err(body_read_error)?;
        Metrics::record_max(&self.metrics.peak_body_buffer, body.len() as u64);
        Ok(HttpResponse { head: self.head, body, final_uri: self.final_uri })
    }
}

impl Read for ResponseStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(session) = self.lease.session.as_mut() else {
            return Ok(0); // fully drained earlier (session already pooled)
        };
        match self.framing.read(&mut session.conn, buf) {
            Ok(n) => {
                if n > 0 {
                    Metrics::add(&self.metrics.bytes_in, n as u64);
                    Metrics::add(&self.metrics.bytes_streamed, n as u64);
                }
                if self.framing.is_done() {
                    self.lease.release(self.keep_alive);
                }
                Ok(n)
            }
            Err(e) => {
                // Framing violated or transport died: the connection is no
                // longer positioned at a message boundary.
                self.lease.release(false);
                Err(e)
            }
        }
    }
}

/// Map a body-framing I/O error into the same taxonomy the buffered path
/// used: truncation/corruption is a protocol fault (not retryable), real
/// transport errors stay connection/timeout faults (retryable).
pub(crate) fn body_read_error(e: std::io::Error) -> DavixError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData => {
            DavixError::Protocol(e.to_string())
        }
        _ => DavixError::from(e),
    }
}

struct RawStream {
    start: ResponseStart,
    session: Session,
}

/// A field the exchange writes into a request head itself. Each says which
/// of the request's own fields it stands in for and how it is written, so a
/// new one cannot be emitted without also displacing the caller's.
enum Stated<'a> {
    Host(&'a Uri),
    UserAgent(&'a str),
    /// The framing of a streamed body.
    Streamed(&'a BodySource<'a>),
    /// The length of an in-memory body.
    Buffered(usize),
    Expect,
}

impl Stated<'_> {
    /// Names of the request's own fields this one replaces.
    fn replaces(&self) -> &'static [&'static str] {
        match self {
            Stated::Host(_) => &["Host"],
            Stated::UserAgent(_) => &["User-Agent"],
            Stated::Streamed(_) => &["Content-Length", "Transfer-Encoding"],
            Stated::Buffered(_) => &["Content-Length"],
            Stated::Expect => &["Expect"],
        }
    }

    fn write(&self, head: &mut HeadWriter<'_>) {
        match self {
            Stated::Host(uri) => {
                match uri.explicit_port() {
                    None => head.field("Host", &uri.host),
                    Some(port) => head.field_fmt("Host", format_args!("{}:{port}", uri.host)),
                };
            }
            Stated::UserAgent(agent) => {
                head.field("User-Agent", agent);
            }
            Stated::Streamed(source) => source.write_framing(head),
            Stated::Buffered(len) => {
                head.field_fmt("Content-Length", format_args!("{len}"));
            }
            Stated::Expect => {
                head.field("Expect", "100-continue");
            }
        }
    }
}

struct TryError {
    error: DavixError,
    stale: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use httpd::{HttpServer, Request, Response, ServerConfig};
    use httpwire::StatusCode;
    use netsim::{LinkSpec, SimNet};
    use objstore::{ObjectStore, StorageNode, StorageOptions};
    use parking_lot::Mutex;
    use std::collections::VecDeque;
    use std::time::Duration;

    fn sim() -> SimNet {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
        net
    }

    fn executor(net: &SimNet, cfg: Config) -> HttpExecutor {
        HttpExecutor::new(net.connector("c"), net.runtime(), cfg, Arc::new(Metrics::default()))
    }

    fn storage(net: &SimNet) -> Arc<ObjectStore> {
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"hello world"));
        StorageNode::start(
            Arc::clone(&store),
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        store
    }

    #[test]
    fn get_roundtrip_with_keepalive_reuse() {
        let net = sim();
        let _store = storage(&net);
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        for _ in 0..3 {
            let resp = ex
                .execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get /f")
                .unwrap();
            assert_eq!(resp.body, b"hello world");
        }
        let m = ex.metrics().snapshot();
        assert_eq!(m.requests, 3);
        assert_eq!(m.sessions_created, 1, "keep-alive must recycle the session");
        assert_eq!(m.sessions_reused, 2);
    }

    #[test]
    fn not_found_maps_to_error() {
        let net = sim();
        let _store = storage(&net);
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        let err = ex
            .execute_expect(&PreparedRequest::get("http://s/missing".parse().unwrap()), "get")
            .unwrap_err();
        assert!(matches!(err, DavixError::NotFound(_)));
    }

    #[test]
    fn redirects_are_followed() {
        let net = sim();
        net.add_host("s2");
        net.set_link("c", "s2", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
        // s: redirector; s2: storage
        let redirector = HttpServer::new(
            Arc::new(|req: Request| {
                Response::empty(StatusCode::FOUND)
                    .header("Location", format!("http://s2{}", req.head.target))
            }),
            ServerConfig::default(),
        );
        redirector.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"via-redirect"));
        StorageNode::start(
            store,
            Box::new(net.bind("s2", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        let resp =
            ex.execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get").unwrap();
        assert_eq!(resp.body, b"via-redirect");
        assert_eq!(resp.final_uri.host, "s2");
        assert_eq!(ex.metrics().snapshot().redirects, 1);
    }

    #[test]
    fn redirect_loop_is_detected() {
        let net = sim();
        let looper = HttpServer::new(
            Arc::new(|req: Request| {
                Response::empty(StatusCode::FOUND).header("Location", req.head.target)
            }),
            ServerConfig::default(),
        );
        looper.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let _g = net.enter();
        let ex = executor(&net, Config { max_redirects: 4, ..Config::default() });
        let err = ex.execute(&PreparedRequest::get("http://s/x".parse().unwrap())).unwrap_err();
        assert!(matches!(err, DavixError::RedirectLoop(4)));
    }

    #[test]
    fn stale_recycled_session_is_retried_transparently() {
        let net = sim();
        // Server closes every connection after one request.
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"x"));
        StorageNode::start(
            store,
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig { max_requests_per_conn: Some(1), ..Default::default() },
        );
        let _g = net.enter();
        let ex = executor(&net, Config::default().no_retry());
        for _ in 0..3 {
            ex.execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get").unwrap();
        }
        // Connection-per-request server: the response advertises close, so
        // davix should never even try to recycle (no stale retries burned).
        let m = ex.metrics().snapshot();
        assert_eq!(m.sessions_created, 3);
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn server_errors_are_retried_for_idempotent_methods() {
        let net = sim();
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"ok"));
        let node = StorageNode::start(
            store,
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        node.handler.fail_next(2);
        let _g = net.enter();
        let ex = executor(
            &net,
            Config {
                retry: crate::config::RetryPolicy { retries: 3, backoff: Duration::from_millis(1) },
                ..Config::default()
            },
        );
        let resp =
            ex.execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get").unwrap();
        assert_eq!(resp.body, b"ok");
        assert_eq!(ex.metrics().snapshot().retries, 2);
    }

    #[test]
    fn retry_budget_exhaustion_returns_last_error() {
        let net = sim();
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"ok"));
        let node = StorageNode::start(
            store,
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        node.handler.fail_next(10);
        let _g = net.enter();
        let ex = executor(
            &net,
            Config {
                retry: crate::config::RetryPolicy { retries: 1, backoff: Duration::ZERO },
                ..Config::default()
            },
        );
        let err = ex
            .execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get")
            .unwrap_err();
        assert!(
            matches!(err, DavixError::Http { status, .. } if status == StatusCode::INTERNAL_SERVER_ERROR)
        );
    }

    #[test]
    fn put_and_delete_roundtrip() {
        let net = sim();
        let store = storage(&net);
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        let resp = ex
            .execute_expect(
                &PreparedRequest::put("http://s/new".parse().unwrap(), &b"data"[..]),
                "put",
            )
            .unwrap();
        assert_eq!(resp.head.status, StatusCode::CREATED);
        assert_eq!(store.get("/new").unwrap().data.as_ref(), b"data");
        let resp = ex
            .execute_expect(
                &PreparedRequest::new(Method::Delete, "http://s/new".parse().unwrap()),
                "delete",
            )
            .unwrap();
        assert_eq!(resp.head.status, StatusCode::NO_CONTENT);
        assert!(store.get("/new").is_none());
    }

    /// A provider that refuses to declare its length, forcing chunked
    /// transfer encoding.
    struct Unsized(Vec<u8>);

    impl BodyProvider for Unsized {
        fn content_length(&self) -> Option<u64> {
            None
        }

        fn open(&self) -> Result<httpwire::BodySource<'_>> {
            Ok(httpwire::BodySource::chunked(std::io::Cursor::new(self.0.clone())))
        }
    }

    #[test]
    fn streaming_upload_roundtrips_sized_and_chunked() {
        let net = sim();
        let store = storage(&net);
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        let payload: Vec<u8> = (0..300_000).map(|i| (i % 241) as u8).collect();

        // Sized (Content-Length) body, large enough for Expect: 100-continue.
        let body = Bytes::from(payload.clone());
        let req = PreparedRequest::new(Method::Put, "http://s/sized".parse().unwrap());
        let resp = ex.execute_upload(&req, &body).unwrap();
        assert_eq!(resp.head.status, StatusCode::CREATED);
        assert_eq!(store.get("/sized").unwrap().data.as_ref(), &payload[..]);

        // Unknown length: chunked transfer encoding end-to-end.
        let req = PreparedRequest::new(Method::Put, "http://s/chunked".parse().unwrap());
        let resp = ex.execute_upload(&req, &Unsized(payload.clone())).unwrap();
        assert_eq!(resp.head.status, StatusCode::CREATED);
        assert_eq!(store.get("/chunked").unwrap().data.as_ref(), &payload[..]);

        let m = ex.metrics().snapshot();
        assert_eq!(m.bytes_uploaded, 2 * payload.len() as u64);
        assert_eq!(m.upload_retries, 0);
    }

    #[test]
    fn large_uploads_carry_expect_100_continue_and_small_ones_do_not() {
        let net = sim();
        let expects = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&expects);
        let server = HttpServer::new(
            Arc::new(move |req: Request| {
                seen.lock().push(req.head.headers.get("expect").map(str::to_string));
                Response::empty(StatusCode::CREATED)
            }),
            ServerConfig::default(),
        );
        server.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let _g = net.enter();
        let ex = executor(&net, Config { expect_continue_threshold: 1024, ..Config::default() });
        let small = Bytes::from(vec![1u8; 100]);
        ex.execute_upload(
            &PreparedRequest::new(Method::Put, "http://s/a".parse().unwrap()),
            &small,
        )
        .unwrap();
        let big = Bytes::from(vec![2u8; 4096]);
        ex.execute_upload(&PreparedRequest::new(Method::Put, "http://s/b".parse().unwrap()), &big)
            .unwrap();
        let seen = expects.lock().clone();
        assert_eq!(seen, vec![None, Some("100-continue".to_string())]);
        // u64::MAX disables Expect entirely — even for unknown-length
        // (chunked) bodies, which otherwise always negotiate.
        let ex =
            executor(&net, Config { expect_continue_threshold: u64::MAX, ..Config::default() });
        ex.execute_upload(
            &PreparedRequest::new(Method::Put, "http://s/c".parse().unwrap()),
            &Unsized(vec![3u8; 64 * 1024]),
        )
        .unwrap();
        assert_eq!(expects.lock().last().cloned(), Some(None), "Expect must be suppressed");
    }

    #[test]
    fn expect_rejection_spares_the_payload() {
        let net = sim();
        // Hand-rolled server: reads the request head and rejects immediately
        // — it never asks for (or drains) the body.
        let listener = net.bind("s", 80).unwrap();
        net.spawn("rejecting-server", move || loop {
            let Ok((stream, _)) = listener.accept_sim() else { return };
            let mut w = netsim::Stream::try_clone(&stream).unwrap();
            let mut r = std::io::BufReader::new(stream);
            if httpwire::parse::read_request_head(&mut r).ok().flatten().is_none() {
                continue;
            }
            let _ = w.write_all(b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n");
        });
        let _g = net.enter();
        let ex =
            executor(&net, Config { expect_continue_threshold: 0, ..Config::default().no_retry() });
        let body = Bytes::from(vec![9u8; 1 << 20]);
        let req = PreparedRequest::new(Method::Put, "http://s/denied".parse().unwrap());
        let resp = ex.execute_upload(&req, &body).unwrap();
        assert_eq!(resp.head.status, StatusCode::FORBIDDEN);
        let m = ex.metrics().snapshot();
        assert_eq!(m.bytes_uploaded, 0, "rejected upload must never transmit the payload");
    }

    #[test]
    fn upload_5xx_is_retried_with_a_fresh_body() {
        let net = sim();
        let store = Arc::new(ObjectStore::new());
        let node = StorageNode::start(
            Arc::clone(&store),
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        node.handler.fail_next(1);
        let _g = net.enter();
        let ex = executor(
            &net,
            Config {
                retry: crate::config::RetryPolicy { retries: 2, backoff: Duration::from_millis(1) },
                ..Config::default()
            },
        );
        let payload: Vec<u8> = (0..500_000).map(|i| (i % 199) as u8).collect();
        let req = PreparedRequest::new(Method::Put, "http://s/retried".parse().unwrap());
        ex.execute_upload(&req, &Bytes::from(payload.clone())).unwrap();
        assert_eq!(store.get("/retried").unwrap().data.as_ref(), &payload[..]);
        let m = ex.metrics().snapshot();
        assert_eq!(m.upload_retries, 1);
        assert_eq!(
            m.bytes_uploaded,
            2 * payload.len() as u64,
            "the retry must replay the full body"
        );
    }

    /// Regression (PR 5): a PUT redirected with 307 must land the complete
    /// body at the new location — an executor that re-entered the redirect
    /// loop with an empty body would create a zero-byte object.
    #[test]
    fn put_body_replayed_through_307_redirect() {
        let net = sim();
        net.add_host("s2");
        net.set_link("c", "s2", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
        let redirector = HttpServer::new(
            Arc::new(|req: Request| {
                Response::empty(StatusCode::TEMPORARY_REDIRECT)
                    .header("Location", format!("http://s2{}", req.head.target))
            }),
            ServerConfig::default(),
        );
        redirector.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let store = Arc::new(ObjectStore::new());
        StorageNode::start(
            Arc::clone(&store),
            Box::new(net.bind("s2", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        let payload: Vec<u8> = (0..200_000).map(|i| (i % 173) as u8).collect();

        // Buffered path.
        let resp = ex
            .execute_expect(
                &PreparedRequest::put("http://s/buffered".parse().unwrap(), payload.clone()),
                "put",
            )
            .unwrap();
        assert_eq!(resp.final_uri.host, "s2");
        assert_eq!(store.get("/buffered").unwrap().data.as_ref(), &payload[..]);

        // Streaming path: the Expect handshake runs per hop and the body is
        // replayed from a fresh source at the redirect target.
        let req = PreparedRequest::new(Method::Put, "http://s/streamed".parse().unwrap());
        let resp = ex.execute_upload(&req, &Bytes::from(payload.clone())).unwrap();
        assert!(resp.head.status.is_success());
        assert_eq!(store.get("/streamed").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(ex.metrics().snapshot().redirects, 2);
    }

    // ---- the one policy, for every kind of body ---------------------------

    /// What the scripted server does with the n-th request it receives.
    #[derive(Clone, Copy, Debug)]
    enum Reply {
        Ok,
        /// Answer, then close without saying so: the client's pooled
        /// session is stale by the time it is used again.
        OkThenClose,
        Error500,
        Redirect307,
        /// A `200` whose body is cut short by a connection reset.
        ResetMidBody,
    }

    /// A server that reads every request to its end (answering `Expect:
    /// 100-continue` first), then replies as `script` says — `Ok` once the
    /// script runs out. Returns the body length of every request it read.
    fn scripted_server(net: &SimNet, script: &[Reply]) -> Arc<Mutex<Vec<usize>>> {
        use httpwire::codec::request_body_len;
        use httpwire::parse::{read_request_head, BodyReader};
        use netsim::Runtime as _;

        let script = Arc::new(Mutex::new(script.iter().copied().collect::<VecDeque<_>>()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let listener = net.bind("s", 80).unwrap();
        let (net, rt, seen2) = (net.clone(), net.runtime(), Arc::clone(&seen));
        net.clone().spawn("scripted-accept", move || {
            for conn in 0.. {
                let Ok((stream, _)) = listener.accept_sim() else { return };
                let (net, rt2) = (net.clone(), Arc::clone(&rt));
                let (script, seen) = (Arc::clone(&script), Arc::clone(&seen2));
                let serve = move || {
                    let mut w = netsim::Stream::try_clone(&stream).unwrap();
                    let mut r = std::io::BufReader::new(stream);
                    while let Ok(Some(head)) = read_request_head(&mut r) {
                        if head.headers.contains("expect") {
                            let _ = w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
                        }
                        let Ok(len) = request_body_len(&head) else { return };
                        let Ok(body) = BodyReader::new(&mut r, len).read_all() else { return };
                        seen.lock().push(body.len());
                        let reply = script.lock().pop_front().unwrap_or(Reply::Ok);
                        let wire: &[u8] = match reply {
                            Reply::Ok | Reply::OkThenClose => {
                                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
                            }
                            Reply::Error500 => {
                                b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops"
                            }
                            Reply::Redirect307 => {
                                b"HTTP/1.1 307 Temporary Redirect\r\nLocation: /target\r\n\
                                  Content-Length: 0\r\n\r\n"
                            }
                            Reply::ResetMidBody => {
                                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789"
                            }
                        };
                        let _ = w.write_all(wire);
                        match reply {
                            Reply::OkThenClose => return,
                            Reply::ResetMidBody => {
                                // Let the partial body land, then reset
                                // every connection of this host.
                                rt2.sleep(Duration::from_millis(5));
                                net.set_host_down("s", true);
                                net.set_host_down("s", false);
                                return;
                            }
                            _ => {}
                        }
                    }
                };
                rt.spawn(&format!("scripted-conn-{conn}"), Box::new(serve));
            }
        });
        seen
    }

    /// The five ways a request reaches `exchange`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        /// No body, through `execute`.
        Bodyless,
        /// No body, the response read incrementally under `with_retries`
        /// (the shape of every `file.rs` reader; `execute_streaming` is
        /// this loop's head stage alone).
        Streamed,
        /// The request's own in-memory body.
        Buffered,
        /// A provider of known length (`Content-Length`).
        ProviderSized,
        /// A provider of unknown length (chunked).
        ProviderChunked,
    }

    const KINDS: [Kind; 5] = [
        Kind::Bodyless,
        Kind::Streamed,
        Kind::Buffered,
        Kind::ProviderSized,
        Kind::ProviderChunked,
    ];
    const BODY: usize = 2048;

    impl Kind {
        fn has_body(self) -> bool {
            !matches!(self, Kind::Bodyless | Kind::Streamed)
        }

        /// Run one request of this kind; `method` overrides the natural
        /// GET / PUT.
        fn run(self, ex: &HttpExecutor, method: Option<Method>) -> Result<StatusCode> {
            let natural = if self.has_body() { Method::Put } else { Method::Get };
            let mut req =
                PreparedRequest::new(method.unwrap_or(natural), "http://s/x".parse().unwrap());
            let payload = Bytes::from(vec![7u8; BODY]);
            match self {
                Kind::Bodyless => ex.execute(&req).map(|r| r.head.status),
                Kind::Streamed => ex.with_retries(&req, None, |mut stream| {
                    stream.drain()?;
                    Ok(stream.status())
                }),
                Kind::Buffered => {
                    req.body = Some(payload);
                    ex.execute(&req).map(|r| r.head.status)
                }
                Kind::ProviderSized => ex.execute_upload(&req, &payload).map(|r| r.head.status),
                Kind::ProviderChunked => {
                    ex.execute_upload(&req, &Unsized(payload.to_vec())).map(|r| r.head.status)
                }
            }
        }
    }

    struct Scenario {
        name: &'static str,
        /// Served to a priming GET before the measured request.
        prime: Option<Reply>,
        script: &'static [Reply],
        method: Option<Method>,
        retries: u32,
        status: u16,
        requests: u64,
        retried: u64,
        redirects: u64,
        sessions_created: u64,
        /// Requests that got as far as the server.
        served: usize,
    }

    #[test]
    fn one_policy_for_every_kind_of_body() {
        use Reply::*;
        // What every scenario has unless it says otherwise.
        let base = || Scenario {
            name: "",
            prime: None,
            script: &[],
            method: None,
            retries: 0,
            status: 200,
            requests: 0,
            retried: 0,
            redirects: 0,
            sessions_created: 1,
            served: 0,
        };
        let scenarios = [
            Scenario {
                name: "stale recycled session",
                prime: Some(OkThenClose),
                script: &[Ok],
                // `retries: 0`: the stale attempt is free, no budget needed.
                requests: 2,
                served: 1,
                ..base()
            },
            Scenario {
                name: "two 5xx then 2xx",
                script: &[Error500, Error500, Ok],
                retries: 3,
                requests: 3,
                retried: 2,
                served: 3,
                ..base()
            },
            Scenario {
                name: "transport reset mid-response-body",
                script: &[ResetMidBody, Ok],
                retries: 2,
                requests: 2,
                retried: 1,
                sessions_created: 2,
                served: 2,
                ..base()
            },
            Scenario {
                name: "307 hop",
                script: &[Redirect307, Ok],
                requests: 2,
                redirects: 1,
                served: 2,
                ..base()
            },
            Scenario {
                name: "budget exhausted",
                script: &[Error500; 5],
                retries: 2,
                status: 500,
                requests: 3,
                retried: 2,
                served: 3,
                ..base()
            },
            Scenario {
                name: "non-idempotent POST never retried",
                script: &[Error500, Ok],
                method: Some(Method::Post),
                retries: 3,
                status: 500,
                requests: 1,
                served: 1,
                ..base()
            },
        ];
        for sc in &scenarios {
            for kind in KINDS {
                let what = format!("{kind:?} × {}", sc.name);
                let net = sim();
                let script: Vec<Reply> = sc.prime.iter().chain(sc.script).copied().collect();
                let seen = scripted_server(&net, &script);
                let _g = net.enter();
                let ex = executor(
                    &net,
                    Config {
                        retry: crate::config::RetryPolicy {
                            retries: sc.retries,
                            backoff: Duration::from_millis(1),
                        },
                        // Low enough that the sized provider negotiates
                        // `Expect` too (the chunked one always does).
                        expect_continue_threshold: 1024,
                        ..Config::default()
                    },
                );
                if sc.prime.is_some() {
                    Kind::Bodyless.run(&ex, None).unwrap();
                    net.sleep(Duration::from_millis(10)); // the server's FIN lands
                    seen.lock().clear();
                }
                let before = ex.metrics().snapshot();
                let status =
                    kind.run(&ex, sc.method.clone()).unwrap_or_else(|e| panic!("{what}: {e}"));
                let m = ex.metrics().snapshot().since(&before);
                assert_eq!(status.0, sc.status, "{what}: status");
                assert_eq!(m.requests, sc.requests, "{what}: requests");
                assert_eq!(m.retries, sc.retried, "{what}: retries");
                assert_eq!(m.redirects, sc.redirects, "{what}: redirects");
                assert_eq!(m.sessions_created, sc.sessions_created, "{what}: sessions_created");
                let streamed = matches!(kind, Kind::ProviderSized | Kind::ProviderChunked);
                let upload_retries = if streamed { sc.retried } else { 0 };
                assert_eq!(m.upload_retries, upload_retries, "{what}: upload_retries");
                // Every attempt the server saw carried the whole body.
                let want = if kind.has_body() { BODY } else { 0 };
                assert_eq!(*seen.lock(), vec![want; sc.served], "{what}: bodies");
            }
        }
    }

    // ---- the bytes of a request head ---------------------------------------

    /// A server that keeps the bytes of every request head it reads, lets a
    /// waiting body through and answers `200`.
    fn recording_server(net: &SimNet) -> Arc<Mutex<Vec<String>>> {
        let heads = Arc::new(Mutex::new(Vec::new()));
        let listener = net.bind("s", 80).unwrap();
        let seen = Arc::clone(&heads);
        net.spawn("recording-server", move || {
            let Ok((stream, _)) = listener.accept_sim() else { return };
            let mut w = netsim::Stream::try_clone(&stream).unwrap();
            let mut r = std::io::BufReader::new(stream);
            loop {
                let mut head = String::new();
                while !head.ends_with("\r\n\r\n") {
                    if r.read_line(&mut head).unwrap_or(0) == 0 {
                        return;
                    }
                }
                let field = |name: &str| {
                    head.lines().find_map(|l| l.strip_prefix(name)).map(|v| v.trim().to_string())
                };
                if field("Expect:").is_some() {
                    w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").unwrap();
                }
                if field("Transfer-Encoding:").is_some() {
                    let mut body = String::new();
                    while !body.ends_with("\r\n0\r\n\r\n") {
                        r.read_line(&mut body).unwrap();
                    }
                }
                let len = field("Content-Length:").map_or(0, |v| v.parse().unwrap());
                r.read_exact(&mut vec![0u8; len]).unwrap();
                seen.lock().push(head);
                w.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n").unwrap();
            }
        });
        heads
    }

    #[test]
    fn request_heads_are_these_bytes() {
        let net = sim();
        let heads = recording_server(&net);
        let _g = net.enter();
        let ex = executor(&net, Config::default());
        let uri: Uri = "http://s:80/dir/f.root?x=1".parse().unwrap();
        ex.execute(&PreparedRequest::get(uri.clone())).unwrap();
        ex.execute(&PreparedRequest::get(uri.clone()).header("Range", "bytes=0-99,200-299"))
            .unwrap();
        // The caller's own Host and Content-Length give way to the exchange's.
        let put = PreparedRequest::new(Method::Put, "http://s/up".parse().unwrap())
            .header("Host", "elsewhere")
            .header("X-Trace", "7")
            .header("Content-Length", "1");
        ex.execute_upload(&put, &Bytes::from(vec![1u8; 2 * 1024 * 1024])).unwrap();
        ex.execute_upload(&put, &Unsized(vec![1u8; 16])).unwrap();
        ex.execute(&PreparedRequest::put(uri, &b"abc"[..])).unwrap();
        // What the parent of the commit that moved serialisation into the
        // session's buffer put on the wire.
        let golden = [
            "GET /dir/f.root?x=1 HTTP/1.1\r\nHost: s\r\nUser-Agent: davix-rs/0.1\r\n\r\n",
            "GET /dir/f.root?x=1 HTTP/1.1\r\nRange: bytes=0-99,200-299\r\nHost: s\r\n\
             User-Agent: davix-rs/0.1\r\n\r\n",
            "PUT /up HTTP/1.1\r\nX-Trace: 7\r\nHost: s\r\nUser-Agent: davix-rs/0.1\r\n\
             Content-Length: 2097152\r\nExpect: 100-continue\r\n\r\n",
            "PUT /up HTTP/1.1\r\nX-Trace: 7\r\nHost: s\r\nUser-Agent: davix-rs/0.1\r\n\
             Transfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n",
            "PUT /dir/f.root?x=1 HTTP/1.1\r\nHost: s\r\nUser-Agent: davix-rs/0.1\r\n\
             Content-Length: 3\r\n\r\n",
        ];
        assert_eq!(*heads.lock(), golden);
        // An in-memory body rides in the session's buffer; what the buffer
        // grew to for it does not stay with the idle session.
        ex.execute(&PreparedRequest::put("http://s/big".parse().unwrap(), vec![0u8; 1 << 20]))
            .unwrap();
        let session =
            ex.pool().acquire(&crate::Endpoint::of(&"http://s/".parse().unwrap())).unwrap();
        assert!(session.reused && session.wire.capacity() <= MAX_KEPT_WIRE);
    }

    // ---- the exchange, resumed at every byte -------------------------------

    /// A connection over a scripted response. A trickling one moves one
    /// byte at a time, each way, and answers `WouldBlock` before each; a
    /// blocking one has everything ready at once.
    struct Scripted {
        wire: Vec<u8>,
        pos: usize,
        written: Vec<u8>,
        trickle: bool,
        ready: bool,
    }

    impl Scripted {
        fn conn(wire: Vec<u8>, trickle: bool) -> BufReader<Scripted> {
            BufReader::new(Scripted { wire, pos: 0, written: vec![], trickle, ready: false })
        }

        /// How many bytes may move now.
        fn ready(&mut self) -> std::io::Result<usize> {
            self.ready = !self.ready;
            match (self.trickle, !self.ready) {
                (false, _) => Ok(usize::MAX),
                (true, true) => Ok(1),
                (true, false) => Err(std::io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.ready()?.min(buf.len()).min(self.wire.len() - self.pos);
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.ready()?.min(buf.len());
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run one GET's exchange and read its body on `conn`, polling again
    /// after every `WouldBlock`; the outcome and how many polls it took.
    fn exchange_on(
        conn: &mut BufReader<Scripted>,
    ) -> (std::result::Result<(ResponseStart, Vec<u8>), String>, usize) {
        let mut exchange = Exchange::new(&PreparedRequest::get("http://s/f".parse().unwrap()));
        let mut polls = 1;
        let start = loop {
            match exchange.poll(conn) {
                Ok(ExchangePoll::Pending) => polls += 1,
                Ok(ExchangePoll::Head(start)) => break start,
                Err(e) => return (Err(e.to_string()), polls),
            }
        };
        let (mut framing, mut body, mut buf) = (BodyFraming::new(start.body), vec![], [0u8; 64]);
        loop {
            match framing.read(conn, &mut buf) {
                Ok(0) => return (Ok((start, body)), polls),
                Ok(n) => body.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => polls += 1,
                Err(e) => return (Err(e.to_string()), polls),
            }
        }
    }

    #[test]
    fn an_exchange_resumes_after_every_would_block() {
        use httpwire::parse::MAX_INTERIM_RESPONSES;
        // Interim `100` and `102` heads, then a chunked body whose size
        // lines (one with an extension) and trailers straddle every read;
        // the next message must stay on the wire.
        let response = |interims: usize| {
            let interim = ["HTTP/1.1 100 Continue\r\n\r\n", "HTTP/1.1 102 Processing\r\n\r\n"];
            let mut wire: String = (0..interims).map(|i| interim[i % 2]).collect();
            wire += "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Pad: padding\r\n\r\n\
                     5;ext=1\r\nhello\r\n1a\r\nabcdefghijklmnopqrstuvwxyz\r\n0\r\n\
                     X-Trailer: v\r\nX-Other: w\r\n\r\nNEXT";
            wire.into_bytes()
        };
        for interims in [0, 2, MAX_INTERIM_RESPONSES, MAX_INTERIM_RESPONSES + 1] {
            let mut blocking = Scripted::conn(response(interims), false);
            let mut trickling = Scripted::conn(response(interims), true);
            let (want, blocking_polls) = exchange_on(&mut blocking);
            let (got, trickling_polls) = exchange_on(&mut trickling);
            assert_eq!(blocking_polls, 1, "a blocking connection is never Pending");
            let read = trickling.get_ref().pos;
            assert!(trickling_polls > read, "{interims}: a poll per byte or more");
            match (&want, &got) {
                (Ok((want_start, want_body)), Ok((start, body))) => {
                    assert!(interims <= MAX_INTERIM_RESPONSES);
                    assert_eq!(start.head, want_start.head, "{interims}");
                    assert_eq!((start.body, start.reusable), (httpwire::BodyLen::Chunked, true));
                    assert_eq!(body, want_body);
                    assert_eq!(&body[..], b"helloabcdefghijklmnopqrstuvwxyz");
                    assert_eq!(blocking.buffer(), b"NEXT");
                    assert_eq!(
                        (trickling.buffer(), &trickling.get_ref().wire[read..]),
                        (&[][..], &b"NEXT"[..])
                    );
                }
                (Err(want), Err(got)) => {
                    assert_eq!(interims, MAX_INTERIM_RESPONSES + 1);
                    assert_eq!(got, want);
                    assert!(got.contains("interim"), "{got}");
                }
                _ => panic!("{interims}: blocking {want:?}, trickling {got:?}"),
            }
            assert_eq!(trickling.get_ref().written, blocking.get_ref().written);
            assert!(blocking.get_ref().written.starts_with(b"GET /f HTTP/1.1\r\nHost: s\r\n"));
        }
    }

    // ---- bounds on what a peer can make the policy loop do ----------------

    /// A hand-rolled one-connection-at-a-time server: `respond` writes the
    /// answer to each request head it is shown.
    fn raw_server(
        net: &SimNet,
        respond: impl Fn(&httpwire::RequestHead, &mut dyn Write) + Send + 'static,
    ) {
        let listener = net.bind("s", 80).unwrap();
        net.spawn("raw-server", move || loop {
            let Ok((stream, _)) = listener.accept_sim() else { return };
            let mut w = netsim::Stream::try_clone(&stream).unwrap();
            let mut r = std::io::BufReader::new(stream);
            while let Ok(Some(head)) = httpwire::parse::read_request_head(&mut r) {
                respond(&head, &mut w);
            }
        });
    }

    #[test]
    fn a_lying_redirect_body_costs_its_connection_not_the_client() {
        let net = sim();
        // `/f` redirects with a body it claims is a tebibyte long, sends a
        // quarter MiB of it and then just keeps the connection open.
        raw_server(&net, |head, w| {
            if head.target == "/f" {
                let _ = write!(
                    w,
                    "HTTP/1.1 307 Temporary Redirect\r\nLocation: /target\r\n\
                     Content-Length: {}\r\n\r\n",
                    1u64 << 40
                );
                let _ = w.write_all(&vec![b'x'; 256 * 1024]);
            } else {
                let _ = w.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
            }
        });
        let _g = net.enter();
        let ex = executor(&net, Config::default().no_retry());
        let t0 = net.now();
        let resp = ex.execute(&PreparedRequest::get("http://s/f".parse().unwrap())).unwrap();
        assert_eq!(resp.body, b"hello");
        assert_eq!(resp.final_uri.path, "/target");
        let m = ex.metrics().snapshot();
        assert!(
            m.bytes_in <= (MAX_DRAIN_BYTES + 5) as u64,
            "the hop may cost at most the drain cap, read {} bytes",
            m.bytes_in
        );
        assert_eq!(m.sessions_created, 2, "the lying connection is dropped, not recycled");
        assert_eq!(m.sessions_discarded, 1);
        assert!(net.now() - t0 < Config::default().io_timeout, "no wait for the body's end");
    }

    #[test]
    fn a_content_length_that_frames_nothing_is_not_judged() {
        let net = sim();
        // A HEAD response has no body to frame, and chunked framing
        // outranks `Content-Length`: what the field says decides nothing.
        raw_server(&net, |head, w| {
            let _ = match head.method {
                Method::Head => w.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\n",
                ),
                _ => w.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\nTransfer-Encoding: chunked\r\n\r\n\
                      5\r\nhello\r\n0\r\n\r\n",
                ),
            };
        });
        let _g = net.enter();
        let ex = executor(&net, Config::default().no_retry());
        let uri: Uri = "http://s/f".parse().unwrap();
        let resp = ex.execute(&PreparedRequest::head(uri.clone())).unwrap();
        assert!(resp.head.status.is_success() && resp.body.is_empty());
        assert_eq!(ex.execute(&PreparedRequest::get(uri)).unwrap().body, b"hello");
        let m = ex.metrics().snapshot();
        assert_eq!((m.sessions_created, m.sessions_discarded), (1, 0), "one session served both");
    }

    #[test]
    fn endless_interim_responses_are_a_protocol_error_and_drop_the_session() {
        let net = sim();
        raw_server(&net, |_, w| {
            let _ = w.write_all(&b"HTTP/1.1 102 Processing\r\n\r\n".repeat(1000));
        });
        let _g = net.enter();
        let ex = executor(&net, Config::default().no_retry());
        let uri: Uri = "http://s/f".parse().unwrap();
        let err = ex.execute(&PreparedRequest::get(uri.clone())).unwrap_err();
        assert!(matches!(err, DavixError::Protocol(_)), "{err}");
        assert_eq!(ex.pool().idle_count(&crate::Endpoint::of(&uri)), 0);
        assert_eq!(ex.metrics().snapshot().sessions_discarded, 1);
    }

    #[test]
    fn connection_refused_surfaces_after_retries() {
        let net = sim();
        let _g = net.enter();
        let ex = executor(
            &net,
            Config {
                retry: crate::config::RetryPolicy { retries: 1, backoff: Duration::ZERO },
                ..Config::default()
            },
        );
        let err = ex.execute(&PreparedRequest::get("http://s/f".parse().unwrap())).unwrap_err();
        assert!(matches!(err, DavixError::Connection(_)));
        assert_eq!(ex.metrics().snapshot().retries, 1);
    }
}
