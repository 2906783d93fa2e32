//! Request execution: pool checkout → write → parse → recycle, plus the
//! retry and redirect policies.
//!
//! Two consumption models share one wire path:
//!
//! * [`HttpExecutor::execute_streaming`] returns a [`ResponseStream`] that
//!   owns the pooled session and yields body bytes incrementally — nothing
//!   proportional to the body is ever buffered;
//! * [`HttpExecutor::execute`] is a thin collect-to-`Vec` wrapper over it
//!   for callers that want the whole body in memory.
//!
//! The write direction mirrors the read one:
//! [`HttpExecutor::execute_upload`] streams a request body from a
//! [`BodyProvider`] straight onto the pooled connection (`Content-Length`
//! or chunked framing via [`httpwire::BodySource`]), negotiates
//! `Expect: 100-continue` so a rejecting server never eats the payload, and
//! *replays* the body — a fresh reader per attempt — across retries and
//! 307/308-style redirect hops, all under the shared retry budget.

use crate::config::Config;
use crate::error::{DavixError, Result};
use crate::metrics::Metrics;
use crate::pool::{Endpoint, Session, SessionPool};
use bytes::Bytes;
use httpwire::body::BodySource;
use httpwire::parse::{read_response_start, BodyFraming, ResponseStart};
use httpwire::{HeaderMap, Method, RequestHead, ResponseHead, StatusCode, Uri, Version, WireError};
use netsim::{Connector, Runtime};
use std::io::{BufRead, Read, Write};
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
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
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

/// Don't trust `Content-Length` for more than this much up-front `Vec`
/// capacity when collecting a body (a lying header must not OOM the client).
const MAX_BODY_PREALLOC: u64 = 1 << 20;

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
            cfg.idle_session_ttl,
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
        // One retry budget shared between head-stage failures (inside
        // `execute_streaming_with_budget`) and body-collect failures (here),
        // exactly like the pre-streaming executor's single counter — the
        // two loops must not multiply the configured budget.
        let mut attempts = 0u32;
        loop {
            let stream = self.execute_streaming_with_budget(req, &mut attempts)?;
            match stream.into_response() {
                Ok(resp) => return Ok(resp),
                Err(error) => {
                    // The head arrived but the body broke under us: retry the
                    // whole exchange when that is safe.
                    if error.is_retryable()
                        && req.method.is_idempotent()
                        && attempts < self.cfg.retry.retries
                    {
                        attempts += 1;
                        Metrics::bump(&self.metrics.retries);
                        self.backoff_sleep(attempts);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
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
        self.execute_streaming_with_budget(req, &mut 0)
    }

    /// [`execute_streaming`](Self::execute_streaming) with the retry counter
    /// owned by the caller, so `execute` (and the streaming read paths in
    /// `file.rs`) can share one budget across the head stage and their own
    /// body-read retries instead of multiplying it.
    pub(crate) fn execute_streaming_with_budget(
        &self,
        req: &PreparedRequest,
        attempts: &mut u32,
    ) -> Result<ResponseStream<'_>> {
        let mut uri = req.uri.clone();
        let mut redirects = 0u32;
        let mut stale_retries = 0u32;
        loop {
            match self.try_once(req, &uri) {
                Ok(raw) => {
                    let stream = self.make_stream(raw, uri.clone());
                    if stream.head.status.is_redirect() {
                        if let Some(loc) = stream.head.headers.get("location").map(str::to_string) {
                            redirects += 1;
                            if redirects > self.cfg.max_redirects {
                                return Err(DavixError::RedirectLoop(self.cfg.max_redirects));
                            }
                            Metrics::bump(&self.metrics.redirects);
                            // Consume the redirect body (so the session can
                            // be recycled for the next hop) only when that
                            // is worth anything; a broken body only costs us
                            // the connection.
                            stream.finish();
                            uri = uri.resolve_location(&loc).map_err(DavixError::from)?;
                            *attempts = 0;
                            continue;
                        }
                    }
                    // 5xx on an idempotent request: retry within budget (the
                    // server may recover — matches libdavix's behaviour).
                    if stream.head.status.is_server_error()
                        && req.method.is_idempotent()
                        && *attempts < self.cfg.retry.retries
                    {
                        *attempts += 1;
                        Metrics::bump(&self.metrics.retries);
                        stream.finish();
                        self.backoff_sleep(*attempts);
                        continue;
                    }
                    return Ok(stream);
                }
                Err(TryError { error, stale }) => {
                    if stale && stale_retries < MAX_STALE_RETRIES {
                        // The recycled connection had died under us; the
                        // request never reached the application. Retry on a
                        // fresh connection without burning retry budget.
                        stale_retries += 1;
                        continue;
                    }
                    let retryable = error.is_retryable() && req.method.is_idempotent();
                    if retryable && *attempts < self.cfg.retry.retries {
                        *attempts += 1;
                        Metrics::bump(&self.metrics.retries);
                        self.backoff_sleep(*attempts);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
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
    ///   nothing within [`Config::expect_continue_timeout`] receives the
    ///   body anyway (RFC 7231 §5.1.1);
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
        let mut attempts = 0u32;
        let mut uri = req.uri.clone();
        let mut redirects = 0u32;
        let mut stale_retries = 0u32;
        let upload_retry = |attempts: &mut u32| {
            *attempts += 1;
            Metrics::bump(&self.metrics.retries);
            Metrics::bump(&self.metrics.upload_retries);
            self.backoff_sleep(*attempts);
        };
        loop {
            match self.try_upload_once(req, &uri, body) {
                Ok(raw) => {
                    let stream = self.make_stream(raw, uri.clone());
                    if stream.head.status.is_redirect() {
                        if let Some(loc) = stream.head.headers.get("location").map(str::to_string) {
                            redirects += 1;
                            if redirects > self.cfg.max_redirects {
                                return Err(DavixError::RedirectLoop(self.cfg.max_redirects));
                            }
                            Metrics::bump(&self.metrics.redirects);
                            stream.finish();
                            uri = uri.resolve_location(&loc).map_err(DavixError::from)?;
                            attempts = 0;
                            continue;
                        }
                    }
                    if stream.head.status.is_server_error()
                        && req.method.is_idempotent()
                        && attempts < self.cfg.retry.retries
                    {
                        stream.finish();
                        upload_retry(&mut attempts);
                        continue;
                    }
                    match stream.into_response() {
                        Ok(resp) => return Ok(resp),
                        Err(error) => {
                            // The head arrived but the (small) response body
                            // broke: retry the whole exchange when safe.
                            if error.is_retryable()
                                && req.method.is_idempotent()
                                && attempts < self.cfg.retry.retries
                            {
                                upload_retry(&mut attempts);
                                continue;
                            }
                            return Err(error);
                        }
                    }
                }
                Err(TryError { error, stale }) => {
                    if stale && stale_retries < MAX_STALE_RETRIES {
                        stale_retries += 1;
                        continue;
                    }
                    if error.is_retryable()
                        && req.method.is_idempotent()
                        && attempts < self.cfg.retry.retries
                    {
                        upload_retry(&mut attempts);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
    }

    /// One upload exchange: checkout, write head, negotiate
    /// `Expect: 100-continue`, stream the body, read the final head.
    fn try_upload_once(
        &self,
        req: &PreparedRequest,
        uri: &Uri,
        body: &dyn BodyProvider,
    ) -> std::result::Result<RawStream, TryError> {
        let source = body.open().map_err(|error| TryError { error, stale: false })?;
        let ep = Endpoint::of(uri);
        let mut session =
            self.pool.acquire(&ep).map_err(|error| TryError { error, stale: false })?;
        let reused = session.reused;

        let mut head = self.request_head(req, uri);
        source.apply_framing(&mut head.headers);
        // `u64::MAX` disables Expect for *every* body, including
        // unknown-length ones (which otherwise always negotiate).
        let expect = self.cfg.expect_continue_threshold != u64::MAX
            && !source.is_empty()
            && source.len().is_none_or(|n| n >= self.cfg.expect_continue_threshold);
        if expect {
            head.headers.set("Expect", "100-continue");
        }

        Metrics::bump(&self.metrics.requests);
        session.note_request();
        let wire = head.to_bytes();
        Metrics::add(&self.metrics.bytes_out, wire.len() as u64);
        if let Err(e) = session.writer.write_all(&wire) {
            self.pool.release(session, false);
            return Err(TryError { error: e.into(), stale: reused });
        }

        if expect {
            match self.await_continue(&mut session, &req.method) {
                AwaitContinue::Proceed => {}
                AwaitContinue::Timeout => {} // send the body anyway (§5.1.1)
                AwaitContinue::Final(mut start) => {
                    // The server answered without wanting the body (reject,
                    // redirect). The payload was never sent — that is the
                    // whole point of Expect — but the server may still be
                    // waiting for body bytes, so the connection cannot be
                    // recycled after this response.
                    start.reusable = false;
                    return Ok(RawStream { start, session });
                }
                AwaitContinue::Dead(error) => {
                    let stale = reused
                        && matches!(&error, DavixError::Connection(io)
                            if io.kind() == std::io::ErrorKind::UnexpectedEof);
                    self.pool.release(session, false);
                    return Err(TryError { error, stale });
                }
            }
        }

        match source.write_to(&mut session.writer) {
            Ok(n) => {
                Metrics::add(&self.metrics.bytes_out, n);
                Metrics::add(&self.metrics.bytes_uploaded, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Our own source ended short of its declared length: a
                // caller-side fault (file truncated under us), never
                // retryable — a replay would lie to the server again.
                self.pool.release(session, false);
                return Err(TryError {
                    error: DavixError::InvalidArgument(e.to_string()),
                    stale: false,
                });
            }
            Err(e) => {
                // Transport died mid-body — often because the server
                // already answered (reject + close). Salvage that final
                // response if it made it onto the wire: it explains the
                // failure far better than "broken pipe".
                if let Ok(mut start) = read_response_start(&mut session.reader, &req.method, false)
                {
                    start.reusable = false;
                    return Ok(RawStream { start, session });
                }
                self.pool.release(session, false);
                return Err(TryError { error: e.into(), stale: false });
            }
        }

        // A slow server's `100 Continue` may still arrive here, after our
        // wait already timed out.
        self.read_start(session, &req.method)
    }

    /// The request head every exchange starts from.
    fn request_head(&self, req: &PreparedRequest, uri: &Uri) -> RequestHead {
        let mut head = RequestHead::new(req.method.clone(), uri.request_target());
        head.version = Version::Http11;
        head.headers = req.headers.clone();
        head.headers.set("Host", uri.authority());
        head.headers.set("User-Agent", &self.cfg.user_agent);
        head
    }

    /// The request is on the wire: read the final response head (interim
    /// 1xx responses are skipped), leaving the body for the
    /// [`ResponseStream`]. EOF on a recycled session before any response
    /// byte means the server had already closed it: stale, not failed.
    fn read_start(
        &self,
        mut session: Session,
        method: &Method,
    ) -> std::result::Result<RawStream, TryError> {
        match read_response_start(&mut session.reader, method, false) {
            Ok(start) => Ok(RawStream { start, session }),
            Err(e) => {
                let stale = session.reused && matches!(e, WireError::UnexpectedEof);
                self.pool.release(session, false);
                Err(TryError { error: e.into(), stale })
            }
        }
    }

    /// Wait briefly for the `Expect: 100-continue` verdict: the interim
    /// `100`, a final response, silence (timeout) or a dead connection.
    /// Peeks via `fill_buf` under a temporarily shortened read timeout so a
    /// timeout consumes nothing.
    fn await_continue(&self, session: &mut Session, method: &Method) -> AwaitContinue {
        if session
            .reader
            .get_mut()
            .set_read_timeout(Some(self.cfg.expect_continue_timeout))
            .is_err()
        {
            return AwaitContinue::Timeout; // transport without timeouts: just send
        }
        let peek = session.reader.fill_buf().map(|b| b.is_empty());
        let _ = session.reader.get_mut().set_read_timeout(Some(self.cfg.io_timeout));
        match peek {
            Ok(true) => AwaitContinue::Dead(DavixError::Connection(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed while awaiting 100 Continue",
            ))),
            // A head is on the wire; under the restored io_timeout now.
            Ok(false) => match read_response_start(&mut session.reader, method, true) {
                Ok(start) if start.head.status == StatusCode::CONTINUE => AwaitContinue::Proceed,
                Ok(start) => AwaitContinue::Final(start),
                Err(e) => AwaitContinue::Dead(e.into()),
            },
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                AwaitContinue::Timeout
            }
            Err(e) => AwaitContinue::Dead(e.into()),
        }
    }

    /// Sleep the exponential backoff for retry number `attempts` (1-based).
    /// `checked_mul` + a ceiling keep any configured backoff/retry count
    /// from overflowing `Duration` (which panics in `Duration * u32`).
    pub(crate) fn backoff_sleep(&self, attempts: u32) {
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
            executor: self,
            session: Some(raw.session),
            framing: BodyFraming::new(raw.start.body),
        };
        // Bodyless responses (HEAD, 204, 304…) are already complete: the
        // session goes straight back to the pool.
        if stream.framing.is_done() {
            stream.release(keep_alive);
        }
        stream
    }

    /// One request/response exchange: checkout, write, read the head — the
    /// body stays on the wire for the [`ResponseStream`] to consume.
    fn try_once(
        &self,
        req: &PreparedRequest,
        uri: &Uri,
    ) -> std::result::Result<RawStream, TryError> {
        let ep = Endpoint::of(uri);
        let mut session =
            self.pool.acquire(&ep).map_err(|error| TryError { error, stale: false })?;
        let reused = session.reused;

        // Serialize head + body into one buffer → one transport write → the
        // whole request travels in one segment train.
        let mut head = self.request_head(req, uri);
        if let Some(body) = &req.body {
            head.headers.set("Content-Length", body.len().to_string());
        }
        let mut wire = head.to_bytes();
        if let Some(body) = &req.body {
            wire.extend_from_slice(body);
        }

        Metrics::bump(&self.metrics.requests);
        Metrics::add(&self.metrics.bytes_out, wire.len() as u64);
        // `bytes_uploaded` counts *payload* stores only — a PROPFIND or
        // multipart-complete XML body is protocol chatter, not an upload.
        if let (Method::Put, Some(body)) = (&req.method, &req.body) {
            Metrics::add(&self.metrics.bytes_uploaded, body.len() as u64);
        }
        session.note_request();

        if let Err(e) = session.writer.write_all(&wire) {
            self.pool.release(session, false);
            return Err(TryError { error: e.into(), stale: reused });
        }

        self.read_start(session, &req.method)
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
    executor: &'a HttpExecutor,
    session: Option<Session>,
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
    /// doing so can return the session to the pool (keep-alive allowed),
    /// otherwise drop the connection immediately — reading a
    /// `Connection: close` (possibly close-delimited, unbounded) body to
    /// EOF would buy nothing.
    pub fn finish(mut self) {
        if self.keep_alive {
            let _ = self.drain();
        } else {
            self.release(false);
        }
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
        if let Some(n) = self.head.headers.content_length() {
            body.reserve(n.min(MAX_BODY_PREALLOC) as usize);
        }
        Read::read_to_end(&mut self, &mut body).map_err(body_read_error)?;
        Metrics::record_max(&self.executor.metrics.peak_body_buffer, body.len() as u64);
        Ok(HttpResponse {
            head: std::mem::replace(&mut self.head, ResponseHead::new(StatusCode(200))),
            body,
            final_uri: self.final_uri.clone(),
        })
    }

    fn release(&mut self, reusable: bool) {
        if let Some(session) = self.session.take() {
            self.executor.pool.release(session, reusable);
        }
    }
}

impl Read for ResponseStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(session) = self.session.as_mut() else {
            return Ok(0); // fully drained earlier (session already pooled)
        };
        match self.framing.read(&mut session.reader, buf) {
            Ok(n) => {
                if n > 0 {
                    Metrics::add(&self.executor.metrics.bytes_in, n as u64);
                    Metrics::add(&self.executor.metrics.bytes_streamed, n as u64);
                }
                if self.framing.is_done() {
                    let keep = self.keep_alive;
                    self.release(keep);
                }
                Ok(n)
            }
            Err(e) => {
                // Framing violated or transport died: the connection is no
                // longer positioned at a message boundary.
                self.release(false);
                Err(e)
            }
        }
    }
}

impl Drop for ResponseStream<'_> {
    fn drop(&mut self) {
        // Still holding the session here means body bytes are unread: the
        // connection is mid-message and must not be recycled.
        self.release(false);
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

/// Verdict of the `Expect: 100-continue` wait.
enum AwaitContinue {
    /// The server said `100` (or another interim code): send the body.
    Proceed,
    /// Silence within the window: send the body anyway (RFC 7231 §5.1.1).
    Timeout,
    /// A final response arrived instead — the body must **not** be sent.
    Final(ResponseStart),
    /// The connection died while waiting.
    Dead(DavixError),
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
                Response::empty(StatusCode::FOUND).header("Location", req.head.target.clone())
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
