//! The server: request/response types, and what an accepted stream becomes.
//!
//! Connections are served by a fixed budget of reactor shard threads rather
//! than one thread each. The accept loop, its
//! [`ServerConfig::max_connections`] backpressure, the reactor and `stop`'s
//! teardown order are [`netsim::ServerCore`]'s, shared with the xrdlite
//! server; what is HTTP's own is the non-blocking connection state machine
//! (the private `conn` module) each accepted stream is submitted as.
//! Handlers stay synchronous per-request.

use crate::conn::HttpConn;
use bytes::Bytes;
use davix_sync::{AtomicU64, Ordering};
use httpwire::parse::{BodyReader, StartReader};
use httpwire::{date, HeadWriter, HeaderMap, RequestHead, StatusCode, Version};
use netsim::{Listener, Runtime, ServerCore};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// A fully-read inbound request.
#[derive(Debug)]
pub struct Request {
    /// Request line and headers.
    pub head: RequestHead,
    /// Request body (empty for bodyless methods).
    pub body: Vec<u8>,
    /// Peer name as reported by the transport.
    pub peer: String,
}

impl Request {
    /// Percent-decoded path.
    pub fn decoded_path(&self) -> String {
        httpwire::uri::percent_decode(self.head.path())
    }
}

/// An outbound response: status, headers and an in-memory body.
///
/// Bodies are `Bytes`, so handlers can hand out zero-copy slices of stored
/// objects.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Response headers (`Content-Length`, `Date`, `Server` are added at
    /// write time).
    pub headers: HeaderMap,
    /// Body payload.
    pub body: Bytes,
    /// Force-close the connection after this response.
    pub close: bool,
}

impl Response {
    /// Empty-bodied response.
    pub fn empty(status: StatusCode) -> Self {
        Response { status, headers: HeaderMap::new(), body: Bytes::new(), close: false }
    }

    /// Response with a body and content type.
    pub fn with_body(status: StatusCode, content_type: &str, body: impl Into<Bytes>) -> Self {
        let mut r = Response::empty(status);
        r.headers.set("Content-Type", content_type);
        r.body = body.into();
        r
    }

    /// `text/plain` convenience.
    pub fn text(status: StatusCode, s: impl Into<String>) -> Self {
        Response::with_body(status, "text/plain", s.into().into_bytes())
    }

    /// Plain-status error with the reason as body.
    pub fn error(status: StatusCode) -> Self {
        Response::text(status, status.reason().to_string())
    }

    /// Add a header (builder style).
    pub fn header(mut self, name: &str, value: impl AsRef<str>) -> Self {
        self.headers.set(name, value);
        self
    }
}

/// Request handler mounted on a server.
pub trait Handler: Send + Sync {
    /// Produce the response for one request.
    fn handle(&self, req: Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// Server tuning and fault-injection knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Close the connection after this many requests (emulates servers that
    /// interrupt long-lived connections; `None` = unlimited).
    pub max_requests_per_conn: Option<u64>,
    /// Virtual CPU/disk time spent on each request before the handler runs
    /// (a timer-wheel deadline, not a sleeping thread).
    pub process_delay: Duration,
    /// Idle timeout on keep-alive connections, enforced by the reactor's
    /// timer wheel on both transports.
    pub idle_timeout: Option<Duration>,
    /// Total budget for receiving one request (head *and* body) once its
    /// first byte has arrived; a slowloris client trickling bytes is
    /// evicted with `408 Request Timeout` when it expires.
    pub header_read_timeout: Option<Duration>,
    /// Advertise and speak HTTP/1.0 semantics (no persistent connections
    /// unless asked) — the "old server" baseline in the F2 experiment.
    pub http10: bool,
    /// Server name advertised in the `Server` header.
    pub name: String,
    /// Reactor shard threads serving all connections (the thread budget).
    pub reactor_threads: usize,
    /// Accept backpressure: the accept loop stops accepting while this many
    /// connections are open.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_requests_per_conn: None,
            process_delay: Duration::ZERO,
            idle_timeout: Some(Duration::from_secs(60)),
            header_read_timeout: Some(Duration::from_secs(30)),
            http10: false,
            name: "dpm-sim/0.1".to_string(),
            reactor_threads: 2,
            max_connections: 8192,
        }
    }
}

/// Aggregate server counters.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests served.
    pub requests: AtomicU64,
    /// Responses that closed the connection.
    pub closes: AtomicU64,
    /// Requests evicted by the header-read (slowloris) timeout.
    pub timeouts: AtomicU64,
    /// High-water mark of concurrently open connections.
    pub peak_open: AtomicU64,
    /// Requests whose handler panicked (answered `500`, connection closed).
    pub handler_panics: AtomicU64,
}

/// The server: a handler plus configuration, servable on any listener.
pub struct HttpServer {
    pub(crate) handler: Arc<dyn Handler>,
    pub(crate) cfg: ServerConfig,
    pub(crate) stats: Arc<ServerStats>,
    core: ServerCore,
}

impl HttpServer {
    /// Create a server around `handler`.
    pub fn new(handler: Arc<dyn Handler>, cfg: ServerConfig) -> Arc<Self> {
        Arc::new(HttpServer {
            handler,
            core: ServerCore::new("httpd", cfg.reactor_threads, cfg.max_connections),
            cfg,
            stats: Arc::new(ServerStats::default()),
        })
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Stop the server: closes every listener, asks in-flight connections
    /// to finish their current request, and blocks until every server
    /// thread is gone — nothing of the server then still holds the handler
    /// (see [`ServerCore::stop`]).
    pub fn stop(&self) {
        self.core.stop();
    }

    /// Number of reactor shard threads still running (0 before the first
    /// `serve` and after `stop`).
    pub fn reactor_threads_live(&self) -> usize {
        self.core.live_threads()
    }

    /// Serve connections from `listener`. Returns immediately: a single
    /// accept thread feeds the server's shared reactor, whose
    /// [`ServerConfig::reactor_threads`] shard threads drive every
    /// connection. May be called multiple times to serve several listeners
    /// on one reactor.
    pub fn serve(self: &Arc<Self>, listener: Box<dyn Listener>, rt: Arc<dyn Runtime>) {
        let (server, clock) = (Arc::clone(self), Arc::clone(&rt));
        self.core.serve(listener, rt, move |stream, peer, open| {
            server.stats.connections.fetch_add(1, Ordering::Relaxed);
            server.stats.peak_open.fetch_max(open as u64, Ordering::Relaxed);
            Box::new(HttpConn::new(stream, peer, Arc::clone(&server), clock.now()))
        });
    }
}

thread_local! {
    /// The `Date` text of the second this thread last answered in.
    static DATE: RefCell<(i64, String)> = const { RefCell::new((i64::MIN, String::new())) };
}

/// Show `f` the current `Date` header value. The text is formatted once a
/// second on each thread, not once a response.
fn with_http_date<R>(f: impl FnOnce(&str) -> R) -> R {
    let now = date::unix_now();
    DATE.with_borrow_mut(|(second, text)| {
        if *second != now {
            (*second, *text) = (now, date::format_http_date(now));
        }
        f(text)
    })
}

/// Finish a response's head where it stands — `Server`, `Date`,
/// `Content-Length` and the connection directive go into the response's own
/// header block — and serialise it onto `out`. Returns the body bytes that
/// follow it: none for `HEAD`/`204`/`304`, which still advertise the length.
pub(crate) fn response_parts(
    cfg: &ServerConfig,
    req_method: &httpwire::Method,
    resp: Response,
    close: bool,
    out: &mut Vec<u8>,
) -> Bytes {
    let Response { status, mut headers, body, .. } = resp;
    headers.set("Server", &cfg.name);
    with_http_date(|date| headers.set("Date", date));
    // HEAD responses advertise the length they *would* have carried.
    let body_is_suppressed =
        *req_method == httpwire::Method::Head || status.0 == 204 || status.0 == 304;
    if !headers.contains("content-length") {
        headers.set_fmt("Content-Length", format_args!("{}", body.len()));
    }
    if close {
        headers.set("Connection", "close");
    } else if cfg.http10 {
        headers.set("Connection", "keep-alive");
    }
    let version = if cfg.http10 { Version::Http10 } else { Version::Http11 };
    let mut head = HeadWriter::response(out, version, status, status.reason());
    head.fields(&headers);
    head.finish();
    if body_is_suppressed {
        Bytes::new()
    } else {
        body
    }
}

/// Read one full response from `r`, interim 1xx responses skipped: the
/// blocking client in miniature, for tests here and downstream and for the
/// bench harness's naive baseline client.
pub fn read_full_response(
    r: &mut impl std::io::BufRead,
    req_method: &httpwire::Method,
) -> Result<(httpwire::ResponseHead, Vec<u8>), httpwire::WireError> {
    let start = StartReader::new(req_method, false).read(r)?;
    let body = BodyReader::new(r, start.body).read_all()?;
    Ok((start.head, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpwire::Method;
    use netsim::{LinkSpec, SimNet};
    use std::io::{BufReader, Write};

    fn echo_server() -> Arc<HttpServer> {
        HttpServer::new(
            Arc::new(|req: Request| {
                let mut body = format!("{} {}", req.head.method, req.head.target).into_bytes();
                if !req.body.is_empty() {
                    body.extend_from_slice(b" body=");
                    body.extend_from_slice(&req.body);
                }
                Response::with_body(StatusCode::OK, "text/plain", body)
            }),
            ServerConfig::default(),
        )
    }

    fn sim_pair() -> (SimNet, Arc<dyn Runtime>) {
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        net.set_link(
            "client",
            "server",
            LinkSpec { delay: Duration::from_millis(1), bandwidth: None, ..Default::default() },
        );
        let rt = net.runtime() as Arc<dyn Runtime>;
        (net, rt)
    }

    fn send(
        stream: &mut impl Write,
        method: Method,
        target: &str,
        body: Option<&[u8]>,
    ) -> RequestHead {
        let mut h = RequestHead::new(method, target);
        h.headers.set("Host", "server");
        if let Some(b) = body {
            h.headers.set("Content-Length", b.len().to_string());
        }
        let mut bytes = h.to_bytes();
        if let Some(b) = body {
            bytes.extend_from_slice(b);
        }
        stream.write_all(&bytes).unwrap();
        h
    }

    #[test]
    fn serves_basic_request() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let mut c = net.connect("client", "server", 80).unwrap();
        send(&mut c, Method::Get, "/hello", None);
        let mut r = BufReader::new(c);
        let (head, body) = read_full_response(&mut r, &Method::Get).unwrap();
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body, b"GET /hello");
        assert!(head.headers.contains("date"));
        assert!(head.headers.contains("server"));
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        let stats = server.stats();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut r = BufReader::new(c);
        for i in 0..5 {
            send(&mut w, Method::Get, &format!("/r{i}"), None);
            let (head, body) = read_full_response(&mut r, &Method::Get).unwrap();
            assert_eq!(head.status, StatusCode::OK);
            assert_eq!(body, format!("GET /r{i}").as_bytes());
            assert!(!head.headers.connection_has("close"));
        }
        assert_eq!(stats.connections.load(Ordering::Relaxed), 1);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn a_panicking_handler_costs_one_request_not_the_shard() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|req: Request| {
                assert_ne!(req.head.target, "/boom", "handler bug");
                Response::text(StatusCode::OK, "fine")
            }),
            ServerConfig { reactor_threads: 1, ..ServerConfig::default() },
        );
        let stats = server.stats();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let get = |target: &str| {
            let mut c = net.connect("client", "server", 80).unwrap();
            send(&mut c, Method::Get, target, None);
            read_full_response(&mut BufReader::new(c), &Method::Get).unwrap()
        };
        let (head, _) = get("/boom");
        assert_eq!(head.status, StatusCode::INTERNAL_SERVER_ERROR);
        assert!(head.headers.connection_has("close"));
        // The one shard that ran the panic still serves a new connection.
        let (head, body) = get("/ok");
        assert_eq!((head.status, &body[..]), (StatusCode::OK, &b"fine"[..]));
        assert_eq!(stats.handler_panics.load(Ordering::Relaxed), 1);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn put_body_reaches_handler() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let mut c = net.connect("client", "server", 80).unwrap();
        send(&mut c, Method::Put, "/obj", Some(b"payload"));
        let mut r = BufReader::new(c);
        let (_, body) = read_full_response(&mut r, &Method::Put).unwrap();
        assert_eq!(body, b"PUT /obj body=payload");
    }

    #[test]
    fn connection_close_is_honoured() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut h = RequestHead::new(Method::Get, "/x");
        h.headers.set("Host", "server");
        h.headers.set("Connection", "close");
        w.write_all(&h.to_bytes()).unwrap();
        let mut r = BufReader::new(c);
        let (head, _) = read_full_response(&mut r, &Method::Get).unwrap();
        assert!(head.headers.connection_has("close"));
        // Next read sees EOF: server closed.
        let mut buf = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut r, &mut buf).unwrap(), 0);
    }

    #[test]
    fn request_cap_forces_close() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "ok")),
            ServerConfig { max_requests_per_conn: Some(2), ..Default::default() },
        );
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut r = BufReader::new(c);
        send(&mut w, Method::Get, "/1", None);
        let (h1, _) = read_full_response(&mut r, &Method::Get).unwrap();
        assert!(!h1.headers.connection_has("close"));
        send(&mut w, Method::Get, "/2", None);
        let (h2, _) = read_full_response(&mut r, &Method::Get).unwrap();
        assert!(h2.headers.connection_has("close"));
    }

    #[test]
    fn head_suppresses_body_but_keeps_length() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "0123456789")),
            ServerConfig::default(),
        );
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut r = BufReader::new(c);
        send(&mut w, Method::Head, "/x", None);
        let (head, body) = read_full_response(&mut r, &Method::Head).unwrap();
        assert_eq!(head.headers.content_length().unwrap(), Some(10));
        assert!(body.is_empty());
        // Connection still usable.
        send(&mut w, Method::Get, "/x", None);
        let (_, body) = read_full_response(&mut r, &Method::Get).unwrap();
        assert_eq!(body, b"0123456789");
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        // Fire three requests back to back without reading.
        for i in 0..3 {
            send(&mut w, Method::Get, &format!("/p{i}"), None);
        }
        let mut r = BufReader::new(c);
        for i in 0..3 {
            let (_, body) = read_full_response(&mut r, &Method::Get).unwrap();
            assert_eq!(body, format!("GET /p{i}").as_bytes());
        }
    }

    #[test]
    fn expect_100_continue_gets_interim_response_before_body() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut h = RequestHead::new(Method::Put, "/obj");
        h.headers.set("Host", "server");
        h.headers.set("Expect", "100-continue");
        h.headers.set("Content-Length", "7");
        w.write_all(&h.to_bytes()).unwrap();
        // The interim response must arrive while the body is still parked.
        let mut r = BufReader::new(c);
        let interim = httpwire::parse::read_response_head(&mut r).unwrap();
        assert_eq!(interim.status.0, 100);
        w.write_all(b"payload").unwrap();
        let (head, body) = read_full_response(&mut r, &Method::Put).unwrap();
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body, b"PUT /obj body=payload");
        // Connection is still usable afterwards.
        send(&mut w, Method::Get, "/again", None);
        let (_, body) = read_full_response(&mut r, &Method::Get).unwrap();
        assert_eq!(body, b"GET /again");
    }

    /// Send `wire` on a fresh connection and return the first response
    /// head (an interim one is not skipped: whether one is sent is under
    /// test), the body that came with it, and whether the server then closed.
    fn raw_exchange(net: &SimNet, wire: &[u8]) -> (httpwire::ResponseHead, Vec<u8>, bool) {
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        // The server may answer and close before the last byte is written.
        let _ = w.write_all(wire);
        let mut r = BufReader::new(c);
        let head = httpwire::parse::read_response_head(&mut r).unwrap();
        let len = httpwire::parse::response_body_len(&Method::Put, &head).unwrap();
        let body = BodyReader::new(&mut r, len).read_all().unwrap();
        let closed = matches!(std::io::Read::read(&mut r, &mut [0u8; 1]), Ok(0) | Err(_));
        (head, body, closed)
    }

    #[test]
    fn continue_is_sent_only_once_the_framing_is_settled() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        // Invalid Content-Length: the first (and only) answer is the 400,
        // not "100 Continue" followed by a rejection.
        let (head, _, closed) = raw_exchange(
            &net,
            b"PUT /obj HTTP/1.1\r\nHost: server\r\nExpect: 100-continue\r\n\
              Content-Length: seven\r\n\r\n",
        );
        assert_eq!(head.status, StatusCode::BAD_REQUEST);
        assert!(closed);
        // No body to wait for: no interim response, straight to the handler.
        let (head, body, _) = raw_exchange(
            &net,
            b"PUT /empty HTTP/1.1\r\nHost: server\r\nExpect: 100-continue\r\n\
              Connection: close\r\n\r\n",
        );
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body, b"PUT /empty");
    }

    #[test]
    fn malformed_chunked_bodies_get_400_and_close() {
        let (net, rt) = sim_pair();
        let server = echo_server();
        let stats = server.stats();
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let cases: [(&str, Vec<u8>); 5] = [
            ("signed chunk size", b"+5\r\nhello\r\n0\r\n\r\n".to_vec()),
            ("non-hex chunk size", b"five\r\nhello\r\n0\r\n\r\n".to_vec()),
            ("chunk not followed by CRLF", b"5\r\nhelloXX0\r\n\r\n".to_vec()),
            ("chunk-size line over 1 KiB", [b"5;".to_vec(), vec![b'x'; 2048]].concat()),
            // No terminating blank line in sight: refused at 8 KiB, not when
            // the header-read timer fires.
            ("trailer flood", [b"0\r\n".to_vec(), b"X: y\r\n".repeat(2000)].concat()),
        ];
        for (what, body) in &cases {
            let mut wire =
                b"PUT /obj HTTP/1.1\r\nHost: server\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            wire.extend_from_slice(body);
            let (head, _, closed) = raw_exchange(&net, &wire);
            assert_eq!(head.status, StatusCode::BAD_REQUEST, "{what}");
            assert!(head.headers.connection_has("close"), "{what}");
            assert!(closed, "{what}: the connection must not be reused");
        }
        assert_eq!(stats.requests.load(Ordering::Relaxed), 0, "no handler saw a bad body");
        assert_eq!(stats.timeouts.load(Ordering::Relaxed), 0, "rejected by framing, not by timer");
        // A well-formed chunked body, extensions and trailers included,
        // still reaches the handler.
        let (head, body, _) = raw_exchange(
            &net,
            b"PUT /ok HTTP/1.1\r\nHost: server\r\nTransfer-Encoding: chunked\r\n\
              Connection: close\r\n\r\n3;x=y\r\nabc\r\n2\r\nde\r\n0\r\nX-Sum: 1\r\n\r\n",
        );
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body, b"PUT /ok body=abcde");
    }

    #[test]
    fn http10_mode_closes_by_default() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "ok")),
            ServerConfig { http10: true, ..Default::default() },
        );
        server.serve(Box::new(net.bind("server", 80).unwrap()), rt);
        let _g = net.enter();
        let mut c = net.connect("client", "server", 80).unwrap();
        send(&mut c, Method::Get, "/x", None);
        let mut r = BufReader::new(c);
        let (head, body) = read_full_response(&mut r, &Method::Get).unwrap();
        assert_eq!(head.version, Version::Http10);
        assert_eq!(body, b"ok");
        let mut buf = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut r, &mut buf).unwrap(), 0, "server must close");
    }

    #[test]
    fn idle_timer_rearms_on_keep_alive_activity() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "ok")),
            ServerConfig { idle_timeout: Some(Duration::from_millis(100)), ..Default::default() },
        );
        server.serve(Box::new(net.bind("server", 80).unwrap()), Arc::clone(&rt));
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut r = BufReader::new(c);
        // Three requests spaced inside the idle window: cumulative elapsed
        // time far exceeds the timeout, but each request re-arms it.
        for i in 0..3 {
            send(&mut w, Method::Get, &format!("/r{i}"), None);
            let (head, _) = read_full_response(&mut r, &Method::Get).unwrap();
            assert_eq!(head.status, StatusCode::OK, "request {i} after re-arm");
            rt.sleep(Duration::from_millis(60));
        }
        // Now actually go idle past the window: the server closes silently.
        rt.sleep(Duration::from_millis(150));
        let mut buf = [0u8; 1];
        assert_eq!(
            std::io::Read::read(&mut r, &mut buf).unwrap(),
            0,
            "idle expiry must close the connection"
        );
    }

    #[test]
    fn slowloris_header_trickle_is_evicted_with_408() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "ok")),
            ServerConfig {
                header_read_timeout: Some(Duration::from_millis(50)),
                ..Default::default()
            },
        );
        let stats = server.stats();
        server.serve(Box::new(net.bind("server", 80).unwrap()), Arc::clone(&rt));
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        // Trickle one header byte per 20 ms, never finishing the head.
        let _ = w.write_all(b"GET / HTTP/1.1\r\nHost: server\r\nX-Slow: ");
        for _ in 0..5 {
            rt.sleep(Duration::from_millis(20));
            let _ = w.write_all(b"y");
        }
        let mut r = BufReader::new(c);
        let (head, _) = read_full_response(&mut r, &Method::Get).unwrap();
        assert_eq!(head.status.0, 408);
        let mut buf = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut r, &mut buf).unwrap(), 0, "408 closes");
        assert_eq!(stats.timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn slowloris_stalled_body_is_evicted_mid_request() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "ok")),
            ServerConfig {
                header_read_timeout: Some(Duration::from_millis(50)),
                ..Default::default()
            },
        );
        let stats = server.stats();
        server.serve(Box::new(net.bind("server", 80).unwrap()), Arc::clone(&rt));
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        // Complete head, then stall three bytes into a ten-byte body: the
        // budget covers the whole request, so the head alone does not
        // reset the clock.
        let mut h = RequestHead::new(Method::Put, "/obj");
        h.headers.set("Host", "server");
        h.headers.set("Content-Length", "10");
        let _ = w.write_all(&h.to_bytes());
        let _ = w.write_all(b"abc");
        rt.sleep(Duration::from_millis(100));
        let mut r = BufReader::new(c);
        let (head, _) = read_full_response(&mut r, &Method::Put).unwrap();
        assert_eq!(head.status.0, 408);
        assert_eq!(stats.timeouts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn accept_backpressure_bounds_open_connections() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "ok")),
            ServerConfig { max_connections: 2, ..Default::default() },
        );
        let stats = server.stats();
        server.serve(Box::new(net.bind("server", 80).unwrap()), Arc::clone(&rt));
        let _g = net.enter();
        // Fill both slots.
        let c1 = net.connect("client", "server", 80).unwrap();
        let mut w1 = netsim::Stream::try_clone(&c1).unwrap();
        let mut r1 = BufReader::new(c1);
        send(&mut w1, Method::Get, "/a", None);
        read_full_response(&mut r1, &Method::Get).unwrap();
        let c2 = net.connect("client", "server", 80).unwrap();
        let mut w2 = netsim::Stream::try_clone(&c2).unwrap();
        let mut r2 = BufReader::new(c2);
        send(&mut w2, Method::Get, "/b", None);
        read_full_response(&mut r2, &Method::Get).unwrap();
        // A third connection establishes (kernel backlog) but is not
        // accepted — its request sits unanswered until a slot frees.
        let c3 = net.connect("client", "server", 80).unwrap();
        let mut w3 = netsim::Stream::try_clone(&c3).unwrap();
        let mut r3 = BufReader::new(c3);
        send(&mut w3, Method::Get, "/c", None);
        // Free a slot; the accept loop picks up the queued connection.
        drop(w1);
        drop(r1);
        let (head, _) = read_full_response(&mut r3, &Method::Get).unwrap();
        assert_eq!(head.status, StatusCode::OK);
        assert!(
            stats.peak_open.load(Ordering::Relaxed) <= 2,
            "backpressure must cap concurrently open connections at 2, saw {}",
            stats.peak_open.load(Ordering::Relaxed)
        );
        assert_eq!(stats.connections.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn stop_drains_in_flight_request_and_joins_reactor_threads() {
        let (net, rt) = sim_pair();
        let server = HttpServer::new(
            Arc::new(|_req: Request| Response::text(StatusCode::OK, "done")),
            ServerConfig { process_delay: Duration::from_millis(50), ..Default::default() },
        );
        server.serve(Box::new(net.bind("server", 80).unwrap()), Arc::clone(&rt));
        let _g = net.enter();
        let c = net.connect("client", "server", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&c).unwrap();
        let mut r = BufReader::new(c);
        send(&mut w, Method::Get, "/slow", None);
        // Let the request reach the server; its response is still pending
        // behind the processing delay when stop() lands.
        rt.sleep(Duration::from_millis(10));
        assert_eq!(server.reactor_threads_live(), ServerConfig::default().reactor_threads);
        server.stop();
        assert_eq!(server.reactor_threads_live(), 0, "shard threads must join");
        // The in-flight request was answered, not dropped.
        let (head, body) = read_full_response(&mut r, &Method::Get).unwrap();
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body, b"done");
        assert!(head.headers.connection_has("close"));
    }

    #[test]
    fn serves_keep_alive_over_real_tcp() {
        let rt: Arc<dyn Runtime> = Arc::new(netsim::RealRuntime::new());
        let listener = netsim::TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = Listener::local_port(&listener);
        let server = echo_server();
        server.serve(Box::new(listener), rt);
        let mut c = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        for i in 0..3 {
            send(&mut c, Method::Get, &format!("/t{i}"), None);
            let (head, body) = read_full_response(&mut r, &Method::Get).unwrap();
            assert_eq!(head.status, StatusCode::OK);
            assert_eq!(body, format!("GET /t{i}").as_bytes());
        }
        server.stop();
        assert_eq!(server.reactor_threads_live(), 0);
    }

    #[test]
    fn stop_over_real_tcp_leaves_no_thread_holding_the_handler() {
        // What the handler owns (a store full of objects, say) must go when
        // the caller lets go of the server, not when an accept thread gets
        // round to noticing its listener closed.
        struct Marker;
        let marker = Arc::new(Marker);
        let held = Arc::clone(&marker);
        let rt: Arc<dyn Runtime> = Arc::new(netsim::RealRuntime::new());
        let listener = netsim::TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = Listener::local_port(&listener);
        let server = HttpServer::new(
            Arc::new(move |_req: Request| {
                let _ = &held;
                Response::text(StatusCode::OK, "ok")
            }),
            ServerConfig::default(),
        );
        server.serve(Box::new(listener), rt);
        let mut c = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        send(&mut c, Method::Get, "/", None);
        let mut r = BufReader::new(c.try_clone().unwrap());
        assert_eq!(read_full_response(&mut r, &Method::Get).unwrap().0.status, StatusCode::OK);
        server.stop();
        drop(server);
        assert_eq!(Arc::strong_count(&marker), 1, "a server thread outlived stop()");
    }
}
